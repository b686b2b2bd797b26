"""CLI smoke tests (fast settings)."""

import pytest

from repro.cli import build_parser, main

FAST = ["--windows", "6", "--seed", "11"]


def test_parser_builds():
    build_parser()


def test_corpus_command(capsys, tmp_path):
    csv = tmp_path / "c.csv"
    arff = tmp_path / "c.arff"
    rc = main(["corpus", *FAST, "--csv", str(csv), "--arff", str(arff)])
    assert rc == 0
    assert csv.exists() and arff.exists()
    assert "122 applications" in capsys.readouterr().out


def test_rank_command(capsys):
    rc = main(["rank", *FAST, "--top", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert out.count(". ") >= 5


def test_evaluate_command(capsys):
    rc = main(["evaluate", *FAST, "--classifier", "OneR", "--hpcs", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2HPC-OneR" in out
    assert "accuracy=" in out


def test_matrix_command(capsys):
    rc = main([
        "matrix", *FAST,
        "--classifiers", "OneR",
        "--budgets", "4", "2",
        "--ensembles", "general",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "Table 2" in out
    assert "Figure 5" in out


def test_monitor_command(capsys):
    rc = main([
        "monitor", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "6", "--windows", "8",
    ])
    assert rc == 0
    assert "application-level accuracy" in capsys.readouterr().out


def test_unknown_classifier_rejected():
    with pytest.raises(SystemExit):
        main(["evaluate", "--classifier", "XGBoost"])


def test_verilog_command(capsys, tmp_path):
    out = tmp_path / "detector.v"
    rc = main([
        "verilog", *FAST,
        "--classifier", "OneR", "--hpcs", "2", "--output", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "module oner_detector" in text
    assert "endmodule" in text
    assert "monitored events" in capsys.readouterr().out


def test_verilog_failed_write_keeps_previous_output(tmp_path, capped_python):
    """``--output`` writes atomically: a write that dies mid-way (the
    file-size limit stands in for a full disk) is a clean error and the
    previous RTL stays whole."""
    out = tmp_path / "detector.v"
    out.write_text("// previous RTL\n")
    args = ["verilog", *FAST, "--classifier", "OneR", "--hpcs", "2",
            "--output", str(out)]
    result = capped_python(
        f"from repro.cli import main\nmain({args!r})\n", limit=8
    )
    assert out.read_text() == "// previous RTL\n"
    assert "error: [Errno 27] File too large" in result.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["detector.v"]


def test_verilog_to_stdout(capsys):
    rc = main(["verilog", *FAST, "--classifier", "JRip", "--hpcs", "2",
               "--module", "custom_name"])
    assert rc == 0
    assert "module custom_name" in capsys.readouterr().out


def test_crossval_command(capsys):
    rc = main([
        "crossval", *FAST,
        "--classifiers", "OneR", "--hpcs", "2", "--folds", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "±" in out
    assert "2HPC-OneR" in out


def test_evasion_command(capsys):
    rc = main([
        "evasion", *FAST,
        "--classifier", "OneR", "--hpcs", "2", "--strengths", "0", "0.6",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "payload kept" in out
    assert "60%" in out


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro-hmd {__version__}" in capsys.readouterr().out


def test_matrix_trace_and_metrics_out(capsys, tmp_path):
    """--trace-out/--metrics-out produce files stats can render, and the
    top-level stage spans account for the command's wall time."""
    import time

    from repro.obs import load_metrics, load_trace, toplevel_wall_seconds

    trace = tmp_path / "run.jsonl"
    metrics = tmp_path / "run.json"
    start = time.perf_counter()
    rc = main([
        "matrix", *FAST,
        "--classifiers", "OneR", "--budgets", "2", "--ensembles", "general",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    wall = time.perf_counter() - start
    assert rc == 0
    capsys.readouterr()

    events = load_trace(trace)
    names = {e["name"] for e in events}
    assert {"cli.corpus", "cli.grid", "cli.render", "matrix.fit",
            "matrix.cell"} <= names
    # Acceptance: root-span totals sum to within 5% of measured wall time.
    traced = toplevel_wall_seconds(events)
    assert traced <= wall * 1.01
    assert traced >= wall * 0.95

    snap = load_metrics(metrics)
    assert snap["counters"]["matrix_cells_computed_total"]["value"] == 1.0
    assert snap["histograms"]["matrix_fit_seconds"]["count"] == 1

    rc = main(["stats", "--trace", str(trace), "--metrics", str(metrics)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Trace summary" in out
    assert "cli.grid" in out
    assert "Metrics summary" in out
    assert "matrix_cells_computed_total" in out


def test_matrix_cache_metrics_via_cli(capsys, tmp_path):
    metrics = tmp_path / "m.json"
    args = [
        "matrix", *FAST,
        "--classifiers", "OneR", "--budgets", "2", "--ensembles", "general",
        "--cache-dir", str(tmp_path / "cache"), "--metrics-out", str(metrics),
    ]
    assert main(args) == 0
    assert main(args) == 0  # warm: all cells from cache
    capsys.readouterr()
    import json

    snap = json.loads(metrics.read_text())
    assert snap["counters"]["matrix_cells_cached_total"]["value"] == 1.0
    assert snap["counters"]["cache_hits_total"]["value"] == 1.0


def test_monitor_trace_and_metrics_out(capsys, tmp_path):
    from repro.obs import load_metrics, load_trace

    trace = tmp_path / "mon.jsonl"
    metrics = tmp_path / "mon.json"
    rc = main([
        "monitor", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "6", "--windows", "8",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    assert rc == 0
    capsys.readouterr()
    names = {e["name"] for e in load_trace(trace)}
    assert {"cli.fit", "cli.monitor", "monitor.app", "monitor.verdict"} <= names
    snap = load_metrics(metrics)
    assert snap["histograms"]["monitor_window_classify_seconds"]["count"] > 0
    assert "monitor_detection_latency_windows" in snap["gauges"]


def test_crossval_trace_out(capsys, tmp_path):
    from repro.obs import load_trace

    trace = tmp_path / "cv.jsonl"
    rc = main([
        "crossval", *FAST,
        "--classifiers", "OneR", "--hpcs", "2", "--folds", "3",
        "--trace-out", str(trace),
    ])
    assert rc == 0
    capsys.readouterr()
    names = {e["name"] for e in load_trace(trace)}
    assert {"cli.corpus", "cli.crossval", "crossval.record"} <= names


def test_stats_requires_an_input():
    with pytest.raises(SystemExit, match="needs --trace"):
        main(["stats"])


def test_stats_missing_file_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="error"):
        main(["stats", "--trace", str(tmp_path / "nope.jsonl")])


def test_timings_progress_goes_through_the_sink(capsys):
    rc = main([
        "matrix", *FAST,
        "--classifiers", "OneR", "--budgets", "2", "--ensembles", "general",
        "--timings",
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "[  1/1] 2HPC-OneR" in err


def test_monitor_vote_threshold_accepted(capsys):
    rc = main([
        "monitor", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "6", "--windows", "8",
        "--vote-threshold", "0.3",
    ])
    assert rc == 0
    assert "application-level accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["0", "0.0", "1.5", "-0.2", "nan", "x"])
@pytest.mark.parametrize("command", ["monitor", "fleet"])
def test_vote_threshold_validated(command, bad):
    with pytest.raises(SystemExit) as excinfo:
        main([command, *FAST, "--vote-threshold", bad])
    assert excinfo.value.code == 2  # argparse usage error


def test_fleet_command_pristine(capsys):
    rc = main([
        "fleet", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "6", "--windows", "8",
        "--fleet-workers", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fleet accuracy" in out
    assert "degraded: 0" in out


def test_fleet_command_with_faults_and_obs(capsys, tmp_path):
    from repro.obs import load_metrics, load_trace

    trace = tmp_path / "fleet.jsonl"
    metrics = tmp_path / "fleet.json"
    rc = main([
        "fleet", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "4", "--windows", "8",
        "--fleet-workers", "3", "--retries", "2",
        "--faults", "crash=0.4,glitch=0.2,drop=0.2,permanent=0.1",
        "--vote-threshold", "0.4",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fleet accuracy" in out
    names = {e["name"] for e in load_trace(trace)}
    assert {"cli.fit", "fleet.run", "fleet.app", "fleet.verdict"} <= names
    snap = load_metrics(metrics)
    assert snap["counters"]["fleet_apps_total"]["value"] > 0
    assert "fleet_backoff_sleep_seconds" in snap["histograms"]


@pytest.mark.parametrize("bad", ["", "boom=0.1", "crash", "crash=x", "crash=2"])
def test_fleet_faults_spec_validated(bad):
    with pytest.raises(SystemExit) as excinfo:
        main(["fleet", *FAST, "--faults", bad])
    assert excinfo.value.code == 2


# -- health monitoring and watch ---------------------------------------


def test_fleet_health_out_pristine(capsys, tmp_path):
    import json

    health = tmp_path / "health.json"
    rc = main([
        "fleet", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "6", "--windows", "8",
        "--fleet-workers", "2",
        "--health-out", str(health),
        "--slo", "nondegraded>=0.95",
    ])
    assert rc == 0
    report = json.loads(health.read_text())
    assert report["schema"] == 1
    assert report["totals"]["verdicts"] > 0
    assert report["totals"]["degraded"] == 0
    assert report["critical_fired"] is False
    (slo,) = report["slos"]
    assert slo["ok"] is True
    assert "0 alert(s) firing" in capsys.readouterr().err


def test_fleet_faulted_health_fires_alert(capsys, tmp_path):
    import json

    health = tmp_path / "health.json"
    rc = main([
        "fleet", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "4", "--windows", "8",
        "--fleet-workers", "2", "--retries", "2",
        "--faults", "crash=0.4,glitch=0.3,drop=0.2",
        "--health-out", str(health),
        "--alert", "degraded_ratio>=0.05:critical",
    ])
    assert rc == 0  # the run itself succeeds; watch is the CI gate
    err = capsys.readouterr().err
    assert "FIRING" in err and "degraded_ratio" in err
    report = json.loads(health.read_text())
    assert report["critical_fired"] is True
    (alert,) = report["alerts"]
    assert alert["fired_count"] >= 1


def _faulted_fleet_trace(tmp_path):
    trace = tmp_path / "fleet.jsonl"
    metrics = tmp_path / "fleet.json"
    rc = main([
        "fleet", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "4", "--windows", "8",
        "--fleet-workers", "2", "--retries", "2",
        "--faults", "crash=0.4,glitch=0.3,drop=0.2",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    assert rc == 0
    return trace, metrics


def test_watch_once_exits_nonzero_on_critical(capsys, tmp_path):
    trace, metrics = _faulted_fleet_trace(tmp_path)
    rc = main([
        "watch", "--trace", str(trace), "--metrics", str(metrics),
        "--alert", "degraded_ratio>=0.05:critical",
        "--slo", "nondegraded>=0.95",
        "--once",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "Health — window" in out
    assert "degraded_ratio>=0.05" in out
    assert "firing" in out


def test_watch_once_is_deterministic(capsys, tmp_path):
    trace, _ = _faulted_fleet_trace(tmp_path)
    args = [
        "watch", "--trace", str(trace),
        "--alert", "degraded_ratio>=0.05:critical:0:0.01",
        "--once",
    ]
    first_out = tmp_path / "h1.json"
    second_out = tmp_path / "h2.json"
    assert main([*args, "--health-out", str(first_out)]) == 1
    assert main([*args, "--health-out", str(second_out)]) == 1
    capsys.readouterr()
    assert first_out.read_text() == second_out.read_text()


def test_watch_once_pristine_exits_zero(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    rc = main([
        "monitor", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "6", "--windows", "8",
        "--trace-out", str(trace),
    ])
    assert rc == 0
    rc = main([
        "watch", "--trace", str(trace),
        "--alert", "degraded_ratio>=0.05:critical",
        "--once",
    ])
    assert rc == 0
    assert "firing" not in capsys.readouterr().out.split("alerts:")[-1]


def test_watch_rules_file_and_bad_specs(tmp_path):
    import json

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [
        {"signal": "degraded_ratio", "op": ">=", "threshold": 0.05,
         "severity": "critical"},
    ]}))
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    rc = main(["watch", "--trace", str(trace), "--alerts", str(rules), "--once"])
    assert rc == 0  # no verdicts -> NaN signals -> nothing fires
    with pytest.raises(SystemExit) as excinfo:
        main(["watch", "--trace", str(trace), "--alert", "bogus>>1", "--once"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["watch", "--trace", str(trace), "--slo", "latency<=1", "--once"])
    assert excinfo.value.code == 2


def test_stats_merges_multiple_metrics_files(capsys, tmp_path):
    import json

    from repro.obs import Registry

    paths = []
    for i, n in enumerate((3, 4)):
        registry = Registry()
        registry.counter("monitor_apps_total").inc(n)
        registry.histogram("latency_seconds", buckets=(1.0,)).observe(0.5)
        path = tmp_path / f"metrics{i}.json"
        path.write_text(json.dumps(registry.snapshot()))
        paths.append(str(path))
    rc = main(["stats", "--metrics", *paths])
    assert rc == 0
    out = capsys.readouterr().out
    assert "monitor_apps_total" in out
    assert "7" in out  # 3 + 4 merged exactly


def test_stats_merges_multiple_trace_files(capsys, tmp_path):
    """Regression: --trace used to accept a single path only."""
    from repro.obs import Tracer

    first, second = Tracer(), Tracer()
    with first.span("stage.one"):
        pass
    with second.span("stage.two"):
        pass
    first.event("verdict", ts=5.0)
    second.event("verdict", ts=1.0)
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    first.dump(path_a)
    second.dump(path_b)
    rc = main(["stats", "--trace", str(path_a), str(path_b)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stage.one" in out and "stage.two" in out
    assert "2 point events" in out


# -- archive / report / replay -----------------------------------------


def test_serve_archive_report_replay_roundtrip(capsys, tmp_path):
    import json

    archive_dir = tmp_path / "arch"
    trace = tmp_path / "serve.jsonl"
    metrics = tmp_path / "serve-metrics.json"
    rc = main([
        "serve", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "7", "--rounds", "2",
        "--producers", "1", "--serve-workers", "1",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
        "--archive-dir", str(archive_dir),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "archived segment" in err

    # re-ingesting the run's own dumped trace is a no-op (idempotent)
    rc = main([
        "report", "--archive-dir", str(archive_dir),
        "--ingest", str(trace), "--ingest-metrics", str(metrics), "--json",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "[already archived]" in captured.err
    data = json.loads(captured.out)
    assert data["segments"] == 1
    assert data["verdicts"] == 6  # 3 hosts (stride 7) x 2 rounds
    assert len(data["hosts"]) == 3
    assert data["detection_rate_trend"]
    assert "serve_window_classify_seconds" in data["latency_quantiles"]

    # replay at 1x asserts verdict bit-identity against the archive
    rc = main(["replay", "--archive-dir", str(archive_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "6 verdicts matched bit-identical" in out


def test_serve_drift_run_replays_bit_identically(capsys, tmp_path):
    """run_meta records ``drift``, so replay rebuilds the shifted hosts."""
    archive_dir = tmp_path / "arch"
    rc = main([
        "serve", *FAST, "--stride", "3", "--drift", "0.8",
        "--archive-dir", str(archive_dir),
    ])
    assert rc == 0
    served = capsys.readouterr().out
    assert "evasive80" in served
    rc = main(["replay", "--archive-dir", str(archive_dir)])
    assert rc == 0
    assert "6 verdicts matched bit-identical" in capsys.readouterr().out


def test_fleet_archive_dir_alone_enables_obs_and_reports(capsys, tmp_path):
    archive_dir = tmp_path / "arch"
    rc = main([
        "fleet", *FAST,
        "--classifier", "OneR", "--ensemble", "general",
        "--hpcs", "2", "--stride", "6", "--windows", "8",
        "--fleet-workers", "2",
        "--archive-dir", str(archive_dir),
    ])
    assert rc == 0
    assert "archived segment" in capsys.readouterr().err
    rc = main(["report", "--archive-dir", str(archive_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fleet archive report" in out
    assert "segments: 1" in out
    # fleet runs are not replayable (no serve workload to reconstruct)
    with pytest.raises(SystemExit, match="no replayable"):
        main(["replay", "--archive-dir", str(archive_dir)])


def test_report_on_missing_archive_is_empty_not_an_error(capsys, tmp_path):
    rc = main(["report", "--archive-dir", str(tmp_path / "nowhere")])
    assert rc == 0
    assert "matched no verdicts" in capsys.readouterr().out


def test_report_host_filter(capsys, tmp_path):
    import json

    from repro.obs import Tracer
    from repro.obs.archive import Archive

    tracer = Tracer()
    for index, host in enumerate(("web-1", "web-2")):
        tracer.event(
            "serve.verdict", ts=float(index), app=host, host=host,
            index=index, is_malware=True, malware_fraction=1.0, n_windows=4,
        )
    Archive(tmp_path / "arch").ingest_events(tracer.events)
    rc = main([
        "report", "--archive-dir", str(tmp_path / "arch"),
        "--host", "web-1", "--json",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hosts"] == ["web-1"]
    assert data["verdicts"] == 1


def test_report_json_writes_non_finite_statistics_as_null(capsys, tmp_path):
    """A drift bucket holding only warm-up rows has no finite PSI; the
    JSON report carries null there and parses as strict JSON."""
    import json

    from repro.obs.archive import Archive

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    Archive(tmp_path / "arch").ingest_events(
        [
            {
                "type": "event", "name": "quality.drift", "ts": ts,
                "attrs": {
                    "host": "web-1", "worst_feature": "f0",
                    "max_feature_psi": None, "host_max_feature_psi": None,
                },
            }
            for ts in (10.0, 20.0)
        ],
        source="serve",
    )
    rc = main(["report", "--archive-dir", str(tmp_path / "arch"), "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert data["drift_trend"]
    for row in data["drift_trend"]:
        assert row["observations"] == 2
        assert row["mean_psi"] is None and row["max_psi"] is None


def test_profile_command_writes_loadable_profile(capsys, tmp_path):
    from repro.obs import ReferenceProfile

    out = tmp_path / "profile.json"
    rc = main([
        "profile", *FAST, "--classifier", "OneR", "--hpcs", "2",
        "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "wrote reference profile" in printed
    profile = ReferenceProfile.load(out)
    assert profile.n_features == 2
    assert profile.meta["command"] == "profile"
    assert profile.meta["seed"] == 11
    assert profile.profile_id[:12] in printed


def test_quality_flags_need_a_reference():
    with pytest.raises(SystemExit, match="--quality-ref"):
        main([
            "serve", *FAST, "--stride", "20",
            "--quality-out", "nope.json",
        ])


def test_serve_quality_drift_fires_and_stationary_stays_silent(capsys, tmp_path):
    """The quality-smoke recipe: shifted run alerts, control run doesn't."""
    import json

    profile = tmp_path / "profile.json"
    assert main([
        "profile", "--seed", "11", "--windows", "8", "--out", str(profile),
    ]) == 0
    serve = [
        "serve", "--seed", "11", "--windows", "8", "--stride", "1",
        "--rounds", "4", "--producers", "2", "--serve-workers", "2",
        "--queue-depth", "8",
        "--quality-ref", str(profile),
        "--quality-window", "3600",
        "--quality-alert", "max_feature_psi>=1.5:critical:0:0.5",
    ]

    shifted_quality = tmp_path / "shifted-quality.json"
    shifted_trace = tmp_path / "shifted-trace.jsonl"
    assert main([
        *serve, "--drift", "0.8",
        "--quality-out", str(shifted_quality),
        "--trace-out", str(shifted_trace),
    ]) == 0
    shifted = json.loads(shifted_quality.read_text())
    assert shifted["critical_fired"] is True
    assert shifted["signals"]["max_feature_psi"] >= 1.5
    assert "drift alerts fired: yes" in capsys.readouterr().err

    control_quality = tmp_path / "control-quality.json"
    control_trace = tmp_path / "control-trace.jsonl"
    assert main([
        *serve,
        "--quality-out", str(control_quality),
        "--trace-out", str(control_trace),
    ]) == 0
    control = json.loads(control_quality.read_text())
    assert control["critical_fired"] is False
    assert control["signals"]["max_feature_psi"] < 1.5
    assert "drift alerts fired: no" in capsys.readouterr().err

    # watch --once gates on the archived quality.alert events: exit 1
    # for the shifted run, 0 for the stationary control.
    assert main(["watch", "--trace", str(shifted_trace), "--once"]) == 1
    assert "critical firing" in capsys.readouterr().err
    assert main(["watch", "--trace", str(control_trace), "--once"]) == 0
