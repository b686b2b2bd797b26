"""Replay: deployment from run_meta, 1x bit-identity, capacity math."""

import pytest

from repro.core.deploy import deploy, deploy_meta
from repro.obs import Tracer
from repro.obs.archive import Archive, normalize_events
from repro.serve import DetectionService, serve_jobs
from repro.serve.replay import (
    ReplayError,
    ReplayMismatchError,
    ReplayResult,
    archived_wall_seconds,
    replay_segment,
)

RUN_META = deploy_meta(
    "serve", seed=11, windows=6, split_seed=7, classifier="REPTree",
    ensemble="general", hpcs=4, model_id=None, registry_dir=None,
    counters=4, vote_threshold=0.5, stride=7, rounds=2, host_vote_windows=4,
    producers=1, workers=1, queue_depth=8, drift=0.0,
)


@pytest.fixture(scope="module")
def workload():
    detector, hosts = deploy(dict(RUN_META))
    return detector, serve_jobs(RUN_META, hosts)


def archived_run(root, workload, run_meta=RUN_META, tamper=None):
    """Run the workload through the service and archive its trace."""
    detector, jobs = workload
    tracer = Tracer()
    DetectionService.from_meta(detector, run_meta, tracer=tracer).run(jobs)
    archive = Archive(root)
    verdicts, alerts, spans = normalize_events(tracer.events)
    if tamper is not None:
        tamper(verdicts)
    result = archive.ingest_records(
        verdicts, alerts, spans, run_meta=run_meta, source="serve"
    )
    return archive, result


@pytest.fixture(scope="module")
def archived(tmp_path_factory, workload):
    return archived_run(tmp_path_factory.mktemp("arch"), workload)


def test_deploy_builds_the_serve_workload(workload):
    detector, jobs = workload
    # stride 7 over the family list, twice (rounds=2)
    assert len(jobs) % RUN_META["rounds"] == 0
    assert all(job.n_windows == RUN_META["windows"] for job in jobs)
    # the two rounds stream the same hosts in the same order
    half = len(jobs) // 2
    assert [j.host_name for j in jobs[:half]] == [
        j.host_name for j in jobs[half:]
    ]
    assert detector.config.name == "4HPC-REPTree"


def test_deploy_meta_pins_the_schema():
    assert list(RUN_META) == [
        "command", "seed", "windows", "split_seed", "classifier", "ensemble",
        "hpcs", "model_id", "registry_dir", "counters", "vote_threshold",
        "stride", "rounds", "host_vote_windows", "producers", "workers",
        "queue_depth", "drift",
    ]
    fields = {k: v for k, v in RUN_META.items() if k != "command"}
    with pytest.raises(TypeError, match="takes exactly"):
        deploy_meta("serve", **{k: v for k, v in fields.items() if k != "drift"})
    with pytest.raises(TypeError, match="takes exactly"):
        deploy_meta("monitor", **fields)


def test_deploy_rejects_missing_or_foreign_meta():
    with pytest.raises(ValueError, match="missing deploy keys"):
        deploy({"command": "serve", "seed": 1})
    with pytest.raises(ValueError, match="cannot deploy a 'profile' run"):
        deploy(dict(RUN_META, command="profile"))


def test_meta_without_drift_or_model_id_refits_stationary(workload):
    """Segments archived before ``drift``/``model_id`` were recorded
    deploy as those runs did: a refit on the stationary workload."""
    old = {
        k: v for k, v in RUN_META.items()
        if k not in ("model_id", "registry_dir", "drift")
    }
    detector, hosts = deploy(old)
    assert [(j.host_name, j.is_malware) for j in serve_jobs(old, hosts)] == [
        (j.host_name, j.is_malware) for j in workload[1]
    ]
    assert detector.config == workload[0].config


def test_drift_shifts_the_hosts():
    _, hosts = deploy(dict(RUN_META, drift=0.8))
    assert all("_evasive80_" in app.name for app, _ in hosts)


def test_registry_deploy_completes_meta_in_place(tmp_path, workload):
    from repro.registry import ModelRegistry

    entry = ModelRegistry(tmp_path).save_detector(workload[0], tags=("prod",))
    meta = dict(
        RUN_META, classifier="OneR", ensemble="bagging", hpcs=2,
        model_id="prod", registry_dir=str(tmp_path),
    )
    tracer = Tracer()
    detector, _ = deploy(meta, tracer)
    assert meta["model_id"] == entry.model_id
    assert (meta["classifier"], meta["ensemble"], meta["hpcs"]) == (
        "REPTree", "general", 4
    )
    assert meta["registry_dir"] == str(tmp_path.resolve())
    assert detector.config == workload[0].config
    names = [event.get("name") for event in tracer.events]
    assert "cli.load_model" in names and "cli.fit" not in names
    assert "cli.corpus" not in names


def test_replay_at_1x_is_bit_identical(archived, workload):
    archive, ingested = archived
    result = replay_segment(archive)
    _, jobs = workload
    assert result.segment_id == ingested.segment_id
    assert result.executions == len(jobs)
    assert result.matched == len(jobs)
    assert result.repeat == 1
    assert result.n_windows == sum(j.n_windows for j in jobs)
    assert result.replay_seconds > 0


def test_replay_repeat_scales_matches_and_speed(archived, workload):
    archive, _ = archived
    result = replay_segment(archive, repeat=2, producers=2, workers=2)
    _, jobs = workload
    assert result.matched == 2 * len(jobs)
    assert result.producers == 2 and result.workers == 2
    assert result.windows_per_second > 0


def test_replay_rejects_bad_repeat(archived):
    archive, _ = archived
    with pytest.raises(ValueError):
        replay_segment(archive, repeat=0)


def test_replay_detects_archive_tampering(tmp_path, workload):
    def flip_first_flag(verdicts):
        verdicts[0]["is_malware"] = not verdicts[0]["is_malware"]

    archive, _ = archived_run(tmp_path, workload, tamper=flip_first_flag)
    with pytest.raises(ReplayMismatchError, match="diverged"):
        replay_segment(archive)


def test_replay_detects_count_mismatch(tmp_path, workload):
    archive, _ = archived_run(
        tmp_path, workload, tamper=lambda verdicts: verdicts.pop()
    )
    with pytest.raises(ReplayMismatchError, match="archives"):
        replay_segment(archive)


def test_replay_needs_a_serve_segment(tmp_path):
    archive = Archive(tmp_path)
    with pytest.raises(ReplayError, match="no replayable"):
        replay_segment(archive)
    archive.ingest_events([], run_meta={"command": "fleet"}, source="fleet")
    with pytest.raises(ReplayError, match="no replayable"):
        replay_segment(archive)


def test_replay_rejects_a_foreign_segment(tmp_path):
    archive = Archive(tmp_path)
    fleet = archive.ingest_events([], run_meta={"command": "fleet"}, source="fleet")
    with pytest.raises(ReplayError, match="only 'serve' runs"):
        replay_segment(archive, segment_id=fleet.segment_id)


def test_replay_default_picks_latest_serve_segment(archived):
    archive, ingested = archived
    # a foreign segment after it must not shadow the serve run
    archive.ingest_events([], run_meta={"command": "fleet"}, source="fleet")
    assert replay_segment(archive).segment_id == ingested.segment_id


def test_speedup_and_throughput_math():
    result = ReplayResult(
        segment_id="x", repeat=3, executions=2, n_windows=100, matched=6,
        archived_seconds=2.0, replay_seconds=1.5, producers=1, workers=1,
        queue_depth=8,
    )
    assert result.speedup == pytest.approx(3 * 2.0 / 1.5)
    assert result.windows_per_second == pytest.approx(200.0)
    zero = ReplayResult(
        segment_id="x", repeat=1, executions=0, n_windows=0, matched=0,
        archived_seconds=0.0, replay_seconds=0.0, producers=1, workers=1,
        queue_depth=8,
    )
    assert zero.speedup == 0.0 and zero.windows_per_second == 0.0


def test_archived_wall_seconds_falls_back_to_verdict_span(archived, tmp_path):
    archive, ingested = archived
    segment = archive.load_segment(ingested.segment_id)
    assert archived_wall_seconds(segment) == segment.span_seconds("serve.run")
    # strip the spans: the verdict ts range stands in
    spanless = Archive(tmp_path)
    result = spanless.ingest_records(
        [
            {k: v for k, v in row.items()}
            for row in _segment_rows(segment)
        ],
        [], [],
    )
    loaded = spanless.load_segment(result.segment_id)
    ts = loaded.verdicts["ts"]
    assert archived_wall_seconds(loaded) == pytest.approx(
        float(ts.max() - ts.min())
    )


def _segment_rows(segment):
    hosts = segment.resolve(segment.verdicts["host"])
    apps = segment.resolve(segment.verdicts["app"])
    sources = segment.resolve(segment.verdicts["source"])
    for i in range(segment.n_verdicts):
        yield {
            "ts": float(segment.verdicts["ts"][i]),
            "source": str(sources[i]),
            "host": str(hosts[i]),
            "app": str(apps[i]),
            "execution": int(segment.verdicts["execution"][i]),
            "is_malware": bool(segment.verdicts["flag"][i]),
            "degraded": bool(segment.verdicts["degraded"][i]),
            "malware_fraction": float(segment.verdicts["fraction"][i]),
            "n_windows": int(segment.verdicts["windows"][i]),
            "n_windows_lost": int(segment.verdicts["lost"][i]),
            "latency": int(segment.verdicts["latency"][i]),
        }
