"""End-to-end registry warm-start: ``train`` → ``serve --model-id``.

The deployment contract the tentpole exists for: a model trained and
saved once is deployed by the serving commands with **zero fits** at
startup (proved from the trace — a ``cli.load_model`` span where
``cli.fit`` would be) and produces **bit-identical verdicts** to a
process that fit the same detector itself.
"""

from __future__ import annotations

import json
import re
import shutil

import pytest

from repro.cli import main

FAST = ["--windows", "8", "--seed", "11"]
CONFIG = ["--classifier", "REPTree", "--ensemble", "boosted", "--hpcs", "2"]


def _span_names(trace_path):
    return [json.loads(line).get("name") for line in open(trace_path)]


def _train(tmp_path, capsys, *extra):
    registry_dir = tmp_path / "registry"
    rc = main([
        "train", *FAST, *CONFIG,
        "--registry-dir", str(registry_dir), "--tag", "prod", *extra,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    match = re.search(r"saved model ([0-9a-f]{64})", out)
    assert match, out
    return registry_dir, match.group(1)


def test_train_then_serve_by_model_id(tmp_path, capsys):
    registry_dir, model_id = _train(tmp_path, capsys)

    serve = [
        "serve", *FAST, "--stride", "6", "--rounds", "1",
        "--producers", "1", "--serve-workers", "1",
    ]
    warm_trace = tmp_path / "warm.jsonl"
    rc = main([
        *serve, "--registry-dir", str(registry_dir), "--model-id", "prod",
        "--trace-out", str(warm_trace),
    ])
    assert rc == 0
    warm_out = capsys.readouterr().out

    cold_trace = tmp_path / "cold.jsonl"
    rc = main([*serve, *CONFIG, "--trace-out", str(cold_trace)])
    assert rc == 0
    cold_out = capsys.readouterr().out

    # zero fits on the warm path, asserted from the spans themselves,
    # and no training corpus built for a model that is only loaded
    warm_spans = _span_names(warm_trace)
    cold_spans = _span_names(cold_trace)
    assert "cli.fit" not in warm_spans and "cli.corpus" not in warm_spans
    assert "cli.load_model" in warm_spans
    assert "cli.fit" in cold_spans and "cli.corpus" in cold_spans

    # identical verdict tables (strip the throughput line, which is
    # wall-clock and legitimately differs run to run)
    def verdict_lines(text):
        return [
            line for line in text.splitlines()
            if re.search(r"(malware|benign)\s+(malware|benign)", line)
        ]

    assert verdict_lines(warm_out) == verdict_lines(cold_out)
    assert verdict_lines(warm_out), "expected at least one verdict row"


def test_train_is_idempotent_and_models_lists_it(tmp_path, capsys):
    registry_dir, model_id = _train(tmp_path, capsys)
    registry_dir2, model_id2 = _train(tmp_path, capsys, "--tag", "canary")
    assert model_id2 == model_id  # content-addressed: same config, same id

    rc = main(["models", "--registry-dir", str(registry_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert model_id[:12] in out
    assert "prod" in out and "canary" in out


def test_monitor_with_model_id(tmp_path, capsys):
    registry_dir, model_id = _train(tmp_path, capsys)
    trace = tmp_path / "monitor.jsonl"
    rc = main([
        "monitor", *FAST, "--stride", "8",
        "--registry-dir", str(registry_dir), "--model-id", model_id[:12],
        "--trace-out", str(trace),
    ])
    assert rc == 0
    assert "application-level accuracy" in capsys.readouterr().out
    spans = _span_names(trace)
    assert "cli.fit" not in spans and "cli.load_model" in spans


def test_fleet_with_model_id_archives_deployed_config(tmp_path, capsys):
    registry_dir, _ = _train(tmp_path, capsys)
    archive = tmp_path / "archive"
    rc = main([
        "fleet", *FAST, "--stride", "8",
        "--registry-dir", str(registry_dir), "--model-id", "prod",
        "--archive-dir", str(archive),
    ])
    assert rc == 0
    assert "fleet accuracy" in capsys.readouterr().out
    # the archived meta records the *deployed* model's config, not the
    # (unused) CLI defaults
    manifest = json.loads((archive / "manifest.json").read_text())
    (segment,) = manifest["segments"]
    meta = segment["run_meta"]
    assert meta["classifier"] == "REPTree"
    assert meta["ensemble"] == "boosted"
    assert meta["hpcs"] == 2


def test_registry_deployed_serve_replays_the_deployed_model(tmp_path, capsys):
    """A model trained on another corpus seed is what replay redeploys:
    run_meta records its full id and registry, not the serve corpus."""
    registry_dir = tmp_path / "registry"
    assert main([
        "train", "--windows", "8", "--seed", "5", *CONFIG,
        "--registry-dir", str(registry_dir), "--tag", "prod",
    ]) == 0
    model_id = re.search(r"saved model ([0-9a-f]{64})", capsys.readouterr().out)
    archive = tmp_path / "archive"
    assert main([
        "serve", *FAST, "--stride", "3",
        "--registry-dir", str(registry_dir), "--model-id", "prod",
        "--archive-dir", str(archive),
    ]) == 0
    capsys.readouterr()
    assert main(["replay", "--archive-dir", str(archive)]) == 0
    assert "6 verdicts matched bit-identical" in capsys.readouterr().out
    manifest = json.loads((archive / "manifest.json").read_text())
    (segment,) = manifest["segments"]
    assert segment["run_meta"]["model_id"] == model_id.group(1)
    # without the registry the deployed model is gone: a clean error
    shutil.rmtree(registry_dir)
    with pytest.raises(SystemExit, match="no model matches"):
        main(["replay", "--archive-dir", str(archive)])


def test_registry_deployed_serve_replays_from_another_directory(
    tmp_path, capsys, monkeypatch
):
    """run_meta records the registry as an absolute path, so a run served
    with the default relative ``--registry-dir`` replays from anywhere."""
    served = tmp_path / "served"
    served.mkdir()
    monkeypatch.chdir(served)
    assert main([
        "train", *FAST, *CONFIG, "--registry-dir", "models", "--tag", "prod",
    ]) == 0
    assert main([
        "serve", *FAST, "--stride", "3", "--model-id", "prod",
        "--archive-dir", "archive",
    ]) == 0
    capsys.readouterr()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["replay", "--archive-dir", str(served / "archive")]) == 0
    assert "6 verdicts matched bit-identical" in capsys.readouterr().out
    manifest = json.loads((served / "archive" / "manifest.json").read_text())
    (segment,) = manifest["segments"]
    assert segment["run_meta"]["registry_dir"] == str((served / "models").resolve())


def test_missing_model_is_a_clean_cli_error(tmp_path):
    with pytest.raises(SystemExit, match="no model matches"):
        main([
            "serve", *FAST,
            "--registry-dir", str(tmp_path / "empty"), "--model-id", "ghost",
        ])
