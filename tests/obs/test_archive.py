"""Archive layer: normalization, content addressing, idempotent ingest."""

import json
import multiprocessing

import numpy as np
import pytest

from repro.obs import Registry, Tracer
from repro.obs.archive import (
    Archive,
    ArchiveError,
    HOST_VOTE_RULE,
    alert_record,
    normalize_events,
    normalize_metrics,
    segment_content_id,
    verdict_record,
)


def serve_verdict_event(ts, index, host="h0", flagged=False, fraction=0.0):
    return {
        "type": "event",
        "name": "serve.verdict",
        "ts": ts,
        "attrs": {
            "app": host,
            "host": host,
            "index": index,
            "is_malware": flagged,
            "malware_fraction": fraction,
            "n_windows": 8,
            "n_windows_lost": 0,
            "degraded": False,
            "detection_latency_windows": 2 if flagged else None,
        },
    }


def sample_events():
    return [
        {"type": "span", "name": "serve.run", "ts": 100.0, "dur": 1.5},
        serve_verdict_event(101.0, 0),
        serve_verdict_event(102.0, 1, host="h1", flagged=True, fraction=0.75),
        {
            "type": "event",
            "name": "serve.alert",
            "ts": 103.0,
            "attrs": {"host": "h1", "execution": 1, "fraction": 0.75, "windows": 16},
        },
        {
            "type": "event",
            "name": "health.alert",
            "ts": 104.0,
            "attrs": {
                "rule": "degraded_ratio>=0.2",
                "state": "firing",
                "severity": "critical",
                "value": 0.4,
            },
        },
        {"type": "event", "name": "serve.worker_crash", "ts": 105.0, "attrs": {}},
    ]


# -- normalization -----------------------------------------------------


def test_normalize_events_splits_and_maps():
    verdicts, alerts, spans = normalize_events(sample_events())
    assert len(verdicts) == 2
    assert verdicts[0]["source"] == "serve"
    assert verdicts[0]["execution"] == 0
    assert verdicts[1]["is_malware"] is True
    assert verdicts[1]["latency"] == 2
    assert verdicts[0]["latency"] == -1  # never-detected sentinel
    assert len(alerts) == 2
    assert alerts[0]["rule"] == HOST_VOTE_RULE
    assert alerts[0]["severity"] == "critical"
    assert alerts[1]["rule"] == "degraded_ratio>=0.2"
    assert alerts[1]["host"] == "*"
    assert spans == [{"name": "serve.run", "ts": 100.0, "dur": 1.5}]


def test_normalize_events_numbers_unindexed_monitor_verdicts():
    events = [
        {
            "type": "event",
            "name": "monitor.verdict",
            "ts": float(i),
            "attrs": {"app": "a", "is_malware": False, "malware_fraction": 0.0,
                      "n_windows": 4},
        }
        for i in range(3)
    ]
    verdicts, _, _ = normalize_events(events)
    assert [v["execution"] for v in verdicts] == [0, 1, 2]
    assert all(v["source"] == "monitor" for v in verdicts)
    assert all(v["host"] == "a" for v in verdicts)  # host defaults to app


def test_normalize_metrics_drops_cosmetics_and_coerces():
    registry = Registry()
    registry.counter("hits_total", "helpful text").inc(3)
    registry.histogram("lat_seconds", "h", buckets=(0.1, 1.0)).observe(0.05)
    normalized = normalize_metrics(registry.snapshot())
    assert normalized["counters"]["hits_total"] == {"value": 3.0}
    assert "help" not in json.dumps(normalized)
    # normalizing a normalized snapshot is a fixed point
    assert normalize_metrics(normalized) == normalized
    assert normalize_metrics(None) == {"counters": {}, "gauges": {}, "histograms": {}}


def test_records_coerce_numpy_scalars_to_plain_types():
    record = verdict_record(
        ts=np.float64(1.5), source="serve", host="h", app="a",
        execution=np.int64(3), is_malware=np.bool_(True),
        malware_fraction=np.float64(0.5), n_windows=np.int64(8),
    )
    assert type(record["execution"]) is int
    assert type(record["is_malware"]) is bool
    assert type(record["malware_fraction"]) is float
    alert = alert_record(
        ts=1.0, rule="r", host="h", severity="critical", state="firing",
        value=np.float64(0.4),
    )
    assert type(alert["value"]) is float
    # records JSON-serialize without default= hooks
    json.dumps([record, alert])


# -- content addressing ------------------------------------------------


def test_content_id_is_deterministic_and_content_sensitive():
    verdicts, alerts, spans = normalize_events(sample_events())
    metrics = normalize_metrics(None)
    a = segment_content_id(verdicts, alerts, spans, metrics)
    b = segment_content_id(verdicts, alerts, spans, metrics)
    assert a == b and len(a) == 64
    changed = [dict(verdicts[0], ts=verdicts[0]["ts"] + 1.0)] + verdicts[1:]
    assert segment_content_id(changed, alerts, spans, metrics) != a


# -- ingest / load round trip ------------------------------------------


def test_ingest_and_load_round_trips_columns(tmp_path):
    archive = Archive(tmp_path / "arch")
    registry = Registry()
    registry.histogram("c_seconds", "h", buckets=(0.1, 1.0)).observe(0.05)
    result = archive.ingest_events(
        sample_events(), metrics=registry.snapshot(),
        run_meta={"command": "serve"}, run_id="run-1", source="serve",
    )
    assert result.ingested
    assert (result.n_verdicts, result.n_alerts, result.n_spans) == (2, 2, 1)
    assert result.path.exists()

    segment = archive.load_segment(result.segment_id)
    assert segment.n_verdicts == 2
    hosts = segment.resolve(segment.verdicts["host"])
    assert list(hosts) == ["h0", "h1"]
    assert list(segment.verdicts["flag"]) == [0, 1]
    assert segment.verdicts["fraction"][1] == 0.75
    assert list(segment.verdicts["latency"]) == [-1, 2]
    assert segment.span_seconds("serve.run") == 1.5
    assert segment.span_seconds("absent") == 0.0
    assert segment.metrics["histograms"]["c_seconds"]["count"] == 1

    (entry,) = archive.segments()
    assert entry["segment_id"] == result.segment_id
    assert entry["source"] == "serve"
    assert entry["run_id"] == "run-1"
    assert entry["hosts"] == ["h0", "h1"]
    assert entry["ts_min"] == 100.0 and entry["ts_max"] == 104.0
    assert entry["run_meta"] == {"command": "serve"}


def test_reingest_is_a_noop(tmp_path):
    archive = Archive(tmp_path)
    first = archive.ingest_events(sample_events())
    second = archive.ingest_events(sample_events())
    assert first.segment_id == second.segment_id
    assert first.ingested and not second.ingested
    assert len(archive) == 1
    assert second.n_verdicts == first.n_verdicts


def _ingest_all(root, runs, barrier):
    archive = Archive(root)
    barrier.wait()
    for events in runs:
        archive.ingest_events(events)


def test_concurrent_ingests_index_each_run_once(tmp_path):
    """Two processes ingesting 15 shared runs plus 15 runs of their own
    into one archive: each shared run is indexed once and no run is
    lost (the already-archived check and the manifest append used to
    run unlocked, so writers duplicated and dropped entries)."""

    def run(k):
        return [serve_verdict_event(float(k), 0, host=f"h{k}")]

    shared = [run(k) for k in range(15)]
    own = [[run(100 * (w + 1) + k) for k in range(15)] for w in range(2)]
    root = tmp_path / "archive"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    writers = [
        ctx.Process(
            target=_ingest_all,
            args=(root, [r for pair in zip(shared, own[w]) for r in pair], barrier),
        )
        for w in range(2)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(60)
    assert [w.exitcode for w in writers] == [0, 0]
    ids = [e["segment_id"] for e in Archive(root).segments()]
    assert len(ids) == len(set(ids)) == 45


def test_ingest_trace_file_matches_ingest_events(tmp_path):
    """The JSONL round trip does not change the content address."""
    tracer = Tracer()
    with tracer.span("serve.run"):
        tracer.event(
            "serve.verdict", app="x", host="x", index=0, is_malware=True,
            malware_fraction=1.0, n_windows=4, n_windows_lost=0,
            degraded=False, detection_latency_windows=0,
        )
    trace_path = tmp_path / "t.jsonl"
    tracer.dump(trace_path)
    live = Archive(tmp_path / "a").ingest_events(tracer.events)
    from_file = Archive(tmp_path / "b").ingest_trace(trace_path)
    assert live.segment_id == from_file.segment_id


def test_empty_ingest_round_trips(tmp_path):
    archive = Archive(tmp_path)
    result = archive.ingest_events([])
    segment = archive.load_segment(result.segment_id)
    assert segment.n_verdicts == segment.n_alerts == segment.n_spans == 0
    assert segment.resolve(segment.verdicts["host"]).size == 0
    (entry,) = archive.segments()
    assert entry["ts_min"] is None


# -- failure modes -----------------------------------------------------


def test_archive_root_must_be_a_directory(tmp_path):
    not_dir = tmp_path / "file"
    not_dir.write_text("x")
    with pytest.raises(ArchiveError):
        Archive(not_dir)


def test_corrupt_manifest_raises(tmp_path):
    archive = Archive(tmp_path)
    archive.ingest_events(sample_events())
    archive.manifest_path.write_text("{ not json")
    with pytest.raises(ArchiveError, match="corrupt"):
        archive.segments()


def test_wrong_manifest_schema_raises(tmp_path):
    archive = Archive(tmp_path)
    archive.manifest_path.parent.mkdir(parents=True, exist_ok=True)
    archive.manifest_path.write_text(json.dumps({"schema": 99, "segments": []}))
    with pytest.raises(ArchiveError, match="schema"):
        archive.segments()


def test_missing_segment_file_raises(tmp_path):
    archive = Archive(tmp_path)
    result = archive.ingest_events(sample_events())
    result.path.unlink()
    with pytest.raises(ArchiveError, match="cannot read"):
        archive.load_segment(result.segment_id)


def test_corrupt_segment_file_raises(tmp_path):
    archive = Archive(tmp_path)
    result = archive.ingest_events(sample_events())
    result.path.write_bytes(b"\x00" * 32)
    with pytest.raises(ArchiveError):
        archive.load_segment(result.segment_id)


def test_entry_prefix_lookup(tmp_path):
    archive = Archive(tmp_path)
    result = archive.ingest_events(sample_events())
    assert archive.entry(result.segment_id[:10])["segment_id"] == result.segment_id
    with pytest.raises(ArchiveError, match="no archived segment"):
        archive.entry("ffff")


def test_crash_during_segment_write_leaves_archive_intact(tmp_path, monkeypatch):
    """A failing write never corrupts the manifest or leaves temp files."""
    archive = Archive(tmp_path)
    archive.ingest_events(sample_events())

    import repro.obs.archive as archive_mod

    def exploding_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(archive_mod.np, "savez_compressed", exploding_savez)
    with pytest.raises(OSError):
        archive.ingest_events(sample_events() + [serve_verdict_event(999.0, 7)])
    monkeypatch.undo()
    assert len(archive) == 1  # manifest never saw the failed segment
    leftovers = [p for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []
    # the surviving segment still loads
    (entry,) = archive.segments()
    assert archive.load_segment(entry).n_verdicts == 2


def quality_drift_event(ts, host, fleet_psi, host_psi):
    return {
        "type": "event",
        "name": "quality.drift",
        "ts": ts,
        "attrs": {
            "host": host,
            "worst_feature": "branch_misses",
            "max_feature_psi": fleet_psi,
            "host_max_feature_psi": host_psi,
            "live_windows": 64.0,
        },
    }


def test_normalize_events_maps_quality_drift_to_two_rows():
    from repro.obs.archive import DRIFT_RULE

    verdicts, alerts, spans = normalize_events(
        [quality_drift_event(10.0, "web-1", 0.3, 0.7)]
    )
    assert not verdicts and not spans
    assert len(alerts) == 2
    fleet, host = alerts
    assert fleet["rule"] == host["rule"] == DRIFT_RULE
    assert fleet["host"] == "*" and fleet["value"] == 0.3
    assert host["host"] == "web-1" and host["value"] == 0.7
    assert {a["state"] for a in alerts} == {"observation"}


def test_normalize_events_quality_drift_without_host_or_value():
    event = quality_drift_event(10.0, "", None, None)
    _, alerts, _ = normalize_events([event])
    assert len(alerts) == 1  # no host row when the observer is anonymous
    assert alerts[0]["host"] == "*"
    assert np.isnan(alerts[0]["value"])  # warm-up PSI is NaN, not zero


def test_normalize_events_maps_quality_alert_like_health():
    event = {
        "type": "event",
        "name": "quality.alert",
        "ts": 99.0,
        "attrs": {
            "rule": "max_feature_psi>=0.25",
            "state": "firing",
            "severity": "critical",
            "value": 0.41,
        },
    }
    _, alerts, _ = normalize_events([event])
    assert alerts == [
        alert_record(
            ts=99.0,
            rule="max_feature_psi>=0.25",
            host="*",
            severity="critical",
            state="firing",
            value=0.41,
        )
    ]
