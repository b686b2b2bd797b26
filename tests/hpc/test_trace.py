"""Trace recording, persistence, and replay."""

import numpy as np
import pytest

from repro.hpc.events import ALL_EVENTS
from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import ApplicationBehavior, PhaseMix, PhaseParameters
from repro.hpc.trace import TraceRecording, record_application, replay


def _app():
    return ApplicationBehavior("traced", [PhaseMix(PhaseParameters(), 1.0)])


@pytest.fixture(scope="module")
def recording():
    return record_application(
        _app(), ALL_EVENTS[:6], n_windows=12, pool=ContainerPool(seed=0),
        is_malware=False,
    )


def test_record_shapes(recording):
    assert recording.n_windows == 12
    assert recording.samples.shape == (12, 6)
    assert recording.app_name == "traced"
    assert recording.n_runs == 2  # 6 events / 4 counters


def test_duration(recording):
    assert recording.duration_ms == pytest.approx(120.0)


def test_project_orders_columns(recording):
    sub = recording.project([recording.events[2], recording.events[0]])
    np.testing.assert_allclose(sub[:, 0], recording.samples[:, 2])
    np.testing.assert_allclose(sub[:, 1], recording.samples[:, 0])


def test_project_missing_event(recording):
    with pytest.raises(KeyError):
        recording.project(["not_recorded"])


def test_save_load_round_trip(recording, tmp_path):
    path = tmp_path / "trace.jsonl"
    recording.save(path)
    loaded = TraceRecording.load(path)
    assert loaded.app_name == recording.app_name
    assert loaded.events == recording.events
    assert loaded.window_ms == recording.window_ms
    assert loaded.n_runs == recording.n_runs
    np.testing.assert_allclose(loaded.samples, recording.samples)


def test_failed_save_keeps_the_previous_recording(
    recording, tmp_path, capped_python
):
    """A save that dies mid-write (the file-size limit stands in for a
    full disk) leaves the previous recording whole and no temp file."""
    path = tmp_path / "trace.jsonl"
    recording.save(path)
    before = path.read_bytes()
    longer = tmp_path / "longer.jsonl"
    TraceRecording(
        recording.app_name, recording.events, recording.window_ms,
        recording.n_runs, np.tile(recording.samples, (4, 1)),
    ).save(longer)
    result = capped_python(
        "from repro.hpc.trace import TraceRecording\n"
        f"TraceRecording.load({str(longer)!r}).save({str(path)!r})\n",
        limit=len(before) // 2,
    )
    assert "File too large" in result.stderr
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["longer.jsonl", "trace.jsonl"]


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        TraceRecording.load(path)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.jsonl"
    path.write_text(
        '{"format": "repro-hpc-trace-v1", "app_name": "x", '
        '"events": ["a", "b"], "window_ms": 10, "n_runs": 1}\n[1.0, 2.0, 3.0]\n'
    )
    with pytest.raises(ValueError):
        TraceRecording.load(path)


def test_replay_matches_live_prediction(small_split):
    """Replaying a recording must give the same flags as predicting the
    projected windows directly."""
    from repro.core import DetectorConfig, HMDDetector

    detector = HMDDetector(DetectorConfig("REPTree", "general", 4))
    detector.fit(small_split.train)
    recording = record_application(
        _app(), ALL_EVENTS, n_windows=10, pool=ContainerPool(seed=5),
        is_malware=False,
    )
    flags = replay(recording, detector)
    direct = detector.predict_windows(recording.project(detector.monitored_events))
    np.testing.assert_array_equal(flags, direct)


def test_replay_requires_monitored_events(small_split):
    from repro.core import DetectorConfig, HMDDetector

    detector = HMDDetector(DetectorConfig("REPTree", "general", 4))
    detector.fit(small_split.train)
    partial = record_application(
        _app(), ALL_EVENTS[:2], n_windows=5, pool=ContainerPool(seed=6),
        is_malware=False,
    )
    with pytest.raises(KeyError):
        replay(partial, detector)
