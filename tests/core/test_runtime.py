"""Run-time streaming monitor."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.runtime import DetectionVerdict, RuntimeMonitor
from repro.hpc.counters import CounterCapacityError
from repro.hpc.lxc import ContainerPool
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.malware import MALWARE_FAMILIES


@pytest.fixture(scope="module")
def detector4(small_split):
    return HMDDetector(DetectorConfig("REPTree", "general", 4)).fit(small_split.train)


def test_monitor_rejects_unfitted():
    with pytest.raises(RuntimeError):
        RuntimeMonitor(HMDDetector(DetectorConfig("J48", "general", 4)))


def test_monitor_rejects_over_budget_detector(small_split):
    """The paper's core constraint: 16 events will not fit 4 registers."""
    wide = HMDDetector(DetectorConfig("J48", "general", 16)).fit(small_split.train)
    with pytest.raises(CounterCapacityError):
        RuntimeMonitor(wide, n_counters=4)


def test_monitor_accepts_exact_fit(detector4):
    RuntimeMonitor(detector4, n_counters=4)  # must not raise


def test_monitor_rejects_bad_threshold(detector4):
    with pytest.raises(ValueError):
        RuntimeMonitor(detector4, vote_threshold=0.0)


def test_monitor_produces_verdict(detector4):
    monitor = RuntimeMonitor(detector4, n_counters=4)
    app = BENIGN_FAMILIES[0].instantiate(np.random.default_rng(0))[0]
    verdict = monitor.monitor(app, 20, ContainerPool(seed=1), is_malware=False)
    assert isinstance(verdict, DetectionVerdict)
    assert verdict.n_windows == 20
    assert 0.0 <= verdict.malware_fraction <= 1.0


def test_monitor_flags_obvious_malware(detector4):
    """A fresh flooder instance should trip the detector."""
    monitor = RuntimeMonitor(detector4, n_counters=4)
    flooder_family = next(f for f in MALWARE_FAMILIES if f.name == "dos_flooder")
    hits = 0
    rng = np.random.default_rng(7)
    for trial in range(5):
        app = flooder_family.instantiate(rng)[0]
        verdict = monitor.monitor(app, 30, ContainerPool(seed=trial), is_malware=True)
        hits += verdict.is_malware
    assert hits >= 3


def test_monitor_passes_calm_benign(detector4):
    monitor = RuntimeMonitor(detector4, n_counters=4)
    telecomm = next(f for f in BENIGN_FAMILIES if f.name == "mibench_telecomm")
    passes = 0
    rng = np.random.default_rng(8)
    for trial in range(5):
        app = telecomm.instantiate(rng)[0]
        verdict = monitor.monitor(app, 30, ContainerPool(seed=100 + trial), is_malware=False)
        passes += not verdict.is_malware
    assert passes >= 3


def test_detection_latency_reported(detector4):
    monitor = RuntimeMonitor(detector4, n_counters=4, vote_threshold=0.3)
    flooder = next(f for f in MALWARE_FAMILIES if f.name == "dos_flooder")
    app = flooder.instantiate(np.random.default_rng(9))[0]
    verdict = monitor.monitor(app, 30, ContainerPool(seed=11), is_malware=True)
    latency = monitor.detection_latency_windows(verdict)
    if verdict.window_flags.any():
        assert latency is not None
        assert 0 <= latency < 30


def test_verdict_flags_are_read_only():
    verdict = DetectionVerdict(
        app_name="x", window_flags=np.array([0, 1, 0]),
        malware_fraction=1 / 3, is_malware=False,
    )
    with pytest.raises(ValueError):
        verdict.window_flags[0] = 1


def test_verdict_copies_constructor_array():
    source = np.array([0, 1, 0])
    verdict = DetectionVerdict(
        app_name="x", window_flags=source,
        malware_fraction=1 / 3, is_malware=False,
    )
    source[0] = 1  # caller mutating its own array must not rewrite evidence
    assert verdict.window_flags[0] == 0


def test_verdict_equality_and_hash():
    make = lambda flags: DetectionVerdict(
        app_name="x", window_flags=np.array(flags),
        malware_fraction=0.5, is_malware=True,
    )
    a, b, c = make([0, 1]), make([0, 1]), make([1, 1])
    assert a == b  # must not raise "truth value is ambiguous"
    assert a != c
    assert a != "not a verdict"
    assert hash(a) == hash(b)


def test_detection_latency_none_when_never_flagged(detector4):
    monitor = RuntimeMonitor(detector4, n_counters=4)
    verdict = DetectionVerdict(
        app_name="x", window_flags=np.zeros(10, dtype=int),
        malware_fraction=0.0, is_malware=False,
    )
    assert monitor.detection_latency_windows(verdict) is None


# ----------------------------------------------------------------------
# run-time observability: the paper's detection-latency metric, measured
# ----------------------------------------------------------------------

def test_monitor_metrics_expose_window_latency_and_detection_latency(detector4):
    from repro.obs import Registry, Tracer

    tracer, metrics = Tracer(), Registry()
    monitor = RuntimeMonitor(detector4, n_counters=4, tracer=tracer, metrics=metrics)
    app = MALWARE_FAMILIES[0].instantiate(np.random.default_rng(3))[0]
    verdict = monitor.monitor(app, 16, ContainerPool(seed=5), is_malware=True)

    snap = metrics.snapshot()
    # Per-window classification latency histogram: one observation per window.
    hist = snap["histograms"]["monitor_window_classify_seconds"]
    assert hist["count"] == 16
    assert hist["sum"] > 0.0
    # Detection-latency gauge mirrors detection_latency_windows exactly.
    latency = monitor.detection_latency_windows(verdict)
    gauge = snap["gauges"]["monitor_detection_latency_windows"]["value"]
    assert gauge == (-1 if latency is None else latency)
    counters = {n: d["value"] for n, d in snap["counters"].items()}
    assert counters["monitor_windows_total"] == 16.0
    assert counters["monitor_apps_total"] == 1.0
    assert counters["monitor_alarms_total"] == (1.0 if verdict.is_malware else 0.0)


def test_monitor_traces_spans_and_verdict_stream(detector4):
    from repro.obs import Tracer

    tracer = Tracer()
    monitor = RuntimeMonitor(detector4, n_counters=4, tracer=tracer)
    app = BENIGN_FAMILIES[0].instantiate(np.random.default_rng(4))[0]
    monitor.monitor(app, 8, ContainerPool(seed=6), is_malware=False)

    spans = {e["name"] for e in tracer.events if e["type"] == "span"}
    assert {"monitor.app", "monitor.execute", "monitor.classify"} <= spans
    (verdict_event,) = [e for e in tracer.events if e["type"] == "event"]
    assert verdict_event["name"] == "monitor.verdict"
    attrs = verdict_event["attrs"]
    assert attrs["app"] == app.name
    assert attrs["n_windows"] == 8
    assert "detection_latency_windows" in attrs
    # execute/classify nest under the per-app span.
    app_span = next(e for e in tracer.events if e["name"] == "monitor.app")
    child = next(e for e in tracer.events if e["name"] == "monitor.classify")
    assert child["parent_id"] == app_span["span_id"]


def test_monitor_verdict_unchanged_by_instrumentation(detector4):
    """Telemetry must observe, never perturb: verdicts are bit-identical
    with and without an enabled tracer/registry."""
    from repro.obs import Registry, Tracer

    app = MALWARE_FAMILIES[1].instantiate(np.random.default_rng(9))[0]
    plain = RuntimeMonitor(detector4, n_counters=4).monitor(
        app, 12, ContainerPool(seed=8), is_malware=True
    )
    instrumented = RuntimeMonitor(
        detector4, n_counters=4, tracer=Tracer(), metrics=Registry()
    ).monitor(app, 12, ContainerPool(seed=8), is_malware=True)
    assert plain == instrumented


def test_monitor_window_histogram_records_one_entry_per_window(detector4):
    """Regression: the per-window latency histogram must record exactly
    n_windows observations (now bulk-recorded via observe_many instead
    of an O(n) Python loop)."""
    from repro.obs import Registry

    metrics = Registry()
    monitor = RuntimeMonitor(detector4, n_counters=4, metrics=metrics)
    app = BENIGN_FAMILIES[0].instantiate(np.random.default_rng(21))[0]
    monitor.monitor(app, 25, ContainerPool(seed=3), is_malware=False)
    hist = metrics.snapshot()["histograms"]["monitor_window_classify_seconds"]
    assert hist["count"] == 25
    assert sum(hist["counts"]) == 25
    assert hist["sum"] > 0.0


def test_monitor_health_hook_observes_without_perturbing(detector4):
    """health= feeds the evaluator in-process; verdicts stay identical."""
    from repro.obs import HealthEvaluator, parse_slo

    app = BENIGN_FAMILIES[0].instantiate(np.random.default_rng(3))[0]
    plain = RuntimeMonitor(detector4, n_counters=4).monitor(
        app, 15, ContainerPool(seed=8), is_malware=False
    )
    health = HealthEvaluator(slos=[parse_slo("nondegraded>=0.95")])
    observed = RuntimeMonitor(detector4, n_counters=4, health=health).monitor(
        app, 15, ContainerPool(seed=8), is_malware=False
    )
    assert plain == observed
    assert health.window.total_verdicts == 1
    assert health.window.total_degraded == 0
    # The classify-latency window saw every classified window.
    assert health.window._classify.total.sum() == 15
    (slo,) = health.slo_statuses()
    assert slo["ok"] is True


def test_monitor_health_signals_reflect_alarm(detector4):
    from repro.obs import HealthEvaluator

    health = HealthEvaluator()
    monitor = RuntimeMonitor(detector4, n_counters=4, health=health)
    app = MALWARE_FAMILIES[0].instantiate(np.random.default_rng(4))[0]
    verdict = monitor.monitor(app, 20, ContainerPool(seed=2), is_malware=True)
    assert health.last_values["detection_rate"] == float(verdict.is_malware)
    assert health.last_values["verdicts"] == 1.0


# -- quality hook ------------------------------------------------------


def test_quality_tracking_keeps_verdicts_bit_identical(detector4, small_split):
    """quality= must observe the verdict path, never perturb it."""
    from repro.obs import QualityTracker, build_reference_profile
    from repro.workloads.dataset import MALWARE

    profile = build_reference_profile(detector4, small_split.train)
    families = (BENIGN_FAMILIES + MALWARE_FAMILIES)[::6]

    def sweep(quality):
        monitor = RuntimeMonitor(detector4, n_counters=4, quality=quality)
        rng = np.random.default_rng(23)
        return [
            monitor.monitor(
                family.instantiate(rng)[0],
                12,
                ContainerPool(seed=50 + i),
                family.label == MALWARE,
            )
            for i, family in enumerate(families)
        ]

    baseline = sweep(None)
    tracker = QualityTracker(profile, window_s=1e9)
    tracked = sweep(tracker)
    assert tracked == baseline
    assert tracker.total_executions == len(families)
    assert tracker.total_windows == 12 * len(families)
    assert tracker.signals()["live_windows"] == 12.0 * len(families)
