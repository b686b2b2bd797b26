"""The shared verdict path: grade_trace and VerdictSink."""

import sys
import threading

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.fleet import FleetJob, FleetMonitor, RetryPolicy
from repro.core.runtime import (
    DetectionVerdict,
    RuntimeMonitor,
    VerdictSink,
    grade_trace,
)
from repro.hpc.faults import FaultPlan, ServiceFaultPlan
from repro.hpc.lxc import ContainerPool
from repro.obs import HealthEvaluator, Registry, Tracer
from repro.serve import DetectionService, ServeJob
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.dataset import MALWARE
from repro.workloads.malware import MALWARE_FAMILIES

N_WINDOWS = 10
POOL_SEED = 5

#: The one attribute set every driver's ``<source>.verdict`` event carries.
VERDICT_FIELDS = {
    "app", "host", "index", "is_malware", "malware_fraction", "confidence",
    "n_windows", "n_windows_lost", "degraded", "attempts",
    "detection_latency_windows",
}


@pytest.fixture(scope="module")
def detector4(small_split):
    return HMDDetector(DetectorConfig("REPTree", "general", 4)).fit(
        small_split.train
    )


@pytest.fixture(scope="module")
def apps():
    rng = np.random.default_rng(17)
    return [
        (family.instantiate(rng)[0], family.label == MALWARE)
        for family in (BENIGN_FAMILIES + MALWARE_FAMILIES)[::3]
    ]


def drive_monitor(detector, apps, tracer):
    monitor = RuntimeMonitor(detector, tracer=tracer)
    pool = ContainerPool(seed=POOL_SEED)
    for app, truth in apps:
        monitor.monitor(app, N_WINDOWS, pool, is_malware=truth)


def drive_fleet(detector, apps, tracer):
    FleetMonitor(
        detector,
        workers=2,
        faults=FaultPlan(seed=3, crash_rate=0.3, glitch_rate=0.3, drop_rate=0.1),
        retry=RetryPolicy(max_attempts=2),
        pool_seed=POOL_SEED,
        tracer=tracer,
        sleep=lambda _seconds: None,
    ).monitor_fleet([FleetJob(app, N_WINDOWS, truth) for app, truth in apps])


def drive_serve(detector, apps, tracer):
    DetectionService(
        detector,
        workers=2,
        queue_depth=4,
        faults=ServiceFaultPlan(
            seed=1, worker_crash_rate=1.0, max_crashes_per_worker=2
        ),
        pool_seed=POOL_SEED,
        tracer=tracer,
    ).run([ServeJob(app, N_WINDOWS, truth) for app, truth in apps])


@pytest.mark.parametrize(
    "source, drive",
    [("monitor", drive_monitor), ("fleet", drive_fleet), ("serve", drive_serve)],
)
def test_every_driver_emits_one_verdict_event_schema(detector4, apps, source, drive):
    tracer = Tracer()
    drive(detector4, apps, tracer)
    events = [e for e in tracer.events if e["name"] == f"{source}.verdict"]
    assert len(events) == len(apps)
    for event in events:
        assert set(event["attrs"]) == VERDICT_FIELDS
    assert sorted(e["attrs"]["index"] for e in events) == list(range(len(apps)))


def test_grade_trace_flags_match_predict_windows(detector4, apps):
    app, truth = apps[-1]
    trace = ContainerPool(seed=POOL_SEED).run(app, N_WINDOWS, truth)
    flags, readings, scores = grade_trace(detector4, 4, trace)
    assert readings.shape == (N_WINDOWS, 4)
    np.testing.assert_array_equal(flags, detector4.predict_windows(readings))
    np.testing.assert_array_equal(
        scores, detector4.decision_scores_windows(readings)
    )


def test_grade_trace_of_an_empty_trace_is_empty(detector4):
    flags, readings, scores = grade_trace(detector4, 4, np.zeros((0, 44)))
    assert flags.shape == (0,) and scores.shape == (0,)
    assert readings.shape == (0, 4)


def sink_verdict(flags=(0, 1, 1, 1), n_windows_lost=0):
    return DetectionVerdict.from_flags(
        "app", np.array(flags), 0.5, n_windows_lost=n_windows_lost
    )


def test_sink_stamps_one_trace_event():
    tracer = Tracer()
    sink = VerdictSink("serve", 0.5, tracer, Registry(), None, None)
    latency = sink.emit(
        sink_verdict(), host="h", index=3, truth=True,
        readings=np.zeros((4, 4)), scores=np.zeros(4), elapsed=0.004,
    )
    assert latency == 1  # the cumulative vote reaches 0.5 at window 1
    (event,) = tracer.events
    assert event["name"] == "serve.verdict"
    assert event["attrs"]["detection_latency_windows"] == 1


def test_sink_without_elapsed_is_not_a_latency_observation():
    metrics = Registry()
    health = HealthEvaluator(clock=lambda: 1.0)
    sink = VerdictSink("fleet", 0.5, Tracer(), metrics, health, None)
    sink.emit(
        sink_verdict(n_windows_lost=2), host="h", index=0, truth=False,
        readings=np.zeros((4, 4)), scores=np.zeros(4), attempts=3,
    )
    snapshot = metrics.snapshot()
    assert snapshot["histograms"]["fleet_window_classify_seconds"]["count"] == 0
    assert snapshot["counters"]["fleet_apps_total"]["value"] == 1
    assert snapshot["counters"]["fleet_windows_total"]["value"] == 4
    assert snapshot["counters"]["fleet_alarms_total"]["value"] == 1
    values = health.window.values(1.0)
    assert values["verdicts"] == 1
    assert values["retry_rate"] == 2
    assert np.isnan(values["p50_classify_s"])


def test_sink_counts_every_emit_under_concurrent_workers():
    """A lost update under thread contention would undercount."""
    metrics = Registry()
    sink = VerdictSink("serve", 0.5, Tracer(), metrics, None, None)
    verdict, readings, scores = sink_verdict(), np.zeros((4, 4)), np.zeros(4)
    n_threads, per_thread = 8, 200

    def work():
        for index in range(per_thread):
            sink.emit(
                verdict, host="h", index=index, truth=True,
                readings=readings, scores=scores, elapsed=1e-4,
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    n = n_threads * per_thread
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["serve_executions_total"]["value"] == n
    assert snapshot["counters"]["serve_windows_total"]["value"] == 4 * n
    assert snapshot["counters"]["serve_alarms_total"]["value"] == n
    assert snapshot["histograms"]["serve_window_classify_seconds"]["count"] == 4 * n
