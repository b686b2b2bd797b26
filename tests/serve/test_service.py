"""The streaming service: bit-identity, chaos totality, wiring."""

import sys
import threading

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.runtime import RuntimeMonitor
from repro.hpc.counters import CounterCapacityError
from repro.hpc.faults import ServiceFaultPlan
from repro.hpc.lxc import ContainerPool
from repro.obs import HealthEvaluator, Registry, Tracer
from repro.serve import (
    SHUTDOWN,
    Bus,
    Channel,
    DetectionService,
    ServeJob,
    ServiceReport,
    WindowClosed,
    WindowFrame,
)
from repro.serve.service import _ExecutionRecord, _RunState
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.dataset import MALWARE
from repro.workloads.malware import MALWARE_FAMILIES

POOL_SEED = 5
N_WINDOWS = 10


@pytest.fixture(scope="module")
def detector4(small_split):
    return HMDDetector(DetectorConfig("REPTree", "general", 4)).fit(small_split.train)


@pytest.fixture(scope="module")
def jobs():
    rng = np.random.default_rng(17)
    jobs = []
    for family in (BENIGN_FAMILIES + MALWARE_FAMILIES)[::3]:
        app = family.instantiate(rng)[0]
        jobs.append(ServeJob(app, N_WINDOWS, family.label == MALWARE))
    return jobs


@pytest.fixture(scope="module")
def serial_verdicts(detector4, jobs):
    """What a serial RuntimeMonitor says about the exact same executions."""
    monitor = RuntimeMonitor(detector4, n_counters=4)
    return [
        monitor.monitor(
            job.app, job.n_windows, ContainerPool(seed=POOL_SEED + i), job.is_malware
        )
        for i, job in enumerate(jobs)
    ]


# -- construction ------------------------------------------------------


def test_serve_rejects_over_budget_detector(small_split):
    wide = HMDDetector(DetectorConfig("J48", "general", 16)).fit(small_split.train)
    with pytest.raises(CounterCapacityError):
        DetectionService(wide, n_counters=4)


def test_serve_rejects_bad_geometry(detector4):
    with pytest.raises(ValueError):
        DetectionService(detector4, producers=0)
    with pytest.raises(ValueError):
        DetectionService(detector4, workers=0)
    with pytest.raises(ValueError):
        DetectionService(detector4, host_vote_windows=0)
    with pytest.raises(ValueError):
        DetectionService(detector4, vote_threshold=0.0)


def test_serve_job_host_defaults_to_app_name(jobs):
    assert jobs[0].host_name == jobs[0].app.name
    named = ServeJob(jobs[0].app, 4, False, host="rack-7")
    assert named.host_name == "rack-7"


# -- bit-identity with serial monitoring -------------------------------


def test_serial_geometry_is_bit_identical_to_runtime_monitor(
    detector4, jobs, serial_verdicts
):
    service = DetectionService(
        detector4, producers=1, workers=1, queue_depth=8, pool_seed=POOL_SEED
    )
    report = service.run(jobs)
    assert list(report.verdicts) == serial_verdicts
    assert report.n_windows == sum(v.n_windows for v in serial_verdicts)
    assert report.worker_crashes == 0
    assert report.recovered_windows == 0


@pytest.mark.parametrize("producers,workers", [(2, 1), (1, 3), (3, 2)])
def test_any_geometry_is_bit_identical(
    detector4, jobs, serial_verdicts, producers, workers
):
    service = DetectionService(
        detector4,
        producers=producers,
        workers=workers,
        queue_depth=4,
        pool_seed=POOL_SEED,
    )
    report = service.run(jobs)
    assert list(report.verdicts) == serial_verdicts


def test_accepts_plain_tuples(detector4, jobs, serial_verdicts):
    service = DetectionService(detector4, queue_depth=8, pool_seed=POOL_SEED)
    report = service.run(
        [(job.app, job.n_windows, job.is_malware) for job in jobs]
    )
    assert list(report.verdicts) == serial_verdicts


def test_empty_run(detector4):
    report = service_report = DetectionService(detector4).run([])
    assert isinstance(service_report, ServiceReport)
    assert report.verdicts == ()
    assert report.n_windows == 0


# -- chaos: injected worker crashes ------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_verdicts_total_and_identical_under_worker_crashes(
    detector4, jobs, serial_verdicts, seed
):
    """Exactly one verdict per closed window, bit-identical to serial,
    regardless of the crash schedule."""
    plan = ServiceFaultPlan(
        seed=seed, worker_crash_rate=0.9, max_crashes_per_worker=4
    )
    service = DetectionService(
        detector4,
        producers=2,
        workers=2,
        queue_depth=4,
        pool_seed=POOL_SEED,
        faults=plan,
    )
    report = service.run(jobs)
    assert len(report.verdicts) == len(jobs)
    assert list(report.verdicts) == serial_verdicts


def test_more_workers_than_cores_with_fast_thread_switching(
    detector4, jobs, serial_verdicts
):
    """Stress: four workers and three producers on two cores, a tiny
    switch interval, one-slot channels and crash chaos.  A lost update
    to the verdict table or an assembly would break totality or
    bit-identity."""
    service = DetectionService(
        detector4,
        producers=3,
        workers=4,
        queue_depth=1,
        pool_seed=POOL_SEED,
        faults=ServiceFaultPlan(
            seed=5, worker_crash_rate=0.9, max_crashes_per_worker=3
        ),
    )
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: reports.append(service.run(jobs)), daemon=True
        )
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "service run did not finish"
    assert list(reports[0].verdicts) == serial_verdicts


def test_chaos_actually_crashes_workers(detector4, jobs):
    plan = ServiceFaultPlan(seed=0, worker_crash_rate=1.0, max_crashes_per_worker=3)
    service = DetectionService(
        detector4, workers=2, queue_depth=4, pool_seed=POOL_SEED, faults=plan
    )
    report = service.run(jobs)
    assert report.worker_crashes > 0
    assert report.recovered_windows > 0


def test_zero_rate_plan_is_a_pristine_run(detector4, jobs, serial_verdicts):
    service = DetectionService(
        detector4,
        pool_seed=POOL_SEED,
        faults=ServiceFaultPlan(seed=9, worker_crash_rate=0.0),
    )
    report = service.run(jobs)
    assert report.worker_crashes == 0
    assert list(report.verdicts) == serial_verdicts


# -- backpressure ------------------------------------------------------


def test_tiny_queue_backpressures_but_stays_correct(
    detector4, jobs, serial_verdicts
):
    service = DetectionService(
        detector4, producers=3, workers=1, queue_depth=1, pool_seed=POOL_SEED
    )
    report = service.run(jobs)
    assert list(report.verdicts) == serial_verdicts
    assert report.backpressure_waits > 0


@pytest.mark.parametrize("faults", [None, ServiceFaultPlan(seed=1, worker_crash_rate=1.0)])
def test_ledger_drops_each_trace_once_its_verdict_is_recorded(
    detector4, jobs, serial_verdicts, monkeypatch, faults
):
    """The ledger keeps an execution's raw trace only until its verdict
    is recorded, so a long run does not hold every trace it streamed;
    recovery after a crash still regrades everything unverdicted."""
    states = []

    class Recorded(_RunState):
        def __init__(self, records, bus):
            super().__init__(records, bus)
            states.append(self)

    monkeypatch.setattr("repro.serve.service._RunState", Recorded)
    service = DetectionService(
        detector4, workers=2, queue_depth=4, pool_seed=POOL_SEED, faults=faults
    )
    report = service.run(jobs)
    assert list(report.verdicts) == serial_verdicts
    (state,) = states
    assert [record.trace for record in state.records] == [None] * len(jobs)
    if faults is not None:
        assert report.worker_crashes > 0


# -- claims: producers simulate a bounded run of executions at once ----

#: Two long executions among short ones, then 30 short ones in a row:
#: the stream spans several claims and hits both claim bounds.
CLAIM_WINDOWS = (20, 20, 640, 20, 20, 20, 20, 640) + (20,) * 32


@pytest.fixture(scope="module")
def claim_jobs(jobs):
    return [
        ServeJob(jobs[i % len(jobs)].app, n, jobs[i % len(jobs)].is_malware)
        for i, n in enumerate(CLAIM_WINDOWS)
    ]


@pytest.fixture(scope="module")
def claim_serial_verdicts(detector4, claim_jobs):
    monitor = RuntimeMonitor(detector4, n_counters=4)
    return [
        monitor.monitor(
            job.app, job.n_windows, ContainerPool(seed=POOL_SEED + i), job.is_malware
        )
        for i, job in enumerate(claim_jobs)
    ]


def _spy_claims(monkeypatch):
    """Record the window counts of every ``run_many`` call."""
    calls = []
    run_many = ContainerPool.run_many

    def spying(self, jobs, window_ms=10.0):
        calls.append([n_windows for _, n_windows, _ in jobs])
        return run_many(self, jobs, window_ms)

    monkeypatch.setattr(ContainerPool, "run_many", spying)
    return calls


@pytest.mark.parametrize("queue_depth,claims", [
    # at most 32 executions and 512 windows, unless one execution is longer
    (64, [[20, 20], [640], [20] * 4, [640], [20] * 25, [20] * 7]),
    # at most 4 executions
    (8, [[20, 20], [640], [20] * 4, [640]] + [[20] * 4] * 8),
])
def test_a_producer_claims_bounded_runs_of_executions(
    detector4, claim_jobs, claim_serial_verdicts, monkeypatch, queue_depth, claims
):
    calls = _spy_claims(monkeypatch)
    service = DetectionService(
        detector4, queue_depth=queue_depth, pool_seed=POOL_SEED
    )
    report = service.run(claim_jobs)
    assert calls == claims
    assert list(report.verdicts) == claim_serial_verdicts


@pytest.mark.parametrize("faults", [
    None, ServiceFaultPlan(seed=3, worker_crash_rate=0.9, max_crashes_per_worker=3),
])
@pytest.mark.parametrize("producers,workers", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_claimed_streams_are_bit_identical_and_ledgered_before_the_wire(
    detector4, claim_jobs, claim_serial_verdicts, monkeypatch,
    producers, workers, faults,
):
    """Mixed short and long executions over several claims: verdicts
    equal a serial sweep at every geometry, with or without worker
    crashes, and every published frame is the ledger trace of its
    execution, already set when it goes on the wire."""
    states = []
    published = []

    class Recorded(_RunState):
        def __init__(self, records, bus):
            super().__init__(records, bus)
            states.append(self)

    publish = Channel.publish

    def checking(self, message):
        if isinstance(message, WindowFrame):
            record = states[0].records[message.execution]
            published.append(record.trace is message.rows)
        publish(self, message)

    monkeypatch.setattr("repro.serve.service._RunState", Recorded)
    monkeypatch.setattr(Channel, "publish", checking)
    service = DetectionService(
        detector4,
        producers=producers,
        workers=workers,
        queue_depth=16,
        pool_seed=POOL_SEED,
        faults=faults,
    )
    report = service.run(claim_jobs)
    assert list(report.verdicts) == claim_serial_verdicts
    assert (report.worker_crashes > 0) == (faults is not None)
    assert published == [True] * len(claim_jobs)
    (state,) = states
    assert all(record.closed for record in state.records)
    assert [record.trace for record in state.records] == [None] * len(claim_jobs)


def test_claims_under_fast_thread_switching_stay_bit_identical(
    detector4, claim_jobs, claim_serial_verdicts
):
    """Stress: three producers racing for multi-execution claims, four
    workers on two cores, a tiny switch interval and crash chaos."""
    service = DetectionService(
        detector4,
        producers=3,
        workers=4,
        queue_depth=16,
        pool_seed=POOL_SEED,
        faults=ServiceFaultPlan(
            seed=7, worker_crash_rate=0.9, max_crashes_per_worker=3
        ),
    )
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: reports.append(service.run(claim_jobs)), daemon=True
        )
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "service run did not finish"
    assert list(reports[0].verdicts) == claim_serial_verdicts


# -- drain-batching: one classify call per drained batch ----------------


def _prefilled(jobs, shutdown=True):
    """A one-shard run state whose channel already holds every
    execution's frame and close (then SHUTDOWN if ``shutdown``); the
    ledger is full."""
    records = []
    for i, job in enumerate(jobs):
        trace = ContainerPool(seed=POOL_SEED + i).run(
            job.app, job.n_windows, job.is_malware
        )
        records.append(
            _ExecutionRecord(index=i, job=job, shard=0, trace=trace, closed=True)
        )
    messages = []
    for record in records:
        messages.append(
            WindowFrame(record.job.host_name, record.index, record.trace)
        )
        messages.append(
            WindowClosed(
                record.job.host_name, record.index, record.job.app.name,
                record.job.n_windows,
            )
        )
    bus = Bus(1, len(messages) + 1)
    for message in messages + ([SHUTDOWN] if shutdown else []):
        bus.shards[0].publish(message)
    return _RunState(records, bus), len(messages)


def _count_grade_calls(monkeypatch):
    """Record the row count of every ``grade_windows`` call."""
    calls = []
    grade = HMDDetector.grade_windows

    def counting(self, windows):
        calls.append(len(windows))
        return grade(self, windows)

    monkeypatch.setattr(HMDDetector, "grade_windows", counting)
    return calls


def test_a_drained_batch_is_graded_in_one_classify_call(
    detector4, jobs, serial_verdicts, monkeypatch
):
    service = DetectionService(detector4)
    state, _ = _prefilled(jobs)
    calls = _count_grade_calls(monkeypatch)
    service._worker_incarnation(state, 0, 0)
    assert calls == [len(jobs) * N_WINDOWS]
    assert [state.verdicts[i] for i in range(len(jobs))] == serial_verdicts
    assert state.done.is_set()


class _CrashOnce:
    """Fault plan stub: incarnation 0 crashes after ``after`` messages."""

    def __init__(self, after: int) -> None:
        self.after = after

    def crash_after(self, worker_index, incarnation, scale=64):
        return self.after if incarnation == 0 else None


@pytest.mark.parametrize("shutdown_in_batch", [False, True])
def test_a_crash_mid_drain_still_gives_one_verdict_per_execution(
    detector4, jobs, serial_verdicts, monkeypatch, shutdown_in_batch
):
    """The worker crashes halfway through its first (and only) drain:
    the closes it already took die with it, the replacement regrades
    everything from the ledger in one call, and a SHUTDOWN drained into
    the crashed batch still stops the replacement."""
    metrics = Registry()
    tracer = Tracer(enabled=True)
    service = DetectionService(detector4, metrics=metrics, tracer=tracer)
    state, n_messages = _prefilled(jobs, shutdown_in_batch)
    service.faults = _CrashOnce(after=n_messages // 2)
    calls = _count_grade_calls(monkeypatch)
    worker = threading.Thread(
        target=service._worker_loop, args=(state, 0), daemon=True
    )
    worker.start()
    assert state.done.wait(timeout=30)
    if not shutdown_in_batch:
        state.bus.shards[0].publish(SHUTDOWN)  # what run() does after done
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert state.crashes == 1
    assert calls == [len(jobs) * N_WINDOWS]
    assert [state.verdicts[i] for i in range(len(jobs))] == serial_verdicts
    emitted = [
        e for e in tracer.drain()
        if e.get("type") == "event" and e["name"] == "serve.verdict"
    ]
    assert sorted(e["attrs"]["index"] for e in emitted) == list(range(len(jobs)))
    counters = metrics.snapshot()["counters"]
    assert counters["serve_executions_total"]["value"] == len(jobs)
    assert counters["serve_recovered_windows_total"]["value"] == (
        len(jobs) * N_WINDOWS
    )


# -- per-host sliding vote window --------------------------------------


def test_host_vote_window_alerts_on_persistently_flagged_host(detector4):
    rng = np.random.default_rng(23)
    malware_family = MALWARE_FAMILIES[0]
    app = malware_family.instantiate(rng)[0]
    rounds = 4
    service = DetectionService(
        detector4,
        producers=1,
        workers=1,
        queue_depth=8,
        pool_seed=POOL_SEED,
        host_vote_windows=2 * N_WINDOWS,
    )
    report = service.run(
        [ServeJob(app, N_WINDOWS, True) for _ in range(rounds)]
    )
    # Detected executions keep the host's window hot: once the window
    # fills (after round 2) every further verdict re-evaluates it.
    if all(v.is_malware for v in report.verdicts):
        assert report.alerts, "persistently flagged host never alerted"
        for alert in report.alerts:
            assert alert["host"] == app.name
            assert alert["windows"] == 2 * N_WINDOWS
            assert alert["fraction"] >= service.vote_threshold


def test_benign_host_never_alerts(detector4):
    rng = np.random.default_rng(29)
    app = BENIGN_FAMILIES[0].instantiate(rng)[0]
    service = DetectionService(
        detector4, pool_seed=POOL_SEED, host_vote_windows=N_WINDOWS
    )
    report = service.run([ServeJob(app, N_WINDOWS, False) for _ in range(3)])
    if not any(v.is_malware for v in report.verdicts):
        assert report.alerts == ()


# -- observability wiring ----------------------------------------------


def test_serve_emits_trace_events_and_metrics(detector4, jobs):
    tracer = Tracer(enabled=True)
    metrics = Registry()
    plan = ServiceFaultPlan(seed=1, worker_crash_rate=1.0, max_crashes_per_worker=2)
    service = DetectionService(
        detector4,
        producers=2,
        workers=2,
        queue_depth=4,
        pool_seed=POOL_SEED,
        faults=plan,
        tracer=tracer,
        metrics=metrics,
    )
    report = service.run(jobs)
    events = [e for e in tracer.drain() if e.get("type") == "event"]
    verdict_events = [e for e in events if e["name"] == "serve.verdict"]
    crash_events = [e for e in events if e["name"] == "serve.worker_crash"]
    assert len(verdict_events) == len(jobs)
    assert sorted(e["attrs"]["index"] for e in verdict_events) == list(
        range(len(jobs))
    )
    assert len(crash_events) == report.worker_crashes
    snapshot = metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["serve_executions_total"]["value"] == len(jobs)
    assert counters["serve_windows_total"]["value"] == report.n_windows
    assert counters["serve_worker_crashes_total"]["value"] == report.worker_crashes
    assert (
        counters["serve_recovered_windows_total"]["value"]
        == report.recovered_windows
    )
    histogram = snapshot["histograms"]["serve_window_classify_seconds"]
    assert histogram["count"] == report.n_windows


def test_serve_feeds_health_evaluator(detector4, jobs):
    health = HealthEvaluator()
    service = DetectionService(detector4, pool_seed=POOL_SEED, health=health)
    report = service.run(jobs)
    values = health.window.values(health.clock())
    assert values["verdicts"] == len(jobs)
    assert report.n_windows > 0


# -- the report --------------------------------------------------------


def test_report_throughput(detector4, jobs):
    report = DetectionService(detector4, pool_seed=POOL_SEED).run(jobs)
    assert report.wall_seconds > 0
    assert report.windows_per_second == pytest.approx(
        report.n_windows / report.wall_seconds
    )


def test_serve_quality_tracking_keeps_verdicts_identical(
    detector4, jobs, small_split
):
    """quality= on the service leaves the report bit-identical."""
    from repro.obs import QualityTracker, build_reference_profile

    profile = build_reference_profile(detector4, small_split.train)
    baseline = DetectionService(
        detector4, queue_depth=8, pool_seed=POOL_SEED
    ).run(jobs)
    tracker = QualityTracker(profile, window_s=1e9)
    tracked = DetectionService(
        detector4, queue_depth=8, pool_seed=POOL_SEED, quality=tracker
    ).run(jobs)
    assert tracked.verdicts == baseline.verdicts
    assert tracker.total_executions == len(jobs)
    tracker.signals()  # flush pending observations into the windows
    assert tracker.hosts  # per-host windows keyed by served app names
