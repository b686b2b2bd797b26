"""The streaming detection service: ``fleet run`` becomes ``fleet serve``.

:class:`~repro.core.fleet.FleetMonitor` is a batch fan-out: a fixed job
list in, a verdict list out.  :class:`DetectionService` is the
long-running shape the paper's run-time argument actually implies —
detection *while programs execute*, as a pipeline of concurrent stages
over the bounded queue fabric in :mod:`repro.serve.bus`:

* **producers** claim a bounded, contiguous run of executions (at most
  ``queue_depth // 2`` executions and about 512 windows; a longer
  execution is a claim of its own), simulate the whole claim with one
  :meth:`~repro.hpc.lxc.ContainerPool.run_many` call, then publish each
  execution's sampling windows as one
  :class:`~repro.serve.bus.WindowFrame`, then a
  :class:`~repro.serve.bus.WindowClosed` marker, in submission order,
  blocking on backpressure when the detector side is saturated.  The
  trade: one synthesis call per claim instead of one per execution, and
  a worker that drains the whole claim grades it in one classify call,
  but the first verdict of a claim waits for the simulation of all of
  it;
* **sharded detector workers** each own the hosts that hash to their
  channel.  A worker wakes on one blocking consume, drains whatever
  else is already queued, and grades every execution closed in that
  drained batch with one call to the vectorized inference kernels
  (:func:`~repro.core.runtime.grade_traces`).  It emits exactly one
  :class:`~repro.core.runtime.DetectionVerdict` per closed execution
  through the shared :class:`~repro.core.runtime.VerdictSink`, and
  maintains a per-host sliding vote window across executions that
  raises ``serve.alert`` events when a host's recent windows trip the
  vote threshold;
* a **supervisor** (the :meth:`DetectionService.run` thread) watches for
  injected worker crashes (:class:`~repro.hpc.faults.ServiceFaultPlan`,
  the same seeded-chaos discipline :class:`~repro.hpc.faults.FaultPlan`
  applies to the substrate) and keeps the verdict stream total.

Crash recovery without duplicate verdicts: before publishing anything,
a producer registers the full trace of every execution of its claim in
an in-memory **ledger** (the durable store — the role Redis plays in
StratosphereLinuxIPS).  Workers hold frames by execution, first copy
wins, so redelivered frames are idempotent, and a replacement worker
incarnation rebuilds its state straight from the ledger instead of
republishing into a bounded channel (which could deadlock against a
full queue).  Verdict emission is a check-and-set on the shared verdict
table, so no matter how deliveries and recoveries interleave, **every
closed window yields exactly one verdict** — and because classification
is a pure function of the trace (each row grades the same whatever it
is batched with), the verdicts are bit-identical to a serial
:class:`~repro.core.runtime.RuntimeMonitor` sweep whether or not
workers crashed along the way.

Determinism contract: execution ``i`` runs in the container seeded
``pool_seed + i`` (a claim starting at execution ``k`` runs in one
:class:`~repro.hpc.lxc.ContainerPool` seeded ``pool_seed + k``, whose
``j``-th container is seeded ``pool_seed + k + j``) — the same
container-seed sequence a serial monitor draws from one shared pool, and
``run_many`` gives every execution the trace a lone run would — so
verdicts (and their order in the report, which is submission
order) are bit-identical to serial monitoring at any producer × worker
geometry.  With multiple producers the *interleaving* of per-host alert
events may vary; the verdicts never do.

Registry warm-start: workers are threads, so every worker classifies
through the *same* detector object.  A detector loaded via
:meth:`repro.registry.ModelRegistry.load_detector` keeps its compiled
inference arrays as read-only memory-mapped views of the on-disk
payload — one physical copy of the model serves all workers (and all
service processes pointed at the same registry), with zero refit or
re-flatten at startup.  Inference only reads those arrays, so the
mmap-backed detector honours the same bit-identical verdict contract
as a freshly fitted one.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.deploy import pool_seed
from repro.core.detector import HMDDetector
from repro.core.runtime import (
    DetectionVerdict,
    VerdictSink,
    grade_traces,
    validate_deployment,
)
from repro.hpc.faults import ServiceFaultPlan, WorkerCrashError
from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import DEFAULT_WINDOW_MS, ApplicationBehavior
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    HealthEvaluator,
    QualityTracker,
    Registry,
    Tracer,
)
from repro.serve.bus import SHUTDOWN, Bus, WindowClosed, WindowFrame

#: Bus messages per execution (its frame, then its close); the range of
#: injected crash draws, so crashes land mid-execution.
_MESSAGES_PER_EXECUTION = 2

#: Windows a producer simulates in one claim.  A longer execution is a
#: claim of its own; a claim's first verdict waits for all of it.
_CLAIM_WINDOWS = 512


@dataclass(frozen=True)
class ServeJob:
    """One execution submitted to the service's stream.

    Args:
        app: behaviour model to execute.
        n_windows: sampling windows to stream.
        is_malware: ground truth, used only by the execution substrate
            (container contamination), never by the detector.
        host: host identity for sharding and the sliding vote window;
            defaults to the application name.
    """

    app: ApplicationBehavior
    n_windows: int
    is_malware: bool
    host: str | None = None

    @property
    def host_name(self) -> str:
        return self.host if self.host is not None else self.app.name


def serve_jobs(
    meta: dict, hosts: Sequence[tuple[ApplicationBehavior, bool]]
) -> list[ServeJob]:
    """The job stream of a ``serve`` run_meta: every host once per round,
    so each host's sliding vote window spans its executions."""
    return [
        ServeJob(app, int(meta["windows"]), truth)
        for _ in range(int(meta["rounds"]))
        for app, truth in hosts
    ]


@dataclass
class _ExecutionRecord:
    """Ledger entry: the authoritative copy of one execution's stream.

    ``trace`` is set (complete) before the frame is published and
    ``closed`` is set before the close marker is published, so a
    recovering worker reading the ledger always sees at least as much
    as was ever on the wire.  ``trace`` is dropped once the execution's
    verdict is recorded: recovery only replays unverdicted executions.
    """

    index: int
    job: ServeJob
    shard: int
    trace: np.ndarray | None = None
    closed: bool = False


@dataclass(frozen=True)
class ServiceReport:
    """What one :meth:`DetectionService.run` streamed and survived.

    Attributes:
        verdicts: one verdict per submitted job, in submission order.
        alerts: per-host sliding-vote alerts, as emitted.
        n_windows: sampling windows classified into verdicts.
        worker_crashes: injected worker crashes survived (each one
            forced a restart and a ledger recovery).
        recovered_windows: windows rebuilt from the ledger by restarted
            workers.
        backpressure_waits: producer publishes that blocked on a full
            channel.
        wall_seconds: end-to-end run time.
    """

    verdicts: tuple[DetectionVerdict, ...]
    alerts: tuple[dict, ...]
    n_windows: int
    worker_crashes: int
    recovered_windows: int
    backpressure_waits: int
    wall_seconds: float

    @property
    def windows_per_second(self) -> float:
        return self.n_windows / self.wall_seconds if self.wall_seconds > 0 else 0.0


class _RunState:
    """Mutable state shared by one run's producers, workers, supervisor."""

    def __init__(self, records: list[_ExecutionRecord], bus: Bus) -> None:
        self.records = records
        self.bus = bus
        self.verdicts: dict[int, DetectionVerdict] = {}
        self.verdict_lock = threading.Lock()
        self.done = threading.Event()
        self.next_job = 0
        self.job_lock = threading.Lock()
        self.host_flags: dict[str, deque] = {}
        self.alerts: list[dict] = []
        self.crashes = 0
        self.recovered_windows = 0
        self.stat_lock = threading.Lock()
        self.failures: list[BaseException] = []

    def records_for_shard(self, shard: int) -> list[_ExecutionRecord]:
        return [record for record in self.records if record.shard == shard]


class DetectionService:
    """Long-running streaming detection over the bounded queue fabric.

    Args:
        detector: fitted detector; the register-capacity constraint of
            :class:`~repro.core.runtime.RuntimeMonitor` applies.
        producers: concurrent execution/publish threads.
        workers: sharded detector workers (and shard channels).
        queue_depth: bound of each shard channel — the backpressure
            knob: smaller depths throttle producers sooner.  A producer
            claims at most ``queue_depth // 2`` executions at a time.
        n_counters: physical counter registers per monitored host.
        vote_threshold: quorum fraction for per-execution verdicts and
            the per-host sliding vote window.
        window_ms: sampling interval.
        host_vote_windows: length (in sampling windows) of each host's
            sliding vote window; a full window whose flagged fraction
            reaches ``vote_threshold`` raises a ``serve.alert`` event.
        faults: optional seeded :class:`~repro.hpc.faults.ServiceFaultPlan`
            crashing detector workers mid-stream; None means no chaos.
        pool_seed: base seed of the per-execution container pools
            (execution ``i`` uses ``pool_seed + i``, the serial-monitor
            sequence).
        tracer: optional tracer; records a ``serve.run`` span plus
            ``serve.verdict`` / ``serve.alert`` / ``serve.worker_crash``
            events.
        metrics: optional registry (windows, executions, alarms,
            crashes, recoveries, backpressure, classify latency).
        health: optional :class:`~repro.obs.HealthEvaluator` fed every
            verdict and classify latency in-process; it observes but
            never alters verdicts.
        quality: optional :class:`~repro.obs.QualityTracker` fed every
            emitted verdict's reduced feature windows and graded scores
            (keyed by host, so the tracker's per-host windows report
            per-host drift); observes only — verdicts stay bit-identical
            — and None costs one attribute check per execution.
    """

    def __init__(
        self,
        detector: HMDDetector,
        producers: int = 1,
        workers: int = 1,
        queue_depth: int = 64,
        n_counters: int = 4,
        vote_threshold: float = 0.5,
        window_ms: float = DEFAULT_WINDOW_MS,
        host_vote_windows: int = 16,
        faults: ServiceFaultPlan | None = None,
        pool_seed: int = 0,
        tracer: Tracer | None = None,
        metrics: Registry | None = None,
        health: HealthEvaluator | None = None,
        quality: QualityTracker | None = None,
    ) -> None:
        validate_deployment(detector, n_counters, vote_threshold)
        if producers < 1:
            raise ValueError(f"producers must be >= 1, got {producers}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if host_vote_windows < 1:
            raise ValueError(
                f"host_vote_windows must be >= 1, got {host_vote_windows}"
            )
        self.detector = detector
        self.producers = producers
        self.workers = workers
        self.queue_depth = queue_depth
        self.n_counters = n_counters
        self.vote_threshold = vote_threshold
        self.window_ms = window_ms
        self.host_vote_windows = host_vote_windows
        self.faults = faults
        self.pool_seed = pool_seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.health = health
        self.quality = quality
        self.sink = VerdictSink(
            "serve", vote_threshold, self.tracer, self.metrics, health, quality
        )
        self._metrics_lock = threading.Lock()
        self._c_host_alerts = self.metrics.counter(
            "serve_host_alerts_total", "per-host sliding-vote alerts raised"
        )
        self._c_crashes = self.metrics.counter(
            "serve_worker_crashes_total", "injected detector-worker crashes"
        )
        self._c_recovered = self.metrics.counter(
            "serve_recovered_windows_total",
            "windows rebuilt from the ledger by restarted workers",
        )
        self._c_backpressure = self.metrics.counter(
            "serve_backpressure_waits_total",
            "publishes that blocked on a full channel",
        )

    @classmethod
    def from_meta(
        cls, detector: HMDDetector, meta: dict, **kwargs
    ) -> "DetectionService":
        """The service a ``serve`` run_meta (:mod:`repro.core.deploy`)
        describes; ``kwargs`` add faults and observability hooks."""
        return cls(
            detector,
            producers=int(meta["producers"]),
            workers=int(meta["workers"]),
            queue_depth=int(meta["queue_depth"]),
            n_counters=int(meta["counters"]),
            vote_threshold=float(meta["vote_threshold"]),
            host_vote_windows=int(meta["host_vote_windows"]),
            pool_seed=pool_seed(meta),
            **kwargs,
        )

    # -- producers ------------------------------------------------------
    def _claim(self, state: _RunState) -> list[_ExecutionRecord]:
        """Take the next contiguous run of unclaimed records.

        A claim holds at most ``queue_depth // 2`` executions (so its
        frames and closes fit one channel) and stops before its windows
        would pass :data:`_CLAIM_WINDOWS`; its first record always fits.
        """
        records = state.records
        limit = max(self.queue_depth // 2, 1)
        with state.job_lock:
            first = end = state.next_job
            windows = 0
            while end < len(records) and end - first < limit:
                windows += records[end].job.n_windows
                if end > first and windows > _CLAIM_WINDOWS:
                    break
                end += 1
            state.next_job = end
        return records[first:end]

    def _produce(self, state: _RunState) -> None:
        """Claim executions, simulate each claim at once, then publish
        every execution of it as one frame and its close."""
        while claim := self._claim(state):
            pool = ContainerPool(seed=self.pool_seed + claim[0].index)
            traces = pool.run_many(
                [(r.job.app, r.job.n_windows, r.job.is_malware) for r in claim],
                window_ms=self.window_ms,
            )
            # Ledger before wire: recovery must never see less than a
            # worker could have consumed.
            for record, trace in zip(claim, traces):
                record.trace = trace
            for record, trace in zip(claim, traces):
                job = record.job
                channel = state.bus.shards[record.shard]
                channel.publish(WindowFrame(job.host_name, record.index, trace))
                record.closed = True
                channel.publish(
                    WindowClosed(
                        job.host_name, record.index, job.app.name, job.n_windows
                    )
                )

    # -- workers --------------------------------------------------------
    def _observe_host(
        self, state: _RunState, host: str, execution: int,
        verdict: DetectionVerdict,
    ) -> None:
        """Slide the host's vote window; alert when a full window trips.

        Only the host's shard owner ever touches its deque (incarnations
        of one shard never overlap), so no lock is needed.
        """
        window = state.host_flags.get(host)
        if window is None:
            window = state.host_flags.setdefault(
                host, deque(maxlen=self.host_vote_windows)
            )
        window.extend(int(flag) for flag in verdict.window_flags)
        if len(window) < self.host_vote_windows:
            return
        fraction = sum(window) / len(window)
        if fraction >= self.vote_threshold:
            alert = {
                "host": host,
                "execution": execution,
                "fraction": fraction,
                "windows": len(window),
            }
            state.alerts.append(alert)
            with self._metrics_lock:
                self._c_host_alerts.inc()
            self.tracer.event("serve.alert", **alert)

    def _grade_closed(
        self, state: _RunState, frames: dict[int, np.ndarray],
        closes: list[WindowClosed],
    ) -> None:
        """Grade every closed execution in one classify call and emit.

        A close always finds its execution's frame: the frame precedes
        it on the channel, and a frame consumed by a crashed incarnation
        was put back from the ledger by the recovery that follows every
        crash.
        """
        ready = []
        for closed in closes:
            with state.verdict_lock:
                already = closed.execution in state.verdicts
            if already:
                frames.pop(closed.execution, None)
            else:
                ready.append((closed, frames.pop(closed.execution)))
        if not ready:
            return
        start = time.perf_counter()
        graded = grade_traces(
            self.detector, self.n_counters, [trace for _, trace in ready]
        )
        elapsed = time.perf_counter() - start
        total = sum(closed.n_windows for closed, _ in ready)
        per_window = elapsed / total if total else 0.0
        for (closed, _), (flags, readings, scores) in zip(ready, graded):
            verdict = DetectionVerdict.from_flags(
                closed.app_name, flags, self.vote_threshold
            )
            # Exactly once: check-and-set, since a ledger-recovery
            # duplicate may have won the race since the check above.  The
            # sink runs after it, so no duplicate can double-count a
            # verdict or its drift evidence.
            with state.verdict_lock:
                if closed.execution in state.verdicts:
                    continue
                state.verdicts[closed.execution] = verdict
                state.records[closed.execution].trace = None
                remaining = len(state.records) - len(state.verdicts)
            self.sink.emit(
                verdict,
                host=closed.host,
                index=closed.execution,
                truth=state.records[closed.execution].job.is_malware,
                readings=readings,
                scores=scores,
                # this execution's share of the batch's classify time
                elapsed=per_window * closed.n_windows,
            )
            self._observe_host(state, closed.host, closed.execution, verdict)
            if remaining == 0:
                state.done.set()

    def _recover(
        self, state: _RunState, shard: int, frames: dict[int, np.ndarray]
    ) -> None:
        """Rebuild a restarted worker's state from the ledger.

        The previous incarnation's consumed-but-unverdicted messages
        died with it; the ledger holds every produced execution in
        full, so recovery replays from there instead of republishing
        into a bounded channel (which could deadlock against a full
        queue with no consumer).  Duplicates still in the channel are
        harmless — frames are held by execution and emission is
        check-and-set.  Every recovered closed execution is graded in
        one batch.
        """
        closes = []
        for record in state.records_for_shard(shard):
            trace = record.trace
            if trace is None:
                continue
            with state.verdict_lock:
                if record.index in state.verdicts:
                    continue
            frames[record.index] = trace
            with state.stat_lock:
                state.recovered_windows += trace.shape[0]
            with self._metrics_lock:
                self._c_recovered.inc(trace.shape[0])
            if record.closed:
                closes.append(
                    WindowClosed(
                        record.job.host_name,
                        record.index,
                        record.job.app.name,
                        record.job.n_windows,
                    )
                )
        self._grade_closed(state, frames, closes)

    def _worker_incarnation(
        self, state: _RunState, worker_index: int, incarnation: int
    ) -> None:
        """One worker life: recover, then drain until shutdown or crash.

        Each wake-up is one blocking consume plus a non-blocking drain of
        whatever else is already queued; every execution closed in that
        batch is graded together.  The worker never waits for more, so a
        lone execution is graded as soon as its close arrives.
        """
        channel = state.bus.shards[worker_index]
        frames: dict[int, np.ndarray] = {}
        if incarnation > 0:
            self._recover(state, worker_index, frames)
        crash_after = (
            self.faults.crash_after(
                worker_index, incarnation, scale=_MESSAGES_PER_EXECUTION
            )
            if self.faults is not None
            else None
        )
        consumed = 0
        while True:
            batch = [channel.consume()]
            if batch[0] is not SHUTDOWN:
                batch += channel.drain()
            closes = []
            for message in batch:
                if message is SHUTDOWN:
                    self._grade_closed(state, frames, closes)
                    return
                consumed += 1
                if crash_after is not None and consumed >= crash_after:
                    # The message just consumed, and the rest of the
                    # batch, die with the worker — the loss the ledger
                    # recovery exists to repair.  A drained SHUTDOWN must
                    # not die too, or the replacement would wait forever;
                    # it goes back (the channel has room: nothing is
                    # published after it).
                    if batch[-1] is SHUTDOWN:
                        channel.publish(SHUTDOWN)
                    raise WorkerCrashError(
                        f"injected crash: worker {worker_index} incarnation "
                        f"{incarnation} after {consumed} messages"
                    )
                if isinstance(message, WindowFrame):
                    frames.setdefault(message.execution, message.rows)
                elif isinstance(message, WindowClosed):
                    closes.append(message)
            self._grade_closed(state, frames, closes)

    def _worker_loop(self, state: _RunState, worker_index: int) -> None:
        """Supervised worker: every injected crash becomes a restart."""
        incarnation = 0
        while True:
            try:
                self._worker_incarnation(state, worker_index, incarnation)
                return
            except WorkerCrashError:
                with state.stat_lock:
                    state.crashes += 1
                with self._metrics_lock:
                    self._c_crashes.inc()
                self.tracer.event(
                    "serve.worker_crash",
                    worker=worker_index,
                    incarnation=incarnation,
                )
                incarnation += 1
            except BaseException as exc:  # pragma: no cover - defensive
                with state.stat_lock:
                    state.failures.append(exc)
                state.done.set()
                return

    def _produce_loop(self, state: _RunState) -> None:
        try:
            self._produce(state)
        except BaseException as exc:  # pragma: no cover - defensive
            with state.stat_lock:
                state.failures.append(exc)
            state.done.set()

    # -- the service ----------------------------------------------------
    def run(self, jobs: Iterable[ServeJob | Sequence]) -> ServiceReport:
        """Stream every job through the service to exactly one verdict.

        Jobs may be :class:`ServeJob` instances or ``(app, n_windows,
        is_malware)`` tuples.  Returns when every submitted execution
        has closed and emitted its verdict — a bounded run of the
        long-running service loop, which is also how the benchmark and
        the CLI drive it.
        """
        normalized = [
            job if isinstance(job, ServeJob) else ServeJob(*job) for job in jobs
        ]
        bus = Bus(self.workers, self.queue_depth)
        records = [
            _ExecutionRecord(index=i, job=job, shard=bus.shard_for(job.host_name))
            for i, job in enumerate(normalized)
        ]
        state = _RunState(records, bus)
        started = time.perf_counter()
        with self.tracer.span(
            "serve.run",
            n_jobs=len(records),
            producers=self.producers,
            workers=self.workers,
            queue_depth=self.queue_depth,
        ) as span:
            if not records:
                state.done.set()
            worker_threads = [
                threading.Thread(
                    target=self._worker_loop, args=(state, w),
                    name=f"serve-worker-{w}", daemon=True,
                )
                for w in range(self.workers)
            ]
            producer_threads = [
                threading.Thread(
                    target=self._produce_loop, args=(state,),
                    name=f"serve-producer-{p}", daemon=True,
                )
                for p in range(self.producers)
            ]
            for thread in worker_threads + producer_threads:
                thread.start()
            state.done.wait()
            if state.failures:
                raise RuntimeError(
                    "streaming service failed"
                ) from state.failures[0]
            for thread in producer_threads:
                thread.join()
            for channel in bus.shards:
                channel.publish(SHUTDOWN)
            for thread in worker_threads:
                thread.join()
            wall = time.perf_counter() - started
            with self._metrics_lock:
                self._c_backpressure.inc(bus.backpressure_waits)
            span.set(
                crashes=state.crashes,
                backpressure_waits=bus.backpressure_waits,
            )
        if len(state.verdicts) != len(records):  # pragma: no cover - invariant
            raise RuntimeError(
                f"verdict totality violated: {len(state.verdicts)} verdicts "
                f"for {len(records)} closed windows"
            )
        verdicts = tuple(state.verdicts[i] for i in range(len(records)))
        return ServiceReport(
            verdicts=verdicts,
            alerts=tuple(state.alerts),
            n_windows=sum(v.n_windows for v in verdicts),
            worker_crashes=state.crashes,
            recovered_windows=state.recovered_windows,
            backpressure_waits=bus.backpressure_waits,
            wall_seconds=wall,
        )
