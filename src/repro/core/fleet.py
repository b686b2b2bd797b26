"""Fault-tolerant fleet monitoring: many applications, imperfect substrate.

:class:`~repro.core.runtime.RuntimeMonitor` watches one pristine
execution; a deployment watches a *fleet* of applications on machines
where containers crash, counter reads glitch, and sampling windows get
dropped.  :class:`FleetMonitor` runs many monitored executions over a
thread pool and keeps the verdict stream total under those faults:

* transient faults (container crash, counter-read glitch) are retried
  under a :class:`RetryPolicy` — bounded attempts, exponential backoff
  with deterministic jitter, and an optional per-application wall-clock
  timeout;
* permanent faults (host gone) and exhausted retries degrade instead of
  raising: the verdict is computed by quorum over whatever windows
  survived, with ``confidence`` / ``n_windows_lost`` / ``degraded``
  reporting exactly how much evidence backs it;
* every submitted application yields **exactly one** verdict, in
  submission order, no matter what the fault plan does.

Determinism contract: application ``i`` always executes in a private
:class:`~repro.hpc.lxc.ContainerPool` seeded ``pool_seed + i``, which is
the same container-seed sequence a serial monitor draws from one shared
pool — so with ``faults=None`` the fleet's verdicts are bit-identical
(:meth:`DetectionVerdict.__eq__`) to serial
:meth:`RuntimeMonitor.monitor` output regardless of worker count or
scheduling, and with a seeded :class:`~repro.hpc.faults.FaultPlan` the
whole degraded run replays exactly.

Per-application classification goes through
:func:`~repro.core.runtime.grade_trace`, i.e. each execution's
windows (and each retry's salvaged windows) hit the detector as one
batch through the vectorized inference kernels — the fleet's
windows/second ceiling is the per-detector classify rate (perfbench's
``ml.classify_s`` layer) times the worker count.  Each final
verdict is published through the shared
:class:`~repro.core.runtime.VerdictSink`.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.detector import HMDDetector
from repro.core.runtime import (
    DetectionVerdict,
    VerdictSink,
    grade_trace,
    validate_deployment,
)
from repro.hpc.events import ALL_EVENTS
from repro.hpc.faults import (
    NO_FAULTS,
    ContainerCrashError,
    CounterReadGlitchError,
    FaultPlan,
    FaultyContainerPool,
    GlitchyCounterRegisterFile,
    PermanentHostError,
)
from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import DEFAULT_WINDOW_MS, ApplicationBehavior
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    NULL_TRACER,
    HealthEvaluator,
    QualityTracker,
    Registry,
    Tracer,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How the fleet reacts to transient faults.

    Args:
        max_attempts: total tries per application (1 = no retries).
        base_backoff_s: sleep before the first retry.
        backoff_multiplier: exponential growth factor per retry.
        max_backoff_s: backoff ceiling (applied before jitter).
        jitter: symmetric jitter fraction; the actual sleep is the
            exponential backoff scaled by a deterministic factor in
            ``[1 - jitter, 1 + jitter]`` drawn from the fault plan's
            seeded jitter stream (thundering-herd protection that still
            replays exactly).
        timeout_s: per-application wall-clock budget; when exceeded the
            fleet stops retrying and degrades immediately (None = no
            timeout).
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.01
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.1
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.timeout_s is not None and self.timeout_s < 0:
            raise ValueError("timeout_s cannot be negative")

    def backoff_s(self, retry_index: int, rng: np.random.Generator) -> float:
        """Sleep before the ``retry_index``-th retry (0-based).

        Always finite: the exponent is clamped in log space before the
        exponential is evaluated, so a high retry index hits
        ``max_backoff_s`` instead of overflowing ``multiplier ** index``
        to infinity (or an OverflowError) on its way to the cap.
        """
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        if self.base_backoff_s == 0.0 or self.max_backoff_s == 0.0:
            raw = 0.0
        elif self.backoff_multiplier == 1.0:
            raw = min(self.base_backoff_s, self.max_backoff_s)
        else:
            # Smallest exponent at which the exponential reaches the cap;
            # at or past it the answer is exactly max_backoff_s and the
            # power must not be evaluated.
            cap_exponent = math.log(self.max_backoff_s / self.base_backoff_s) / (
                math.log(self.backoff_multiplier)
            )
            if retry_index >= cap_exponent:
                raw = self.max_backoff_s
            else:
                raw = min(
                    self.base_backoff_s * self.backoff_multiplier**retry_index,
                    self.max_backoff_s,
                )
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return raw


@dataclass(frozen=True)
class FleetJob:
    """One application submitted to the fleet."""

    app: ApplicationBehavior
    n_windows: int
    is_malware: bool


class _TransientFault(Exception):
    """Internal: a retryable fault, carrying the surviving raw windows."""

    def __init__(self, kind: str, salvage_trace: np.ndarray) -> None:
        super().__init__(kind)
        self.kind = kind
        self.salvage_trace = salvage_trace


class FleetMonitor:
    """Monitors a fleet of applications concurrently and fault-tolerantly.

    Args:
        detector: fitted detector; the same register-capacity constraint
            as :class:`~repro.core.runtime.RuntimeMonitor` applies.
        workers: thread-pool width (1 = serial in the calling thread).
        n_counters: physical counter registers per monitored host.
        vote_threshold: quorum fraction over surviving windows.
        window_ms: sampling interval.
        faults: optional seeded fault plan; None means a pristine
            substrate (and bit-identity with the serial monitor).
        retry: transient-fault retry policy (default
            :class:`RetryPolicy`()).
        pool_seed: base seed of the per-application container pools.
        tracer: optional tracer; records a ``fleet.run`` span, one
            ``fleet.app`` span per application, and a ``fleet.verdict``
            event per verdict.
        metrics: optional registry; counts faults by kind, retries,
            degraded verdicts, dropped windows, and observes backoff
            sleeps into ``fleet_backoff_sleep_seconds``.
        health: optional :class:`~repro.obs.HealthEvaluator` fed every
            verdict (with its retry count and lost windows) and every
            classify latency in-process, from the worker threads; the
            evaluator observes but never alters verdicts, so fleet
            output stays bit-identical with health enabled.
        quality: optional :class:`~repro.obs.QualityTracker` fed every
            verdict's reduced feature windows and graded scores for
            drift scoring (a glitching register file either raises or
            reads the pristine counts, so glitches never masquerade as
            drift); observes only, verdicts stay bit-identical, and None
            costs one attribute check.
        sleep: injection point for backoff sleeping (tests pass a
            recorder; production uses :func:`time.sleep`).
    """

    def __init__(
        self,
        detector: HMDDetector,
        workers: int = 4,
        n_counters: int = 4,
        vote_threshold: float = 0.5,
        window_ms: float = DEFAULT_WINDOW_MS,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        pool_seed: int = 0,
        tracer: Tracer | None = None,
        metrics: Registry | None = None,
        health: HealthEvaluator | None = None,
        quality: QualityTracker | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        validate_deployment(detector, n_counters, vote_threshold)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.detector = detector
        self.workers = workers
        self.n_counters = n_counters
        self.vote_threshold = vote_threshold
        self.window_ms = window_ms
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.pool_seed = pool_seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.health = health
        self.quality = quality
        self.sleep = sleep
        self.sink = VerdictSink(
            "fleet", vote_threshold, self.tracer, self.metrics, health, quality
        )
        # Instrument updates happen from worker threads; Counter.inc is
        # a read-modify-write, so serialize them with one fleet lock.
        self._metrics_lock = threading.Lock()
        self._c_retries = self.metrics.counter(
            "fleet_retries_total", "transient-fault retries performed"
        )
        self._c_degraded = self.metrics.counter(
            "fleet_degraded_verdicts_total", "verdicts emitted on partial evidence"
        )
        self._c_crashes = self.metrics.counter(
            "fleet_faults_crash_total", "container crashes observed"
        )
        self._c_glitches = self.metrics.counter(
            "fleet_faults_glitch_total", "counter-read glitches observed"
        )
        self._c_permanent = self.metrics.counter(
            "fleet_faults_permanent_total", "permanent host failures observed"
        )
        self._c_dropped = self.metrics.counter(
            "fleet_windows_dropped_total", "sampling windows lost to faults"
        )
        self._h_backoff = self.metrics.histogram(
            "fleet_backoff_sleep_seconds",
            "retry backoff sleeps (exponential, deterministic jitter)",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )

    def _inc(self, counter, amount: float = 1.0) -> None:
        with self._metrics_lock:
            counter.inc(amount)

    # -- one application ------------------------------------------------
    def _attempt(
        self, job: FleetJob, pool: ContainerPool | FaultyContainerPool, attempt: int
    ) -> tuple:
        """One monitoring attempt; raises on permanent/transient faults.

        Returns the verdict, the graded windows, and the classify time.
        """
        draw = (
            self.faults.draw(job.app.name, attempt, job.n_windows)
            if self.faults is not None
            else NO_FAULTS
        )
        try:
            if isinstance(pool, FaultyContainerPool):
                trace = pool.run(
                    job.app,
                    job.n_windows,
                    job.is_malware,
                    window_ms=self.window_ms,
                    attempt=attempt,
                )
            else:
                trace = pool.run(
                    job.app, job.n_windows, job.is_malware, window_ms=self.window_ms
                )
        except ContainerCrashError as exc:
            raise _TransientFault("crash", exc.partial_trace) from exc
        n_lost = 0
        if draw.dropped:
            keep = np.setdiff1d(np.arange(trace.shape[0]), np.array(draw.dropped))
            n_lost = trace.shape[0] - keep.size
            trace = trace[keep]
        register_file = None
        if self.faults is not None:
            register_file = GlitchyCounterRegisterFile(
                self.n_counters, glitch_read=draw.glitch_read
            )
        try:
            start = time.perf_counter()
            flags, readings, scores = grade_trace(
                self.detector, self.n_counters, trace, register_file=register_file
            )
            elapsed = time.perf_counter() - start
        except CounterReadGlitchError as exc:
            raise _TransientFault("glitch", trace[: exc.windows_read]) from exc
        if n_lost:
            self._inc(self._c_dropped, n_lost)
        verdict = DetectionVerdict.from_flags(
            job.app.name, flags, self.vote_threshold, n_windows_lost=n_lost
        )
        return verdict, readings, scores, elapsed

    def _degrade(self, job: FleetJob, salvage_trace: np.ndarray) -> tuple:
        """Quorum verdict over whatever raw windows survived the faults.

        The salvage is classified with a pristine register file — the
        degradation path must itself be fault-free, or the verdict
        stream would stop being total.  Its classify time is not a
        latency observation, so none is returned.
        """
        flags, readings, scores = grade_trace(
            self.detector, self.n_counters, salvage_trace
        )
        n_lost = job.n_windows - int(salvage_trace.shape[0])
        self._inc(self._c_dropped, n_lost)
        verdict = DetectionVerdict.from_flags(
            job.app.name,
            flags,
            self.vote_threshold,
            n_windows_lost=n_lost,
            degraded=True,
        )
        return verdict, readings, scores, None

    def _monitor_app(self, job: FleetJob, index: int) -> DetectionVerdict:
        """Monitor one application to exactly one verdict, never raising."""
        pool: ContainerPool | FaultyContainerPool = ContainerPool(
            seed=self.pool_seed + index
        )
        if self.faults is not None:
            pool = FaultyContainerPool(pool, self.faults)
        no_evidence = np.zeros((0, len(ALL_EVENTS)))
        started = time.monotonic()
        attempts = 0
        with self.tracer.span(
            "fleet.app", app=job.app.name, index=index, n_windows=job.n_windows
        ) as span:
            salvage = no_evidence
            while True:
                attempts += 1
                try:
                    graded = self._attempt(job, pool, attempts - 1)
                    break
                except PermanentHostError:
                    self._inc(self._c_permanent)
                    graded = self._degrade(job, no_evidence)
                    break
                except _TransientFault as fault:
                    self._inc(
                        self._c_crashes if fault.kind == "crash" else self._c_glitches
                    )
                    salvage = fault.salvage_trace
                    timed_out = (
                        self.retry.timeout_s is not None
                        and time.monotonic() - started >= self.retry.timeout_s
                    )
                    if attempts >= self.retry.max_attempts or timed_out:
                        graded = self._degrade(job, salvage)
                        break
                    jitter_rng = (
                        self.faults.jitter_rng(job.app.name, attempts)
                        if self.faults is not None
                        else np.random.default_rng(0)
                    )
                    backoff = self.retry.backoff_s(attempts - 1, jitter_rng)
                    with self._metrics_lock:
                        self._c_retries.inc()
                        self._h_backoff.observe(backoff)
                    self.sleep(backoff)
            verdict, readings, scores, elapsed = graded
            span.set(attempts=attempts, degraded=verdict.degraded)
        if verdict.degraded:
            self._inc(self._c_degraded)
        self.sink.emit(
            verdict,
            host=job.app.name,
            index=index,
            truth=job.is_malware,
            readings=readings,
            scores=scores,
            elapsed=elapsed,
            attempts=attempts,
        )
        return verdict

    # -- the fleet ------------------------------------------------------
    def monitor_fleet(
        self, jobs: Iterable[FleetJob | Sequence]
    ) -> list[DetectionVerdict]:
        """Monitor every job; returns one verdict per job, in order.

        Jobs may be :class:`FleetJob` instances or ``(app, n_windows,
        is_malware)`` tuples.  The result list is always the same length
        as the input, faults or not.
        """
        normalized = [
            job if isinstance(job, FleetJob) else FleetJob(*job) for job in jobs
        ]
        with self.tracer.span(
            "fleet.run", n_apps=len(normalized), workers=self.workers
        ):
            if self.workers == 1 or len(normalized) <= 1:
                return [
                    self._monitor_app(job, i) for i, job in enumerate(normalized)
                ]
            with ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="fleet"
            ) as executor:
                futures = [
                    executor.submit(self._monitor_app, job, i)
                    for i, job in enumerate(normalized)
                ]
                return [future.result() for future in futures]
