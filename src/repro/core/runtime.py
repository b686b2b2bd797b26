"""Run-time streaming detection — the deployment the paper argues for.

A trained detector whose event budget fits the physical counter registers
can classify every 10 ms window of a *single* execution, with no re-runs
and no multiplexing error.  :class:`RuntimeMonitor` wires a fitted
:class:`~repro.core.detector.HMDDetector` to the counter register file
and streams verdicts; :class:`DetectionVerdict` aggregates per-window
decisions into an application-level alarm with a configurable vote.

The constructor enforces the paper's central practicality constraint: a
detector that monitors more events than there are registers cannot run
at run time and is rejected outright.

:class:`DetectionVerdict` also carries the degraded-evidence fields
(``confidence`` / ``n_windows_lost`` / ``degraded``) used by
:class:`~repro.core.fleet.FleetMonitor` when windows are lost to
injected faults; a pristine single-execution verdict always reports
full confidence with nothing lost, so serial and fleet verdicts stay
bit-comparable.

:func:`grade_traces` (sample + classify, one call for a batch of
executions; :func:`grade_trace` is its one-execution case) and
:class:`VerdictSink` (metrics, trace event, health, quality) are
the verdict path every driver shares: the monitor here, the fleet, and
the streaming service differ only in how executions reach them.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.detector import HMDDetector
from repro.hpc.counters import CounterCapacityError, CounterRegisterFile, sample_trace
from repro.hpc.events import ALL_EVENTS
from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import DEFAULT_WINDOW_MS, ApplicationBehavior
from repro.obs import (
    FAST_LATENCY_BUCKETS,
    NULL_REGISTRY,
    NULL_TRACER,
    HealthEvaluator,
    QualityTracker,
    Registry,
    Tracer,
)


def validate_deployment(
    detector: HMDDetector, n_counters: int, vote_threshold: float
) -> None:
    """Reject deployments that cannot run at run time.

    Shared by :class:`RuntimeMonitor` and
    :class:`~repro.core.fleet.FleetMonitor` so both enforce the paper's
    register-capacity constraint identically.
    """
    if not detector.fitted_:
        raise RuntimeError("detector must be fitted before deployment")
    if not 0.0 < vote_threshold <= 1.0:
        raise ValueError("vote_threshold must be in (0, 1]")
    events = detector.monitored_events
    if len(events) > n_counters:
        raise CounterCapacityError(
            f"detector monitors {len(events)} events but the CPU has "
            f"{n_counters} counter registers; run-time detection needs "
            f"a detector with n_hpcs <= {n_counters}"
        )


def grade_traces(
    detector: HMDDetector,
    n_counters: int,
    traces: list[np.ndarray],
    register_file: CounterRegisterFile | None = None,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sample raw 44-event traces through a register file and grade them
    in one classify call.

    Args:
        detector: fitted detector whose events are programmed.
        n_counters: register-file capacity when ``register_file`` is None.
        traces: arrays ``(n_windows_i, 44)`` of raw event activity, one
            per execution.
        register_file: optional pre-built register file (e.g. a
            :class:`~repro.hpc.faults.GlitchyCounterRegisterFile`); a
            pristine one is built when omitted.  Sampling resets the
            registers every window, so the traces share it.

    Returns:
        One ``(flags, readings, scores)`` per trace, in order: per-window
        0/1 flags, the counter readings ``(n_windows_i,
        n_monitored_events)`` they were classified from, and the graded
        malware scores.  Flags and scores come from one probability pass
        (:meth:`~repro.core.detector.HMDDetector.grade_windows`) over the
        readings of every trace stacked together, split back per trace;
        the inference kernels are row-independent, so each trace grades
        exactly as it would alone, and the flags are bit-identical to
        ``predict_windows``.  An empty trace grades to empty arrays.

    The whole batch goes through the classifier as one call, so this hot
    path runs at the vectorized inference-kernel rates (flat-array tree
    descent, compiled rule lists, stacked ensemble members) — never a
    per-window Python loop — and a batch of short executions pays the
    per-call overhead once.
    """
    if register_file is None:
        register_file = CounterRegisterFile(n_counters)
    register_file.program(list(detector.monitored_events))
    readings = [sample_trace(register_file, trace, ALL_EVENTS) for trace in traces]
    flags, scores = detector.grade_windows(np.concatenate(readings))
    bounds = np.cumsum([part.shape[0] for part in readings])[:-1]
    return list(zip(np.split(flags, bounds), readings, np.split(scores, bounds)))


def grade_trace(
    detector: HMDDetector,
    n_counters: int,
    trace: np.ndarray,
    register_file: CounterRegisterFile | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`grade_traces` of one trace: ``(flags, readings, scores)``."""
    return grade_traces(detector, n_counters, [trace], register_file)[0]


def detection_latency_windows(
    window_flags: np.ndarray, vote_threshold: float
) -> int | None:
    """First window index at which the cumulative vote crosses the
    alarm threshold, or None if it never does.

    This is the run-time detection delay (in sampling windows) the
    paper's run-time argument is about.
    """
    flags = np.asarray(window_flags)
    if flags.size == 0:
        return None
    cumulative = np.cumsum(flags) / (np.arange(flags.size) + 1)
    crossed = np.flatnonzero(cumulative >= vote_threshold)
    return int(crossed[0]) if crossed.size else None


@dataclass(frozen=True, eq=False)
class DetectionVerdict:
    """Outcome of monitoring one application execution.

    Attributes:
        app_name: monitored application.
        window_flags: per-window 0/1 classifications, stored as a
            read-only copy (the verdict is evidence; callers must not
            be able to rewrite it, and the constructor's array may be
            reused by the caller).
        malware_fraction: fraction of surviving windows flagged malicious.
        is_malware: application-level alarm decision.
        confidence: fraction of requested windows that survived faults
            (1.0 for a pristine execution, 0.0 when every window was
            lost and the quorum is vacuous).
        n_windows_lost: windows requested but never classified (dropped
            by the sampler, lost to a container crash, or lost to a
            counter-read glitch).
        degraded: True when the verdict rests on partial evidence.
        n_windows: number of windows actually observed.
    """

    app_name: str
    window_flags: np.ndarray
    malware_fraction: float
    is_malware: bool
    confidence: float = 1.0
    n_windows_lost: int = 0
    degraded: bool = False

    def __post_init__(self) -> None:
        flags = np.array(self.window_flags, dtype=np.intp, copy=True)
        flags.setflags(write=False)
        object.__setattr__(self, "window_flags", flags)

    @classmethod
    def from_flags(
        cls,
        app_name: str,
        window_flags: np.ndarray,
        vote_threshold: float,
        n_windows_lost: int = 0,
        degraded: bool = False,
    ) -> "DetectionVerdict":
        """Build a verdict from per-window flags by quorum vote.

        The vote runs over the *surviving* windows only: the alarm is
        raised when the flagged fraction of observed windows reaches
        ``vote_threshold``, and ``confidence`` reports how much of the
        requested evidence that quorum actually saw.
        """
        if not 0.0 < vote_threshold <= 1.0:
            raise ValueError("vote_threshold must be in (0, 1]")
        if n_windows_lost < 0:
            raise ValueError("n_windows_lost cannot be negative")
        flags = np.asarray(window_flags)
        fraction = float(flags.mean()) if flags.size else 0.0
        requested = int(flags.size) + n_windows_lost
        confidence = float(flags.size) / requested if requested else 1.0
        return cls(
            app_name=app_name,
            window_flags=flags,
            malware_fraction=fraction,
            is_malware=fraction >= vote_threshold,
            confidence=confidence,
            n_windows_lost=n_windows_lost,
            degraded=degraded or n_windows_lost > 0,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionVerdict):
            return NotImplemented
        return (
            self.app_name == other.app_name
            and np.array_equal(self.window_flags, other.window_flags)
            and self.malware_fraction == other.malware_fraction
            and self.is_malware == other.is_malware
            and self.confidence == other.confidence
            and self.n_windows_lost == other.n_windows_lost
            and self.degraded == other.degraded
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.app_name,
                self.window_flags.tobytes(),
                self.malware_fraction,
                self.is_malware,
                self.confidence,
                self.n_windows_lost,
                self.degraded,
            )
        )

    @property
    def n_windows(self) -> int:
        return int(self.window_flags.size)

    @property
    def n_windows_requested(self) -> int:
        return self.n_windows + self.n_windows_lost


#: Name and help of each verdict source's per-execution counter (the
#: names predate the shared sink and stay stable for dashboards).
_EXECUTION_COUNTERS = {
    "monitor": ("monitor_apps_total", "application executions monitored"),
    "fleet": ("fleet_apps_total", "applications monitored by the fleet"),
    "serve": ("serve_executions_total", "executions streamed to a verdict"),
}


class VerdictSink:
    """The one place a driver's verdict fans out to its observers.

    :class:`RuntimeMonitor`, :class:`~repro.core.fleet.FleetMonitor` and
    :class:`~repro.serve.service.DetectionService` each hand every final
    verdict to :meth:`emit`, which updates the ``<source>_*`` metrics,
    records one ``<source>.verdict`` trace event (the same field set for
    every source; the run's archive is built from these events), and
    feeds the optional health evaluator and quality tracker.  Observers
    never alter the verdict.

    Args:
        source: ``"monitor"``, ``"fleet"`` or ``"serve"``; names the
            trace event and the metrics.
        vote_threshold: the deployment's alarm quorum (detection latency
            and the quality tracker's vote margin are relative to it).
        tracer / metrics: the driver's tracer and registry.
        health: optional :class:`~repro.obs.HealthEvaluator`.
        quality: optional :class:`~repro.obs.QualityTracker`.

    :meth:`emit` is thread-safe (the fleet and the service emit from
    worker threads): one lock guards the sink's instruments, and the
    trackers lock themselves.
    """

    def __init__(
        self,
        source: str,
        vote_threshold: float,
        tracer: Tracer,
        metrics: Registry,
        health: HealthEvaluator | None,
        quality: QualityTracker | None,
    ) -> None:
        self.event_name = f"{source}.verdict"
        self.vote_threshold = vote_threshold
        self.tracer = tracer
        self.health = health
        self.quality = quality
        self._lock = threading.Lock()
        self._c_executions = metrics.counter(*_EXECUTION_COUNTERS[source])
        self._c_windows = metrics.counter(
            f"{source}_windows_total", "sampling windows classified"
        )
        self._c_alarms = metrics.counter(
            f"{source}_alarms_total", "application-level malware alarms raised"
        )
        self._h_classify = metrics.histogram(
            f"{source}_window_classify_seconds",
            "per-window classification latency (amortized over each "
            "classify call's batch: one execution, or every execution a "
            "serve worker drained together)",
            buckets=FAST_LATENCY_BUCKETS,
        )

    def emit(
        self,
        verdict: DetectionVerdict,
        *,
        host: str,
        index: int,
        truth: bool,
        readings: np.ndarray,
        scores: np.ndarray,
        elapsed: float | None = None,
        attempts: int = 1,
    ) -> int | None:
        """Publish one final verdict; returns its detection latency.

        Args:
            verdict: the execution's verdict.
            host: host identity (the application name outside serve).
            index: the execution's index in its run.
            truth: ground truth, used only to calibrate quality scores.
            readings / scores: the windows the verdict was graded from
                (:func:`grade_traces`), for the quality tracker.
            elapsed: classification wall time of the verdict's windows
                (their share of a batch graded together); None when the
                verdict is not a latency observation (the fleet's
                salvage classifications).
            attempts: monitoring attempts the verdict took.
        """
        n = verdict.n_windows
        latency = detection_latency_windows(
            verdict.window_flags, self.vote_threshold
        )
        per_window = elapsed / n if elapsed is not None and n else None
        with self._lock:
            self._c_executions.inc()
            self._c_windows.inc(n)
            if verdict.is_malware:
                self._c_alarms.inc()
            if per_window is not None:
                # The detector classifies the batch vectorized; the
                # honest per-window figure is its amortized share.
                self._h_classify.observe_many(per_window, n)
        self.tracer.event(
            self.event_name,
            app=verdict.app_name,
            host=host,
            index=index,
            is_malware=verdict.is_malware,
            malware_fraction=verdict.malware_fraction,
            confidence=verdict.confidence,
            n_windows=n,
            n_windows_lost=verdict.n_windows_lost,
            degraded=verdict.degraded,
            attempts=attempts,
            detection_latency_windows=latency,
        )
        if self.health is not None:
            if per_window is not None:
                self.health.observe_classify(per_window, n)
            self.health.observe_verdict(
                verdict.app_name,
                is_malware=verdict.is_malware,
                degraded=verdict.degraded,
                n_windows=n,
                n_windows_lost=verdict.n_windows_lost,
                retries=attempts - 1,
            )
        if self.quality is not None:
            self.quality.observe_execution(
                host,
                readings,
                scores,
                margin=verdict.malware_fraction - self.vote_threshold,
                truth=truth,
            )
        return latency


class RuntimeMonitor:
    """Streams HPC windows of a live execution through a detector.

    Args:
        detector: fitted detector; its event budget must not exceed
            ``n_counters`` (otherwise run-time detection is impossible
            and :class:`~repro.hpc.counters.CounterCapacityError` raises).
        n_counters: physical counter registers of the deployment CPU.
        vote_threshold: fraction of flagged windows that raises the
            application-level alarm.
        window_ms: sampling interval.
        tracer: optional :class:`~repro.obs.Tracer`; every monitored
            execution records ``monitor.app`` / ``monitor.execute`` /
            ``monitor.classify`` spans and one ``monitor.verdict``
            stream event (:class:`VerdictSink`'s field set; ``index``
            counts this monitor's executions from 0).
        metrics: optional :class:`~repro.obs.Registry` exposing the
            paper's run-time quantities: a per-window classification
            latency histogram (amortized over the vectorized batch) and
            a windows-to-alarm detection-latency gauge.
        health: optional :class:`~repro.obs.HealthEvaluator` fed each
            verdict and classify latency in-process (no file
            round-trip); it observes but never alters verdicts, and
            None costs one attribute check per execution.
        quality: optional :class:`~repro.obs.QualityTracker` fed each
            execution's reduced feature windows, graded scores, and
            vote margin for drift scoring against a reference profile;
            like ``health`` it observes but never alters verdicts, and
            None costs one attribute check per execution.
    """

    def __init__(
        self,
        detector: HMDDetector,
        n_counters: int = 4,
        vote_threshold: float = 0.5,
        window_ms: float = DEFAULT_WINDOW_MS,
        tracer: Tracer | None = None,
        metrics: Registry | None = None,
        health: HealthEvaluator | None = None,
        quality: QualityTracker | None = None,
    ) -> None:
        validate_deployment(detector, n_counters, vote_threshold)
        self.detector = detector
        self.n_counters = n_counters
        self.vote_threshold = vote_threshold
        self.window_ms = window_ms
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.health = health
        self.quality = quality
        self.sink = VerdictSink(
            "monitor", vote_threshold, self.tracer, self.metrics, health, quality
        )
        self._g_latency = self.metrics.gauge(
            "monitor_detection_latency_windows",
            "windows until the last monitored app crossed the alarm "
            "threshold (-1 = never crossed)",
        )
        self._executions = itertools.count()

    def monitor(
        self,
        app: ApplicationBehavior,
        n_windows: int,
        pool: ContainerPool,
        is_malware: bool,
    ) -> DetectionVerdict:
        """Execute an application once and classify every window live.

        ``is_malware`` is the ground truth used only by the execution
        substrate (container contamination); the verdict comes from the
        detector alone.
        """
        with self.tracer.span("monitor.app", app=app.name, n_windows=n_windows):
            with self.tracer.span("monitor.execute", app=app.name):
                trace = pool.run(
                    app, n_windows, is_malware, window_ms=self.window_ms
                )
            with self.tracer.span("monitor.classify", app=app.name):
                start = time.perf_counter()
                flags, readings, scores = grade_trace(
                    self.detector, self.n_counters, trace
                )
                elapsed = time.perf_counter() - start
            verdict = DetectionVerdict.from_flags(
                app.name, flags, self.vote_threshold
            )
        latency = self.sink.emit(
            verdict,
            host=app.name,
            index=next(self._executions),
            truth=is_malware,
            readings=readings,
            scores=scores,
            elapsed=elapsed,
        )
        self._g_latency.set(-1 if latency is None else latency)
        return verdict

    def detection_latency_windows(self, verdict: DetectionVerdict) -> int | None:
        """First window index at which the cumulative vote crosses the
        alarm threshold, or None if it never does.
        """
        return detection_latency_windows(verdict.window_flags, self.vote_threshold)
