"""Deterministic fault injection for the measurement substrate.

Real deployments do not hand the detector pristine traces: containers
die mid-run, counter reads glitch under contention, and the sampler
drops windows when the machine is saturated.  This module models those
failure modes *deterministically* — every fault is drawn from a seeded
RNG keyed on ``(plan seed, application, attempt)``, so a failing fleet
run can be replayed bit-for-bit from its seed.

Three fault classes, mirroring what run-time HMD papers report:

* **container crash** — the execution dies after ``k`` windows; the
  partial trace survives and is carried on the raised
  :class:`ContainerCrashError` so a caller can degrade onto it.
* **counter-read glitch** — a transient failure while reading the
  register file (:class:`GlitchyCounterRegisterFile` raises
  :class:`CounterReadGlitchError` on one configured ``read()``); the
  windows sampled before the glitch remain valid.
* **dropped windows** — the sampler silently loses a subset of windows;
  no exception, but the surviving evidence shrinks.

A fourth, **permanent host failure**, is drawn per application (not per
attempt): retrying cannot help, and :class:`FaultyContainerPool` raises
:class:`PermanentHostError` on every attempt for that application.

Crash and permanent faults surface through :class:`FaultyContainerPool`,
a drop-in wrapper around :class:`~repro.hpc.lxc.ContainerPool`; glitches
and drops apply at sampling time and are consumed by
:class:`~repro.core.fleet.FleetMonitor` via :meth:`FaultPlan.draw`.
Because draws are pure functions of the key, the pool and the monitor
can each draw independently and see the same faults.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.hpc.counters import CounterRegisterFile, first_invalid_count
from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import DEFAULT_WINDOW_MS, ApplicationBehavior

#: Domain tag separating the per-app permanent-failure stream from the
#: per-attempt transient stream (both derive from the same plan seed).
_PERMANENT_STREAM = 0x9E37
#: Domain tag for the retry-backoff jitter stream.
_JITTER_STREAM = 0xB0FF
#: Domain tag for the streaming service's worker-crash stream.
_WORKER_STREAM = 0xC4A5


class FaultInjectionError(RuntimeError):
    """Base class for injected measurement faults."""


class ContainerCrashError(FaultInjectionError):
    """The container died mid-run; the partial trace survives.

    Attributes:
        partial_trace: array ``(windows_completed, 44)`` of the windows
            executed before the crash (possibly empty).
    """

    def __init__(self, message: str, partial_trace: np.ndarray) -> None:
        super().__init__(message)
        self.partial_trace = partial_trace


class CounterReadGlitchError(FaultInjectionError):
    """A transient register-file read failure.

    Attributes:
        windows_read: number of windows successfully read before the
            glitch; their readings remain valid evidence.
    """

    def __init__(self, message: str, windows_read: int) -> None:
        super().__init__(message)
        self.windows_read = windows_read


class PermanentHostError(FaultInjectionError):
    """The application's host is gone; retrying cannot succeed."""


class WorkerCrashError(FaultInjectionError):
    """An injected detector-worker crash inside the streaming service.

    Raised by a :class:`~repro.serve.DetectionService` worker while it
    is processing a message — the message (and every message the worker
    consumed before it) is lost with the worker's in-memory assembly
    state, which is exactly the failure the service's supervisor must
    recover from without dropping or duplicating a verdict.
    """


def app_key(app_name: str) -> int:
    """Stable integer key for an application name (CRC-32)."""
    return zlib.crc32(app_name.encode("utf-8"))


@dataclass(frozen=True)
class FaultDraw:
    """The concrete faults one (application, attempt) pair will suffer.

    Attributes:
        crash_after: window count after which the container crashes, or
            None for no crash.
        glitch_read: 0-based register-file ``read()`` index that fails,
            or None for no glitch.
        dropped: sorted window indices the sampler loses.
        permanent: the application's host has failed permanently.
    """

    crash_after: int | None = None
    glitch_read: int | None = None
    dropped: tuple[int, ...] = ()
    permanent: bool = False

    @property
    def is_clean(self) -> bool:
        return (
            self.crash_after is None
            and self.glitch_read is None
            and not self.dropped
            and not self.permanent
        )


#: The draw a fault-free run gets (shared; FaultDraw is immutable).
NO_FAULTS = FaultDraw()


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of how unreliable the substrate is.

    Rates are independent per-run probabilities in ``[0, 1]`` except
    ``drop_rate``, which is a per-window loss probability.  All draws
    are deterministic functions of ``(seed, application, attempt)``.

    Args:
        seed: base seed; two plans with equal fields behave identically.
        crash_rate: probability an attempt's container crashes mid-run.
        glitch_rate: probability an attempt suffers one counter-read
            glitch.
        drop_rate: per-window probability the sampler drops the window.
        permanent_rate: per-application probability the host is
            permanently gone (independent of attempt).
    """

    seed: int = 0
    crash_rate: float = 0.0
    glitch_rate: float = 0.0
    drop_rate: float = 0.0
    permanent_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "glitch_rate", "drop_rate", "permanent_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, *key))

    def is_permanent(self, app_name: str) -> bool:
        """Whether this application's host is permanently failed."""
        if self.permanent_rate == 0.0:
            return False
        rng = self._rng(app_key(app_name), _PERMANENT_STREAM)
        return bool(rng.random() < self.permanent_rate)

    def draw(self, app_name: str, attempt: int, n_windows: int) -> FaultDraw:
        """The faults injected into one monitoring attempt.

        Pure in its arguments: the same (plan, app, attempt, windows)
        always yields the same draw, which is what makes fleet runs
        replayable and lets the container pool and the monitor draw
        independently without coordinating.
        """
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        permanent = self.is_permanent(app_name)
        rng = self._rng(app_key(app_name), attempt)
        crash_after = None
        if n_windows > 0 and rng.random() < self.crash_rate:
            crash_after = int(rng.integers(0, n_windows))
        glitch_read = None
        if n_windows > 0 and rng.random() < self.glitch_rate:
            glitch_read = int(rng.integers(0, n_windows))
        dropped: tuple[int, ...] = ()
        if n_windows > 0 and self.drop_rate > 0.0:
            dropped = tuple(
                int(i) for i in np.flatnonzero(rng.random(n_windows) < self.drop_rate)
            )
        return FaultDraw(
            crash_after=crash_after,
            glitch_read=glitch_read,
            dropped=dropped,
            permanent=permanent,
        )

    def jitter_rng(self, app_name: str, attempt: int) -> np.random.Generator:
        """Deterministic RNG stream for retry-backoff jitter."""
        return self._rng(app_key(app_name), attempt, _JITTER_STREAM)


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Seeded chaos plan for the streaming service's own workers.

    Where :class:`FaultPlan` breaks the *measurement substrate* under a
    monitor, this plan breaks the *detection service itself*: detector
    workers crash mid-stream, losing whatever per-host assembly state
    they held, and the supervisor must restart them and redeliver.  All
    draws are pure functions of ``(seed, worker, incarnation)``, so a
    chaos run replays bit-for-bit.

    Args:
        seed: base seed; equal fields ⇒ identical behaviour.
        worker_crash_rate: probability a given worker incarnation
            crashes at some point in its life.
        max_crashes_per_worker: incarnations at or beyond this index
            never crash, bounding the chaos so every stream drains
            (liveness guard — with it, any plan terminates).

    """

    seed: int = 0
    worker_crash_rate: float = 0.0
    max_crashes_per_worker: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.worker_crash_rate <= 1.0:
            raise ValueError(
                f"worker_crash_rate must be in [0, 1], got {self.worker_crash_rate}"
            )
        if self.max_crashes_per_worker < 0:
            raise ValueError(
                f"max_crashes_per_worker cannot be negative, got "
                f"{self.max_crashes_per_worker}"
            )

    def crash_after(
        self, worker_index: int, incarnation: int, scale: int = 64
    ) -> int | None:
        """Messages this worker incarnation consumes before crashing.

        Returns None for a clean incarnation.  ``scale`` sets the draw
        range, ``[1, scale]`` (callers pass roughly the
        messages-per-execution so crashes land mid-assembly, the
        interesting case); the result is always >= 1, so every
        incarnation makes progress.
        """
        if worker_index < 0 or incarnation < 0:
            raise ValueError("worker_index and incarnation must be >= 0")
        if incarnation >= self.max_crashes_per_worker:
            return None
        if self.worker_crash_rate == 0.0:
            return None
        rng = np.random.default_rng(
            (self.seed, _WORKER_STREAM, worker_index, incarnation)
        )
        if rng.random() >= self.worker_crash_rate:
            return None
        return int(rng.integers(1, max(scale, 1), endpoint=True))


class FaultyContainerPool:
    """Drop-in :class:`~repro.hpc.lxc.ContainerPool` that injects faults.

    Wraps a real pool and consults a :class:`FaultPlan` before and after
    every run: a permanently-failed host raises
    :class:`PermanentHostError` without executing anything, and a drawn
    crash truncates the (fully deterministic) underlying trace and
    raises :class:`ContainerCrashError` carrying the surviving windows.

    Glitches and drops are *not* applied here — they are sampling-time
    faults the monitor applies from the same draw.

    Args:
        pool: the real container pool to execute on.
        plan: fault plan consulted per run.
    """

    def __init__(self, pool: ContainerPool, plan: FaultPlan) -> None:
        self.pool = pool
        self.plan = plan

    def run(
        self,
        app: ApplicationBehavior,
        n_windows: int,
        is_malware: bool,
        window_ms: float = DEFAULT_WINDOW_MS,
        attempt: int = 0,
    ) -> np.ndarray:
        """Execute one application, injecting this attempt's faults."""
        draw = self.plan.draw(app.name, attempt, n_windows)
        if draw.permanent:
            raise PermanentHostError(
                f"host for {app.name!r} has failed permanently"
            )
        trace = self.pool.run(app, n_windows, is_malware, window_ms=window_ms)
        if draw.crash_after is not None and draw.crash_after < n_windows:
            raise ContainerCrashError(
                f"container running {app.name!r} crashed after "
                f"{draw.crash_after}/{n_windows} windows (attempt {attempt})",
                partial_trace=trace[: draw.crash_after],
            )
        return trace


class GlitchyCounterRegisterFile(CounterRegisterFile):
    """Register file whose ``read()`` can suffer one transient glitch.

    Behaves exactly like :class:`~repro.hpc.counters.CounterRegisterFile`
    except that the ``glitch_read``-th read raises
    :class:`CounterReadGlitchError` instead of returning counts — the
    model of a transient MSR read failure.  Reads before the glitch are
    valid; the error reports how many completed.  Every window of
    :meth:`sample_windows` is one read.

    Args:
        n_counters: register-file capacity.
        glitch_read: 0-based read index that fails (None = never).
    """

    def __init__(self, n_counters: int = 4, glitch_read: int | None = None) -> None:
        super().__init__(n_counters)
        self.glitch_read = glitch_read
        self.reads_completed = 0

    def _glitch(self) -> CounterReadGlitchError:
        return CounterReadGlitchError(
            f"transient counter read failure at read {self.reads_completed}",
            windows_read=self.reads_completed,
        )

    def read(self) -> dict[str, int]:
        if self.glitch_read is not None and self.reads_completed == self.glitch_read:
            raise self._glitch()
        counts = super().read()
        self.reads_completed += 1
        return counts

    def sample_windows(self, counts: np.ndarray) -> np.ndarray:
        """Sample like the pristine file, glitching at ``glitch_read``.

        When the glitching read falls inside the batch, the windows up to
        and including it are latched (the glitch strikes the read, after
        the window was counted) and the reads before it complete.
        """
        start = self.reads_completed
        glitch = self.glitch_read
        glitches = glitch is not None and start <= glitch < start + len(counts)
        batch = counts[: glitch - start + 1] if glitches else counts
        try:
            readings = super().sample_windows(batch)
        except (ValueError, OverflowError):
            self.reads_completed += first_invalid_count(np.asarray(batch, float))[0]
            raise
        if glitches:
            self.reads_completed = glitch
            raise self._glitch()
        self.reads_completed += len(counts)
        return readings
