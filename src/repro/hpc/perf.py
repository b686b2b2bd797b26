"""Perf-style event collection on top of the counter register file.

Linux ``perf`` abstracts the physical counter registers behind
``perf_event_open``.  When more events are requested than registers exist,
real deployments either (a) re-run the workload once per event batch — the
paper's protocol: 44 events / 4 registers = 11 runs per application — or
(b) time-multiplex the register file within a single run and scale counts
by the observation duty cycle, which trades accuracy for a single run.

This module implements both strategies so their accuracy trade-off can be
studied (:class:`BatchedCollection` reproduces the paper,
:class:`MultiplexedCollection` is the run-time-friendly alternative whose
inaccuracy motivates keeping the event budget at or below the register
count in the first place).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hpc.counters import CounterRegisterFile, sample_trace
from repro.hpc.events import ALL_EVENTS
from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import DEFAULT_WINDOW_MS, ApplicationBehavior


def batch_events(events: tuple[str, ...] | list[str], n_counters: int) -> list[list[str]]:
    """Partition an event list into groups of at most ``n_counters``.

    With the paper's numbers (44 events, 4 registers) this yields the 11
    batches of 4 events the paper describes.
    """
    events = list(events)
    if n_counters < 1:
        raise ValueError(f"n_counters must be positive, got {n_counters}")
    return [events[i : i + n_counters] for i in range(0, len(events), n_counters)]


@dataclass(frozen=True)
class CollectionResult:
    """Per-window event measurements for one application.

    Attributes:
        app_name: the application measured.
        events: measured event names (column order of ``samples``).
        samples: array ``(n_windows, len(events))`` of per-window counts.
        n_runs: how many executions were needed to cover all events.
    """

    app_name: str
    events: tuple[str, ...]
    samples: np.ndarray
    n_runs: int


class BatchedCollection:
    """The paper's collection protocol: one fresh run per event batch.

    Each batch of at most ``n_counters`` events is measured in its own
    container run; the per-window readings of all batches are stitched
    into one sample matrix.  Because batches come from *different*
    executions, stitched samples carry genuine inter-run variation — the
    artifact that makes multi-run collection unusable for run-time
    detection and motivates the paper.

    All runs of one collection are one
    :meth:`~repro.hpc.lxc.ContainerPool.run_many` call: each run still
    gets its own container and random stream, in batch order, and the
    simulator synthesizes the windows of all of them at once.

    Args:
        n_counters: programmable registers available (4 on Xeon X5550).
        window_ms: sampling interval (paper: 10 ms).
    """

    def __init__(self, n_counters: int = 4, window_ms: float = DEFAULT_WINDOW_MS) -> None:
        self.n_counters = n_counters
        self.window_ms = window_ms

    def collect(
        self,
        app: ApplicationBehavior,
        events: tuple[str, ...] | list[str],
        n_windows: int,
        pool: ContainerPool,
        is_malware: bool,
    ) -> CollectionResult:
        """Measure ``events`` for ``app`` over ``n_windows`` windows."""
        events = tuple(events)
        batches = batch_events(events, self.n_counters)
        samples = np.zeros((n_windows, len(events)))
        col = {name: i for i, name in enumerate(events)}
        traces = pool.run_many(
            [(app, n_windows, is_malware)] * len(batches), window_ms=self.window_ms
        )
        for batch, trace in zip(batches, traces):
            register_file = CounterRegisterFile(self.n_counters)
            register_file.program(batch)
            readings = sample_trace(register_file, trace, ALL_EVENTS)
            for j, event in enumerate(batch):
                samples[:, col[event]] = readings[:, j]
        return CollectionResult(
            app_name=app.name, events=events, samples=samples, n_runs=len(batches)
        )


class MultiplexedCollection:
    """Single-run collection with round-robin counter multiplexing.

    The register file rotates through the event batches window by window;
    a given event is only observed every ``len(batches)`` windows and its
    count is extrapolated by the duty-cycle factor, as ``perf`` does when
    over-subscribed.  Extrapolation error grows with the over-subscription
    ratio, which is why run-time detectors should request at most
    ``n_counters`` events.
    """

    def __init__(self, n_counters: int = 4, window_ms: float = DEFAULT_WINDOW_MS) -> None:
        self.n_counters = n_counters
        self.window_ms = window_ms

    def collect(
        self,
        app: ApplicationBehavior,
        events: tuple[str, ...] | list[str],
        n_windows: int,
        pool: ContainerPool,
        is_malware: bool,
    ) -> CollectionResult:
        """Measure ``events`` in a single run, multiplexing the registers.

        Every window, one batch is live; other events receive their last
        extrapolated estimate.  The first rotation is seeded with the
        first observed window so no sample is left empty.
        """
        events = tuple(events)
        batches = batch_events(events, self.n_counters)
        n_batches = len(batches)
        trace = pool.run(app, n_windows, is_malware, window_ms=self.window_ms)
        samples = np.zeros((n_windows, len(events)))
        col = {name: i for i, name in enumerate(events)}
        event_column = {name: i for i, name in enumerate(ALL_EVENTS)}
        last_estimate = np.full(len(events), np.nan)
        for w in range(n_windows):
            live = batches[w % n_batches]
            for event in live:
                observed = float(trace[w, event_column[event]])
                # perf scales over-subscribed counts by time_enabled/time_running.
                last_estimate[col[event]] = observed
            samples[w] = last_estimate
        # Backfill leading NaNs (events not yet observed in the first rotation)
        # with the first estimate each column ever produced.
        for j in range(len(events)):
            column = samples[:, j]
            valid = np.flatnonzero(~np.isnan(column))
            if valid.size == 0:
                raise RuntimeError("event never observed; trace shorter than rotation")
            column[: valid[0]] = column[valid[0]]
        return CollectionResult(
            app_name=app.name, events=events, samples=samples, n_runs=1
        )


def runs_required(n_events: int, n_counters: int) -> int:
    """Number of full executions the batched protocol needs.

    >>> runs_required(44, 4)
    11
    """
    if n_events <= 0:
        raise ValueError(f"n_events must be positive, got {n_events}")
    return math.ceil(n_events / n_counters)
