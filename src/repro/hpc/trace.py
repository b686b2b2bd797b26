"""Trace recording and replay — the ``perf record`` / ``perf report`` split.

Collection is expensive (the paper re-runs every application 11 times);
analysis is iterative.  Real workflows therefore *record* counter traces
once and replay them through different detectors offline.  This module
provides that:

* :class:`TraceRecording` — one application's per-window measurements
  with full collection metadata;
* JSONL persistence (one window per line, self-describing header);
* :func:`record_application` — run the batched collector and capture the
  result as a recording;
* :func:`replay` — stream a recording through a fitted detector as if it
  were live, yielding per-window verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import DEFAULT_WINDOW_MS, ApplicationBehavior
from repro.hpc.perf import BatchedCollection
from repro.ioutil import atomic_write_text

_FORMAT = "repro-hpc-trace-v1"


@dataclass(frozen=True)
class TraceRecording:
    """One application's recorded HPC trace.

    Attributes:
        app_name: application identifier.
        events: recorded event names (column order of ``samples``).
        window_ms: sampling interval used at record time.
        n_runs: executions the collection needed (batching artifact).
        samples: array ``(n_windows, len(events))``.
    """

    app_name: str
    events: tuple[str, ...]
    window_ms: float
    n_runs: int
    samples: np.ndarray

    @property
    def n_windows(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration_ms(self) -> float:
        return self.n_windows * self.window_ms

    def project(self, events: tuple[str, ...] | list[str]) -> np.ndarray:
        """Samples restricted to (and ordered by) the given events."""
        index = {name: i for i, name in enumerate(self.events)}
        missing = [e for e in events if e not in index]
        if missing:
            raise KeyError(f"recording lacks events: {missing}")
        return self.samples[:, [index[e] for e in events]]

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the recording as self-describing JSONL, atomically: a
        failed save leaves the previous file at ``path`` intact."""
        header = {
            "format": _FORMAT,
            "app_name": self.app_name,
            "events": list(self.events),
            "window_ms": self.window_ms,
            "n_runs": self.n_runs,
        }
        lines = [json.dumps(header)]
        lines += [json.dumps([float(v) for v in row]) for row in self.samples]
        atomic_write_text(path, "".join(line + "\n" for line in lines))

    @classmethod
    def load(cls, path: str | Path) -> "TraceRecording":
        """Load a recording written by :meth:`save`."""
        path = Path(path)
        with path.open() as handle:
            header = json.loads(handle.readline())
            if header.get("format") != _FORMAT:
                raise ValueError(f"{path} is not a {_FORMAT} file")
            rows = [json.loads(line) for line in handle if line.strip()]
        samples = np.array(rows) if rows else np.zeros((0, len(header["events"])))
        if samples.size and samples.shape[1] != len(header["events"]):
            raise ValueError(f"{path} rows do not match the declared event list")
        return cls(
            app_name=header["app_name"],
            events=tuple(header["events"]),
            window_ms=float(header["window_ms"]),
            n_runs=int(header["n_runs"]),
            samples=samples,
        )


def record_application(
    app: ApplicationBehavior,
    events: tuple[str, ...] | list[str],
    n_windows: int,
    pool: ContainerPool,
    is_malware: bool,
    n_counters: int = 4,
    window_ms: float = DEFAULT_WINDOW_MS,
) -> TraceRecording:
    """Collect one application's events and capture them as a recording."""
    collector = BatchedCollection(n_counters=n_counters, window_ms=window_ms)
    result = collector.collect(app, tuple(events), n_windows, pool, is_malware)
    return TraceRecording(
        app_name=result.app_name,
        events=result.events,
        window_ms=window_ms,
        n_runs=result.n_runs,
        samples=result.samples,
    )


def replay(recording: TraceRecording, detector) -> np.ndarray:
    """Stream a recording through a fitted detector window by window.

    Args:
        recording: must contain (at least) the detector's monitored events.
        detector: a fitted :class:`~repro.core.detector.HMDDetector`.

    Returns:
        Per-window 0/1 flags, as live monitoring would have produced.
    """
    windows = recording.project(detector.monitored_events)
    return detector.predict_windows(windows)
