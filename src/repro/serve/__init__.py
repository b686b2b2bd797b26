"""Streaming detection service over a bounded in-process queue fabric.

The long-running counterpart of the batch :mod:`repro.core.fleet`
monitor: producers stream frames of HPC sampling windows onto sharded
bounded channels (:mod:`repro.serve.bus`) and detector workers drain
them, classify every execution closed in a drained batch in one call to
the vectorized inference kernels, and emit exactly one verdict per
execution — including under injected
worker crashes (:class:`~repro.hpc.faults.ServiceFaultPlan`), recovered
from the producer-side ledger (:mod:`repro.serve.service`).
"""

from repro.serve.bus import SHUTDOWN, Bus, Channel, WindowClosed, WindowFrame
from repro.serve.replay import (
    ReplayError,
    ReplayMismatchError,
    ReplayResult,
    archived_wall_seconds,
    replay_segment,
)
from repro.serve.service import DetectionService, ServeJob, ServiceReport, serve_jobs

__all__ = [
    "Bus",
    "Channel",
    "DetectionService",
    "ReplayError",
    "ReplayMismatchError",
    "ReplayResult",
    "SHUTDOWN",
    "ServeJob",
    "ServiceReport",
    "WindowClosed",
    "WindowFrame",
    "archived_wall_seconds",
    "replay_segment",
    "serve_jobs",
]
