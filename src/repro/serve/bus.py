"""Bounded in-process queue fabric for the streaming detection service.

StratosphereLinuxIPS's ensemble module subscribes to a Redis channel and
wakes on ``tw_closed`` — a time window finished, classify it.  This is
the same shape with zero dependencies: named bounded FIFO channels over
:class:`queue.Queue`, window frames (every sampling window of one
execution) and window-closed markers as the message
vocabulary, and *explicit* backpressure — a publisher into a full
channel blocks (and the block is counted), so a slow detector worker
throttles its producers instead of letting an unbounded queue eat the
host's memory.  A consumer wakes on one blocking :meth:`Channel.consume`
and then takes what is already queued with :meth:`Channel.drain`, so
one wake-up handles a whole backlog.

Routing is sharded by host: every message for one host lands on the
same channel (CRC-32 of the host name, the same stable key
:func:`repro.hpc.faults.app_key` uses), so one worker owns each host's
assembly and sliding-vote state without cross-worker locking.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.hpc.faults import app_key

#: Control message telling a worker to exit its consume loop.  Compared
#: by identity; published once per worker at shutdown.
SHUTDOWN = object()


@dataclass(frozen=True)
class WindowFrame:
    """The sampling windows of one monitored execution.

    Attributes:
        host: monitored host the windows were sampled on (shard key).
        execution: global index of the execution the windows belong to.
        rows: raw 44-event activity of every window, in order, shape
            ``(n_windows, 44)``; the producer's ledger trace itself,
            never a copy.
    """

    host: str
    execution: int
    rows: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class WindowClosed:
    """The window-closed marker: an execution finished publishing.

    Carries everything a worker needs to classify and emit the verdict
    without consulting shared state, so redelivered copies are
    self-contained.
    """

    host: str
    execution: int
    app_name: str
    n_windows: int


class Channel:
    """One bounded FIFO channel with counted blocking backpressure.

    Args:
        name: channel name (diagnostics only).
        depth: queue bound; a publish into a full channel blocks until
            a consumer frees a slot.
    """

    def __init__(self, name: str, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"channel depth must be >= 1, got {depth}")
        self.name = name
        self.depth = depth
        self._queue: queue.Queue = queue.Queue(maxsize=depth)
        self._lock = threading.Lock()
        self.published = 0
        self.backpressure_waits = 0

    def publish(self, message) -> None:
        """Enqueue a message, blocking while the channel is full.

        The fast path is a non-blocking put; only a full channel takes
        the slow path, which counts one backpressure wait before
        blocking — the service reports that count so saturation is
        visible instead of silent.
        """
        try:
            self._queue.put_nowait(message)
        except queue.Full:
            with self._lock:
                self.backpressure_waits += 1
            self._queue.put(message)
        with self._lock:
            self.published += 1

    def consume(self, timeout: float | None = None):
        """Dequeue the next message; raises :class:`queue.Empty` on timeout."""
        return self._queue.get(timeout=timeout)

    def drain(self) -> list:
        """Take the messages already queued, without blocking.

        Takes at most as many messages as were queued on entry (so at
        most ``depth``: producers refilling the channel meanwhile cannot
        keep a drain going) and stops after :data:`SHUTDOWN`, which is
        returned as the last message.
        """
        taken = []
        for _ in range(self._queue.qsize()):
            try:
                message = self._queue.get_nowait()
            except queue.Empty:
                break
            taken.append(message)
            if message is SHUTDOWN:
                break
        return taken

    def __len__(self) -> int:
        return self._queue.qsize()


class Bus:
    """The service's channel set: one shard channel per detector worker.

    Args:
        n_shards: number of detector workers (and shard channels).
        depth: bound of every shard channel.
    """

    def __init__(self, n_shards: int, depth: int) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.shards = [Channel(f"shard-{i}", depth) for i in range(n_shards)]

    def shard_for(self, host: str) -> int:
        """Stable shard index for a host (all its traffic, one worker)."""
        return app_key(host) % len(self.shards)

    def channel_for(self, host: str) -> Channel:
        return self.shards[self.shard_for(host)]

    @property
    def backpressure_waits(self) -> int:
        return sum(channel.backpressure_waits for channel in self.shards)

    @property
    def published(self) -> int:
        return sum(channel.published for channel in self.shards)
