"""Span-based tracing with zero-dependency JSONL output.

The paper's argument is about *run-time* cost — 10 ms sampling windows,
detection latency, counter budgets — so the reproduction must be able to
answer "where did the wall time go" for its own pipeline.  A
:class:`Tracer` hands out context-manager :class:`Span` objects that
record monotonic durations, wall-clock start times, and parent/child
nesting (per-thread stacks), plus point-in-time events for things that
have no duration (a verdict, a completed grid cell).

Everything is a no-op by default: a :class:`Tracer` built with
``enabled=False`` (or the shared :data:`NULL_TRACER`) returns one shared
null span and never allocates, so instrumented code paths cost a single
attribute check when tracing is off.

Worker processes each build their own tracer and ship drained event
lists back to the parent, which merges them with :meth:`Tracer.absorb`
— events carry ``pid``/``tid`` so merged traces stay attributable.

Serialization is JSON Lines: one event object per line, so a crash
mid-write loses at most the final line and :func:`load_trace` can still
read everything before it.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path

from repro.ioutil import atomic_write_text

#: Schema tag written into dumped traces (bump on incompatible change).
TRACE_SCHEMA_VERSION = 1

#: One encoder for every dumped event; same bytes as ``json.dumps(event,
#: default=str)`` without building an encoder per event.
_EVENT_ENCODER = json.JSONEncoder(default=str)


class _NullSpan:
    """Shared do-nothing span returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


#: The one null span every disabled tracer hands out.
NULL_SPAN = _NullSpan()


class Span:
    """One live span: measures its own duration and records parentage.

    Use as a context manager (``with tracer.span("matrix.fit", ...)``);
    the event is emitted on exit.  :meth:`set` attaches attributes
    discovered mid-span (e.g. a result size).
    """

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_start", "_wall")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: int | None = None
        self._start = 0.0
        self._wall = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        event = {
            "type": "span",
            "name": self.name,
            "ts": self._wall,
            "dur": duration,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.attrs:
            event["attrs"] = self.attrs
        self._tracer._emit(event)
        return False


class Tracer:
    """Collects span and point events into an in-memory buffer.

    Args:
        enabled: when False every call is a near-zero no-op — ``span``
            returns the shared :data:`NULL_SPAN` and ``event`` returns
            immediately, so instrumentation can stay in place
            permanently.

    Thread safety: the event buffer is lock-protected and the span
    stack is per-thread, so concurrent threads trace independently.
    Process safety comes from per-worker tracers merged with
    :meth:`absorb` (events are plain dicts and pickle cheaply).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- internals -----------------------------------------------------
    def _next_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    # -- recording API -------------------------------------------------
    def span(self, name: str, **attrs):
        """A new context-manager span (or the null span when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def span_ended(self, name: str, seconds: float) -> None:
        """Record a span for work that took ``seconds`` and ended now.

        For work done before this tracer existed, such as parsing the
        command line that enabled it.
        """
        if not self.enabled:
            return
        with self.span(name) as span:
            span._start -= seconds
            span._wall -= seconds

    def event(self, name: str, ts: float | None = None, **attrs) -> None:
        """Record a point-in-time event (no duration).

        ``ts`` overrides the wall-clock timestamp, for observations
        stamped by their own clock (e.g. a tracker's evaluation time).
        """
        if not self.enabled:
            return
        event = {
            "type": "event",
            "name": name,
            "ts": time.time() if ts is None else ts,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if attrs:
            event["attrs"] = attrs
        self._emit(event)

    # -- buffer management ---------------------------------------------
    @property
    def events(self) -> list[dict]:
        """A snapshot copy of the buffered events."""
        with self._lock:
            return list(self._events)

    def drain(self) -> list[dict]:
        """Remove and return all buffered events (worker hand-off)."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def absorb(self, events: list[dict]) -> None:
        """Merge events drained from another tracer (e.g. a worker)."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    def dump(self, path: str | Path, append: bool = False) -> int:
        """Write the buffer as JSON Lines; returns the event count.

        Contract: with ``append=False`` (the default) an existing file
        at ``path`` is **replaced** atomically — the file afterwards
        contains exactly this buffer, and a failure mid-dump leaves the
        previous trace intact (:func:`repro.ioutil.atomic_write_text`).
        With ``append=True`` events are appended after any existing
        content, so a long-running service that periodically
        ``drain()``\\ s and dumps accumulates one growing trace instead
        of losing earlier events.  Parent directories are created either
        way; the buffer itself is left untouched (pair with
        :meth:`drain` when appending to avoid duplicate lines).
        """
        events = self.events
        text = "".join(_EVENT_ENCODER.encode(event) + "\n" for event in events)
        path = Path(path)
        if not append:
            atomic_write_text(path, text)
            return len(events)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(text)
        return len(events)


#: Shared disabled tracer — the default for every instrumented component.
NULL_TRACER = Tracer(enabled=False)


def load_trace(path: str | Path) -> list[dict]:
    """Read a JSONL trace back into a list of event dicts.

    A line that does not decode (e.g. the tail of a file truncated by a
    crash mid-write) is skipped rather than fatal — every complete line
    before it is still returned.
    """
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events
