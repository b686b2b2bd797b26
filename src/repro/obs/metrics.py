"""Counters, gauges, and histograms with Prometheus-style export.

A :class:`Registry` hands out named instruments and renders them either
as a Prometheus text exposition (``to_prometheus``) or as a JSON
snapshot (``snapshot`` / ``dump``).  Histograms use *fixed* bucket
boundaries chosen at creation — observation is O(log buckets) and two
snapshots with the same boundaries merge exactly, which is what lets
:class:`~repro.analysis.parallel.ParallelMatrixRunner` add worker
snapshots into the parent registry without precision games.

Like the tracer, everything is free when off: a ``Registry`` built with
``enabled=False`` (or the shared :data:`NULL_REGISTRY`) returns one
shared null instrument whose ``inc``/``set``/``observe`` are empty
methods, so permanent instrumentation costs nothing in production runs
that don't ask for metrics.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from pathlib import Path

from repro.ioutil import atomic_write_text, dumps_json

#: Wall-time buckets for second-scale stages (fit/eval/cache writes).
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Microsecond-scale buckets for per-window run-time classification.
FAST_LATENCY_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
    5e-4, 1e-3, 2.5e-3, 1e-2, 0.1,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class MetricsError(RuntimeError):
    """Bad metric name, kind collision, or unmergeable snapshot."""


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled registries."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, value: float, n: int) -> None:
        pass


#: The one null instrument every disabled registry hands out.
NULL_INSTRUMENT = _NullInstrument()


class Counter:
    """Monotonically increasing count (cache hits, cells trained, ...)."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """Last-written value (current detection latency, queue depth, ...)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Distribution over fixed, ascending bucket boundaries.

    Buckets follow Prometheus ``le`` semantics: an observation lands in
    the first bucket whose upper bound is >= the value, with an implicit
    final +Inf bucket; ``counts`` has ``len(buckets) + 1`` entries.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram {name} needs strictly ascending, non-empty buckets"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, value: float, n: int) -> None:
        """Record ``n`` identical observations in O(log buckets).

        Bucket counts and ``count`` update exactly as ``n`` calls to
        :meth:`observe` would, so snapshots stay merge-compatible; the
        sum is accumulated as ``value * n`` in one rounding step instead
        of ``n`` sequential ones.
        """
        if n < 0:
            raise ValueError(f"histogram {self.name} cannot observe {n} times")
        if n == 0:
            return
        self.counts[bisect_left(self.buckets, value)] += n
        self.sum += value * n
        self.count += n

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Registry:
    """Named instrument registry with text/JSON exporters.

    Args:
        enabled: when False every ``counter``/``gauge``/``histogram``
            call returns the shared :data:`NULL_INSTRUMENT` and exports
            are empty — instrumented code needs no conditionals.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    # -- instrument creation (get-or-create, kind-checked) -------------
    def _get(self, cls, name: str, help: str, **kwargs):
        if not self.enabled:
            return NULL_INSTRUMENT
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(name, help, **kwargs)
            elif not isinstance(instrument, cls):
                raise MetricsError(
                    f"metric {name} already registered as {instrument.kind}, "
                    f"not {cls.kind}"
                )
            elif kwargs.get("buckets") is not None and tuple(
                float(b) for b in kwargs["buckets"]
            ) != instrument.buckets:
                raise MetricsError(
                    f"histogram {name} already registered with different buckets"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- snapshots & merging -------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready state of every instrument, grouped by kind."""
        snap: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for name, inst in sorted(self._instruments.items()):
                if inst.kind == "counter":
                    snap["counters"][name] = {"help": inst.help, "value": inst.value}
                elif inst.kind == "gauge":
                    snap["gauges"][name] = {"help": inst.help, "value": inst.value}
                else:
                    snap["histograms"][name] = {
                        "help": inst.help,
                        "buckets": list(inst.buckets),
                        "counts": list(inst.counts),
                        "sum": inst.sum,
                        "count": inst.count,
                    }
        return snap

    def reset(self) -> None:
        """Zero every instrument (kept registered, buckets preserved)."""
        with self._lock:
            for inst in self._instruments.values():
                if inst.kind == "histogram":
                    inst.counts = [0] * len(inst.counts)
                    inst.sum = 0.0
                    inst.count = 0
                else:
                    inst.value = 0.0

    def drain(self) -> dict:
        """Snapshot then reset — the worker-process hand-off primitive."""
        snap = self.snapshot()
        self.reset()
        return snap

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms add (histogram bucket boundaries must
        match); gauges take the incoming value (last write wins).  A
        disabled registry ignores the merge.
        """
        if not self.enabled:
            return
        for name, data in snapshot.get("counters", {}).items():
            self.counter(name, data.get("help", "")).inc(data["value"])
        for name, data in snapshot.get("gauges", {}).items():
            self.gauge(name, data.get("help", "")).set(data["value"])
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(
                name, data.get("help", ""), buckets=tuple(data["buckets"])
            )
            counts = data["counts"]
            if len(counts) != len(hist.counts):
                raise MetricsError(f"histogram {name} snapshot has wrong bucket count")
            for i, c in enumerate(counts):
                hist.counts[i] += c
            hist.sum += data["sum"]
            hist.count += data["count"]

    # -- exporters ------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (histograms cumulative)."""
        lines = []
        snap = self.snapshot()
        for name, data in snap["counters"].items():
            lines += _prom_header(name, data["help"], "counter")
            lines.append(f"{name} {_fmt(data['value'])}")
        for name, data in snap["gauges"].items():
            lines += _prom_header(name, data["help"], "gauge")
            lines.append(f"{name} {_fmt(data['value'])}")
        for name, data in snap["histograms"].items():
            lines += _prom_header(name, data["help"], "histogram")
            cumulative = 0
            for bound, count in zip(data["buckets"], data["counts"]):
                cumulative += count
                lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {data["count"]}')
            lines.append(f"{name}_sum {_fmt(data['sum'])}")
            lines.append(f"{name}_count {data['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        return dumps_json(self.snapshot())

    def dump(self, path: str | Path) -> None:
        """Atomically write the JSON snapshot to ``path``.

        A crash mid-dump must leave the previous snapshot readable — the
        ``stats``/``watch``/``report --ingest-metrics`` consumers fail
        hard on torn JSON.
        """
        atomic_write_text(path, self.to_json())


def merge_snapshots(snapshots) -> dict:
    """Exactly merge several registry snapshots into one.

    Counters and histogram buckets add; gauges take the last snapshot's
    value — the same semantics :meth:`Registry.merge` applies when a
    parallel runner folds worker registries into the parent.  This is
    what lets ``repro-hmd stats`` accept one ``--metrics-out`` file per
    worker and render them as a single run.
    """
    registry = Registry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


def snapshot_delta(old: dict, new: dict) -> dict:
    """The change from ``old`` to ``new``, as a mergeable snapshot.

    Counters and histogram bucket counts subtract; gauges take the new
    value.  A value that went *backwards* means the producer restarted
    and is re-accumulating from zero — monotone instruments cannot
    regress within one process — so the regression is treated as a
    reset and the whole new value is the increment (for histograms, any
    regressed bucket or total resets the whole histogram, since one
    restart resets every bucket together).  Swallowing the regression
    as "no change" instead would silently drop everything the restarted
    run observed until it overtook the old totals.  The result is
    itself a valid snapshot: absorbing every delta via
    :meth:`Registry.merge` reconstructs the cumulative state, which is
    how a live watcher folds a growing metrics file into a sliding
    window without double counting.
    """
    delta: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, data in new.get("counters", {}).items():
        previous = old.get("counters", {}).get(name, {}).get("value", 0.0)
        value = data["value"]
        delta["counters"][name] = {
            "help": data.get("help", ""),
            "value": value if value < previous else value - previous,
        }
    for name, data in new.get("gauges", {}).items():
        delta["gauges"][name] = dict(data)
    for name, data in new.get("histograms", {}).items():
        previous = old.get("histograms", {}).get(name)
        reset = (
            previous is None
            or list(previous["buckets"]) != list(data["buckets"])
            or data["count"] < previous["count"]
            or data["sum"] < previous["sum"]
            or any(c < p for c, p in zip(data["counts"], previous["counts"]))
        )
        if reset:
            entry = dict(data)
            entry["counts"] = list(data["counts"])
            delta["histograms"][name] = entry
            continue
        delta["histograms"][name] = {
            "help": data.get("help", ""),
            "buckets": list(data["buckets"]),
            "counts": [c - p for c, p in zip(data["counts"], previous["counts"])],
            "sum": data["sum"] - previous["sum"],
            "count": data["count"] - previous["count"],
        }
    return delta


def _prom_header(name: str, help: str, kind: str) -> list[str]:
    lines = []
    if help:
        # Text exposition format: HELP text escapes backslash first
        # (so escaped newlines don't double-escape), then newline.
        escaped = help.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {name} {escaped}")
    lines.append(f"# TYPE {name} {kind}")
    return lines


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


#: Shared disabled registry — the default for every instrumented component.
NULL_REGISTRY = Registry(enabled=False)
