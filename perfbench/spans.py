"""The benchmark's own span recorder for the traced run.

It wraps public entry points of the program's layers from outside (it
is deliberately not ``repro.obs.Tracer``: that class is itself a layer
the benchmark measures).  Each span records wall and thread-CPU time at
entry and exit; a layer's

* **busy** time is the CPU its spans used minus the CPU of spans nested
  inside them (self time);
* **wait** time is the rest of its self wall time: blocked on a queue,
  waiting for the interpreter lock, or off-CPU in I/O.

Wrappers are installed only around traced slices and removed right
after, so untraced slices run the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (layer, module, attribute path) of every wrapped entry point.  A
#: module-level function is also replaced wherever another ``repro``
#: module imported it by name.
TARGETS = (
    ("hpc.execute", "repro.hpc.lxc", "ContainerPool.run"),
    ("hpc.sample", "repro.hpc.counters", "sample_trace"),
    ("ml.classify", "repro.core.detector", "HMDDetector.grade_windows"),
    ("ml.classify", "repro.core.detector", "HMDDetector.predict_windows"),
    ("core.vote", "repro.core.runtime", "DetectionVerdict.from_flags"),
    ("serve.publish", "repro.serve.bus", "Channel.publish"),
    ("serve.consume_wait", "repro.serve.bus", "Channel.consume"),
    ("obs.health", "repro.obs.health", "HealthEvaluator.observe_verdict"),
    ("obs.health", "repro.obs.health", "HealthEvaluator.observe_classify"),
    ("obs.quality", "repro.obs.quality", "QualityTracker.observe_execution"),
    ("obs.dump", "repro.obs.metrics", "Registry.dump"),
    ("obs.dump", "repro.obs.health", "HealthEvaluator.dump"),
    ("obs.dump", "repro.obs.quality", "QualityTracker.dump"),
    ("obs.dump", "repro.obs.trace", "Tracer.dump"),
    ("obs.archive_ingest", "repro.obs.archive", "Archive.ingest_trace"),
    ("registry.load", "repro.registry", "ModelRegistry.load_detector"),
    ("registry.save", "repro.registry", "ModelRegistry.save_detector"),
    ("workloads.corpus", "repro.hpc.perf", "BatchedCollection.collect"),
    ("features.rank", "repro.features.correlation", "rank_features"),
)

#: Layers whose calls also count rows (the array argument after ``self``).
ROW_LAYERS = {"ml.classify"}


class LayerStats:
    __slots__ = ("calls", "busy", "wait", "rows")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.wait = 0.0
        self.rows = 0


class SpanRecorder:
    """Per-layer calls, busy and wait seconds, across all threads."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._sites: list | None = None

    # -- span accounting -----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        stack = self._stack()
        frame = [time.perf_counter(), time.thread_time(), 0.0, 0.0]
        stack.append(frame)
        return stack

    def _exit(self, stack: list, layer: str, rows: int) -> None:
        frame = stack.pop()
        wall = time.perf_counter() - frame[0]
        cpu = time.thread_time() - frame[1]
        if stack:
            stack[-1][2] += wall
            stack[-1][3] += cpu
        self_cpu = max(cpu - frame[3], 0.0)
        self_wall = max(wall - frame[2], 0.0)
        with self._lock:
            stats = self.stats[layer]
            stats.calls += 1
            stats.busy += self_cpu
            stats.wait += max(self_wall - self_cpu, 0.0)
            stats.rows += rows

    @contextmanager
    def span(self, layer: str, rows: int = 0):
        """Record one span of ``layer`` around the ``with`` body."""
        stack = self._enter()
        try:
            yield
        finally:
            self._exit(stack, layer, rows)

    def take(self) -> dict[str, LayerStats]:
        """Return and reset the accumulated statistics."""
        with self._lock:
            stats, self.stats = self.stats, defaultdict(LayerStats)
        return dict(stats)

    # -- wrapping ------------------------------------------------------
    def _resolve_sites(self) -> list[tuple[object, str, object, str]]:
        """Every (owner, attribute, original, layer) to patch."""
        sites = []
        for layer, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                sites.append((owner, attr, owner.__dict__[attr], layer))
                continue
            original = getattr(module, path)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] != "repro" or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        sites.append((loaded, attr, original, layer))
        return sites

    def _wrap(self, original, layer: str):
        recorder = self
        count_rows = layer in ROW_LAYERS

        def wrapper(*args, **kwargs):
            stack = recorder._enter()
            try:
                return original(*args, **kwargs)
            finally:
                rows = len(args[1]) if count_rows and len(args) > 1 else 0
                recorder._exit(stack, layer, rows)

        return wrapper

    def install(self) -> None:
        if self._sites is None:
            # Resolved at first use, once the workload has imported
            # every module that may hold a by-name alias.
            self._sites = self._resolve_sites()
        for owner, attr, original, layer in self._sites:
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, layer))
            else:
                patched = self._wrap(original, layer)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
