"""Host-speed calibration for short timed slices.

The host this benchmark is tuned on changes speed by tens of percent
within a second, and the change hits interpreter work and small numpy
calls alike.  A fixed loop of that same kind of work, run right beside
each timed slice, measures the host's speed at that moment; dividing the
slice by it (times a committed reference) removes most of the swing.

This module imports nothing from the program under test, so a change
to the program can never change the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one :func:`probe` takes at the reference host speed.  Scaled
#: times read as if the whole run had happened at that speed.  Changing
#: it rescales every reported time, so it is fixed with the benchmark.
REFERENCE_PROBE_S = 0.004

_VECTOR = np.linspace(0.5, 2.0, 64)


def _loop() -> float:
    acc = 0
    table: dict[int, int] = {}
    for i in range(6500):
        table[i & 63] = acc
        acc = (acc + i * 7 + table.get((i * 3) & 63, 0)) % 1000003
    vec = _VECTOR
    total = 0.0
    for _ in range(320):
        vec = np.sqrt(vec * vec + 1.0) * 0.5
        total += float(vec.sum())
    return acc + total


def probe() -> float:
    """Seconds one run of the fixed loop takes right now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class Calibrator:
    """Probes between slices and turns raw slice times into scaled ones.

    Call :meth:`measure` around each slice: it probes before the slice
    (reusing the previous slice's trailing probe when there is one) and
    after it, and scales the slice by the reference over the mean of the
    two probes.  Every probe is kept so a run can report its spread.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._last: float | None = None

    def _probe(self) -> float:
        value = probe()
        self.probes.append(value)
        return value

    def factor(self, before: float, after: float) -> float:
        """Multiplier from raw seconds to reference-speed seconds."""
        return REFERENCE_PROBE_S / ((before + after) / 2.0)

    def measure(self, fn, *args, **kwargs):
        """Run ``fn`` as one slice.

        Returns ``(result, raw_s, cpu_s, factor)``: wall and process-CPU
        seconds of the call alone, and the multiplier to reference speed.
        """
        before = self._last if self._last is not None else self._probe()
        cpu_start = time.process_time()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        after = self._probe()
        self._last = after
        return result, raw, cpu, self.factor(before, after)

    def break_chain(self) -> None:
        """Forget the trailing probe (call after untimed work)."""
        self._last = None

    def summary(self) -> dict:
        """Probe count, median, and quartile spread as a share of median."""
        if not self.probes:
            return {"probes": 0}
        median = statistics.median(self.probes)
        if len(self.probes) >= 4:
            q1, _, q3 = statistics.quantiles(self.probes, n=4)
        else:
            q1 = q3 = median
        return {
            "probes": len(self.probes),
            "median_s": median,
            "min_s": min(self.probes),
            "max_s": max(self.probes),
            "iqr_share": (q3 - q1) / median,
            "speed_vs_reference": REFERENCE_PROBE_S / median,
        }
