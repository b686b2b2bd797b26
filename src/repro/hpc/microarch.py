"""Behavioural microarchitecture model that synthesizes HPC event counts.

The paper collects event counts from a real Intel Xeon X5550 (Nehalem) with
Linux ``perf``.  Offline we cannot execute real binaries, so this module
implements the closest synthetic equivalent: a *latent-parameter* model of
a program phase.  A small set of interpretable microarchitectural rates
(IPC, branch density, cache/TLB miss rates, prefetch intensity, NUMA
locality, stall fractions) fully determines the expected value of every
one of the 44 catalogued events for a sampling window; multiplicative
log-normal noise models measurement and execution variability.

Deriving all 44 events from ~16 latent rates gives the synthetic data the
property the paper's experiments depend on: events are *correlated* (e.g.
``LLC_loads`` is downstream of ``L1_dcache_load_misses``), so no single
counter carries all the class information and feature reduction is a real
trade-off.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from repro.hpc.events import ALL_EVENTS

#: Nominal core frequency of the modelled Xeon X5550.
DEFAULT_FREQUENCY_HZ: float = 2.67e9

#: Sampling window used by the paper (Perf sampling time of 10 ms).
DEFAULT_WINDOW_MS: float = 10.0


@dataclass(frozen=True)
class PhaseParameters:
    """Latent microarchitectural rates describing one program phase.

    All ``*_rate``/``*_ratio``/``*_frac`` fields are dimensionless in
    ``[0, 1]`` unless noted.  The defaults describe an unremarkable
    compute phase.

    Attributes:
        ipc: retired instructions per core cycle (0 < ipc <= 4 on Nehalem).
        utilization: fraction of the window the program is on-core.
        branch_ratio: branch instructions per retired instruction.
        branch_mispred_rate: mispredictions per branch.
        bpu_miss_rate: BPU (branch target buffer) lookup miss rate.
        load_ratio: data loads per retired instruction.
        store_ratio: data stores per retired instruction.
        l1d_load_miss_rate: L1D misses per load.
        l1d_store_miss_rate: L1D misses per store.
        l1i_miss_rate: L1I misses per fetch access.
        llc_miss_rate: LLC misses per LLC access.
        dtlb_load_miss_rate: dTLB misses per load lookup.
        dtlb_store_miss_rate: dTLB misses per store lookup.
        itlb_miss_rate: iTLB misses per fetch lookup.
        prefetch_intensity: hardware prefetches issued per demand L1D miss.
        prefetch_miss_rate: fraction of prefetches that miss their level.
        node_remote_ratio: fraction of memory traffic hitting a remote node.
        frontend_stall_frac: cycles with no uops issued / total cycles.
        backend_stall_frac: cycles with back-end stalled / total cycles.
        noise_sigma: per-window log-normal noise scale for this phase.
    """

    ipc: float = 1.2
    utilization: float = 0.95
    branch_ratio: float = 0.18
    branch_mispred_rate: float = 0.04
    bpu_miss_rate: float = 0.03
    load_ratio: float = 0.28
    store_ratio: float = 0.12
    l1d_load_miss_rate: float = 0.03
    l1d_store_miss_rate: float = 0.02
    l1i_miss_rate: float = 0.01
    llc_miss_rate: float = 0.25
    dtlb_load_miss_rate: float = 0.004
    dtlb_store_miss_rate: float = 0.003
    itlb_miss_rate: float = 0.002
    prefetch_intensity: float = 0.6
    prefetch_miss_rate: float = 0.35
    node_remote_ratio: float = 0.08
    frontend_stall_frac: float = 0.18
    backend_stall_frac: float = 0.25
    noise_sigma: float = 0.08

    def perturbed(self, rng: np.random.Generator, sigma: float = 0.05) -> "PhaseParameters":
        """Return a jittered copy modelling run-to-run variation.

        Every latent rate is scaled by an independent log-normal factor
        ``exp(N(0, sigma))`` and clipped back to a sane range.  Corpus
        families use it to derive distinct applications from one phase
        template; :meth:`ApplicationBehavior.execute` applies the same
        jitter to every phase at each run, so that re-running an
        application (as the paper does, 11 times per app) never
        reproduces identical counts.

        One batched ``rng.normal`` call draws all factors; the generator
        fills arrays from the same bit stream as repeated scalar draws,
        so this consumes the stream exactly like one draw per field.
        """
        clipped = _perturb_rates(self.rates(), rng, sigma)
        return PhaseParameters(*clipped.tolist(), noise_sigma=self.noise_sigma)

    def rates(self) -> np.ndarray:
        """The latent rates (every field but ``noise_sigma``) as an array."""
        return np.array([getattr(self, name) for name in _RATE_FIELDS])


#: The latent rates of :class:`PhaseParameters`, in field order.
_RATE_FIELDS = tuple(
    f.name for f in dataclasses.fields(PhaseParameters) if f.name != "noise_sigma"
)
#: Ceiling of each latent rate.  ipc and prefetch_intensity are
#: counts-per-event, not probabilities; they may exceed 1.
_RATE_CEILINGS = np.array(
    [4.0 if name in ("ipc", "prefetch_intensity") else 1.0 for name in _RATE_FIELDS]
)

#: The jitter draws of one window, in draw order, each with its noise
#: scale relative to the phase's ``noise_sigma``.
_JITTER_SCALES = {
    "cycles": 1.0, "instructions": 1.0,
    "branches": 1.0, "branch_misses": 1.8, "branch_loads": 0.25,
    "branch_load_misses": 1.0,
    "loads": 1.0, "stores": 1.0,
    "l1d_load_misses": 1.0, "l1d_store_misses": 1.0,
    "l1d_prefetches": 3.0, "l1d_prefetch_misses": 3.0,
    "l1i_loads": 1.0, "l1i_load_misses": 1.0,
    "l1i_prefetches": 3.0, "l1i_prefetch_misses": 3.0,
    "llc_loads": 1.0, "llc_load_misses": 1.0,
    "llc_stores": 1.0, "llc_store_misses": 1.0,
    "llc_prefetches": 3.0, "llc_prefetch_misses": 3.0,
    "dtlb_loads": 1.0, "dtlb_load_misses": 1.0,
    "dtlb_stores": 1.0, "dtlb_store_misses": 1.0,
    "dtlb_prefetches": 3.0, "dtlb_prefetch_misses": 3.0,
    "itlb_loads": 1.0, "itlb_load_misses": 1.0,
    "node_loads": 1.0, "node_load_misses": 1.0,
    "node_stores": 1.0, "node_store_misses": 1.0,
    "node_prefetches": 3.0, "node_prefetch_misses": 3.0,
    "mem_loads": 1.0, "mem_stores": 1.0,
    "stalled_frontend": 1.0, "stalled_backend": 1.0,
    "ref_cycles": 1.0, "bus_cycles": 1.0,
}
_N_JITTERS = len(_JITTER_SCALES)
_SCALE_COLUMN = np.array(list(_JITTER_SCALES.values()))[:, None]


def _perturb_rates(
    rates: np.ndarray, rng: np.random.Generator, sigma: float
) -> np.ndarray:
    """Jitter rate rows ``(..., 19)`` by ``exp(N(0, sigma))``, clipped."""
    factors = np.exp(rng.normal(0.0, sigma, size=rates.shape))
    return np.clip(rates * factors, 1e-6, _RATE_CEILINGS)


def synthesize_windows(
    params: PhaseParameters,
    n_windows: int,
    rng: np.random.Generator,
    window_ms: float = DEFAULT_WINDOW_MS,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
) -> np.ndarray:
    """Synthesize per-window counts for all 44 events of one phase.

    Args:
        params: latent rates of the phase.
        n_windows: number of consecutive sampling windows to produce.
        rng: random generator for the multiplicative noise.
        window_ms: sampling window length in milliseconds.
        frequency_hz: modelled core frequency.

    Returns:
        Array of shape ``(n_windows, 44)`` with columns ordered like
        :data:`repro.hpc.events.ALL_EVENTS`.  Counts are non-negative
        floats (fractional counts model pro-rated multiplexing).
    """
    if n_windows < 0:
        raise ValueError(f"n_windows must be non-negative, got {n_windows}")
    if n_windows == 0:
        return np.zeros((0, len(ALL_EVENTS)))
    noise = rng.standard_normal(_N_JITTERS * n_windows).reshape(_N_JITTERS, n_windows)
    return _synthesize(
        params.rates(), params.noise_sigma, noise, window_ms, frequency_hz
    )


def _synthesize(
    rates: np.ndarray,
    noise_sigma: np.ndarray | float,
    noise: np.ndarray,
    window_ms: float,
    frequency_hz: float,
) -> np.ndarray:
    """The synthesis kernel over whole traces.

    Args:
        rates: latent rates in :data:`_RATE_FIELDS` order, either
            ``(19,)`` for one phase or ``(19, n_windows)`` per window.
        noise_sigma: log-normal noise scale, scalar or per window.
        noise: ``(42, n_windows)`` standard normals; row ``k`` feeds the
            ``k``-th draw of :data:`_JITTER_SCALES`.
        window_ms: sampling window length in milliseconds.
        frequency_hz: modelled core frequency.

    Returns:
        Array ``(n_windows, 44)`` in ``ALL_EVENTS`` order.  Every
        product keeps the left-to-right order of the per-phase model, so
        a window's counts are bit-identical whichever way its parameters
        and noise were laid out.
    """
    (
        ipc,
        utilization,
        branch_ratio,
        branch_mispred_rate,
        bpu_miss_rate,
        load_ratio,
        store_ratio,
        l1d_load_miss_rate,
        l1d_store_miss_rate,
        l1i_miss_rate,
        llc_miss_rate,
        dtlb_load_miss_rate,
        dtlb_store_miss_rate,
        itlb_miss_rate,
        prefetch_intensity,
        prefetch_miss_rate,
        node_remote_ratio,
        frontend_stall_frac,
        backend_stall_frac,
    ) = rates
    # Log-normal factors exp(N(0, noise_sigma * scale)).  N(0, s) is
    # 0 + s * z over the same stream, and exp(+-0) == 1.
    jitter = dict(zip(_JITTER_SCALES, np.exp(noise_sigma * _SCALE_COLUMN * noise)))

    cycles = frequency_hz * (window_ms / 1000.0) * utilization * jitter["cycles"]
    instructions = cycles * ipc * jitter["instructions"]

    branches = instructions * branch_ratio * jitter["branches"]
    # Misprediction counts are noisy (speculation depth varies window to
    # window); BPU lookups track retired branches almost deterministically.
    branch_misses = branches * branch_mispred_rate * jitter["branch_misses"]
    branch_loads = branches * 1.05 * jitter["branch_loads"]
    branch_load_misses = branch_loads * bpu_miss_rate * jitter["branch_load_misses"]

    loads = instructions * load_ratio * jitter["loads"]
    stores = instructions * store_ratio * jitter["stores"]

    l1d_load_misses = loads * l1d_load_miss_rate * jitter["l1d_load_misses"]
    l1d_store_misses = stores * l1d_store_miss_rate * jitter["l1d_store_misses"]
    l1d_prefetches = l1d_load_misses * prefetch_intensity * jitter["l1d_prefetches"]
    l1d_prefetch_misses = l1d_prefetches * prefetch_miss_rate * jitter["l1d_prefetch_misses"]

    # The front end fetches roughly one L1I access per issued instruction
    # bundle (4-wide on Nehalem), so fetches scale with instructions.
    l1i_loads = instructions * 0.27 * jitter["l1i_loads"]
    l1i_load_misses = l1i_loads * l1i_miss_rate * jitter["l1i_load_misses"]
    l1i_prefetches = l1i_load_misses * 0.5 * jitter["l1i_prefetches"]
    l1i_prefetch_misses = l1i_prefetches * prefetch_miss_rate * jitter["l1i_prefetch_misses"]

    # LLC demand traffic is downstream of the L1 misses.
    llc_loads = (l1d_load_misses + l1i_load_misses) * jitter["llc_loads"]
    llc_load_misses = llc_loads * llc_miss_rate * jitter["llc_load_misses"]
    llc_stores = l1d_store_misses * jitter["llc_stores"]
    llc_store_misses = llc_stores * llc_miss_rate * 0.9 * jitter["llc_store_misses"]
    llc_prefetches = (l1d_prefetch_misses + l1i_prefetch_misses) * jitter["llc_prefetches"]
    llc_prefetch_misses = llc_prefetches * prefetch_miss_rate * jitter["llc_prefetch_misses"]

    cache_references = llc_loads + llc_stores + llc_prefetches
    cache_misses = llc_load_misses + llc_store_misses + llc_prefetch_misses

    dtlb_loads = loads * jitter["dtlb_loads"]
    dtlb_load_misses = dtlb_loads * dtlb_load_miss_rate * jitter["dtlb_load_misses"]
    dtlb_stores = stores * jitter["dtlb_stores"]
    dtlb_store_misses = dtlb_stores * dtlb_store_miss_rate * jitter["dtlb_store_misses"]
    dtlb_prefetches = l1d_prefetches * 0.8 * jitter["dtlb_prefetches"]
    dtlb_prefetch_misses = dtlb_prefetches * dtlb_load_miss_rate * jitter["dtlb_prefetch_misses"]

    itlb_loads = l1i_loads * 0.5 * jitter["itlb_loads"]
    itlb_load_misses = itlb_loads * itlb_miss_rate * jitter["itlb_load_misses"]

    # Memory-node traffic is what escapes the LLC, split by NUMA locality.
    remote = node_remote_ratio
    memory_loads = llc_load_misses + llc_prefetch_misses
    node_loads = memory_loads * (1.0 - remote) * jitter["node_loads"]
    node_load_misses = memory_loads * remote * jitter["node_load_misses"]
    node_stores = llc_store_misses * (1.0 - remote) * jitter["node_stores"]
    node_store_misses = llc_store_misses * remote * jitter["node_store_misses"]
    node_prefetches = llc_prefetch_misses * (1.0 - remote) * jitter["node_prefetches"]
    node_prefetch_misses = llc_prefetch_misses * remote * 0.5 * jitter["node_prefetch_misses"]

    mem_loads = memory_loads * jitter["mem_loads"]
    mem_stores = llc_store_misses * jitter["mem_stores"]

    stalled_frontend = cycles * frontend_stall_frac * jitter["stalled_frontend"]
    stalled_backend = cycles * backend_stall_frac * jitter["stalled_backend"]
    ref_cycles = cycles * jitter["ref_cycles"]
    bus_cycles = cycles / 8.0 * jitter["bus_cycles"]

    columns = {
        "cpu_cycles": cycles,
        "instructions": instructions,
        "ref_cycles": ref_cycles,
        "bus_cycles": bus_cycles,
        "stalled_cycles_frontend": stalled_frontend,
        "stalled_cycles_backend": stalled_backend,
        "branch_instructions": branches,
        "branch_misses": branch_misses,
        "cache_references": cache_references,
        "cache_misses": cache_misses,
        "L1_dcache_loads": loads,
        "L1_dcache_load_misses": l1d_load_misses,
        "L1_dcache_stores": stores,
        "L1_dcache_store_misses": l1d_store_misses,
        "L1_dcache_prefetches": l1d_prefetches,
        "L1_dcache_prefetch_misses": l1d_prefetch_misses,
        "L1_icache_loads": l1i_loads,
        "L1_icache_load_misses": l1i_load_misses,
        "L1_icache_prefetches": l1i_prefetches,
        "L1_icache_prefetch_misses": l1i_prefetch_misses,
        "LLC_loads": llc_loads,
        "LLC_load_misses": llc_load_misses,
        "LLC_stores": llc_stores,
        "LLC_store_misses": llc_store_misses,
        "LLC_prefetches": llc_prefetches,
        "LLC_prefetch_misses": llc_prefetch_misses,
        "dTLB_loads": dtlb_loads,
        "dTLB_load_misses": dtlb_load_misses,
        "dTLB_stores": dtlb_stores,
        "dTLB_store_misses": dtlb_store_misses,
        "dTLB_prefetches": dtlb_prefetches,
        "dTLB_prefetch_misses": dtlb_prefetch_misses,
        "iTLB_loads": itlb_loads,
        "iTLB_load_misses": itlb_load_misses,
        "branch_loads": branch_loads,
        "branch_load_misses": branch_load_misses,
        "node_loads": node_loads,
        "node_load_misses": node_load_misses,
        "node_stores": node_stores,
        "node_store_misses": node_store_misses,
        "node_prefetches": node_prefetches,
        "node_prefetch_misses": node_prefetch_misses,
        "mem_loads": mem_loads,
        "mem_stores": mem_stores,
    }
    missing = set(ALL_EVENTS) - set(columns)
    if missing:
        raise RuntimeError(f"synthesizer does not cover events: {sorted(missing)}")
    return np.column_stack([columns[name] for name in ALL_EVENTS])


@dataclass(frozen=True)
class PhaseMix:
    """One phase of an application together with its expected time share."""

    params: PhaseParameters
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"phase weight must be positive, got {self.weight}")


class ApplicationBehavior:
    """Microarchitectural behaviour of one application as a phase mixture.

    An application dwells in one phase for a geometrically distributed
    number of windows, then switches to another phase with probability
    proportional to the phase weights.  This yields the bursty,
    phase-structured traces real programs produce under ``perf``.

    Args:
        name: unique application identifier.
        phases: the application's phases and their time shares.
        mean_dwell_windows: average number of consecutive windows spent in
            a phase before re-drawing.
    """

    def __init__(
        self,
        name: str,
        phases: list[PhaseMix],
        mean_dwell_windows: float = 8.0,
    ) -> None:
        if not phases:
            raise ValueError("an application needs at least one phase")
        if mean_dwell_windows < 1.0:
            raise ValueError("mean_dwell_windows must be >= 1")
        self.name = name
        self.phases = list(phases)
        self.mean_dwell_windows = mean_dwell_windows
        total = sum(p.weight for p in self.phases)
        self._weights = np.array([p.weight / total for p in self.phases])
        # Generator.choice normalizes its CDF by the last element before
        # the searchsorted lookup; phase_schedule replicates it exactly
        self._cdf = np.cumsum(self._weights)
        self._cdf /= self._cdf[-1]
        self._rates = np.array([mix.params.rates() for mix in self.phases])
        self._noise_sigmas = np.array([mix.params.noise_sigma for mix in self.phases])

    def phase_schedule(self, n_windows: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the per-window phase index sequence for one execution.

        The model consumes the stream draw by draw: one ``rng.choice``
        to enter the first phase, one switch uniform per later window,
        one more ``rng.choice`` at each switch.  This draws a
        ``2 * n_windows`` buffer up front (the worst-case consumption),
        decodes it with the same comparisons (``Generator.choice`` with
        probabilities spends exactly one uniform, mapped through the
        weight CDF), then rewinds the generator and advances it by the
        draws actually consumed, so the schedule and the stream position
        afterwards equal the draw-by-draw walk's.

        The decode steps from phase switch to phase switch, not from
        window to window: window ``i`` reads its switch uniform at buffer
        position ``p``, and the next window reads ``p + 1``, or
        ``p + 2`` after a switch (the choice uniform sits in between).
        So from a window at position ``p`` every window up to the first
        switching position ``q >= p`` stays in the current phase, and
        the one at ``q`` switches.  A short execution pays for one array
        comparison and a few switches, a long one no per-window Python.

        An empty schedule consumes nothing.
        """
        if n_windows <= 0:
            return np.empty(0, dtype=np.intp)
        state = rng.bit_generator.state
        buffer = rng.random(2 * n_windows)
        at = [0]  # buffer position of each phase visit's choice uniform
        lengths = []  # windows of each phase visit
        start = 0
        window = position = 1  # next window, and the position it reads
        for q in np.flatnonzero(buffer < 1.0 / self.mean_dwell_windows).tolist():
            if q < position:
                continue  # position 0 or a choice uniform: not a switch draw
            switch = window + q - position  # the window that reads q
            if switch >= n_windows:
                break
            at.append(q + 1)
            lengths.append(switch - start)
            start, window, position = switch, switch + 1, q + 2
        lengths.append(n_windows - start)
        # uniforms are < 1.0 == cdf[-1], so every index names a phase
        phases = self._cdf.searchsorted(buffer[at], side="right")
        schedule = np.repeat(phases, lengths)
        rng.bit_generator.state = state
        rng.random(position + n_windows - window)
        return schedule

    def draw(
        self, n_windows: int, rng: np.random.Generator, run_sigma: float = 0.05
    ) -> "ExecutionDraws":
        """Take every random draw of one execution, in stream order.

        The perturbation of the phase parameters (run-to-run variation),
        the phase schedule, then one standard-normal draw for all the
        windows' jitters.  :func:`synthesize_executions` turns any
        number of draws into traces.
        """
        if n_windows <= 0:
            raise ValueError(f"n_windows must be positive, got {n_windows}")
        rates = _perturb_rates(self._rates, rng, run_sigma)
        schedule = self.phase_schedule(n_windows, rng)
        noise = rng.standard_normal(_N_JITTERS * n_windows)
        return ExecutionDraws(self, rates, schedule, noise)

    def execute(
        self,
        n_windows: int,
        rng: np.random.Generator,
        window_ms: float = DEFAULT_WINDOW_MS,
        run_sigma: float = 0.05,
    ) -> np.ndarray:
        """Simulate one execution and return all 44 event counts per window.

        Each execution perturbs the phase parameters once (run-to-run
        variation) and then walks the phase schedule, synthesizing every
        window from the active phase.

        The random stream is consumed as if each phase were perturbed in
        turn and each visited phase then synthesized its windows in one
        :func:`synthesize_windows` call, in phase-index order; the draws
        are taken in one call each and laid out per window instead.

        Returns:
            Array of shape ``(n_windows, 44)`` in ``ALL_EVENTS`` order.
        """
        (trace,) = synthesize_executions(
            [self.draw(n_windows, rng, run_sigma)], window_ms
        )
        return trace


class ExecutionDraws(NamedTuple):
    """The random draws of one execution (:meth:`ApplicationBehavior.draw`).

    Attributes:
        app: the executed application.
        rates: perturbed latent rates, ``(n_phases, 19)``.
        schedule: phase index of every window.
        noise: ``42 * n_windows`` standard normals, consumed as
            consecutive per-phase blocks in phase-index order: a phase
            visited for ``n_p`` windows takes ``42 * n_p`` draws laid out
            ``(42, n_p)``, the shape its own :func:`synthesize_windows`
            call would draw.
    """

    app: ApplicationBehavior
    rates: np.ndarray
    schedule: np.ndarray
    noise: np.ndarray


def synthesize_executions(
    draws: Sequence[ExecutionDraws], window_ms: float = DEFAULT_WINDOW_MS
) -> list[np.ndarray]:
    """Turn drawn executions into their traces with one kernel call.

    The kernel is elementwise per window, so the windows of every
    execution are synthesized side by side and the result is cut back
    into one ``(n_windows, 44)`` view per execution; each trace is
    byte-equal to synthesizing its execution alone.  Every phase of
    every execution gets one row of a stacked rate table, and windows
    index it by that row.  A single execution passes its arrays
    through without copies.
    """
    if not draws:
        return []
    if len(draws) == 1:
        ((app, rates, rows, noise),) = draws
        sigmas = app._noise_sigmas
    else:
        offsets = accumulate((len(d.rates) for d in draws[:-1]), initial=0)
        rates = np.concatenate([d.rates for d in draws])
        sigmas = np.concatenate([d.app._noise_sigmas for d in draws])
        rows = np.concatenate([d.schedule + o for d, o in zip(draws, offsets)])
        noise = np.concatenate([d.noise for d in draws])
    trace = _synthesize(
        rates.T[:, rows],
        sigmas[rows],
        _window_noise(rows, noise),
        window_ms,
        DEFAULT_FREQUENCY_HZ,
    )
    if len(draws) == 1:
        return [trace]
    bounds = list(accumulate((d.schedule.size for d in draws), initial=0))
    return [trace[start:end] for start, end in zip(bounds, bounds[1:])]


#: Jitter row index, broadcast against per-window offsets.
_JITTER_ROWS = np.arange(_N_JITTERS)[:, None]


def _window_noise(rows: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Lay the jitter draws of stacked executions out in window order.

    ``rows`` holds each window's row of the stacked rate table, which
    grows with (execution, phase), so a stable sort by it groups the
    windows exactly as ``noise`` holds their blocks: the group of row
    ``g`` starts at window position ``S_g`` in sorted order, spans
    ``n_g`` windows, and owns the ``(42, n_g)`` block at ``42 * S_g``.
    Window ``w`` at sorted position ``p`` reads jitter ``k`` at
    ``42 * S_g + k * n_g + (p - S_g)``.

    Returns:
        Array ``(42, len(rows))``; column ``w`` holds window ``w``'s
        jitter draws.
    """
    n = rows.size
    position = np.empty(n, dtype=np.intp)
    position[np.argsort(rows, kind="stable")] = np.arange(n)
    sizes = np.bincount(rows)
    starts = np.cumsum(sizes) - sizes
    index = _JITTER_ROWS * sizes[rows]
    index += position + (_N_JITTERS - 1) * starts[rows]
    return noise.take(index)
