"""Retired scalar and per-window reference paths of :mod:`repro.hpc`.

The shipped sampler and simulator are whole-trace array code.  Their
loop-shaped predecessors live here as executable references: the
differential tests in ``tests/hpc`` assert that both give byte-equal
traces, readings and register state, and leave the random generator at
the same stream position.

* :func:`sample_trace_per_window` — one ``observe_window`` + ``read``
  per sampling window.
* :func:`synthesize_windows_per_jitter` — 42 ``rng.normal`` calls and a
  ``column_stack`` per phase.
* :func:`perturbed_per_field` — one ``rng.normal`` per latent rate.
* :func:`phase_schedule_per_draw` — one ``rng.choice``/``rng.random``
  per window.
* :func:`execute_per_phase` — the four above composed the way
  ``ApplicationBehavior.execute`` used to compose them.
* :func:`run_many_per_execution` — one container execution, hence one
  :func:`execute_per_phase`, per job.

:func:`retired_hpc` patches all of them into the package at once, so a
whole pipeline (e.g. a corpus build) can be run on the retired paths
and compared end to end.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from repro.hpc import counters, microarch
from repro.hpc.counters import CounterRegisterFile, CounterStateError
from repro.hpc.events import ALL_EVENTS
from repro.hpc.lxc import CONTAMINATION_SIGMA_STEP, ContainerPool
from repro.hpc.microarch import (
    DEFAULT_FREQUENCY_HZ,
    DEFAULT_WINDOW_MS,
    ApplicationBehavior,
    PhaseParameters,
)


def sample_trace_per_window(
    register_file: CounterRegisterFile,
    trace: np.ndarray,
    event_names: tuple[str, ...],
) -> np.ndarray:
    """Window-by-window sampler (reference for ``sample_trace``)."""
    programmed = register_file.programmed_events
    if not programmed:
        raise CounterStateError("no events programmed")
    column = {name: i for i, name in enumerate(event_names)}
    readings = np.zeros((trace.shape[0], len(programmed)))
    for w in range(trace.shape[0]):
        window_counts = {ev: float(trace[w, column[ev]]) for ev in programmed}
        for register in register_file.registers:
            if register.enabled:
                register.value = 0
        register_file.observe_window(window_counts)
        row = register_file.read()
        readings[w] = [row[ev] for ev in programmed]
    return readings


def perturbed_per_field(
    params: PhaseParameters, rng: np.random.Generator, sigma: float = 0.05
) -> PhaseParameters:
    """Per-field jitter loop (reference for ``PhaseParameters.perturbed``)."""
    fields = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if field.name == "noise_sigma":
            fields[field.name] = value
            continue
        factor = float(np.exp(rng.normal(0.0, sigma)))
        ceiling = 4.0 if field.name in ("ipc", "prefetch_intensity") else 1.0
        fields[field.name] = float(np.clip(value * factor, 1e-6, ceiling))
    return PhaseParameters(**fields)


def phase_schedule_per_draw(
    app: ApplicationBehavior, n_windows: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw-by-draw schedule loop (reference for ``phase_schedule``)."""
    if n_windows <= 0:
        return np.empty(0, dtype=np.intp)
    schedule = np.empty(n_windows, dtype=np.intp)
    switch_prob = 1.0 / app.mean_dwell_windows
    current = int(rng.choice(len(app.phases), p=app._weights))
    for i in range(n_windows):
        if i > 0 and rng.random() < switch_prob:
            current = int(rng.choice(len(app.phases), p=app._weights))
        schedule[i] = current
    return schedule


def synthesize_windows_per_jitter(
    params: PhaseParameters,
    n_windows: int,
    rng: np.random.Generator,
    window_ms: float = DEFAULT_WINDOW_MS,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
) -> np.ndarray:
    """Retired one-phase synthesizer: one ``rng.normal`` call per jitter.

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

    def jitter(shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
        return np.exp(rng.normal(0.0, params.noise_sigma * scale, size=shape))

    n = n_windows
    cycles = frequency_hz * (window_ms / 1000.0) * params.utilization * jitter((n,))
    instructions = cycles * params.ipc * jitter((n,))

    branches = instructions * params.branch_ratio * jitter((n,))
    # Misprediction counts are noisy (speculation depth varies window to
    # window); BPU lookups track retired branches almost deterministically.
    branch_misses = branches * params.branch_mispred_rate * jitter((n,), 1.8)
    branch_loads = branches * 1.05 * jitter((n,), 0.25)
    branch_load_misses = branch_loads * params.bpu_miss_rate * jitter((n,))

    loads = instructions * params.load_ratio * jitter((n,))
    stores = instructions * params.store_ratio * jitter((n,))

    l1d_load_misses = loads * params.l1d_load_miss_rate * jitter((n,))
    l1d_store_misses = stores * params.l1d_store_miss_rate * jitter((n,))
    l1d_prefetches = l1d_load_misses * params.prefetch_intensity * jitter((n,), 3.0)
    l1d_prefetch_misses = l1d_prefetches * params.prefetch_miss_rate * jitter((n,), 3.0)

    # The front end fetches roughly one L1I access per issued instruction
    # bundle (4-wide on Nehalem), so fetches scale with instructions.
    l1i_loads = instructions * 0.27 * jitter((n,))
    l1i_load_misses = l1i_loads * params.l1i_miss_rate * jitter((n,))
    l1i_prefetches = l1i_load_misses * 0.5 * jitter((n,), 3.0)
    l1i_prefetch_misses = l1i_prefetches * params.prefetch_miss_rate * jitter((n,), 3.0)

    # LLC demand traffic is downstream of the L1 misses.
    llc_loads = (l1d_load_misses + l1i_load_misses) * jitter((n,))
    llc_load_misses = llc_loads * params.llc_miss_rate * jitter((n,))
    llc_stores = l1d_store_misses * jitter((n,))
    llc_store_misses = llc_stores * params.llc_miss_rate * 0.9 * jitter((n,))
    llc_prefetches = (l1d_prefetch_misses + l1i_prefetch_misses) * jitter((n,), 3.0)
    llc_prefetch_misses = llc_prefetches * params.prefetch_miss_rate * jitter((n,), 3.0)

    cache_references = llc_loads + llc_stores + llc_prefetches
    cache_misses = llc_load_misses + llc_store_misses + llc_prefetch_misses

    dtlb_loads = loads * jitter((n,))
    dtlb_load_misses = dtlb_loads * params.dtlb_load_miss_rate * jitter((n,))
    dtlb_stores = stores * jitter((n,))
    dtlb_store_misses = dtlb_stores * params.dtlb_store_miss_rate * jitter((n,))
    dtlb_prefetches = l1d_prefetches * 0.8 * jitter((n,), 3.0)
    dtlb_prefetch_misses = dtlb_prefetches * params.dtlb_load_miss_rate * jitter((n,), 3.0)

    itlb_loads = l1i_loads * 0.5 * jitter((n,))
    itlb_load_misses = itlb_loads * params.itlb_miss_rate * jitter((n,))

    # Memory-node traffic is what escapes the LLC, split by NUMA locality.
    remote = params.node_remote_ratio
    memory_loads = llc_load_misses + llc_prefetch_misses
    node_loads = memory_loads * (1.0 - remote) * jitter((n,))
    node_load_misses = memory_loads * remote * jitter((n,))
    node_stores = llc_store_misses * (1.0 - remote) * jitter((n,))
    node_store_misses = llc_store_misses * remote * jitter((n,))
    node_prefetches = llc_prefetch_misses * (1.0 - remote) * jitter((n,), 3.0)
    node_prefetch_misses = llc_prefetch_misses * remote * 0.5 * jitter((n,), 3.0)

    mem_loads = memory_loads * jitter((n,))
    mem_stores = llc_store_misses * jitter((n,))

    stalled_frontend = cycles * params.frontend_stall_frac * jitter((n,))
    stalled_backend = cycles * params.backend_stall_frac * jitter((n,))
    ref_cycles = cycles * jitter((n,))
    bus_cycles = cycles / 8.0 * jitter((n,))

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


def execute_per_phase(
    app: ApplicationBehavior,
    n_windows: int,
    rng: np.random.Generator,
    window_ms: float = DEFAULT_WINDOW_MS,
    run_sigma: float = 0.05,
) -> np.ndarray:
    """Per-phase simulator (reference for ``ApplicationBehavior.execute``)."""
    if n_windows <= 0:
        raise ValueError(f"n_windows must be positive, got {n_windows}")
    run_params = [perturbed_per_field(mix.params, rng, run_sigma) for mix in app.phases]
    schedule = phase_schedule_per_draw(app, n_windows, rng)
    trace = np.zeros((n_windows, len(ALL_EVENTS)))
    for phase_idx in np.unique(schedule):
        mask = schedule == phase_idx
        trace[mask] = synthesize_windows_per_jitter(
            run_params[phase_idx], int(mask.sum()), rng, window_ms=window_ms
        )
    return trace


def run_many_per_execution(
    pool: ContainerPool,
    jobs: Iterable[tuple[ApplicationBehavior, int, bool]],
    window_ms: float = DEFAULT_WINDOW_MS,
) -> list[np.ndarray]:
    """Execution-at-a-time pool (reference for ``ContainerPool.run_many``).

    Every job runs in the container the pool's policy gives it, from
    that container's own stream, and contaminates it when malicious.
    """
    traces = []
    for app, n_windows, is_malware in jobs:
        if pool.destroy_after_run:
            container = pool._create()
        else:
            if pool._reused is None:
                pool._reused = pool._create()
            container = pool._reused
        rng = np.random.default_rng((container.seed, container.runs_executed))
        run_sigma = 0.05 + CONTAMINATION_SIGMA_STEP * container.contamination_level
        try:
            traces.append(
                execute_per_phase(
                    app, n_windows, rng, window_ms=window_ms, run_sigma=run_sigma
                )
            )
            container.runs_executed += 1
            if is_malware:
                container.contamination_level += 1
        finally:
            if pool.destroy_after_run:
                container.destroy()
    return traces


@contextmanager
def retired_hpc() -> Iterator[None]:
    """Run every sampler and simulator call inside the block on the
    retired reference paths.

    ``sample_trace`` and ``synthesize_windows`` are replaced in every
    loaded ``repro`` module that imported them by name; the methods are
    replaced on their classes.
    """
    functions = (
        ("sample_trace", counters.sample_trace, sample_trace_per_window),
        ("synthesize_windows", microarch.synthesize_windows, synthesize_windows_per_jitter),
    )
    patches = [
        (module, name, original, retired)
        for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "repro"
        for name, original, retired in functions
        if getattr(module, name, None) is original
    ]
    patches += [
        (PhaseParameters, "perturbed", PhaseParameters.perturbed, perturbed_per_field),
        (
            ApplicationBehavior,
            "phase_schedule",
            ApplicationBehavior.phase_schedule,
            phase_schedule_per_draw,
        ),
        (ApplicationBehavior, "execute", ApplicationBehavior.execute, execute_per_phase),
        (ContainerPool, "run_many", ContainerPool.run_many, run_many_per_execution),
    ]
    try:
        for owner, name, _, retired in patches:
            setattr(owner, name, retired)
        yield
    finally:
        for owner, name, original, _ in patches:
            setattr(owner, name, original)
