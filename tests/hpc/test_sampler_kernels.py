"""Differential tests: whole-trace simulator vs the retired reference paths.

The workload model's rng-consuming hot spots — the per-window phase
schedule, the parameter perturbation and the window noise — draw in
bulk.  Each must be *bit identical* to its retired reference in
:mod:`tests.oracles.hpc`: same outputs from the same generator state AND
the same stream position afterwards, so everything sampled later in a
corpus build (weight jitter, window noise, sibling applications) is
untouched.  Stream position is asserted by drawing one more uniform
after each path and comparing it, which fails if a path over- or
under-consumes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hpc.lxc import CONTAMINATION_SIGMA_STEP, ContainerPool
from repro.hpc.microarch import (
    ApplicationBehavior,
    PhaseMix,
    PhaseParameters,
    synthesize_windows,
)
from tests.oracles import hpc as oracle


def _behavior(weights, mean_dwell):
    phases = [PhaseMix(PhaseParameters(ipc=0.5 + 0.1 * k), w) for k, w in enumerate(weights)]
    return ApplicationBehavior("app", phases, mean_dwell_windows=mean_dwell)


def _both_paths(fast_call, ref_call, seed):
    """Run both calls from identical generator states.

    Returns ``(fast, ref)`` pairs of ``(result, next_uniform)``.
    """
    rng = np.random.default_rng(seed)
    fast = (fast_call(rng), rng.random())
    rng = np.random.default_rng(seed)
    ref = (ref_call(rng), rng.random())
    return fast, ref


# ------------------------------------------------------- phase schedule
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n_phases=st.integers(1, 6),
    n_windows=st.one_of(st.integers(1, 80), st.integers(81, 700)),
    mean_dwell=st.one_of(
        st.floats(1.0, 20.0, allow_nan=False), st.floats(1.0, 1.05), st.just(1e6)
    ),
)
@example(seed=0, n_phases=3, n_windows=1, mean_dwell=8.0)
@example(seed=1, n_phases=3, n_windows=640, mean_dwell=1.0)  # switch every window
@example(seed=2, n_phases=1, n_windows=640, mean_dwell=1e6)  # never switch
@example(seed=3, n_phases=4, n_windows=2, mean_dwell=1.0)
def test_phase_schedule_matches_scalar(seed, n_phases, n_windows, mean_dwell):
    rng = np.random.default_rng(seed + 7)
    weights = rng.uniform(0.05, 1.0, size=n_phases)
    app = _behavior(weights, mean_dwell)
    (fast, fast_next), (ref, ref_next) = _both_paths(
        lambda r: app.phase_schedule(n_windows, r),
        lambda r: oracle.phase_schedule_per_draw(app, n_windows, r),
        seed,
    )
    assert np.array_equal(fast, ref)
    assert fast.dtype == ref.dtype
    assert fast_next == ref_next  # identical stream position afterwards


def test_phase_schedule_spans_all_phases_eventually():
    app = _behavior([1.0, 1.0, 1.0], mean_dwell=2.0)
    schedule = app.phase_schedule(500, np.random.default_rng(3))
    assert set(np.unique(schedule)) == {0, 1, 2}


def test_phase_schedule_zero_windows_consumes_no_draws():
    """Regression: an empty schedule used to burn one phase draw, which
    shifted every subsequent draw of the corpus build."""
    app = _behavior([0.7, 0.3], mean_dwell=4.0)
    first_draw = np.random.default_rng(9).random()
    rng = np.random.default_rng(9)
    schedule = app.phase_schedule(0, rng)
    assert schedule.size == 0
    assert rng.random() == first_draw
    rng = np.random.default_rng(9)
    assert oracle.phase_schedule_per_draw(app, 0, rng).size == 0
    assert rng.random() == first_draw


# ------------------------------------------------------------ perturbed
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), sigma=st.floats(0.0, 0.5, allow_nan=False))
def test_perturbed_matches_scalar(seed, sigma):
    params = PhaseParameters()
    (fast, fast_next), (ref, ref_next) = _both_paths(
        lambda r: params.perturbed(r, sigma),
        lambda r: oracle.perturbed_per_field(params, r, sigma),
        seed,
    )
    assert fast == ref  # dataclass equality: every field bit-identical
    assert fast_next == ref_next


def test_perturbed_respects_field_ceilings():
    params = PhaseParameters()
    out = params.perturbed(np.random.default_rng(0), sigma=50.0)
    for field, value in vars(out).items():
        if field == "noise_sigma":
            continue
        ceiling = 4.0 if field in ("ipc", "prefetch_intensity") else 1.0
        assert 1e-6 <= value <= ceiling, field


# ------------------------------------------------- synthesis and execute
_PARAMS = st.builds(
    PhaseParameters,
    ipc=st.floats(0.1, 4.0),
    utilization=st.floats(0.05, 1.0),
    llc_miss_rate=st.floats(1e-6, 1.0),
    prefetch_intensity=st.floats(0.0, 4.0),
    node_remote_ratio=st.floats(0.0, 1.0),
    noise_sigma=st.floats(0.0, 0.6),
)
_WINDOW_MS = st.sampled_from([1.0, 2.5, 10.0, 37.5, 100.0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    params=_PARAMS,
    n_windows=st.integers(0, 700),
    window_ms=_WINDOW_MS,
    frequency_hz=st.sampled_from([1.0e9, 2.67e9, 3.4e9]),
)
def test_synthesize_windows_matches_per_jitter_reference(
    seed, params, n_windows, window_ms, frequency_hz
):
    (fast, fast_next), (ref, ref_next) = _both_paths(
        lambda r: synthesize_windows(params, n_windows, r, window_ms, frequency_hz),
        lambda r: oracle.synthesize_windows_per_jitter(
            params, n_windows, r, window_ms, frequency_hz
        ),
        seed,
    )
    assert fast.shape == ref.shape == (n_windows, 44)
    assert fast.tobytes() == ref.tobytes()
    assert fast_next == ref_next


@st.composite
def _applications(draw):
    """1-6 phases, some weighted so low the schedule rarely visits them."""
    n_phases = draw(st.integers(1, 6))
    phases = [
        PhaseMix(draw(_PARAMS), draw(st.sampled_from([1e-4, 0.05, 0.3, 1.0, 2.5])))
        for _ in range(n_phases)
    ]
    mean_dwell = draw(st.floats(1.0, 20.0, allow_nan=False))
    return ApplicationBehavior("app", phases, mean_dwell_windows=mean_dwell)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    app=_applications(),
    n_windows=st.one_of(st.integers(1, 40), st.integers(1, 700)),
    window_ms=_WINDOW_MS,
    contamination=st.integers(0, 4),
)
def test_execute_matches_per_phase_reference(
    seed, app, n_windows, window_ms, contamination
):
    """Covers contaminated containers: their run sigma grows per level."""
    run_sigma = 0.05 + CONTAMINATION_SIGMA_STEP * contamination
    (fast, fast_next), (ref, ref_next) = _both_paths(
        lambda r: app.execute(n_windows, r, window_ms=window_ms, run_sigma=run_sigma),
        lambda r: oracle.execute_per_phase(
            app, n_windows, r, window_ms=window_ms, run_sigma=run_sigma
        ),
        seed,
    )
    assert fast.shape == ref.shape == (n_windows, 44)
    assert fast.flags.c_contiguous
    assert fast.tobytes() == ref.tobytes()
    assert fast_next == ref_next


def test_execute_with_unvisited_phases_matches_reference():
    """A phase the schedule never enters draws no window noise."""
    phases = [
        PhaseMix(PhaseParameters(ipc=0.7), 1.0),
        PhaseMix(PhaseParameters(ipc=2.2, noise_sigma=0.3), 1e-9),
        PhaseMix(PhaseParameters(ipc=1.4), 1.0),
    ]
    app = ApplicationBehavior("app", phases, mean_dwell_windows=3.0)
    (fast, fast_next), (ref, ref_next) = _both_paths(
        lambda r: app.execute(200, r),
        lambda r: oracle.execute_per_phase(app, 200, r),
        5,
    )
    rng = np.random.default_rng(5)
    for mix in app.phases:
        mix.params.perturbed(rng)
    assert 1 not in app.phase_schedule(200, rng)
    assert fast.tobytes() == ref.tobytes()
    assert fast_next == ref_next


# ----------------------------------------------------- corpus-level sweep
def test_corpus_build_identical_across_fit_modes():
    """End-to-end: the full corpus builder draws the same windows on the
    shipped and the retired paths (families -> apps -> perturbed params
    -> schedules -> traces -> counter readings)."""
    from repro.workloads import default_corpus

    fast = default_corpus(seed=77, windows_per_app=3)
    with oracle.retired_hpc():
        ref = default_corpus(seed=77, windows_per_app=3)
    assert np.array_equal(fast.features, ref.features)
    assert np.array_equal(fast.labels, ref.labels)


def test_retired_hpc_patches_and_restores_every_import_site():
    import repro.core.runtime as runtime
    import repro.hpc as hpc
    import repro.hpc.perf as perf
    from repro.hpc import counters, microarch

    shipped = (counters.sample_trace, microarch.synthesize_windows)
    with oracle.retired_hpc():
        for module in (counters, hpc, perf, runtime):
            assert module.sample_trace is oracle.sample_trace_per_window
        assert hpc.synthesize_windows is oracle.synthesize_windows_per_jitter
        assert ApplicationBehavior.execute is oracle.execute_per_phase
        assert ContainerPool.run_many is oracle.run_many_per_execution
    for module in (counters, hpc, perf, runtime):
        assert module.sample_trace is shipped[0]
    assert hpc.synthesize_windows is shipped[1]
    assert ApplicationBehavior.execute is not oracle.execute_per_phase
    assert ContainerPool.run_many is not oracle.run_many_per_execution
