"""Deterministic fault injection on the measurement substrate."""

import numpy as np
import pytest

from repro.hpc.counters import CounterRegisterFile, sample_trace
from repro.hpc.events import ALL_EVENTS
from repro.hpc.faults import (
    NO_FAULTS,
    ContainerCrashError,
    CounterReadGlitchError,
    FaultDraw,
    FaultPlan,
    FaultyContainerPool,
    GlitchyCounterRegisterFile,
    PermanentHostError,
    ServiceFaultPlan,
)
from repro.hpc.lxc import ContainerPool
from repro.workloads.benign import BENIGN_FAMILIES

N_WINDOWS = 12


@pytest.fixture()
def app():
    return BENIGN_FAMILIES[0].instantiate(np.random.default_rng(3))[0]


def test_rates_validated():
    with pytest.raises(ValueError):
        FaultPlan(crash_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=-0.1)


def test_zero_rates_draw_clean():
    plan = FaultPlan(seed=1)
    for attempt in range(3):
        assert plan.draw("some_app", attempt, N_WINDOWS).is_clean
    assert NO_FAULTS.is_clean


def test_draw_is_deterministic():
    a = FaultPlan(seed=9, crash_rate=0.5, glitch_rate=0.5, drop_rate=0.3)
    b = FaultPlan(seed=9, crash_rate=0.5, glitch_rate=0.5, drop_rate=0.3)
    for attempt in range(4):
        assert a.draw("app_x", attempt, N_WINDOWS) == b.draw(
            "app_x", attempt, N_WINDOWS
        )


def test_draw_varies_with_seed_app_and_attempt():
    plan = FaultPlan(seed=0, crash_rate=0.5, glitch_rate=0.5, drop_rate=0.5)
    other_seed = FaultPlan(seed=1, crash_rate=0.5, glitch_rate=0.5, drop_rate=0.5)
    apps = [f"app_{i}" for i in range(40)]
    assert any(
        plan.draw(a, 0, N_WINDOWS) != other_seed.draw(a, 0, N_WINDOWS) for a in apps
    )
    assert any(
        plan.draw(a, 0, N_WINDOWS) != plan.draw(a, 1, N_WINDOWS) for a in apps
    )
    assert len({plan.draw(a, 0, N_WINDOWS) for a in apps}) > 1


def test_drawn_faults_stay_in_range():
    plan = FaultPlan(seed=5, crash_rate=1.0, glitch_rate=1.0, drop_rate=0.5)
    for attempt in range(5):
        draw = plan.draw("app", attempt, N_WINDOWS)
        assert 0 <= draw.crash_after < N_WINDOWS
        assert 0 <= draw.glitch_read < N_WINDOWS
        assert all(0 <= i < N_WINDOWS for i in draw.dropped)
        assert list(draw.dropped) == sorted(set(draw.dropped))


def test_permanent_is_per_app_not_per_attempt():
    plan = FaultPlan(seed=2, permanent_rate=0.5)
    apps = [f"app_{i}" for i in range(40)]
    flags = {a: plan.is_permanent(a) for a in apps}
    assert any(flags.values()) and not all(flags.values())
    for a in apps:
        for attempt in range(3):
            assert plan.draw(a, attempt, N_WINDOWS).permanent == flags[a]


def test_faulty_pool_clean_run_matches_plain_pool(app):
    plain = ContainerPool(seed=7).run(app, N_WINDOWS, False)
    faulty = FaultyContainerPool(ContainerPool(seed=7), FaultPlan(seed=1))
    assert np.array_equal(faulty.run(app, N_WINDOWS, False), plain)


def test_faulty_pool_crash_carries_partial_trace(app):
    plan = FaultPlan(seed=3, crash_rate=1.0)
    pool = FaultyContainerPool(ContainerPool(seed=7), plan)
    draw = plan.draw(app.name, 0, N_WINDOWS)
    with pytest.raises(ContainerCrashError) as excinfo:
        pool.run(app, N_WINDOWS, False)
    partial = excinfo.value.partial_trace
    assert partial.shape == (draw.crash_after, len(ALL_EVENTS))
    full = ContainerPool(seed=7).run(app, N_WINDOWS, False)
    assert np.array_equal(partial, full[: draw.crash_after])


def test_faulty_pool_permanent_raises_every_attempt(app):
    pool = FaultyContainerPool(
        ContainerPool(seed=7), FaultPlan(seed=0, permanent_rate=1.0)
    )
    for attempt in range(3):
        with pytest.raises(PermanentHostError):
            pool.run(app, N_WINDOWS, False, attempt=attempt)


def test_glitchy_register_file_without_glitch_matches_plain():
    events = list(ALL_EVENTS[:2])
    window = {events[0]: 10.0, events[1]: 20.0}
    plain = CounterRegisterFile(4)
    plain.program(events)
    plain.observe_window(window)
    glitchy = GlitchyCounterRegisterFile(4, glitch_read=None)
    glitchy.program(events)
    glitchy.observe_window(window)
    assert glitchy.read() == plain.read()
    assert glitchy.reads_completed == 1


def test_glitchy_register_file_raises_at_configured_read():
    events = list(ALL_EVENTS[:1])
    glitchy = GlitchyCounterRegisterFile(4, glitch_read=2)
    glitchy.program(events)
    for _ in range(2):
        glitchy.observe_window({events[0]: 1.0})
        glitchy.read()
    with pytest.raises(CounterReadGlitchError) as excinfo:
        glitchy.read()
    assert excinfo.value.windows_read == 2


@pytest.mark.parametrize("glitch_read", [None, N_WINDOWS, N_WINDOWS + 3])
def test_glitchy_reads_that_succeed_equal_pristine_reduction(app, glitch_read):
    """A glitching register file either raises or reads pristine counts.

    This is why the fleet can hand the readings of a successful
    (possibly glitch-armed) attempt straight to the drift tracker: they
    are exactly what a pristine register file would have sampled.
    """
    trace = ContainerPool(seed=4).run(app, N_WINDOWS, False)
    events = list(ALL_EVENTS[:4])
    plain = CounterRegisterFile(4)
    plain.program(events)
    glitchy = GlitchyCounterRegisterFile(4, glitch_read=glitch_read)
    glitchy.program(events)
    np.testing.assert_array_equal(
        sample_trace(glitchy, trace, ALL_EVENTS),
        sample_trace(plain, trace, ALL_EVENTS),
    )


def test_fault_draw_defaults():
    assert FaultDraw() == NO_FAULTS
    assert not FaultDraw(crash_after=3).is_clean


# -- ServiceFaultPlan --------------------------------------------------


def test_service_fault_plan_validation():
    with pytest.raises(ValueError):
        ServiceFaultPlan(worker_crash_rate=1.5)
    with pytest.raises(ValueError):
        ServiceFaultPlan(worker_crash_rate=-0.1)
    with pytest.raises(ValueError):
        ServiceFaultPlan(max_crashes_per_worker=-1)
    with pytest.raises(ValueError):
        ServiceFaultPlan().crash_after(-1, 0)
    with pytest.raises(ValueError):
        ServiceFaultPlan().crash_after(0, -1)


def test_service_fault_plan_draws_are_deterministic():
    plan = ServiceFaultPlan(seed=3, worker_crash_rate=0.7)
    again = ServiceFaultPlan(seed=3, worker_crash_rate=0.7)
    draws = [plan.crash_after(w, i) for w in range(4) for i in range(4)]
    assert draws == [again.crash_after(w, i) for w in range(4) for i in range(4)]
    # A different seed gives a different schedule somewhere.
    other = ServiceFaultPlan(seed=4, worker_crash_rate=0.7)
    assert draws != [other.crash_after(w, i) for w in range(4) for i in range(4)]


def test_service_fault_plan_zero_rate_never_crashes():
    plan = ServiceFaultPlan(seed=0, worker_crash_rate=0.0)
    assert all(plan.crash_after(w, i) is None for w in range(8) for i in range(8))


def test_service_fault_plan_crashes_stop_at_max():
    """Liveness guard: incarnations at or past the cap never crash, so
    every stream eventually drains even at crash rate 1.0."""
    plan = ServiceFaultPlan(seed=1, worker_crash_rate=1.0, max_crashes_per_worker=3)
    for worker in range(4):
        for incarnation in range(3):
            assert plan.crash_after(worker, incarnation) is not None
        for incarnation in range(3, 8):
            assert plan.crash_after(worker, incarnation) is None


def test_service_fault_plan_draws_make_progress():
    """Every crashing incarnation consumes at least one message."""
    plan = ServiceFaultPlan(seed=2, worker_crash_rate=1.0)
    for worker in range(8):
        for scale in (1, 2, 64):
            draw = plan.crash_after(worker, 0, scale=scale)
            assert draw is not None and draw >= 1


def test_service_fault_plan_draws_cover_the_whole_scale():
    """A draw lands anywhere in ``[1, scale]``: at the service's scale
    of 2 (a frame and its close) a crash can follow either message."""
    draws = {
        ServiceFaultPlan(seed=seed, worker_crash_rate=1.0).crash_after(0, 0, scale=2)
        for seed in range(32)
    }
    assert draws == {1, 2}
    assert ServiceFaultPlan(seed=0, worker_crash_rate=1.0).crash_after(0, 0, scale=1) == 1
