"""LXC-style container contexts: isolation, destruction, contamination."""

import numpy as np
import pytest

from repro.hpc.lxc import Container, ContainerDestroyedError, ContainerPool
from repro.hpc.microarch import ApplicationBehavior, PhaseMix, PhaseParameters


def _app(name="app"):
    return ApplicationBehavior(name, [PhaseMix(PhaseParameters(), 1.0)])


def test_container_executes_and_returns_trace():
    container = Container(container_id=0, seed=1)
    trace = container.execute(_app(), 5, is_malware=False)
    assert trace.shape == (5, 44)


def test_destroyed_container_refuses_execution():
    container = Container(container_id=0, seed=1)
    container.destroy()
    with pytest.raises(ContainerDestroyedError):
        container.execute(_app(), 3, is_malware=False)


def test_malware_run_contaminates():
    container = Container(container_id=0, seed=1)
    container.execute(_app(), 3, is_malware=True)
    assert container.contamination_level == 1


def test_benign_run_does_not_contaminate():
    container = Container(container_id=0, seed=1)
    container.execute(_app(), 3, is_malware=False)
    assert container.contamination_level == 0


def test_runs_executed_increments():
    container = Container(container_id=0, seed=1)
    container.execute(_app(), 3, is_malware=False)
    container.execute(_app(), 3, is_malware=False)
    assert container.runs_executed == 2


def test_repeated_runs_differ():
    container = Container(container_id=0, seed=1)
    a = container.execute(_app(), 5, is_malware=False)
    b = container.execute(_app(), 5, is_malware=False)
    assert not np.allclose(a, b)


def test_pool_destroy_after_run_creates_fresh_containers():
    pool = ContainerPool(seed=0, destroy_after_run=True)
    pool.run(_app(), 3, is_malware=True)
    pool.run(_app(), 3, is_malware=True)
    assert pool.containers_created == 2


def test_pool_reuse_keeps_single_container():
    pool = ContainerPool(seed=0, destroy_after_run=False)
    pool.run(_app(), 3, is_malware=True)
    pool.run(_app(), 3, is_malware=False)
    assert pool.containers_created == 1


def test_reused_pool_accumulates_contamination():
    pool = ContainerPool(seed=0, destroy_after_run=False)
    pool.run(_app(), 3, is_malware=True)
    pool.run(_app(), 3, is_malware=True)
    assert pool._reused is not None
    assert pool._reused.contamination_level == 2


def test_contamination_increases_variability():
    """The paper destroys containers to avoid exactly this effect."""
    clean = Container(container_id=0, seed=5)
    dirty = Container(container_id=1, seed=5, contamination_level=6)
    spread_clean = np.std([clean.execute(_app(), 20, False).mean() for _ in range(8)])
    spread_dirty = np.std([dirty.execute(_app(), 20, False).mean() for _ in range(8)])
    assert spread_dirty > spread_clean


def test_pool_deterministic_given_seed():
    a = ContainerPool(seed=3, destroy_after_run=True).run(_app(), 4, False)
    b = ContainerPool(seed=3, destroy_after_run=True).run(_app(), 4, False)
    np.testing.assert_allclose(a, b)


# -- run_many: one synthesis call, the traces of one run per job --------


def _mixed_jobs():
    """Window counts 1, 6, 20 and 640; benign and malicious; apps of one,
    two and three phases."""
    apps = [
        _app("one"),
        ApplicationBehavior(
            "two",
            [PhaseMix(PhaseParameters(ipc=0.7), 1.0),
             PhaseMix(PhaseParameters(ipc=2.1, noise_sigma=0.2), 0.5)],
            mean_dwell_windows=3.0,
        ),
        ApplicationBehavior(
            "three",
            [PhaseMix(PhaseParameters(llc_miss_rate=0.6), 0.3),
             PhaseMix(PhaseParameters(), 1.0),
             PhaseMix(PhaseParameters(branch_ratio=0.3), 0.6)],
            mean_dwell_windows=5.0,
        ),
    ]
    sizes = (1, 6, 20, 640, 20, 6, 1, 20)
    return [
        (apps[i % len(apps)], n, i % 3 == 1) for i, n in enumerate(sizes)
    ]


def _pool_state(pool):
    reused = pool._reused
    return (
        pool.containers_created,
        pool._next_id,
        None if reused is None else (reused.contamination_level, reused.runs_executed),
    )


@pytest.mark.parametrize("destroy", [True, False])
def test_run_many_is_byte_equal_to_sequential_runs_and_the_reference(destroy):
    from tests.oracles.hpc import run_many_per_execution

    jobs = _mixed_jobs()
    batched_pool = ContainerPool(seed=9, destroy_after_run=destroy)
    serial_pool = ContainerPool(seed=9, destroy_after_run=destroy)
    reference_pool = ContainerPool(seed=9, destroy_after_run=destroy)
    batched = batched_pool.run_many(jobs)
    serial = [serial_pool.run(*job) for job in jobs]
    reference = run_many_per_execution(reference_pool, jobs)
    assert len(batched) == len(jobs)
    for trace, alone, ref, (_, n_windows, _) in zip(batched, serial, reference, jobs):
        assert trace.shape == (n_windows, 44)
        assert trace.tobytes() == alone.tobytes() == ref.tobytes()
    state = _pool_state(batched_pool)
    assert state == _pool_state(serial_pool) == _pool_state(reference_pool)
    n_malware = sum(is_malware for _, _, is_malware in jobs)
    if destroy:
        assert state == (len(jobs), len(jobs), None)
    else:
        assert state == (1, 1, (n_malware, len(jobs)))
    # the pools continue identically
    later = (jobs[2][0], 20, False)
    assert batched_pool.run(*later).tobytes() == serial_pool.run(*later).tobytes()


def test_run_many_of_one_job_passes_the_trace_through():
    (trace,) = ContainerPool(seed=4).run_many([(_app(), 20, False)])
    assert trace.base is None
    assert trace.flags.c_contiguous


def test_run_many_of_no_jobs_runs_nothing():
    pool = ContainerPool(seed=2, destroy_after_run=False)
    assert pool.run_many([]) == []
    assert _pool_state(pool) == (0, 0, None)
