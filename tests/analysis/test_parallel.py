"""MatrixRunner over a process pool: determinism, cache resume, warm re-render."""

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.matrix import MatrixRunner
from repro.analysis.records import EvalRecord, HardwareRecord, RocRecord
from repro.analysis.report import figure3_table, table2_table, table3_table
from repro.core.config import DetectorConfig

#: Cheap grid slice: two fast classifiers, two modes, two budgets.
SLICE = [
    DetectorConfig(classifier, ensemble, n_hpcs)
    for classifier in ("OneR", "REPTree")
    for ensemble in ("general", "boosted")
    for n_hpcs in (4, 2)
]

HW_SLICE = [
    DetectorConfig("OneR", "general", 8),
    DetectorConfig("OneR", "boosted", 2),
]


@pytest.fixture(scope="module")
def serial_records(small_corpus):
    return MatrixRunner(small_corpus, seeds=(7,)).evaluate_grid(SLICE)


def test_parallel_identical_to_serial(small_corpus, serial_records):
    runner = MatrixRunner(small_corpus, seeds=(7,), workers=4)
    assert runner.evaluate_grid(SLICE) == serial_records


def test_single_worker_runs_inline(small_corpus, serial_records):
    runner = MatrixRunner(small_corpus, seeds=(7,), workers=1)
    assert runner.evaluate_grid(SLICE) == serial_records


def test_rejects_bad_worker_count(small_corpus):
    with pytest.raises(ValueError):
        MatrixRunner(small_corpus, workers=0)


def test_hardware_and_roc_grids_match_serial(small_corpus):
    serial = MatrixRunner(small_corpus, seeds=(7,))
    parallel = MatrixRunner(small_corpus, seeds=(7,), workers=2)
    assert parallel.hardware_grid(HW_SLICE) == serial.hardware_grid(HW_SLICE)
    assert parallel.roc_grid(HW_SLICE) == serial.roc_grid(HW_SLICE)


def test_warm_cache_rerenders_with_zero_fits(small_corpus, serial_records, tmp_path):
    cache_dir = tmp_path / "cache"
    cold = MatrixRunner(
        small_corpus, seeds=(7,), workers=2, cache=ResultCache(cache_dir)
    )
    cold_records = cold.evaluate_grid(SLICE)
    cold_hw = cold.hardware_grid(HW_SLICE)
    assert cold_records == serial_records
    assert cold.n_fits == len(SLICE) + len(HW_SLICE)

    warm = MatrixRunner(
        small_corpus, seeds=(7,), workers=2, cache=ResultCache(cache_dir)
    )
    warm_records = warm.evaluate_grid(SLICE)
    warm_hw = warm.hardware_grid(HW_SLICE)
    assert warm_records == cold_records
    assert warm_hw == cold_hw
    assert warm.n_fits == 0
    assert warm.cache.stats.hits == len(SLICE) + len(HW_SLICE)
    assert all(t.cached for t in warm.timings)
    # Tables render straight from the cache.
    assert "Figure 3" in figure3_table(warm_records)
    assert "Table 2" in table2_table(warm_records)
    assert "Table 3" in table3_table(warm_hw)


def test_interrupted_run_resumes_from_partial_cache(small_corpus, tmp_path):
    """Simulate a crash after two cells: the rerun trains only the rest."""
    cache_dir = tmp_path / "cache"
    first = MatrixRunner(
        small_corpus, seeds=(7,), workers=1, cache=ResultCache(cache_dir)
    )
    first.evaluate_grid(SLICE[:2])  # the part that finished before the "crash"

    resumed = MatrixRunner(
        small_corpus, seeds=(7,), workers=2, cache=ResultCache(cache_dir)
    )
    records = resumed.evaluate_grid(SLICE)
    assert resumed.n_fits == len(SLICE) - 2
    assert records == MatrixRunner(small_corpus, seeds=(7,)).evaluate_grid(SLICE)


def test_corrupt_cache_entry_recomputed(small_corpus, tmp_path):
    """A truncated cache file degrades to a recompute, never an error."""
    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    runner = MatrixRunner(
        small_corpus, seeds=(7,), workers=1, cache=cache
    )
    config = SLICE[0]
    record = runner.evaluate(config)
    key = runner.cache_key(config, "eval")
    cache.path_of(key).write_text("{ truncated garbage")

    rerun = MatrixRunner(
        small_corpus, seeds=(7,), workers=1, cache=ResultCache(cache_dir)
    )
    assert rerun.evaluate(config) == record
    assert rerun.cache.stats.corrupt == 1
    assert rerun.n_fits > 0  # the cell was genuinely recomputed


def test_progress_callback_fires_in_parent(small_corpus, tmp_path):
    seen = []
    runner = MatrixRunner(
        small_corpus, seeds=(7,), workers=2,
        cache=ResultCache(tmp_path / "cache"), progress=seen.append,
    )
    runner.evaluate_grid(SLICE[:3])
    assert [t.kind for t in seen] == ["eval"] * 3
    assert all(t.fit_seconds >= 0.0 for t in seen)
    names = {t.name for t in seen}
    assert names == {c.name for c in SLICE[:3]}


def test_multi_seed_parallel_matches_serial(small_corpus):
    configs = SLICE[:2]
    serial = MatrixRunner(small_corpus, seeds=(1, 2)).evaluate_grid(configs)
    parallel = MatrixRunner(
        small_corpus, seeds=(1, 2), workers=2
    ).evaluate_grid(configs)
    assert parallel == serial
    assert all(isinstance(r, EvalRecord) and r.n_seeds == 2 for r in parallel)


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_repeated_cell_fits_once(small_corpus, tmp_path, workers, cached):
    """A grid naming a cell twice fits it once and fills both slots."""
    one_r, rep_tree = SLICE[1], SLICE[5]  # 2HPC-OneR, 2HPC-REPTree
    cache = ResultCache(tmp_path / "cache") if cached else None
    runner = MatrixRunner(small_corpus, seeds=(7,), workers=workers, cache=cache)
    records = runner.evaluate_grid([one_r, rep_tree, one_r])
    expected = MatrixRunner(small_corpus, seeds=(7,)).evaluate_grid(
        [one_r, rep_tree]
    )
    assert records == [expected[0], expected[1], expected[0]]
    assert runner.n_fits == 2
    assert sorted(t.name for t in runner.timings) == sorted(
        [one_r.name, rep_tree.name]
    )


def test_record_types(small_corpus):
    runner = MatrixRunner(small_corpus, seeds=(7,), workers=2)
    assert all(isinstance(r, HardwareRecord) for r in runner.hardware_grid(HW_SLICE))
    assert all(isinstance(r, RocRecord) for r in runner.roc_grid(HW_SLICE))


# ----------------------------------------------------------------------
# observability across the process pool
# ----------------------------------------------------------------------

def test_parallel_run_merges_worker_traces_and_metrics(small_corpus):
    from repro.obs import Registry, Tracer

    tracer = Tracer()
    metrics = Registry()
    runner = MatrixRunner(
        small_corpus, seeds=(7,), workers=2, tracer=tracer, metrics=metrics
    )
    records = runner.evaluate_grid(SLICE[:4])
    assert all(r is not None for r in records)

    # Worker spans were drained back and merged into the parent tracer.
    fit_spans = [e for e in tracer.events if e["name"] == "matrix.fit"]
    assert len(fit_spans) == 4
    import os

    assert all(e["pid"] != os.getpid() for e in fit_spans)

    # Cell counters are parent-side; they must match the grid exactly.
    snap = metrics.snapshot()
    assert snap["counters"]["matrix_cells_computed_total"]["value"] == 4.0
    assert snap["histograms"]["matrix_fit_seconds"]["count"] == 4
    # Each worker computed its shared ranking once; merged counts add up.
    assert 1.0 <= snap["counters"]["matrix_rankings_computed_total"]["value"] <= 2.0


def test_parallel_obs_disabled_ships_no_payloads(small_corpus):
    """The default path returns empty observability payloads (pickle-free)."""
    runner = MatrixRunner(small_corpus, seeds=(7,), workers=2)
    runner.evaluate_grid(SLICE[:2])
    assert runner.tracer.events == []
    assert runner.metrics.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }
