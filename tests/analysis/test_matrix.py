"""Matrix runner, records, and JSON caching."""

import pytest

from repro.analysis.cache import CacheError
from repro.analysis.matrix import MatrixRunner, MatrixTiming, load_records, paper_grid, save_records, table3_grid
from repro.obs import Registry, Tracer
from repro.analysis.records import EvalRecord, HardwareRecord, RocRecord
from repro.core.config import DetectorConfig


@pytest.fixture(scope="module")
def runner(small_corpus):
    return MatrixRunner(small_corpus, seeds=(7,))


def test_paper_grid_size():
    assert len(paper_grid()) == 8 * 4 * 3


def test_table3_grid_size():
    assert len(table3_grid()) == 8 * 3


def test_runner_requires_seeds(small_corpus):
    with pytest.raises(ValueError):
        MatrixRunner(small_corpus, seeds=())


def test_evaluate_returns_record(runner):
    record = runner.evaluate(DetectorConfig("OneR", "general", 2))
    assert isinstance(record, EvalRecord)
    assert 0.0 <= record.accuracy <= 1.0
    assert 0.0 <= record.auc <= 1.0
    assert record.performance == pytest.approx(record.accuracy * record.auc)


def test_evaluate_multi_seed_averages(small_corpus):
    runner = MatrixRunner(small_corpus, seeds=(1, 2))
    record = runner.evaluate(DetectorConfig("OneR", "general", 2))
    assert record.n_seeds == 2


def test_evaluate_grid(runner):
    configs = [DetectorConfig("OneR", "general", k) for k in (4, 2)]
    records = runner.evaluate_grid(configs)
    assert len(records) == 2
    assert {r.n_hpcs for r in records} == {4, 2}


def test_roc_record(runner):
    record = runner.roc(DetectorConfig("REPTree", "general", 4))
    assert isinstance(record, RocRecord)
    assert record.fpr[0] == 0.0 and record.fpr[-1] == 1.0
    assert record.tpr[0] == 0.0 and record.tpr[-1] == 1.0
    assert 0.0 <= record.auc <= 1.0


def test_hardware_record(runner):
    record = runner.hardware(DetectorConfig("OneR", "general", 2))
    assert isinstance(record, HardwareRecord)
    assert record.latency_cycles == 1
    assert record.latency_ns == 10.0
    assert record.area_percent > 0


def test_record_names():
    r = EvalRecord("SMO", "boosted", 2, 0.7, 0.8)
    assert r.name == "2HPC-Boosted-SMO"
    r = EvalRecord("SMO", "general", 8, 0.7, 0.8)
    assert r.name == "8HPC-SMO"


def test_save_load_round_trip(tmp_path, runner):
    records = [
        runner.evaluate(DetectorConfig("OneR", "general", 2)),
        runner.hardware(DetectorConfig("OneR", "general", 2)),
        runner.roc(DetectorConfig("OneR", "general", 2)),
    ]
    path = tmp_path / "records.json"
    save_records(path, records)
    loaded = load_records(path)
    assert loaded == records


def test_save_records_is_atomic(tmp_path, runner):
    """Saving leaves no temp files and survives overwriting in place."""
    records = [runner.evaluate(DetectorConfig("OneR", "general", 2))]
    path = tmp_path / "records.json"
    save_records(path, records)
    save_records(path, records)  # overwrite must not truncate-then-fail
    assert load_records(path) == records
    assert list(tmp_path.glob("*.tmp")) == []


def test_load_records_corrupt_file_raises_clear_error(tmp_path):
    path = tmp_path / "records.json"
    path.write_text('[{"kind": "EvalRecord", "data"')  # truncated write
    with pytest.raises(CacheError, match="corrupt or partially written"):
        load_records(path)


def test_load_records_wrong_shape_raises_clear_error(tmp_path):
    path = tmp_path / "records.json"
    path.write_text('{"not": "a list"}')
    with pytest.raises(CacheError, match="does not contain a record list"):
        load_records(path)


def test_load_records_unknown_kind_raises_clear_error(tmp_path):
    path = tmp_path / "records.json"
    path.write_text('[{"kind": "Mystery", "data": {}}]')
    with pytest.raises(CacheError, match="unknown record kind"):
        load_records(path)


def test_fit_respects_feature_method(runner):
    """Regression: the shared ranking must honour config.feature_method,
    not silently fall back to the default correlation ranking."""
    config = DetectorConfig(
        "OneR", "general", 4, feature_method="information_gain"
    )
    detector = runner._fit_detector(config, 7)
    assert detector.reducer.ranking_.method == "information_gain"
    assert runner.ranking(7, "information_gain").method == "information_gain"
    assert runner.ranking(7, "correlation").method == "correlation"


def test_fit_reuses_shared_ranking_per_method(runner):
    first = runner.ranking(7, "correlation")
    assert runner.ranking(7, "correlation") is first  # computed once


def test_timings_recorded(small_corpus):
    runner = MatrixRunner(small_corpus, seeds=(7,))
    runner.evaluate(DetectorConfig("OneR", "general", 2))
    runner.hardware(DetectorConfig("OneR", "general", 2))
    assert [t.kind for t in runner.timings] == ["eval", "hardware"]
    assert all(t.fit_seconds > 0.0 and not t.cached for t in runner.timings)
    assert runner.n_fits == 2


# ----------------------------------------------------------------------
# MatrixTiming aggregation
# ----------------------------------------------------------------------

def test_matrix_timing_total_seconds_sums_fit_and_eval():
    timing = MatrixTiming("2HPC-OneR", "eval", 1.25, 0.75)
    assert timing.total_seconds == pytest.approx(2.0)


def test_matrix_timing_cached_cell_totals_zero():
    timing = MatrixTiming("2HPC-OneR", "eval", 0.0, 0.0, cached=True)
    assert timing.total_seconds == 0.0


def test_matrix_timing_aggregation_over_a_run():
    """Summing total_seconds over a timing list equals summing parts —
    the invariant the CLI timing table's 'compute' footer relies on."""
    timings = [
        MatrixTiming("a", "eval", 0.5, 0.25),
        MatrixTiming("b", "hardware", 1.0, 0.5, cached=False),
        MatrixTiming("c", "roc", 0.0, 0.0, cached=True),
    ]
    total = sum(t.total_seconds for t in timings)
    assert total == pytest.approx(
        sum(t.fit_seconds for t in timings) + sum(t.eval_seconds for t in timings)
    )
    compute = sum(t.total_seconds for t in timings if not t.cached)
    assert compute == pytest.approx(2.25)


def test_load_records_truncated_mid_crash(tmp_path, runner):
    """A legacy whole-file cache cut off mid-write (partial JSON) must
    raise CacheError, not return a short record list."""
    records = [
        runner.evaluate(DetectorConfig("OneR", "general", 2)),
        runner.hardware(DetectorConfig("OneR", "general", 2)),
    ]
    path = tmp_path / "records.json"
    save_records(path, records)
    full = path.read_text()
    path.write_text(full[: int(len(full) * 0.6)])  # simulate crash mid-write
    with pytest.raises(CacheError, match="corrupt or partially written"):
        load_records(path)


# ----------------------------------------------------------------------
# observability instrumentation
# ----------------------------------------------------------------------

def test_runner_traces_fit_eval_and_ranking_spans(small_corpus):
    tracer = Tracer()
    runner = MatrixRunner(small_corpus, seeds=(7,), tracer=tracer)
    runner.evaluate(DetectorConfig("OneR", "general", 2))
    names = [e["name"] for e in tracer.events]
    assert "matrix.ranking" in names
    assert "matrix.fit" in names
    assert "matrix.eval" in names
    fit = next(e for e in tracer.events if e["name"] == "matrix.fit")
    assert fit["attrs"]["config"] == "2HPC-OneR"


def test_runner_counts_cached_vs_computed_cells(small_corpus, tmp_path):
    from repro.analysis.cache import ResultCache

    metrics = Registry()
    cache = ResultCache(tmp_path / "cache")
    runner = MatrixRunner(small_corpus, seeds=(7,), cache=cache, metrics=metrics)
    config = DetectorConfig("OneR", "general", 2)
    runner.evaluate(config)
    runner2 = MatrixRunner(small_corpus, seeds=(7,), cache=cache, metrics=metrics)
    runner2.evaluate(config)
    snap = metrics.snapshot()
    assert snap["counters"]["matrix_cells_computed_total"]["value"] == 1.0
    assert snap["counters"]["matrix_cells_cached_total"]["value"] == 1.0
    assert snap["counters"]["matrix_rankings_computed_total"]["value"] == 1.0
    assert snap["histograms"]["matrix_fit_seconds"]["count"] == 1


def test_runner_without_obs_records_nothing(small_corpus):
    """Default construction uses the shared disabled singletons."""
    runner = MatrixRunner(small_corpus, seeds=(7,))
    runner.evaluate(DetectorConfig("OneR", "general", 2))
    assert runner.tracer.enabled is False
    assert runner.metrics.enabled is False
    assert runner.tracer.events == []


def test_enabled_telemetry_leaves_records_unchanged(small_corpus):
    configs = [DetectorConfig("OneR", mode, 2) for mode in ("general", "boosted")]
    plain = MatrixRunner(small_corpus, seeds=(7,)).evaluate_grid(configs)
    traced = MatrixRunner(
        small_corpus, seeds=(7,), tracer=Tracer(), metrics=Registry()
    )
    assert traced.evaluate_grid(configs) == plain
    snap = traced.metrics.snapshot()
    assert snap["counters"]["matrix_cells_computed_total"]["value"] == len(configs)
