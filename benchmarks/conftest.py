"""Shared benchmark fixtures: corpus, splits, and the cached result grid.

The paper's full evaluation grid (96 detector variants) takes minutes to
train, so it is computed once per machine into the per-record result
cache under ``.bench_cache/`` next to this file; every bench then
re-renders its table from the cache (zero fits when warm) and benchmarks
a representative computation.  Delete ``.bench_cache`` to force a
recompute (e.g. after changing the workload model).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.matrix import MatrixRunner, paper_grid, table3_grid
from repro.core.config import DetectorConfig
from repro.features import rank_features
from repro.ml.validation import app_level_split
from repro.workloads import default_corpus

CACHE_DIR = Path(__file__).parent / ".bench_cache"
#: Bump when the workload model or classifiers change materially.
CACHE_VERSION = "v2"

CORPUS_SEED = 2018
WINDOWS_PER_APP = 40
SPLIT_SEED = 7

#: Figure 4's detector selections.
FIG4A_CONFIGS = [
    DetectorConfig(name, "bagging", 4) for name in ("BayesNet", "JRip", "MLP", "OneR")
]
FIG4B_CONFIGS = [
    DetectorConfig("JRip", "general", 8),
    DetectorConfig("JRip", "boosted", 2),
    DetectorConfig("OneR", "general", 8),
    DetectorConfig("OneR", "boosted", 2),
]


@pytest.fixture(scope="session")
def corpus():
    return default_corpus(seed=CORPUS_SEED, windows_per_app=WINDOWS_PER_APP)


@pytest.fixture(scope="session")
def split(corpus):
    return app_level_split(corpus, 0.7, seed=SPLIT_SEED)


@pytest.fixture(scope="session")
def ranking(split):
    return rank_features(split.train)


@pytest.fixture(scope="session")
def result_cache():
    """Per-record crash-safe cache: an interrupted grid run resumes."""
    return ResultCache(CACHE_DIR / f"{CACHE_VERSION}_records")


@pytest.fixture(scope="session")
def runner(corpus, result_cache):
    """Parallel, cache-backed grid runner (REPRO_BENCH_WORKERS overrides
    the CPU count)."""
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or os.cpu_count() or 1
    return MatrixRunner(
        corpus, train_fraction=0.7, seeds=(SPLIT_SEED,),
        workers=workers, cache=result_cache,
    )


@pytest.fixture(scope="session")
def grid_records(runner):
    """All 96 eval records behind Figures 3/5 and Table 2 (cached)."""
    return runner.evaluate_grid(paper_grid())


@pytest.fixture(scope="session")
def hardware_records(runner):
    """The 24 hardware records of Table 3 (cached)."""
    return runner.hardware_grid(table3_grid())


@pytest.fixture(scope="session")
def roc_records(runner):
    """Figure 4's ROC curves (cached)."""
    return runner.roc_grid(FIG4A_CONFIGS + FIG4B_CONFIGS)
