"""Training throughput: detector fits per second, per learner and mode.

PR 5 made inference cheap; this bench pins what the fit-vectorization
work did to *training*, the other half of the paper's evaluation-matrix
budget.  It measures three things:

1. Wall-clock of every cell of the 16-HPC evaluation matrix (8 learners
   x general/boosted/bagging) through the vectorized fit paths AND
   through the retained scalar references (``repro.fitmode``), plus the
   corpus build on the shipped sampler and on the retired reference
   paths (``tests.oracles.hpc.retired_hpc``).
2. Bit-identical agreement between the two paths: every cell's fast- and
   scalar-fitted detectors must emit byte-equal probabilities and
   classes on the held-out split.  CI fails on any disagreement.
3. Speedup floors for the learners whose fit hot loops were vectorized
   (split/cut/bucket scans, mini-batch SGD, the discretizer behind
   BayesNet).  SMO and MLP carry no floor: their training protocols are
   sequential by construction (SMO's partner draws consume the rng at
   every KKT-violating visit against live weights; the MLP updates
   weights every 32-row mini-batch), so both paths already share the
   same batched arithmetic and only bookkeeping differs — see
   EXPERIMENTS.md for the measurements behind that claim.

``REPRO_BENCH_QUICK=1`` shrinks the corpus for CI smoke runs; the
agreement assertions run identically in both modes.  Results land in
``BENCH_fit.json`` (cwd, or ``$REPRO_BENCH_DIR``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import fitmode
from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.workloads import default_corpus
from tests.oracles.hpc import retired_hpc

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
#: Training windows per fit (the full split holds 3400 at 40 w/app).
TRAIN_ROWS = 250 if QUICK else 10**9
#: Windows per app for the corpus-build timing.
CORPUS_WINDOWS = 6 if QUICK else 40

CLASSIFIERS = ("BayesNet", "J48", "JRip", "MLP", "OneR", "REPTree", "SGD", "SMO")
ENSEMBLES = ("general", "boosted", "bagging")
N_HPCS = 16

#: Acceptance floors, fast vs scalar-reference fit wall-clock, general
#: mode.  Only learners whose *scalar reference* is itself the slow
#: pre-vectorization loop carry a floor; OneR/SGD/JRip scalar
#: references already share the vectorized bucket/margin primitives, so
#: their scalar-vs-fast gap is bookkeeping only (their seed-commit
#: ratios — 4.7x, 6.8x, 1.9x — live in the EXPERIMENTS.md table).
#: Values sit far below the full-size ratios (BayesNet runs ~25x on the
#: 3400-row corpus) so the quick CI corpus clears them too.
MIN_FIT_SPEEDUP = {"BayesNet": 2.5}
#: Floor for the whole 24-cell matrix, dominated by the protocol-bound
#: SMO and MLP cells (see module docstring).
MIN_MATRIX_SPEEDUP = 1.3

#: One-off wall-clock of the same 24-cell matrix at the pre-PR commit
#: (6e45713, "fleet-scale historical analytics"), measured on the same
#: machine as the EXPERIMENTS.md table (2026-08-08): full corpus (seed
#: 2018, 40 windows/app, 3400 train rows), serial, best of 1.  Recorded
#: so the JSON carries the historical anchor next to the reproducible
#: scalar-mode baseline; not re-measured by this bench.  The fast paths
#: bring the same full-size matrix to ~55s (3.3x) — the six learners
#: with vectorizable scans drop 7.8x (116.3s -> 14.8s) while the
#: protocol-bound SMO/MLP cells drop 1.6x (65.8s -> 40.4s).
SEED_COMMIT_BASELINE = {
    "commit": "6e45713",
    "corpus_seconds": 1.48,
    "fit_total_seconds": 182.07,
    "six_vectorizable_learners_seconds": 116.29,
    "smo_mlp_seconds": 65.82,
}


def _bench_out_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_DIR", ".")) / "BENCH_fit.json"


def _subsample(dataset, n_rows: int, seed: int = 0):
    if dataset.n_samples <= n_rows:
        return dataset
    keep = np.sort(
        np.random.default_rng(seed).choice(
            dataset.n_samples, size=n_rows, replace=False
        )
    )
    return replace(
        dataset,
        features=dataset.features[keep],
        labels=dataset.labels[keep],
        app_ids=dataset.app_ids[keep],
    )


def _fit_cell(name: str, ensemble: str, train, ranking_dataset):
    """Fit one matrix cell; returns (detector, seconds)."""
    detector = HMDDetector(DetectorConfig(name, ensemble, N_HPCS))
    start = time.perf_counter()
    detector.fit(train, ranking_dataset=ranking_dataset)
    return detector, time.perf_counter() - start


def test_fit_matrix_throughput_and_agreement(corpus, split):
    train = _subsample(split.train, TRAIN_ROWS)

    # -- corpus build through both sampler paths ----------------------
    start = time.perf_counter()
    default_corpus(seed=3, windows_per_app=CORPUS_WINDOWS)
    corpus_fast = time.perf_counter() - start
    with retired_hpc():
        start = time.perf_counter()
        default_corpus(seed=3, windows_per_app=CORPUS_WINDOWS)
        corpus_scalar = time.perf_counter() - start

    # -- the 24-cell 16-HPC matrix, both fit modes --------------------
    results: dict[str, dict] = {}
    fast_total = 0.0
    scalar_total = 0.0
    for name in CLASSIFIERS:
        results[name] = {}
        for ensemble in ENSEMBLES:
            fast_det, fast_s = _fit_cell(name, ensemble, train, split.train)
            with fitmode.scalar_fit():
                ref_det, scalar_s = _fit_cell(name, ensemble, train, split.train)
            fast_total += fast_s
            scalar_total += scalar_s

            # agreement: the two fitted detectors are interchangeable,
            # bit for bit, on held-out windows
            held_out = fast_det.reducer.transform(split.test).features
            assert np.array_equal(
                fast_det.model.predict_proba(held_out),
                ref_det.model.predict_proba(held_out),
            ), f"{name}/{ensemble}: fast and scalar fits disagree"
            assert np.array_equal(
                fast_det.model.predict(held_out),
                ref_det.model.predict(held_out),
            )

            results[name][ensemble] = {
                "fit_seconds": fast_s,
                "scalar_fit_seconds": scalar_s,
                "fits_per_second": 1.0 / fast_s,
                "speedup": scalar_s / fast_s,
            }

    print()
    for name, by_ensemble in results.items():
        row = "  ".join(
            f"{ensemble}: {stats['fit_seconds']:7.2f}s ({stats['speedup']:4.1f}x)"
            for ensemble, stats in by_ensemble.items()
        )
        print(f"{name:>8}  {row}")
    matrix_speedup = scalar_total / fast_total
    print(
        f"matrix: {scalar_total:.1f}s scalar -> {fast_total:.1f}s fast "
        f"({matrix_speedup:.2f}x); corpus {corpus_scalar:.2f}s -> "
        f"{corpus_fast:.2f}s ({corpus_scalar / corpus_fast:.1f}x)"
    )

    for name, floor in MIN_FIT_SPEEDUP.items():
        speedup = results[name]["general"]["speedup"]
        assert speedup >= floor, (
            f"{name} vectorized fit is only {speedup:.1f}x the scalar "
            f"reference (need >= {floor}x)"
        )
    assert matrix_speedup >= MIN_MATRIX_SPEEDUP, (
        f"matrix wall-clock speedup {matrix_speedup:.2f}x is below the "
        f"{MIN_MATRIX_SPEEDUP}x floor"
    )

    out = _bench_out_path()
    out.write_text(
        json.dumps(
            {
                "bench": "fit",
                "quick": QUICK,
                "n_hpcs": N_HPCS,
                "train_rows": int(train.n_samples),
                "matrix": {
                    "fast_seconds": fast_total,
                    "scalar_seconds": scalar_total,
                    "speedup": matrix_speedup,
                },
                "corpus_build": {
                    "windows_per_app": CORPUS_WINDOWS,
                    "fast_seconds": corpus_fast,
                    "scalar_seconds": corpus_scalar,
                    "speedup": corpus_scalar / corpus_fast,
                },
                "seed_commit_baseline": SEED_COMMIT_BASELINE,
                "min_fit_speedup": MIN_FIT_SPEEDUP,
                "min_matrix_speedup": MIN_MATRIX_SPEEDUP,
                "detectors": results,
            },
            indent=1,
        )
    )
    print(f"wrote {out}")
