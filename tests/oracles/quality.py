"""Reference paths of the :mod:`repro.obs.quality` drift math.

The shipped tracker scores a whole live window in one fused pass
(:meth:`~repro.obs.quality.DriftScorer.window_drift` and
:meth:`~repro.obs.quality.DriftScorer.margin_psi`, against precomputed
reference tensors) and bins deferred executions in one batch
(:meth:`~repro.obs.quality.ReferenceProfile.bin_batch`).  The plain
one-vector, one-execution forms live here as references the tests in
``tests/obs/test_quality.py`` check those against:

* :func:`psi` — population stability index between two count vectors.
* :func:`ks` — histogram KS statistic between two count vectors.
* :func:`bin_execution` — one execution binned on its own.
"""

from __future__ import annotations

import numpy as np

from repro.obs.quality import (
    _CAL_KEYS,
    QualityError,
    _cell_indices,
    _Contribution,
    bin_matrix,
    bin_values,
)


def psi(ref_counts: np.ndarray, live_counts: np.ndarray, epsilon: float) -> float:
    """Population stability index between two count vectors.

    Cells are smoothed by ``epsilon`` pseudo-counts so empty cells stay
    finite; identical count vectors score exactly 0.0.  NaN when either
    side is empty (no evidence is not evidence of drift).
    """
    ref = np.asarray(ref_counts, dtype=float)
    live = np.asarray(live_counts, dtype=float)
    n_ref, n_live = ref.sum(), live.sum()
    if n_ref <= 0 or n_live <= 0:
        return float("nan")
    k = ref.size
    p = (ref + epsilon) / (n_ref + epsilon * k)
    q = (live + epsilon) / (n_live + epsilon * k)
    return float(np.sum((q - p) * np.log(q / p)))


def ks(ref_counts: np.ndarray, live_counts: np.ndarray) -> float:
    """Histogram KS statistic: max |CDF difference| on the shared cells."""
    ref = np.asarray(ref_counts, dtype=float)
    live = np.asarray(live_counts, dtype=float)
    n_ref, n_live = ref.sum(), live.sum()
    if n_ref <= 0 or n_live <= 0:
        return float("nan")
    return float(np.max(np.abs(np.cumsum(ref) / n_ref - np.cumsum(live) / n_live)))


def bin_execution(
    profile, windows, scores, margin: float = float("nan"), truth: bool | None = None
) -> _Contribution:
    """Bin one execution's reduced windows into an exact contribution.

    ``windows`` is the ``(n_windows, n_features)`` reduced feature
    matrix, ``scores`` the per-window graded malware scores, ``margin``
    the verdict's vote margin, and ``truth`` the ground truth label
    (when known, it feeds the calibration bins).  Empty executions
    produce an all-zero contribution.
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if windows.size == 0:
        windows = windows.reshape(0, profile.n_features)
    if windows.shape[1] != profile.n_features:
        raise QualityError(
            f"execution has {windows.shape[1]} features, "
            f"profile has {profile.n_features}"
        )
    feature, feature_nan = bin_matrix(profile.feature_edges, windows)
    idx, ok = _cell_indices(profile.score_edges, scores)
    cells = profile.score_cells
    score_counts = np.bincount(idx, minlength=cells).astype(np.int64)
    margin_counts, _ = bin_values(profile.margin_edges, margin)
    cal = np.zeros((len(_CAL_KEYS), cells))
    if truth is not None:
        s = np.asarray(scores, dtype=float).ravel()[ok]
        y = np.full(s.size, float(bool(truth)))
        cal[0] = np.bincount(idx, minlength=cells)
        cal[1] = np.bincount(idx, weights=y, minlength=cells)
        cal[2] = np.bincount(idx, weights=s, minlength=cells)
        cal[3] = np.bincount(idx, weights=s * s, minlength=cells)
        cal[4] = np.bincount(idx, weights=s * y, minlength=cells)
    return _Contribution(
        feature=feature,
        score=score_counts,
        margin=margin_counts,
        cal=cal,
        n_windows=int(windows.shape[0]),
        n_nan=int(feature_nan.sum()),
    )
