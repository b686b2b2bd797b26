"""Supervised discretization (Fayyad & Irani MDL), as used by WEKA.

WEKA's ``BayesNet`` (and, internally, ``OneR``-style learners) operate on
discretized attributes.  This module implements the standard
entropy-based binning with the Minimum Description Length stopping
criterion: cut points are inserted recursively at the class-entropy
minimizing boundary while the MDL criterion accepts them.

Weighted instances are supported so the discretizer composes with
boosting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG2 = math.log(2.0)


def _entropy(class_weights: np.ndarray) -> float:
    """Entropy in bits of a (possibly weighted) class count vector."""
    total = class_weights.sum()
    if total <= 0:
        return 0.0
    p = class_weights[class_weights > 0] / total
    return float(-(p * np.log(p)).sum() / _LOG2)


def _class_counts(labels: np.ndarray, weights: np.ndarray, n_classes: int) -> np.ndarray:
    counts = np.zeros(n_classes)
    for c in range(n_classes):
        counts[c] = weights[labels == c].sum()
    return counts


def _entropy_rows(counts: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_entropy` over a ``(k, n_classes)`` count matrix.

    Zero classes contribute an exact ``0.0`` term, matching the scalar
    filtered sum; rows with zero mass get entropy ``0.0``.  Bit-identical
    to per-row :func:`_entropy` for the binary problems this repo trains
    (term-by-term addition equals the filtered sum when ``n_classes``
    stays below numpy's pairwise-summation block size).
    """
    safe_mass = np.where(mass > 0, mass, 1.0)
    p = counts / safe_mass[:, None]
    positive = counts > 0
    safe_p = np.where(positive, p, 1.0)
    terms = np.where(positive, safe_p * np.log(safe_p), 0.0)
    ent = -(terms.sum(axis=1)) / _LOG2
    return np.where(mass > 0, ent, 0.0)


def _best_cut(
    values: np.ndarray, labels: np.ndarray, weights: np.ndarray, n_classes: int
) -> tuple[float, float, np.ndarray, np.ndarray] | None:
    """Find the boundary minimizing weighted class entropy, or None.

    Only *boundary points* (between differently-labelled runs) are
    candidates, per Fayyad & Irani's theorem.  The split scores of all
    candidate boundaries come from one row-wise entropy evaluation; a
    first-argmin keeps the earliest minimum, as the retired
    per-candidate scan in ``tests/oracles/ml.py`` does with a strict
    ``<``.
    """
    order = np.argsort(values, kind="stable")
    v, y, w = values[order], labels[order], weights[order]
    change = np.flatnonzero(np.diff(v) > 0)
    if change.size == 0:
        return None
    onehot = np.zeros((len(y), n_classes))
    onehot[np.arange(len(y)), y] = w
    left_counts = np.cumsum(onehot, axis=0)
    total_counts = left_counts[-1]
    total = total_counts.sum()

    left = left_counts[change]  # (k, n_classes)
    right = total_counts - left
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    valid = (wl > 0) & (wr > 0)
    if not valid.any():
        return None
    scores = (wl * _entropy_rows(left, wl) + wr * _entropy_rows(right, wr)) / total
    scores = np.where(valid, scores, np.inf)
    b = int(np.argmin(scores))
    i = int(change[b])
    cut = (v[i] + v[i + 1]) / 2.0
    return cut, float(scores[b]), left[b], right[b]


def _mdl_accepts(
    counts: np.ndarray, left: np.ndarray, right: np.ndarray, split_entropy: float
) -> bool:
    """Fayyad–Irani MDL criterion for accepting a cut point."""
    n = counts.sum()
    if n <= 0:
        return False
    ent = _entropy(counts)
    gain = ent - split_entropy
    k = int((counts > 0).sum())
    k_left = int((left > 0).sum())
    k_right = int((right > 0).sum())
    delta = (
        math.log(3.0**k - 2.0) / _LOG2
        - (k * ent - k_left * _entropy(left) - k_right * _entropy(right))
    )
    threshold = (math.log(max(n - 1.0, 1.0)) / _LOG2 + delta) / n
    return gain > threshold


def mdl_cut_points(
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
    n_classes: int = 2,
    max_depth: int = 12,
) -> list[float]:
    """Recursive MDL discretization of one numeric attribute.

    Returns:
        Sorted cut points; an empty list means the attribute carries no
        MDL-significant class information (WEKA then makes it one bin).
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    if weights is None:
        weights = np.ones(len(values))

    cuts: list[float] = []

    def recurse(mask: np.ndarray, depth: int) -> None:
        if depth >= max_depth or mask.sum() < 4:
            return
        v, y, w = values[mask], labels[mask], weights[mask]
        found = _best_cut(v, y, w, n_classes)
        if found is None:
            return
        cut, score, left_counts, right_counts = found
        counts = _class_counts(y, w, n_classes)
        if not _mdl_accepts(counts, left_counts, right_counts, score):
            return
        cuts.append(cut)
        recurse(mask & (values <= cut), depth + 1)
        recurse(mask & (values > cut), depth + 1)

    recurse(np.ones(len(values), dtype=bool), 0)
    return sorted(cuts)


@dataclass(frozen=True)
class Discretizer:
    """Fitted per-attribute MDL discretizer.

    Attributes:
        cut_points: for each attribute, its sorted cut points (possibly
            empty, collapsing the attribute to a single bin).
    """

    cut_points: tuple[tuple[float, ...], ...]

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "Discretizer":
        """Learn cut points for every attribute of a training matrix."""
        features = np.asarray(features, dtype=float)
        cuts = tuple(
            tuple(mdl_cut_points(features[:, j], labels, weights))
            for j in range(features.shape[1])
        )
        return cls(cut_points=cuts)

    @property
    def n_bins(self) -> tuple[int, ...]:
        """Number of bins per attribute (``len(cuts) + 1``)."""
        return tuple(len(c) + 1 for c in self.cut_points)

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Map numeric features to integer bin indices."""
        features = np.asarray(features, dtype=float)
        if features.shape[1] != len(self.cut_points):
            raise ValueError("feature count does not match fitted discretizer")
        binned = np.zeros(features.shape, dtype=np.intp)
        for j, cuts in enumerate(self.cut_points):
            if cuts:
                binned[:, j] = np.searchsorted(np.asarray(cuts), features[:, j], side="right")
        return binned


def equal_frequency_cuts(values: np.ndarray, n_bins: int) -> list[float]:
    """Unsupervised equal-frequency cut points (fallback/baseline binning)."""
    if n_bins < 2:
        return []
    quantiles = np.quantile(np.asarray(values, dtype=float), np.linspace(0, 1, n_bins + 1)[1:-1])
    return sorted(set(float(q) for q in quantiles))
