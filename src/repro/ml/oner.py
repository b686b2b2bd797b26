"""OneR: the one-rule classifier (Holte, 1993), as in WEKA's ``OneR``.

OneR picks the single attribute whose value-bucket → majority-class rule
has the lowest training error.  The paper highlights it because it is the
cheapest detector (1 cycle in hardware, Table 3) and, having chosen one
counter (``branch_instructions`` on their data), it is insensitive to the
HPC budget: its Figure 3 accuracy is flat from 16 HPCs down to 2.

Numeric attributes are bucketed like Holte's algorithm: sort, sweep, and
close a bucket only once it holds at least ``min_bucket_size`` instances
of its majority class and the class changes at a value boundary.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_features, check_training_set, proba_from_counts


def _run_cumulative_masses(
    values: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted run values and cumulative per-class run masses.

    Sorts one attribute, collapses equal-value runs (a 1R bucket can
    never cut inside a run), and returns ``(run_values, cum0, cum1)``
    where ``cum{c}[r]`` is the class-``c`` weight of runs ``0..r``.
    Shared by both bucketing paths: ``np.add.reduceat`` sums segments
    pairwise, not sequentially, so the reference must consume the same
    run masses for the bucket masses — defined as cumulative-minus-base
    differences — to be comparable bitwise.
    """
    if values.size == 0:
        empty = np.empty(0)
        return empty, empty.copy(), empty.copy()
    order = np.argsort(values, kind="stable")
    v, y, w = values[order], labels[order], weights[order]
    starts = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1))
    w0 = np.where(y == 0, w, 0.0)
    w1 = np.where(y == 1, w, 0.0)
    cum0 = np.cumsum(np.add.reduceat(w0, starts))
    cum1 = np.cumsum(np.add.reduceat(w1, starts))
    return v[starts], cum0, cum1


def _merge_buckets(cuts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent buckets that agree on the majority class.

    Holte's 1R simplification: the rule's predictions are identical
    either way, and the merged rule is simpler (fewer hardware
    comparators).  Shared tail of both bucketing paths: grouping by each
    bucket's own argmax matches the reference's running-majority merge
    because summing buckets with a common majority class can never flip
    it (float addition is monotone).
    """
    majority = counts.argmax(axis=1)
    change = majority[1:] != majority[:-1]
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    return cuts[np.flatnonzero(change)], np.add.reduceat(counts, starts, axis=0)


class OneR(Classifier):
    """One-rule classifier over bucketed numeric attributes.

    Args:
        min_bucket_size: minimum majority-class mass per bucket (WEKA
            default 6).
    """

    supports_sample_weight = True

    def __init__(self, min_bucket_size: int = 6) -> None:
        super().__init__()
        if min_bucket_size < 1:
            raise ValueError("min_bucket_size must be >= 1")
        self.min_bucket_size = min_bucket_size
        self.params = {"min_bucket_size": min_bucket_size}
        self.attribute_: int | None = None
        self.cut_points_: np.ndarray | None = None
        self.bucket_counts_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _bucketize(
        self, values: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Holte-style 1R bucketing of one numeric attribute.

        Every bucket's class mass is a cumulative-minus-base difference
        over the sorted runs (:func:`_run_cumulative_masses`); a bucket
        closes at the first run boundary where the majority mass reaches
        ``min_bucket_size``.  :meth:`_sweep` finds those boundaries.

        Returns:
            ``(cut_points, bucket_counts)`` where ``bucket_counts`` has
            shape ``(n_buckets, 2)`` of weighted class mass per bucket.
        """
        run_values, cum0, cum1 = _run_cumulative_masses(values, labels, weights)
        closings = self._sweep(cum0, cum1)
        cuts, counts = self._assemble_buckets(run_values, cum0, cum1, closings)
        if counts.shape[0] == 0:
            counts = np.zeros((1, 2))
        return _merge_buckets(cuts, counts)

    def _sweep(self, cum0: np.ndarray, cum1: np.ndarray) -> list[int]:
        """Searchsorted bucket sweep, bit-identical to a run-by-run scan.

        Each bucket's closing boundary is located with two binary probes
        on the nondecreasing cumsums instead of a run-by-run walk, then
        adjusted with the exact protocol comparison: ``cum - base >= t``
        and ``cum >= base + t`` can disagree within one ulp.
        """
        threshold = self.min_bucket_size
        n_runs = cum0.size
        closings: list[int] = []
        if n_runs == 0:
            return closings
        # first crossing from every possible base, two vectorized probes
        jump = np.minimum(
            cum0.searchsorted(cum0 + threshold, side="left"),
            cum1.searchsorted(cum1 + threshold, side="left"),
        ).tolist()
        first = min(
            int(cum0.searchsorted(threshold, side="left")),
            int(cum1.searchsorted(threshold, side="left")),
        )
        base0 = 0.0
        base1 = 0.0
        start = 0
        base = -1
        while start < n_runs - 1:
            r = max(first if base < 0 else jump[base], start)
            while r > start and (
                cum0[r - 1] - base0 >= threshold or cum1[r - 1] - base1 >= threshold
            ):
                r -= 1
            while r < n_runs and not (
                cum0[r] - base0 >= threshold or cum1[r] - base1 >= threshold
            ):
                r += 1
            if r >= n_runs - 1:
                break  # crossing at the last run (or never): final bucket
            closings.append(r)
            base = r
            base0 = float(cum0[r])
            base1 = float(cum1[r])
            start = r + 1
        return closings

    @staticmethod
    def _assemble_buckets(
        run_values: np.ndarray,
        cum0: np.ndarray,
        cum1: np.ndarray,
        closings: list[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cut points and class masses from the closing run indices.

        Shared by both sweep paths.  Bucket masses are consecutive
        cumulative differences — exactly the ``cum[r] - base`` values the
        sweeps compared against the bucket-size threshold.
        """
        n_runs = run_values.size
        if n_runs == 0:
            return np.empty(0), np.zeros((0, 2))
        rs = np.asarray(closings, dtype=np.intp)
        left = run_values[rs]
        right = run_values[rs + 1]
        cuts = (left + right) / 2.0
        # the left bucket owns value <= cut; when the midpoint of two
        # adjacent floats rounds up onto the right value, fall back to
        # the left value so neither training value crosses the boundary
        # it was counted on
        cuts = np.where(cuts >= right, left, cuts)
        bounds = np.concatenate((rs, [n_runs - 1]))
        c0 = np.diff(cum0[bounds], prepend=0.0)
        c1 = np.diff(cum1[bounds], prepend=0.0)
        if c0[-1] + c1[-1] > 0:
            counts = np.column_stack((c0, c1))
        else:
            # trailing empty bucket: drop it and the last cut
            cuts = cuts[:-1]
            counts = np.column_stack((c0[:-1], c1[:-1]))
        return cuts, counts

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "OneR":
        features, labels, weights = check_training_set(features, labels, sample_weight)
        best_error = np.inf
        for j in range(features.shape[1]):
            cuts, counts = self._bucketize(features[:, j], labels, weights)
            error = float((counts.sum(axis=1) - counts.max(axis=1)).sum())
            if error < best_error:
                best_error = error
                self.attribute_ = j
                self.cut_points_ = cuts
                self.bucket_counts_ = counts
        self.fitted_ = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        features = check_features(features)
        assert self.attribute_ is not None
        assert self.cut_points_ is not None and self.bucket_counts_ is not None
        # side="left" keeps the fit-time boundary semantics: bucket k owns
        # cut[k-1] < value <= cut[k], so a value exactly on a cut lands in
        # the bucket whose training mass it contributed to
        buckets = np.searchsorted(self.cut_points_, features[:, self.attribute_], side="left")
        return proba_from_counts(self.bucket_counts_[buckets])

    # -- serialization ---------------------------------------------------
    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        assert self.attribute_ is not None
        assert self.cut_points_ is not None and self.bucket_counts_ is not None
        spec = {"params": dict(self.params), "attribute": int(self.attribute_)}
        return spec, {
            "cut_points": self.cut_points_,
            "bucket_counts": self.bucket_counts_,
        }

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict) -> "OneR":
        model = cls(**spec["params"])
        model.attribute_ = int(spec["attribute"])
        model.cut_points_ = np.asarray(arrays["cut_points"])
        model.bucket_counts_ = np.asarray(arrays["bucket_counts"])
        if model.bucket_counts_.ndim != 2 or model.bucket_counts_.shape[1] != 2:
            raise ValueError("bucket_counts must have shape (n_buckets, 2)")
        model.fitted_ = True
        return model

    @property
    def chosen_attribute(self) -> int:
        """Index of the single attribute the rule uses."""
        self._require_fitted()
        assert self.attribute_ is not None
        return self.attribute_
