"""J48: the C4.5 decision tree, as in WEKA's ``J48``.

Gain-ratio splits on numeric attributes, minimum two instances per leaf,
and C4.5's pessimistic error pruning at confidence factor 0.25 with
subtree replacement.  (WEKA additionally performs subtree raising; we
implement replacement only — the dominant pruning operation — and note
the simplification in DESIGN.md.)
"""

from __future__ import annotations

import math

import numpy as np

from repro.ml.base import check_training_set
from repro.ml.tree import FlatTree, FlatTreeClassifier, TreeNode, grow_tree


def _z_from_confidence(confidence: float) -> float:
    """Upper-tail normal quantile for C4.5's one-sided confidence bound.

    Inverse normal CDF via the Acklam rational approximation (no scipy
    dependency in the core path).
    """
    p = 1.0 - confidence
    if not 0.0 < p < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    # coefficients of Acklam's approximation
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > phigh:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def pessimistic_errors(n: float, errors: float, z: float) -> float:
    """C4.5 upper-bound error estimate for a leaf with ``n`` instances.

    Returns the *count* of predicted errors (``n`` times the upper
    confidence limit of the observed error rate).
    """
    if n <= 0:
        return 0.0
    f = errors / n
    z2 = z * z
    bound = (f + z2 / (2 * n) + z * math.sqrt(f / n - f * f / n + z2 / (4 * n * n))) / (1 + z2 / n)
    return n * bound


class J48(FlatTreeClassifier):
    """C4.5 decision tree with pessimistic-error pruning.

    Args:
        confidence: pruning confidence factor (WEKA ``-C``, default 0.25;
            smaller prunes harder).
        min_instances: minimum weighted instances per leaf (WEKA ``-M``).
        unpruned: grow only, skip pruning (WEKA ``-U``).
    """

    supports_sample_weight = True

    def __init__(
        self,
        confidence: float = 0.25,
        min_instances: int = 2,
        unpruned: bool = False,
    ) -> None:
        super().__init__()
        if not 0.0 < confidence < 0.5:
            raise ValueError("confidence must be in (0, 0.5)")
        if min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        self.confidence = confidence
        self.min_instances = min_instances
        self.unpruned = unpruned
        self.params = {
            "confidence": confidence,
            "min_instances": min_instances,
            "unpruned": unpruned,
        }
        self._z = _z_from_confidence(confidence)

    # ------------------------------------------------------------------
    def _subtree_errors(self, node: TreeNode) -> float:
        """Pessimistic error estimate of a (sub)tree."""
        if node.is_leaf:
            n = float(node.counts.sum())
            return pessimistic_errors(n, n - float(node.counts.max()), self._z)
        assert node.left is not None and node.right is not None
        return self._subtree_errors(node.left) + self._subtree_errors(node.right)

    def _prune(self, node: TreeNode) -> None:
        """Bottom-up subtree replacement when the leaf bound is no worse."""
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        self._prune(node.left)
        self._prune(node.right)
        n = float(node.counts.sum())
        leaf_estimate = pessimistic_errors(n, n - float(node.counts.max()), self._z)
        if leaf_estimate <= self._subtree_errors(node) + 0.1:
            node.make_leaf()

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "J48":
        features, labels, weights = check_training_set(features, labels, sample_weight)
        self.root_ = grow_tree(
            features, labels, weights,
            min_leaf_weight=float(self.min_instances),
            use_gain_ratio=True,
        )
        if not self.unpruned:
            self._prune(self.root_)
        # flatten the pruned tree once; prediction descends the arrays
        self._flat = FlatTree(self.root_)
        self.fitted_ = True
        return self
