"""REPTree: fast tree with reduced-error pruning, as in WEKA's ``REPTree``.

Grows with plain information gain (cheaper than C4.5's gain ratio), then
prunes bottom-up against a held-out fold: a subtree is replaced by a leaf
whenever the leaf makes no more errors on the held-out data than the
subtree does (reduced-error pruning).  WEKA's ``numFolds`` default of 3 —
grow on 2/3 of the data, prune with the remaining 1/3 — is kept.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_training_set
from repro.ml.tree import FlatTree, FlatTreeClassifier, TreeNode, grow_tree, route


class REPTree(FlatTreeClassifier):
    """Information-gain tree with reduced-error pruning.

    Args:
        num_folds: the pruning fold count; one fold is held out for
            pruning, the rest grow the tree (WEKA default 3).
        min_instances: minimum weighted instances per leaf (WEKA default 2).
        max_depth: maximum tree depth, -1 for unlimited (WEKA default).
        no_pruning: grow only (WEKA ``-P``).
        seed: RNG seed for the fold shuffle (WEKA ``-S``).
    """

    supports_sample_weight = True

    def __init__(
        self,
        num_folds: int = 3,
        min_instances: int = 2,
        max_depth: int = -1,
        no_pruning: bool = False,
        seed: int = 1,
    ) -> None:
        super().__init__()
        if num_folds < 2:
            raise ValueError("num_folds must be >= 2")
        if min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        self.num_folds = num_folds
        self.min_instances = min_instances
        self.max_depth = max_depth
        self.no_pruning = no_pruning
        self.seed = seed
        self.params = {
            "num_folds": num_folds,
            "min_instances": min_instances,
            "max_depth": max_depth,
            "no_pruning": no_pruning,
            "seed": seed,
        }

    # ------------------------------------------------------------------
    def _accumulate_prune_counts(
        self, node: TreeNode, features: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> None:
        """Record held-out class mass at every node along each row's path."""
        flat = FlatTree(node)
        mass = flat.path_class_mass(features, labels, weights)
        for i, tree_node in enumerate(flat.nodes):
            tree_node.prune_counts += mass[i]

    def _subtree_heldout_errors(self, node: TreeNode) -> float:
        if node.is_leaf:
            return float(node.prune_counts.sum() - node.prune_counts[node.majority])
        assert node.left is not None and node.right is not None
        return self._subtree_heldout_errors(node.left) + self._subtree_heldout_errors(node.right)

    def _reduced_error_prune(self, node: TreeNode) -> None:
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        self._reduced_error_prune(node.left)
        self._reduced_error_prune(node.right)
        leaf_errors = float(node.prune_counts.sum() - node.prune_counts[node.majority])
        if leaf_errors <= self._subtree_heldout_errors(node):
            node.make_leaf()

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "REPTree":
        features, labels, weights = check_training_set(features, labels, sample_weight)
        rng = np.random.default_rng(self.seed)
        if self.no_pruning or len(labels) < self.num_folds * 2:
            self.root_ = grow_tree(
                features, labels, weights,
                min_leaf_weight=float(self.min_instances),
                use_gain_ratio=False,
                max_depth=self.max_depth,
            )
            self._flat = FlatTree(self.root_)
            self.fitted_ = True
            return self
        order = rng.permutation(len(labels))
        n_prune = len(labels) // self.num_folds
        prune_idx, grow_idx = order[:n_prune], order[n_prune:]
        self.root_ = grow_tree(
            features[grow_idx], labels[grow_idx], weights[grow_idx],
            min_leaf_weight=float(self.min_instances),
            use_gain_ratio=False,
            max_depth=self.max_depth,
        )
        self._accumulate_prune_counts(
            self.root_, features[prune_idx], labels[prune_idx], weights[prune_idx]
        )
        self._reduced_error_prune(self.root_)
        # pruning rewired the tree in place; flatten the final shape once
        self._flat = FlatTree(self.root_)
        self.fitted_ = True
        return self

    def predict_leaf(self, row: np.ndarray) -> TreeNode:
        """Leaf node a single feature row routes to (for introspection)."""
        self._require_fitted()
        assert self.root_ is not None
        return route(self.root_, np.asarray(row, dtype=float))
