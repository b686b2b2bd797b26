"""Shared machinery for the decision-tree learners (J48, REPTree).

Both of the paper's tree classifiers are top-down inducers over numeric
attributes with binary threshold splits; they differ in split criterion
(gain ratio vs. information gain) and pruning (C4.5 pessimistic error
vs. reduced-error pruning).  This module provides the node structure, the
vectorized split search, the array forms used for inference and the
classifier base they share.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import Classifier, check_features, proba_from_counts

_EPS = 1e-12


@dataclass
class TreeNode:
    """One node of a binary decision tree.

    Attributes:
        counts: weighted class counts of the training data reaching the node.
        attribute: split attribute index (internal nodes only).
        threshold: split threshold; left subtree takes ``value <= threshold``.
        left, right: children (internal nodes only).
    """

    counts: np.ndarray
    attribute: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    #: scratch field used by reduced-error pruning (held-out counts).
    prune_counts: np.ndarray = field(default_factory=lambda: np.zeros(2))

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None

    @property
    def majority(self) -> int:
        return int(np.argmax(self.counts))

    def make_leaf(self) -> None:
        """Collapse this node into a leaf."""
        self.attribute = None
        self.threshold = None
        self.left = None
        self.right = None

    # -- structure statistics (used by the hardware cost model) ---------
    def n_nodes(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + self.left.n_nodes() + self.right.n_nodes()

    def n_leaves(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return self.left.n_leaves() + self.right.n_leaves()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())


@dataclass(frozen=True)
class Split:
    """Result of a split search on one node's data."""

    attribute: int
    threshold: float
    gain: float
    gain_ratio: float


def _select_split(candidates: list[Split], use_gain_ratio: bool) -> Split | None:
    """Pick the winning split from per-attribute candidates.

    With ``use_gain_ratio`` (C4.5/J48) the winner is the highest gain
    *ratio* among splits whose raw gain is at least the average positive
    gain — C4.5's guard against the ratio favouring near-trivial splits.
    Otherwise (REPTree) plain information gain decides.

    Shared verbatim with the retired per-attribute split search in
    ``tests/oracles/ml.py`` so that tie breaking and the mean-gain
    reduction order cannot drift between them.
    """
    if not candidates:
        return None
    if not use_gain_ratio:
        return max(candidates, key=lambda s: s.gain)
    mean_gain = sum(s.gain for s in candidates) / len(candidates)
    eligible = [s for s in candidates if s.gain >= mean_gain - _EPS]
    return max(eligible, key=lambda s: s.gain_ratio)


def find_split(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
    use_gain_ratio: bool,
) -> Split | None:
    """Search all attributes for the best split in one vectorized sweep.

    Sorts every feature column at once, builds per-column cumulative
    weighted class counts, and evaluates every candidate boundary of
    every attribute simultaneously; invalid positions (equal-value runs,
    leaves below ``min_leaf_weight``) are masked to ``-inf`` before a
    per-column first-argmax.  Every arithmetic step mirrors the retired
    one-attribute-at-a-time search (``tests/oracles/ml.py``) elementwise
    — axis-0 ``cumsum`` of a 2-D array is computed per column exactly
    like its 1-D cumsums, and a masked full-column argmax picks the same
    first maximum as its argmax over compacted candidates — so the
    produced :class:`Split` is bit-identical.
    """
    n, d = features.shape
    if n < 2:
        return None
    order = np.argsort(features, axis=0, kind="stable")
    v = np.take_along_axis(features, order, axis=0)
    y = labels[order]
    w = weights[order]
    w0 = np.where(y == 0, w, 0.0)
    w1 = np.where(y == 1, w, 0.0)
    cum0 = np.cumsum(w0, axis=0)
    cum1 = np.cumsum(w1, axis=0)
    total0, total1 = cum0[-1], cum1[-1]
    total = total0 + total1

    boundary = np.diff(v, axis=0) > 0  # (n-1, d)
    left0, left1 = cum0[:-1], cum1[:-1]
    right0, right1 = total0 - left0, total1 - left1
    wl = left0 + left1
    wr = right0 + right1
    ok = boundary & (wl >= min_leaf_weight) & (wr >= min_leaf_weight)

    def ent(c0: np.ndarray, c1: np.ndarray, mass: np.ndarray) -> np.ndarray:
        denom = np.maximum(mass, _EPS)
        p0 = np.clip(c0 / denom, _EPS, 1.0)
        p1 = np.clip(c1 / denom, _EPS, 1.0)
        return -(p0 * np.log(p0) + p1 * np.log(p1))

    with np.errstate(divide="ignore", invalid="ignore"):
        children = (wl * ent(left0, left1, wl) + wr * ent(right0, right1, wr)) / total
        # entropy of the parent counts, term-summed: a zero class
        # contributes an exact 0.0, matching a filtered sum.
        safe_total = np.where(total > 0, total, 1.0)
        pp0 = np.where(total0 > 0, total0 / safe_total, 1.0)
        pp1 = np.where(total1 > 0, total1 / safe_total, 1.0)
        parent = -(
            np.where(total0 > 0, pp0 * np.log(pp0), 0.0)
            + np.where(total1 > 0, pp1 * np.log(pp1), 0.0)
        )
        gains = parent - children
        pl, pr = wl / total, wr / total
        split_info = -(pl * np.log(pl) + pr * np.log(pr))
        ratios = gains / np.maximum(split_info, _EPS)

    gains_masked = np.where(ok, gains, -np.inf)
    best_rows = np.argmax(gains_masked, axis=0)
    cols = np.arange(d)
    best_gains = gains_masked[best_rows, cols]

    candidates: list[Split] = []
    for j in np.flatnonzero(best_gains > _EPS):
        i = best_rows[j]
        threshold = (v[i, j] + v[i + 1, j]) / 2.0
        candidates.append(Split(int(j), float(threshold), float(gains[i, j]), float(ratios[i, j])))
    return _select_split(candidates, use_gain_ratio)


def grow_tree(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
    use_gain_ratio: bool,
    max_depth: int = -1,
    _depth: int = 0,
) -> TreeNode:
    """Recursively grow an unpruned binary tree."""
    counts = np.array([weights[labels == 0].sum(), weights[labels == 1].sum()])
    node = TreeNode(counts=counts)
    pure = (counts <= _EPS).any()
    if pure or (0 <= max_depth <= _depth) or counts.sum() < 2 * min_leaf_weight:
        return node
    split = find_split(features, labels, weights, min_leaf_weight, use_gain_ratio)
    if split is None:
        return node
    mask = features[:, split.attribute] <= split.threshold
    node.attribute = split.attribute
    node.threshold = split.threshold
    node.left = grow_tree(
        features[mask], labels[mask], weights[mask],
        min_leaf_weight, use_gain_ratio, max_depth, _depth + 1,
    )
    node.right = grow_tree(
        features[~mask], labels[~mask], weights[~mask],
        min_leaf_weight, use_gain_ratio, max_depth, _depth + 1,
    )
    return node


def route(node: TreeNode, row: np.ndarray) -> TreeNode:
    """Follow a feature row from ``node`` down to its leaf.

    This is the scalar reference for the vectorized :class:`FlatTree`
    kernels: one row, one Python descent.  The batch paths below are
    differential-tested against it and must stay bit-identical.
    """
    while not node.is_leaf:
        assert node.attribute is not None and node.threshold is not None
        assert node.left is not None and node.right is not None
        node = node.left if row[node.attribute] <= node.threshold else node.right
    return node


class FlatTree:
    """Array form of a fitted :class:`TreeNode` tree for batch inference.

    The pointer tree is flattened (preorder) into parallel arrays —
    split attribute (-1 at leaves), threshold, left/right child index,
    and leaf class counts — so a whole feature matrix descends at once:
    every iteration of :meth:`descend` advances *all* rows still at an
    internal node by one level with masked gathers, instead of walking
    one Python node per row per level.  Comparisons are the same
    ``row[attribute] <= threshold`` the scalar :func:`route` performs,
    so leaf assignment is bit-identical.
    """

    __slots__ = ("attribute", "threshold", "left", "right", "counts", "nodes")

    def __init__(self, root: TreeNode) -> None:
        nodes: list[TreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.append(node.right)
                stack.append(node.left)
        index = {id(node): i for i, node in enumerate(nodes)}
        n = len(nodes)
        self.nodes = tuple(nodes)
        self.attribute = np.full(n, -1, dtype=np.intp)
        self.threshold = np.full(n, np.nan)
        self.left = np.full(n, -1, dtype=np.intp)
        self.right = np.full(n, -1, dtype=np.intp)
        self.counts = np.empty((n, 2))
        for i, node in enumerate(nodes):
            self.counts[i] = node.counts
            if not node.is_leaf:
                assert node.attribute is not None and node.threshold is not None
                self.attribute[i] = node.attribute
                self.threshold[i] = node.threshold
                self.left[i] = index[id(node.left)]
                self.right[i] = index[id(node.right)]

    @classmethod
    def from_arrays(
        cls,
        attribute: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        counts: np.ndarray,
    ) -> "FlatTree":
        """Rebuild a flat tree (and its pointer form) from parallel arrays.

        Inverse of the flattening constructor: the arrays become the live
        inference state verbatim (they may be read-only memory maps), and
        the :class:`TreeNode` pointer graph is re-linked so structural
        accessors (``nodes[0]`` is the root, as in preorder flattening)
        keep working on loaded models.
        """
        attribute = np.asanyarray(attribute)
        threshold = np.asanyarray(threshold)
        left = np.asanyarray(left)
        right = np.asanyarray(right)
        counts = np.asanyarray(counts)
        n = attribute.shape[0]
        if n == 0 or counts.shape != (n, 2):
            raise ValueError("tree arrays are empty or misaligned")
        shapes = (threshold.shape, left.shape, right.shape)
        if any(shape != (n,) for shape in shapes):
            raise ValueError("tree arrays are misaligned")
        nodes = [TreeNode(counts=counts[i]) for i in range(n)]
        for i in range(n):
            if attribute[i] >= 0:
                li, ri = int(left[i]), int(right[i])
                if not (0 <= li < n and 0 <= ri < n):
                    raise ValueError(f"child index out of range at node {i}")
                node = nodes[i]
                node.attribute = int(attribute[i])
                node.threshold = float(threshold[i])
                node.left = nodes[li]
                node.right = nodes[ri]
        flat = cls.__new__(cls)
        flat.nodes = tuple(nodes)
        flat.attribute = attribute
        flat.threshold = threshold
        flat.left = left
        flat.right = right
        flat.counts = counts
        return flat

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def descend(self, features: np.ndarray) -> np.ndarray:
        """Flat index of the leaf each row lands in, shape ``(n,)``."""
        n, n_cols = features.shape
        flat = np.ascontiguousarray(features).reshape(-1)
        cur = np.zeros(n, dtype=np.intp)
        if self.attribute[0] < 0:  # root is a leaf
            return cur
        active = np.arange(n)
        while active.size:
            node = cur[active]
            attr = self.attribute[node]
            values = flat.take(active * n_cols + attr)
            go_left = values <= self.threshold[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            cur[active] = nxt
            active = active[self.attribute[nxt] >= 0]
        return cur

    def leaf_counts(self, features: np.ndarray) -> np.ndarray:
        """Class counts of the leaf each row lands in, shape ``(n, 2)``."""
        return self.counts[self.descend(features)]

    def path_class_mass(
        self, features: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Weighted class mass deposited at every node along each row's
        root-to-leaf path, shape ``(n_nodes, 2)``.

        This is the batch form of REPTree's held-out prune-count
        accumulation.  ``np.add.at`` applies duplicate indices in row
        order — the same order the scalar per-row loop adds them — so
        the accumulated floats are bit-identical.
        """
        acc = np.zeros((self.n_nodes, 2))
        cur = np.zeros(features.shape[0], dtype=np.intp)
        active = np.arange(features.shape[0])
        while active.size:
            node = cur[active]
            np.add.at(acc, (node, labels[active]), weights[active])
            internal = self.attribute[node] >= 0
            active = active[internal]
            node = cur[active]
            go_left = (
                features[active, self.attribute[node]] <= self.threshold[node]
            )
            cur[active] = np.where(go_left, self.left[node], self.right[node])
        return acc


class FlatForest:
    """The member trees of an ensemble fused into one array forest.

    The members' :class:`FlatTree` arrays are concatenated with child
    indices offset, so ``roots[k]`` is member ``k``'s root, and each node
    carries one precomputed entry of a leaf table (an AdaBoost member's
    class, a Bagging member's probability row).  :meth:`leaf_values`
    then descends every member × row pair in one level-synchronous loop
    — max-depth iterations instead of one descent per member — with the
    same ``value <= threshold`` comparison as :meth:`FlatTree.descend`,
    so every leaf, and so every gathered table entry, is bit-identical
    to the member-by-member path.  Concatenation copies the arrays, so a
    forest over memory-mapped members descends plain arrays.

    Nothing writes to a forest after construction, so threads share one
    freely.
    """

    __slots__ = ("attribute", "threshold", "left", "right", "roots", "table")

    def __init__(
        self,
        trees: Sequence[FlatTree],
        leaf_table: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        """Fuse ``trees``; ``leaf_table`` maps the concatenated
        ``(n_nodes, 2)`` class counts to one table entry per node."""
        sizes = [tree.attribute.shape[0] for tree in trees]
        roots = np.zeros(len(trees), dtype=np.intp)
        np.cumsum(sizes[:-1], out=roots[1:])
        shift = np.repeat(roots, sizes)
        self.attribute = np.concatenate([tree.attribute for tree in trees])
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        # leaves keep their -1 children; only real indices move
        internal = self.attribute >= 0
        self.left = np.concatenate([tree.left for tree in trees])
        self.left[internal] += shift[internal]
        self.right = np.concatenate([tree.right for tree in trees])
        self.right[internal] += shift[internal]
        self.roots = roots
        self.table = leaf_table(np.concatenate([tree.counts for tree in trees]))

    @classmethod
    def of(
        cls,
        members: Sequence[Classifier],
        leaf_table: Callable[[np.ndarray], np.ndarray],
    ) -> "FlatForest | None":
        """Forest of an ensemble's members, or None unless every member
        is a fitted :class:`FlatTreeClassifier` (and there is one)."""
        if not members or not all(
            isinstance(member, FlatTreeClassifier) and member._flat is not None
            for member in members
        ):
            return None
        return cls([member._flat for member in members], leaf_table)

    def descend(self, features: np.ndarray) -> np.ndarray:
        """Flat index of the leaf each member × row pair lands in, shape
        ``(n_members, n)``."""
        n, n_cols = features.shape
        flat = np.ascontiguousarray(features).reshape(-1)
        cur = np.repeat(self.roots, n)
        # flat offset of each pair's feature row, member-major like cur
        row_start = np.tile(np.arange(n) * n_cols, self.roots.shape[0])
        active = np.flatnonzero(self.attribute.take(cur) >= 0)
        while active.size:
            node = cur.take(active)
            values = flat.take(row_start.take(active) + self.attribute.take(node))
            go_left = values <= self.threshold.take(node)
            nxt = np.where(go_left, self.left.take(node), self.right.take(node))
            cur[active] = nxt
            active = active[self.attribute.take(nxt) >= 0]
        return cur.reshape(self.roots.shape[0], n)

    def leaf_values(self, features: np.ndarray) -> np.ndarray:
        """Leaf-table entry of every member × row pair: shape
        ``(n_members, n) + table.shape[1:]``, C-contiguous, as
        ``np.stack`` of the per-member results lays it out."""
        return self.table[self.descend(features)]


class FlatTreeClassifier(Classifier):
    """A classifier whose fitted state is one :class:`FlatTree`.

    Subclasses grow and prune a :class:`TreeNode` tree in :meth:`fit`
    and keep its flat form in ``_flat``; prediction, artifact
    round trips and the structure statistics are shared here.
    """

    def __init__(self) -> None:
        super().__init__()
        self.root_: TreeNode | None = None
        self._flat: FlatTree | None = None

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        features = check_features(features)
        assert self._flat is not None
        return proba_from_counts(self._flat.leaf_counts(features))

    # -- serialization ---------------------------------------------------
    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        assert self._flat is not None
        flat = self._flat
        return {"params": dict(self.params)}, {
            "tree_attribute": flat.attribute,
            "tree_threshold": flat.threshold,
            "tree_left": flat.left,
            "tree_right": flat.right,
            "tree_counts": flat.counts,
        }

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict) -> "FlatTreeClassifier":
        model = cls(**spec["params"])
        model._flat = FlatTree.from_arrays(
            arrays["tree_attribute"],
            arrays["tree_threshold"],
            arrays["tree_left"],
            arrays["tree_right"],
            arrays["tree_counts"],
        )
        model.root_ = model._flat.nodes[0]
        model.fitted_ = True
        return model

    # -- structure, for the hardware model and reports ------------------
    @property
    def tree_size(self) -> int:
        """Total node count of the fitted tree."""
        self._require_fitted()
        assert self.root_ is not None
        return self.root_.n_nodes()

    @property
    def n_leaves(self) -> int:
        self._require_fitted()
        assert self.root_ is not None
        return self.root_.n_leaves()

    @property
    def depth(self) -> int:
        self._require_fitted()
        assert self.root_ is not None
        return self.root_.depth()

