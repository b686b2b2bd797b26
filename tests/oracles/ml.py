"""Retired scalar reference paths of the :mod:`repro.ml` learners.

Every shipped fit and inference kernel in :mod:`repro.ml` is array code
that was once a loop.  The loops live here as executable references:
the differential tests in ``tests/ml`` fit (or score) the same model
through both and assert byte-equal parameters and predictions.

* :func:`best_cut_scalar` — one Python iteration per MDL boundary
  (reference for ``discretize._best_cut``).
* :func:`find_split_scalar` — one :func:`best_split_for_attribute` sweep
  per attribute (reference for ``tree.find_split``).
* :func:`leaf_counts_matrix_scalar` — one ``route`` descent per row
  (reference for ``FlatTree.leaf_counts``).
* :func:`accumulate_prune_counts_scalar` — one root-to-leaf walk per
  held-out row (reference for ``REPTree._accumulate_prune_counts``).
* :func:`oner_sweep_scalar` — a run-by-run bucket scan
  (reference for ``OneR._sweep``).
* :func:`jrip_prefix_coverage_scalar` and :func:`jrip_counts_scalar` —
  one ``covers`` conjunction per condition and per-rule mask loops
  (references for ``jrip._prefix_coverage`` and
  ``CompiledRuleList.apply``).
* :func:`mlp_train_scalar`, :func:`sgd_train_scalar` and
  :func:`smo_fit_linear_scalar` — the pre-optimization epoch and
  working-set loops (references for ``MLP._train``, ``SGD._train`` and
  ``SMO._fit_linear``).

:func:`retired_ml` patches every fit reference into the package at once,
so a whole fit — ensembles included, whose members are built inside
``fit`` — runs on the retired paths and can be compared end to end.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.ml import discretize, jrip, tree
from repro.ml.discretize import _entropy
from repro.ml.jrip import JRip
from repro.ml.mlp import MLP, _sigmoid
from repro.ml.oner import OneR
from repro.ml.reptree import REPTree
from repro.ml.sgd import SGD, _apply_update, _margins
from repro.ml.smo import SMO
from repro.ml.tree import Split, TreeNode, _select_split, route

_EPS = 1e-12


# -- discretize --------------------------------------------------------
def best_cut_scalar(
    values: np.ndarray, labels: np.ndarray, weights: np.ndarray, n_classes: int
) -> tuple[float, float, np.ndarray, np.ndarray] | None:
    """Per-candidate boundary scan: two :func:`_entropy` calls per
    candidate boundary, keeping the earliest strict minimum."""
    order = np.argsort(values, kind="stable")
    v, y, w = values[order], labels[order], weights[order]
    # candidate cut between i and i+1 where value changes
    change = np.flatnonzero(np.diff(v) > 0)
    if change.size == 0:
        return None
    onehot = np.zeros((len(y), n_classes))
    onehot[np.arange(len(y)), y] = w
    left_counts = np.cumsum(onehot, axis=0)
    total_counts = left_counts[-1]
    total = total_counts.sum()
    best = None
    for i in change:
        left = left_counts[i]
        right = total_counts - left
        wl, wr = left.sum(), right.sum()
        if wl <= 0 or wr <= 0:
            continue
        score = (wl * _entropy(left) + wr * _entropy(right)) / total
        if best is None or score < best[1]:
            cut = (v[i] + v[i + 1]) / 2.0
            best = (cut, score, left, right)
    return best


# -- tree --------------------------------------------------------------
def entropy(counts: np.ndarray) -> float:
    """Entropy (nats) of a weighted class-count vector."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def best_split_for_attribute(
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
) -> tuple[float, float, float] | None:
    """Best binary threshold on one attribute.

    Sort once, build cumulative weighted class counts, evaluate every
    distinct-value boundary of this one column.

    Returns:
        ``(threshold, gain, gain_ratio)`` of the entropy-gain maximizing
        cut, or None when no cut leaves ``min_leaf_weight`` on both sides.
    """
    order = np.argsort(values, kind="stable")
    v, y, w = values[order], labels[order], weights[order]
    boundaries = np.flatnonzero(np.diff(v) > 0)
    if boundaries.size == 0:
        return None
    onehot = np.zeros((len(y), 2))
    onehot[np.arange(len(y)), y] = w
    cum = np.cumsum(onehot, axis=0)
    total_counts = cum[-1]
    total = total_counts.sum()

    left = cum[boundaries]  # (k, 2)
    right = total_counts - left
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    ok = (wl >= min_leaf_weight) & (wr >= min_leaf_weight)
    if not ok.any():
        return None
    left, right, wl, wr = left[ok], right[ok], wl[ok], wr[ok]
    boundaries = boundaries[ok]

    def ent(counts: np.ndarray, mass: np.ndarray) -> np.ndarray:
        p = counts / np.maximum(mass[:, None], _EPS)
        p = np.clip(p, _EPS, 1.0)
        return -(p * np.log(p)).sum(axis=1)

    parent_entropy = entropy(total_counts)
    children = (wl * ent(left, wl) + wr * ent(right, wr)) / total
    gains = parent_entropy - children
    pl, pr = wl / total, wr / total
    split_info = -(pl * np.log(pl) + pr * np.log(pr))
    ratios = gains / np.maximum(split_info, _EPS)

    best = int(np.argmax(gains))
    i = boundaries[best]
    threshold = (v[i] + v[i + 1]) / 2.0
    return threshold, float(gains[best]), float(ratios[best])


def find_split_scalar(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
    use_gain_ratio: bool,
) -> Split | None:
    """Per-attribute split search: one :func:`best_split_for_attribute`
    call — sort, cumulative class counts, boundary sweep — per attribute."""
    candidates: list[Split] = []
    for j in range(features.shape[1]):
        found = best_split_for_attribute(features[:, j], labels, weights, min_leaf_weight)
        if found is None:
            continue
        threshold, gain, ratio = found
        if gain > _EPS:
            candidates.append(Split(j, threshold, gain, ratio))
    return _select_split(candidates, use_gain_ratio)


def leaf_counts_matrix_scalar(node: TreeNode, features: np.ndarray) -> np.ndarray:
    """Per-row leaf class counts via one :func:`~repro.ml.tree.route`
    descent per row."""
    out = np.zeros((features.shape[0], 2))
    for i in range(features.shape[0]):
        out[i] = route(node, features[i]).counts
    return out


def accumulate_prune_counts_scalar(
    node: TreeNode, features: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> None:
    """Held-out class mass added at every node of each row's path, one
    root-to-leaf walk per row."""
    for i in range(features.shape[0]):
        current = node
        while True:
            current.prune_counts[labels[i]] += weights[i]
            if current.is_leaf:
                break
            assert current.attribute is not None and current.threshold is not None
            assert current.left is not None and current.right is not None
            current = (
                current.left
                if features[i, current.attribute] <= current.threshold
                else current.right
            )


# -- OneR --------------------------------------------------------------
def oner_sweep_scalar(self: OneR, cum0: np.ndarray, cum1: np.ndarray) -> list[int]:
    """Run-by-run bucket sweep; returns the run indices at which
    buckets close."""
    threshold = self.min_bucket_size
    n_runs = cum0.size
    closings: list[int] = []
    base0 = 0.0
    base1 = 0.0
    for r in range(n_runs - 1):
        if cum0[r] - base0 >= threshold or cum1[r] - base1 >= threshold:
            closings.append(r)
            base0 = float(cum0[r])
            base1 = float(cum1[r])
    return closings


# -- JRip --------------------------------------------------------------
def jrip_prefix_coverage_scalar(
    conditions: list[jrip.Condition], features: np.ndarray
) -> np.ndarray:
    """Prefix-coverage matrix built one ``covers`` conjunction at a time."""
    prefix = np.empty((features.shape[0], len(conditions)), dtype=bool)
    covered = np.ones(features.shape[0], dtype=bool)
    for k, condition in enumerate(conditions):
        covered = covered & condition.covers(features)
        prefix[:, k] = covered
    return prefix


def jrip_counts_scalar(model: JRip, features: np.ndarray) -> np.ndarray:
    """First-match class counts via per-rule mask loops."""
    assert model.default_counts_ is not None
    counts = np.tile(model.default_counts_, (features.shape[0], 1))
    unassigned = np.ones(features.shape[0], dtype=bool)
    for rule in model.rules_:
        hit = rule.covers(features) & unassigned
        counts[hit] = rule.class_counts
        unassigned &= ~hit
    return counts


# -- MLP ---------------------------------------------------------------
def mlp_train_scalar(
    self: MLP,
    x: np.ndarray,
    targets: np.ndarray,
    rel_weight: np.ndarray,
    rng: np.random.Generator,
    w1: np.ndarray,
    b1: np.ndarray,
    w2: np.ndarray,
    b2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Momentum backprop, one fancy-indexed gather per mini-batch."""
    dw1 = np.zeros_like(w1)
    db1 = np.zeros_like(b1)
    dw2 = np.zeros_like(w2)
    db2 = np.zeros_like(b2)
    lr, mom = self.learning_rate, self.momentum
    n = x.shape[0]
    for epoch in range(self.epochs):
        order = rng.permutation(n)
        for start in range(0, n, self.batch_size):
            rows = order[start : start + self.batch_size]
            xb, tb, wb = x[rows], targets[rows], rel_weight[rows]
            hidden = _sigmoid(xb @ w1 + b1)
            out = _sigmoid(hidden @ w2 + b2)
            # squared-error gradient through output sigmoids,
            # averaged over the mini-batch
            delta_out = (out - tb) * out * (1.0 - out) * wb / len(rows)
            delta_hidden = (delta_out @ w2.T) * hidden * (1.0 - hidden)
            dw2 = mom * dw2 - lr * hidden.T @ delta_out
            db2 = mom * db2 - lr * delta_out.sum(axis=0)
            dw1 = mom * dw1 - lr * xb.T @ delta_hidden
            db1 = mom * db1 - lr * delta_hidden.sum(axis=0)
            w2 += dw2
            b2 += db2
            w1 += dw1
            b1 += db1
    return w1, b1, w2, b2


# -- SGD ---------------------------------------------------------------
def sgd_train_scalar(
    self: SGD,
    x: np.ndarray,
    y: np.ndarray,
    rel_weight: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """The shipped mini-batch protocol — frozen-weight batch margins via
    ``_margins``, one combined decay, one rank-1 aggregation via
    ``_apply_update`` — with each row's step coefficient decided and
    computed in its own Python iteration."""
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    lr = self.learning_rate
    bs = self.batch_size
    decay = 1.0 - lr * self.reg_lambda
    decay_full = decay**bs
    hinge = self.loss == "hinge"
    for _ in range(self.epochs):
        order = rng.permutation(n)
        xo, yo, ro = x[order], y[order], rel_weight[order]
        for start in range(0, n, bs):
            stop = start + bs
            xb, yb, rb = xo[start:stop], yo[start:stop], ro[start:stop]
            m = yb * _margins(xb, w, b)
            length = len(xb)
            w *= decay_full if length == bs else decay**length
            coef = np.zeros(length)
            for i in range(length):
                if hinge:
                    if m[i] < 1.0:
                        coef[i] = lr * rb[i] * yb[i]
                else:
                    grad = -yb[i] / (1.0 + np.exp(m[i]))
                    coef[i] = -(lr * rb[i] * grad)
            b += _apply_update(w, coef, xb)
    return w, b


# -- SMO ---------------------------------------------------------------
def smo_fit_linear_scalar(
    self: SMO, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, float, np.ndarray]:
    """Historical working-set loop: one exact ``_visit`` per row per round."""
    n = x.shape[0]
    alpha = np.zeros(n)
    b = 0.0
    w = np.zeros(x.shape[1])
    kdiag = np.einsum("ij,ij->i", x, x)
    xr = list(x)
    yl = y.tolist()
    al = alpha.tolist()
    kl = kdiag.tolist()
    passes = 0
    iterations = 0
    max_iterations = self.max_rounds * n
    while passes < self.max_passes and iterations < max_iterations:
        changed = 0
        for i in range(n):
            iterations += 1
            stepped, b = self._visit(xr, yl, alpha, al, w, b, kl, rng, i)
            if stepped:
                changed += 1
        passes = passes + 1 if changed == 0 else 0
    return alpha, b, w


@contextmanager
def retired_ml() -> Iterator[None]:
    """Run every learner fit inside the block on the retired reference
    paths.

    ``_best_cut``, ``find_split`` and ``_prefix_coverage`` are replaced
    in every loaded ``repro`` module that holds them by name; the
    methods are replaced on their classes.  A reference that finds no
    shipped path to replace raises, so a renamed kernel cannot turn a
    differential test into a comparison of the shipped path with itself.
    """
    functions = (
        ("_best_cut", discretize._best_cut, best_cut_scalar),
        ("find_split", tree.find_split, find_split_scalar),
        ("_prefix_coverage", jrip._prefix_coverage, jrip_prefix_coverage_scalar),
    )
    patches = [
        (module, name, original, retired)
        for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "repro"
        for name, original, retired in functions
        if getattr(module, name, None) is original
    ]
    unpatched = {name for name, _, _ in functions} - {p[1] for p in patches}
    if unpatched:
        raise LookupError(f"no shipped path to retire for {sorted(unpatched)}")
    methods = (
        (OneR, "_sweep", oner_sweep_scalar),
        (MLP, "_train", mlp_train_scalar),
        (SGD, "_train", sgd_train_scalar),
        (SMO, "_fit_linear", smo_fit_linear_scalar),
        (REPTree, "_accumulate_prune_counts", staticmethod(accumulate_prune_counts_scalar)),
    )
    patches += [(owner, name, vars(owner)[name], retired) for owner, name, retired in methods]
    try:
        for owner, name, _, retired in patches:
            setattr(owner, name, retired)
        yield
    finally:
        for owner, name, original, _ in patches:
            setattr(owner, name, original)
