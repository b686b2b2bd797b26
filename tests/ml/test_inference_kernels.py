"""Differential tests: vectorized inference kernels vs scalar references.

The batch kernels (``FlatTree`` descent, ``CompiledRuleList`` rule
application, stacked ensemble probability reduction) must be *bit
identical* to the scalar references in :mod:`tests.oracles.ml` and to
per-member loops — same leaf, same counts, same
probabilities — on any input, including single-row and empty batches and
rows that sit exactly on split thresholds.  Every test here asserts
exact equality (``np.array_equal``), never closeness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import SGD, AdaBoostM1, Bagging, BayesNet, J48, JRip, OneR, REPTree
from repro.ml.base import proba_from_counts
from repro.ml.ensemble.voting import VotingEnsemble
from repro.ml.jrip import CompiledRuleList, Condition, Rule
from repro.ml.tree import FlatTree, grow_tree, route
from tests.oracles.ml import (
    accumulate_prune_counts_scalar,
    jrip_counts_scalar,
    leaf_counts_matrix_scalar,
)


def _random_tree(seed: int, n_rows: int, n_cols: int, max_depth: int = -1):
    """Grow a tree on random data; returns (root, features, labels, weights)."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_rows, n_cols)).round(2)  # ties on purpose
    labels = (features.sum(axis=1) + rng.normal(scale=0.5, size=n_rows) > 0).astype(
        np.intp
    )
    weights = rng.uniform(0.5, 2.0, size=n_rows)
    root = grow_tree(features, labels, weights, 2.0, use_gain_ratio=seed % 2 == 0,
                     max_depth=max_depth)
    return root, features, labels, weights


def _boundary_queries(flat: FlatTree, features: np.ndarray, seed: int) -> np.ndarray:
    """Query rows that include exact split thresholds in every column."""
    rng = np.random.default_rng(seed)
    thresholds = flat.threshold[~np.isnan(flat.threshold)]
    queries = [features, rng.normal(size=(37, features.shape[1]))]
    if thresholds.size:
        picks = rng.choice(thresholds, size=(29, features.shape[1]))
        queries.append(picks)
    return np.vstack(queries)


# ------------------------------------------------------------ FlatTree
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(10, 200),
    n_cols=st.integers(1, 6),
    max_depth=st.sampled_from([-1, 1, 3]),
)
def test_flat_tree_descent_matches_scalar_route(seed, n_rows, n_cols, max_depth):
    root, features, _, _ = _random_tree(seed, n_rows, n_cols, max_depth)
    flat = FlatTree(root)
    queries = _boundary_queries(flat, features, seed + 1)
    got = flat.leaf_counts(queries)
    want = leaf_counts_matrix_scalar(root, queries)
    assert np.array_equal(got, want)
    # the descend indices resolve to the same node objects route() finds
    leaves = flat.descend(queries)
    for i in (0, len(queries) // 2, len(queries) - 1):
        assert flat.nodes[leaves[i]] is route(root, queries[i])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_flat_tree_path_mass_matches_scalar_accumulation(seed):
    root_vec, features, labels, weights = _random_tree(seed, 150, 4)
    root_ref, _, _, _ = _random_tree(seed, 150, 4)  # identical second copy
    rng = np.random.default_rng(seed + 7)
    held_x = rng.normal(size=(60, 4)).round(2)
    held_y = rng.integers(0, 2, size=60).astype(np.intp)
    held_w = rng.uniform(0.1, 3.0, size=60)

    accumulate_prune_counts_scalar(root_ref, held_x, held_y, held_w)
    flat = FlatTree(root_vec)
    mass = flat.path_class_mass(held_x, held_y, held_w)
    for i, node in enumerate(flat.nodes):
        node.prune_counts += mass[i]

    def walk(a, b):
        assert np.array_equal(a.prune_counts, b.prune_counts)
        if not a.is_leaf:
            walk(a.left, b.left)
            walk(a.right, b.right)

    walk(root_vec, root_ref)


def test_flat_tree_single_row_and_empty_batch():
    root, features, _, _ = _random_tree(3, 80, 3)
    flat = FlatTree(root)
    one = flat.leaf_counts(features[:1])
    assert np.array_equal(one, leaf_counts_matrix_scalar(root, features[:1]))
    empty = flat.leaf_counts(np.empty((0, 3)))
    assert empty.shape == (0, 2)
    assert flat.path_class_mass(
        np.empty((0, 3)), np.empty(0, dtype=np.intp), np.empty(0)
    ).shape == (flat.n_nodes, 2)


def test_flat_tree_of_leaf_only_root():
    root = grow_tree(np.zeros((4, 2)), np.array([1, 1, 1, 1]), np.ones(4), 2.0, False)
    flat = FlatTree(root)
    assert flat.n_nodes == 1
    queries = np.random.default_rng(0).normal(size=(5, 2))
    assert np.array_equal(flat.leaf_counts(queries),
                          leaf_counts_matrix_scalar(root, queries))


def test_leaf_counts_matrix_wrapper_is_vectorized_path():
    root, features, _, _ = _random_tree(11, 100, 4)
    assert np.array_equal(
        FlatTree(root).leaf_counts(features), leaf_counts_matrix_scalar(root, features)
    )


def test_fitted_trees_predict_empty_batch():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(60, 3))
    labels = (features[:, 0] > 0).astype(np.intp)
    for model in (J48(), REPTree()):
        model.fit(features, labels)
        assert model.predict_proba(np.empty((0, 3))).shape == (0, 2)


# ---------------------------------------------------------------- JRip
def _random_rule_list(seed: int, n_cols: int):
    rng = np.random.default_rng(seed)
    rules = []
    for _ in range(rng.integers(1, 6)):
        conditions = [
            Condition(
                attribute=int(rng.integers(0, n_cols)),
                op="<=" if rng.random() < 0.5 else ">",
                threshold=round(float(rng.normal()), 2),
            )
            for _ in range(rng.integers(1, 4))
        ]
        rules.append(Rule(conditions=conditions,
                          class_counts=rng.uniform(0, 20, size=2)))
    return rules


def _jrip_reference_counts(rules, default_counts, features):
    """The pre-vectorization first-match loop, verbatim."""
    counts = np.tile(default_counts, (features.shape[0], 1))
    unassigned = np.ones(features.shape[0], dtype=bool)
    for rule in rules:
        hit = rule.covers(features) & unassigned
        counts[hit] = rule.class_counts
        unassigned &= ~hit
    return counts


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n_rows=st.integers(0, 150), n_cols=st.integers(1, 5))
def test_compiled_rules_match_mask_loop(seed, n_rows, n_cols):
    rules = _random_rule_list(seed, n_cols)
    default = np.array([7.0, 3.0])
    rng = np.random.default_rng(seed + 1)
    # thresholds are drawn from the same rounded grid as the features, so
    # exact value==threshold collisions occur and pin the <= / > boundary
    features = rng.normal(size=(n_rows, n_cols)).round(2)
    compiled = CompiledRuleList(rules)
    assert np.array_equal(
        compiled.apply(features, default),
        _jrip_reference_counts(rules, default, features),
    )


def test_compiled_rules_empty_rule_list_uses_default():
    compiled = CompiledRuleList([])
    features = np.random.default_rng(0).normal(size=(9, 3))
    default = np.array([2.0, 5.0])
    got = compiled.apply(features, default)
    assert np.array_equal(got, np.tile(default, (9, 1)))


def test_fitted_jrip_matches_scalar_reference_and_empty_batch():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(300, 4))
    labels = ((features[:, 0] > 0.3) & (features[:, 1] < 0.5)).astype(np.intp)
    model = JRip(seed=1).fit(features, labels)
    queries = rng.normal(size=(120, 4))
    counts = jrip_counts_scalar(model, queries)
    smoothed = counts + 1.0
    want = smoothed / smoothed.sum(axis=1, keepdims=True)
    assert np.array_equal(model.predict_proba(queries), want)
    assert model.predict_proba(np.empty((0, 4))).shape == (0, 2)


# ----------------------------------------------------------- ensembles
@pytest.fixture(scope="module")
def ensemble_data():
    rng = np.random.default_rng(21)
    features = rng.normal(size=(240, 4))
    labels = (features[:, 0] + 0.5 * features[:, 1] > 0).astype(np.intp)
    queries = np.vstack([rng.normal(size=(90, 4)), features[:10]])
    return features, labels, queries


def test_adaboost_stacked_votes_match_loop(ensemble_data):
    features, labels, queries = ensemble_data
    model = AdaBoostM1(REPTree(seed=2), n_estimators=8, seed=3).fit(features, labels)
    votes = np.zeros((queries.shape[0], 2))
    for member, alpha in zip(model.estimators_, model.estimator_weights_):
        predictions = member.predict(queries)
        votes[np.arange(len(predictions)), predictions] += alpha
    total = votes.sum(axis=1, keepdims=True)
    want = votes / np.where(total > 0, total, 1.0)
    assert np.array_equal(model.predict_proba(queries), want)


def test_bagging_stacked_probas_match_loop(ensemble_data):
    features, labels, queries = ensemble_data
    model = Bagging(J48(), n_estimators=7, seed=4).fit(features, labels)
    total = np.zeros((queries.shape[0], 2))
    for member in model.estimators_:
        total += member.predict_proba(queries)
    want = total / len(model.estimators_)
    assert np.array_equal(model.predict_proba(queries), want)


@pytest.mark.parametrize("voting", ["soft", "hard"])
def test_voting_stacked_probas_match_loop(ensemble_data, voting):
    features, labels, queries = ensemble_data
    model = VotingEnsemble(
        members=[REPTree(seed=5), OneR(), BayesNet(), SGD(epochs=30)],
        voting=voting,
        weights=[3.0, 1.0, 2.0, 0.5],
    ).fit(features, labels)
    total = np.zeros((queries.shape[0], 2))
    for weight, member in zip(model.fitted_weights_, model.fitted_members_):
        if voting == "soft":
            total += weight * member.predict_proba(queries)
        else:
            predictions = member.predict(queries)
            total[np.arange(len(predictions)), predictions] += weight
    sums = total.sum(axis=1, keepdims=True)
    want = total / np.where(sums > 0, sums, 1.0)
    assert np.array_equal(model.predict_proba(queries), want)


def test_ensembles_predict_empty_batch(ensemble_data):
    features, labels, _ = ensemble_data
    empty = np.empty((0, 4))
    for model in (
        AdaBoostM1(REPTree(seed=2), n_estimators=3, seed=3),
        Bagging(REPTree(seed=2), n_estimators=3, seed=4),
        VotingEnsemble(members=[REPTree(seed=5), OneR()]),
    ):
        model.fit(features, labels)
        assert model.predict_proba(empty).shape == (0, 2)
