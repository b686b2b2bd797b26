"""Shared decision-tree machinery (split search, growth, routing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import FlatTree, TreeNode, find_split, grow_tree, route
from tests.oracles.ml import best_split_for_attribute, entropy


def test_entropy_pure_is_zero():
    assert entropy(np.array([10.0, 0.0])) == 0.0


def test_entropy_uniform_is_log2():
    assert entropy(np.array([5.0, 5.0])) == pytest.approx(np.log(2))


def test_entropy_empty_is_zero():
    assert entropy(np.array([0.0, 0.0])) == 0.0


def test_best_split_finds_clean_boundary():
    values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    labels = np.array([0, 0, 0, 1, 1, 1])
    weights = np.ones(6)
    threshold, gain, ratio = best_split_for_attribute(values, labels, weights, 1.0)
    assert 3.0 < threshold < 10.0
    assert gain == pytest.approx(np.log(2))
    assert ratio > 0


def test_best_split_constant_attribute_none():
    assert best_split_for_attribute(
        np.ones(4), np.array([0, 1, 0, 1]), np.ones(4), 1.0
    ) is None


def test_best_split_respects_min_leaf_weight():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    labels = np.array([1, 0, 0, 0])
    # a min leaf weight of 2 forbids isolating the single positive
    result = best_split_for_attribute(values, labels, np.ones(4), 2.0)
    if result is not None:
        threshold, _, _ = result
        assert threshold > 1.5


def test_find_split_picks_informative_attribute():
    rng = np.random.default_rng(0)
    noise = rng.normal(size=100)
    signal = np.concatenate([np.zeros(50), np.ones(50)])
    features = np.column_stack([noise, signal])
    labels = signal.astype(np.intp)
    split = find_split(features, labels, np.ones(100), 1.0, use_gain_ratio=True)
    assert split is not None
    assert split.attribute == 1


def test_find_split_none_on_noise():
    features = np.ones((10, 2))
    labels = np.array([0, 1] * 5)
    assert find_split(features, labels, np.ones(10), 1.0, True) is None


def test_grow_tree_pure_node_is_leaf():
    features = np.random.default_rng(1).normal(size=(20, 2))
    labels = np.zeros(20, dtype=np.intp)
    node = grow_tree(features, labels, np.ones(20), 1.0, True)
    assert node.is_leaf
    assert node.majority == 0


def test_grow_tree_max_depth():
    rng = np.random.default_rng(2)
    features = rng.normal(size=(200, 3))
    labels = (features[:, 0] + features[:, 1] > 0).astype(np.intp)
    node = grow_tree(features, labels, np.ones(200), 1.0, False, max_depth=2)
    assert node.depth() <= 2


def test_route_reaches_leaf():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(100, 2))
    labels = (features[:, 0] > 0).astype(np.intp)
    root = grow_tree(features, labels, np.ones(100), 1.0, True)
    leaf = route(root, features[0])
    assert leaf.is_leaf


def test_leaf_counts_matrix_rows_match_routes():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(60, 2))
    labels = (features[:, 1] > 0).astype(np.intp)
    root = grow_tree(features, labels, np.ones(60), 1.0, False)
    matrix = FlatTree(root).leaf_counts(features[:5])
    for i in range(5):
        np.testing.assert_allclose(matrix[i], route(root, features[i]).counts)


def test_make_leaf_collapses_subtree():
    node = TreeNode(counts=np.array([3.0, 7.0]))
    node.attribute = 0
    node.threshold = 1.0
    node.left = TreeNode(counts=np.array([3.0, 0.0]))
    node.right = TreeNode(counts=np.array([0.0, 7.0]))
    node.make_leaf()
    assert node.is_leaf
    assert node.majority == 1
    assert node.n_nodes() == 1


def test_node_statistics():
    root = TreeNode(counts=np.array([5.0, 5.0]))
    root.attribute = 0
    root.threshold = 0.0
    root.left = TreeNode(counts=np.array([5.0, 0.0]))
    root.right = TreeNode(counts=np.array([0.0, 5.0]))
    assert root.n_nodes() == 3
    assert root.n_leaves() == 2
    assert root.depth() == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2000))
def test_grown_tree_routes_all_training_rows(seed):
    """Property: every training row routes to a leaf whose counts are
    non-empty (the row contributed somewhere)."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(40, 2))
    labels = rng.integers(0, 2, 40).astype(np.intp)
    root = grow_tree(features, labels, np.ones(40), 2.0, True)
    for i in range(features.shape[0]):
        leaf = route(root, features[i])
        assert leaf.counts.sum() > 0
