"""The fused forest descent against the member-by-member path.

``AdaBoostM1`` and ``Bagging`` over flat-tree members (REPTree, J48)
classify through one :class:`~repro.ml.tree.FlatForest` descent.  The
reference is the member loop that the ensembles run for any other base:
``np.stack`` of each member's ``predict`` / ``predict_proba``, reduced
by the same vote or average.  Every batch must score byte-equal,
including empty and one-row batches, values exactly at split
thresholds, single-leaf members, members of unequal depth and
read-only memory-mapped members loaded from the registry.
"""

from __future__ import annotations

import copy
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.ml import J48, OneR, REPTree
from repro.ml.base import proba_from_counts
from repro.ml.ensemble import AdaBoostM1, Bagging
from repro.ml.tree import FlatForest
from repro.registry import ModelRegistry

ENSEMBLES = {"boosted": AdaBoostM1, "bagging": Bagging}
BASES = {"REPTree": REPTree, "J48": J48}
N_FEATURES = 4


def member_loop(model, features: np.ndarray) -> np.ndarray:
    """``predict_proba`` with every member descending on its own."""
    twin = copy.copy(model)
    twin.__dict__["_forest"] = None
    return twin.predict_proba(features)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(31)
    features = rng.normal(size=(400, N_FEATURES))
    signal = features[:, 0] + 0.7 * features[:, 1] * features[:, 2]
    labels = (signal + rng.normal(scale=0.6, size=400) > 0).astype(np.intp)
    return features, labels


def _mixed(kind: str, features: np.ndarray, labels: np.ndarray):
    """An ensemble whose members are a deep tree, single-leaf stumps and
    shallow trees of both flat-tree learners."""
    members = [
        REPTree(no_pruning=True, seed=3).fit(features, labels),
        REPTree(max_depth=0).fit(features, labels),
        J48().fit(features[:150], labels[:150]),
        REPTree(max_depth=2, seed=4).fit(features, labels),
        J48().fit(features, np.zeros(len(labels), dtype=np.intp)),
    ]
    model = ENSEMBLES[kind](REPTree())
    model.estimators_ = members
    if kind == "boosted":
        model.estimator_weights_ = [1.3, 0.4, 0.9, 0.7, 0.2]
    model.fitted_ = True
    return model


@pytest.fixture(scope="module")
def models(data):
    features, labels = data
    fitted = {
        (kind, base): ENSEMBLES[kind](
            BASES[base](), n_estimators=6, seed=5
        ).fit(features, labels)
        for kind in ENSEMBLES
        for base in BASES
    }
    for kind in ENSEMBLES:
        fitted[(kind, "mixed")] = _mixed(kind, features, labels)
    return fitted


MODEL_KEYS = [
    (kind, base) for kind in ENSEMBLES for base in (*BASES, "mixed")
]


def test_mixed_members_are_stumps_and_trees_of_unequal_depth(models):
    for kind in ENSEMBLES:
        depths = [m.depth for m in models[(kind, "mixed")].estimators_]
        assert depths.count(0) == 2
        assert len(set(depths)) >= 4


def _value_pool(model, features: np.ndarray) -> list[list[float]]:
    """Per column: every split threshold on it, its neighbouring floats
    and a few observed values."""
    pools = [list(features[:8, j]) for j in range(features.shape[1])]
    for member in model.estimators_:
        flat = member._flat
        for attribute, threshold in zip(flat.attribute, flat.threshold):
            if attribute >= 0:
                pools[attribute] += [
                    float(threshold),
                    float(np.nextafter(threshold, -np.inf)),
                    float(np.nextafter(threshold, np.inf)),
                ]
    return pools


@st.composite
def batch_shape(draw):
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 48))
    picks = draw(
        st.lists(
            st.lists(st.integers(0, 10_000), min_size=N_FEATURES, max_size=N_FEATURES),
            min_size=n,
            max_size=n,
        )
    )
    return n, picks


def _batch(pools, n, picks) -> np.ndarray:
    rows = [[pool[k % len(pool)] for pool, k in zip(pools, pick)] for pick in picks]
    return np.array(rows, dtype=float).reshape(n, len(pools))


@pytest.mark.parametrize("key", MODEL_KEYS, ids="-".join)
@settings(max_examples=40, deadline=None)
@given(shape=batch_shape())
@example(shape=(0, []))
@example(shape=(1, [[0, 1, 2, 3]]))
@example(shape=(2, [[0, 1, 2, 3], [8, 9, 10, 11]]))
def test_fused_scores_equal_the_member_loop(models, data, key, shape):
    model = models[key]
    pools = _value_pool(model, data[0])
    batch = _batch(pools, *shape)
    assert model.predict_proba(batch).tobytes() == member_loop(model, batch).tobytes()


@pytest.mark.parametrize("key", MODEL_KEYS, ids="-".join)
def test_fused_leaves_equal_each_members_descent(models, data, key):
    model = models[key]
    features = data[0]
    forest = FlatForest.of(model.estimators_, proba_from_counts)
    assert forest is not None
    want = np.stack(
        [m._flat.descend(features) for m in model.estimators_]
    ) + forest.roots[:, None]
    assert np.array_equal(forest.descend(features), want)
    assert forest.leaf_values(features).flags.c_contiguous


def test_the_loop_reference_is_the_stacked_member_predictions(models, data):
    """The twin path really is ``np.stack`` of the members' own calls."""
    features = data[0][:50]
    boosted = models[("boosted", "mixed")]
    stacked = np.stack([m.predict(features) for m in boosted.estimators_])
    alphas = np.asarray(boosted.estimator_weights_)[:, None]
    votes = np.stack(
        [(alphas * (stacked == 0)).sum(axis=0), (alphas * (stacked == 1)).sum(axis=0)],
        axis=1,
    )
    total = votes.sum(axis=1, keepdims=True)
    want = votes / np.where(total > 0, total, 1.0)
    assert boosted.predict_proba(features).tobytes() == want.tobytes()
    bagged = models[("bagging", "mixed")]
    stacked = np.stack([m.predict_proba(features) for m in bagged.estimators_])
    want = stacked.sum(axis=0) / len(bagged.estimators_)
    assert bagged.predict_proba(features).tobytes() == want.tobytes()


def test_other_bases_keep_the_member_loop(data):
    features, labels = data
    model = AdaBoostM1(OneR(), n_estimators=3).fit(features, labels)
    assert model._forest is None
    assert model.predict_proba(features).shape == (len(features), 2)


def test_refit_rebuilds_the_forest(data):
    features, labels = data
    model = Bagging(REPTree(), n_estimators=3, seed=1).fit(features, labels)
    model.predict_proba(features[:5])
    model.fit(features[:200], 1 - labels[:200])
    assert model.predict_proba(features).tobytes() == member_loop(model, features).tobytes()


# -- registry round trip: read-only memory-mapped members ---------------


@pytest.fixture(scope="module")
def registry_pairs(small_split, tmp_path_factory):
    """Fitted detectors, each with its id in one registry."""
    registry = ModelRegistry(tmp_path_factory.mktemp("forest-registry"))
    pairs = {}
    for kind in ENSEMBLES:
        for base in BASES:
            detector = HMDDetector(DetectorConfig(base, kind, 4, n_estimators=5))
            detector.fit(small_split.train)
            pairs[(kind, base)] = detector, registry.save_detector(detector).model_id
    windows = pairs[("boosted", "REPTree")][0].reducer.transform(small_split.test)
    return registry, pairs, windows.features


@pytest.mark.parametrize(
    "key", [(kind, base) for kind in ENSEMBLES for base in BASES], ids="-".join
)
@settings(max_examples=15, deadline=None)
@given(shape=batch_shape())
@example(shape=(0, []))
@example(shape=(1, [[5, 6, 7, 8]]))
def test_memory_mapped_members_score_like_the_fitted_loop(registry_pairs, key, shape):
    registry, pairs, windows = registry_pairs
    detector, model_id = pairs[key]
    loaded = registry.load_detector(model_id, mmap=True)
    flats = [m._flat for m in loaded.model.estimators_]
    assert all(isinstance(f.threshold, np.memmap) for f in flats)
    assert not flats[0].threshold.flags.writeable
    batch = _batch(_value_pool(loaded.model, windows), *shape)
    want = member_loop(detector.model, batch)
    assert loaded.model.predict_proba(batch).tobytes() == want.tobytes()
    assert detector.model.predict_proba(batch).tobytes() == want.tobytes()


def test_concurrent_grading_through_one_loaded_detector(registry_pairs):
    """Two threads grade through one freshly loaded detector, racing on
    the first-use forest build; both get the serial bytes."""
    registry, pairs, windows = registry_pairs
    detector, model_id = pairs[("boosted", "REPTree")]
    batches = [windows[i : i + 20] for i in range(0, len(windows), 20)]
    want = [detector.grade_windows(batch)[1].tobytes() for batch in batches] * 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            loaded = registry.load_detector(model_id, mmap=True)
            barrier = threading.Barrier(2)
            results: list[list[bytes]] = [[], []]

            def grade(slot: int) -> None:
                barrier.wait()
                for _ in range(5):
                    results[slot].extend(
                        loaded.grade_windows(batch)[1].tobytes() for batch in batches
                    )

            threads = [threading.Thread(target=grade, args=(s,)) for s in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [want, want]
    finally:
        sys.setswitchinterval(interval)
