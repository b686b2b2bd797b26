"""Compiled-artifact round trips: export → rebuild → byte-equal predictions.

The model registry (``repro.registry``) persists exactly what
``export_classifier`` emits, so these tests pin the contract it depends
on: every learner and ensemble round-trips through
``(spec, arrays) → classifier_from_artifact`` with **bit-identical**
``predict_proba`` output, the spec survives JSON, and the arrays survive
an ``.npz`` save/load.  A drifting bit here means a registry-loaded
detector silently disagrees with the detector that was saved.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.ioutil import dumps_json
from repro.ml import (
    MLP,
    SGD,
    SMO,
    AdaBoostM1,
    ArtifactError,
    BayesNet,
    J48,
    JRip,
    OneR,
    REPTree,
    VotingEnsemble,
    Bagging,
    classifier_from_artifact,
    export_classifier,
)
from repro.ml.base import Classifier

from ..conftest import train_test

LEARNERS = [
    pytest.param(lambda: BayesNet(), id="BayesNet"),
    pytest.param(lambda: J48(), id="J48"),
    pytest.param(lambda: JRip(), id="JRip"),
    pytest.param(lambda: MLP(hidden_units=4, epochs=40), id="MLP"),
    pytest.param(lambda: OneR(), id="OneR"),
    pytest.param(lambda: REPTree(), id="REPTree"),
    pytest.param(lambda: SGD(epochs=20), id="SGD"),
    pytest.param(lambda: SMO(), id="SMO"),
]

ENSEMBLES = [
    pytest.param(lambda: AdaBoostM1(J48(), n_estimators=3), id="AdaBoost-J48"),
    pytest.param(lambda: AdaBoostM1(SMO(), n_estimators=2), id="AdaBoost-SMO"),
    pytest.param(
        lambda: Bagging(REPTree(), n_estimators=3, bag_fraction=0.8, seed=3),
        id="Bagging-REPTree",
    ),
    pytest.param(
        lambda: VotingEnsemble(
            [OneR(), REPTree(), SGD(epochs=15)],
            voting="soft",
            holdout_fraction=0.2,
            seed=5,
        ),
        id="Voting-mixed",
    ),
]


def round_trip(model: Classifier) -> Classifier:
    """Serialize through the exact media the registry uses: JSON + npz."""
    spec, arrays = export_classifier(model)
    spec = json.loads(dumps_json(spec))
    buffer = io.BytesIO()
    np.savez(buffer, **{k: np.ascontiguousarray(v) for k, v in arrays.items()})
    buffer.seek(0)
    loaded = np.load(buffer)
    arrays = {k: loaded[k] for k in loaded.files}
    return classifier_from_artifact(spec, arrays)


@pytest.mark.parametrize("make", LEARNERS + ENSEMBLES)
def test_round_trip_is_bit_identical(make, blobs):
    features, labels = blobs
    train_x, train_y, test_x, _ = train_test(features, labels)
    model = make().fit(train_x, train_y)
    rebuilt = round_trip(model)
    original = model.predict_proba(test_x)
    recovered = rebuilt.predict_proba(test_x)
    assert original.tobytes() == recovered.tobytes()
    assert np.array_equal(model.predict(test_x), rebuilt.predict(test_x))


@pytest.mark.parametrize("make", LEARNERS)
def test_round_trip_on_hpc_windows(make, small_split):
    """Same contract on the real corpus feature distribution."""
    train = small_split.train
    test = small_split.test
    model = make().fit(train.features[:, :3], train.labels)
    rebuilt = round_trip(model)
    probe = test.features[:, :3]
    assert (
        model.predict_proba(probe).tobytes()
        == rebuilt.predict_proba(probe).tobytes()
    )


def test_unfitted_export_raises(blobs):
    with pytest.raises(Exception):
        export_classifier(J48())


def test_unknown_kind_raises(blobs):
    features, labels = blobs
    model = OneR().fit(features, labels)
    spec, arrays = export_classifier(model)
    spec["kind"] = "NoSuchLearner"
    with pytest.raises(ArtifactError):
        classifier_from_artifact(spec, arrays)


def test_missing_array_raises(blobs):
    features, labels = blobs
    model = REPTree().fit(features, labels)
    spec, arrays = export_classifier(model)
    del arrays["tree_threshold"]
    with pytest.raises(ArtifactError):
        classifier_from_artifact(spec, arrays)


def test_truncated_member_stack_raises(blobs):
    """An ensemble stack shorter than its layout claims is corruption."""
    features, labels = blobs
    model = Bagging(REPTree(), n_estimators=3, seed=1).fit(features, labels)
    spec, arrays = export_classifier(model)
    key = next(k for k in arrays if k.startswith("member_"))
    arrays[key] = arrays[key][:-1]
    with pytest.raises(ArtifactError):
        classifier_from_artifact(spec, arrays)


def test_spec_is_pure_json(blobs):
    """Specs must hold only JSON-native types — no numpy leakage."""
    features, labels = blobs
    for make in (lambda: JRip(), lambda: AdaBoostM1(OneR(), n_estimators=2)):
        model = make().fit(features, labels)
        spec, _ = export_classifier(model)
        text = dumps_json(spec)

        def check(node):
            if isinstance(node, dict):
                for v in node.values():
                    check(v)
            elif isinstance(node, list):
                for v in node:
                    check(v)
            else:
                assert node is None or isinstance(node, (str, int, float, bool))

        check(json.loads(text))
