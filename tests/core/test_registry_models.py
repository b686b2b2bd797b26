"""Models built by ``build_model``: every (classifier, ensemble) pair trains."""

import pytest

from repro.core.config import CLASSIFIER_NAMES, DetectorConfig, build_model
from repro.features.reduction import FeatureReducer

FAST_ENOUGH = [c for c in CLASSIFIER_NAMES if c != "MLP"]


@pytest.fixture(scope="module")
def reduced(small_split):
    reducer = FeatureReducer(n_features=2).fit(small_split.train)
    return reducer.transform(small_split.train), reducer.transform(small_split.test)


@pytest.mark.parametrize("classifier", FAST_ENOUGH)
@pytest.mark.parametrize("ensemble", ["general", "boosted", "bagging"])
def test_every_grid_cell_trains_and_predicts(classifier, ensemble, reduced):
    train, test = reduced
    config = DetectorConfig(classifier, ensemble, 2, n_estimators=3)
    model = build_model(config)
    model.fit(train.features, train.labels)
    predictions = model.predict(test.features)
    assert predictions.shape == (test.n_samples,)
    proba = model.predict_proba(test.features)
    assert proba.shape == (test.n_samples, 2)
    assert float(proba.min()) >= 0.0
    assert float(proba.max()) <= 1.0


def test_mlp_grid_cell_trains(reduced):
    train, test = reduced
    model = build_model(DetectorConfig("MLP", "general", 2))
    model.fit(train.features, train.labels)
    assert model.predict(test.features).shape == (test.n_samples,)
