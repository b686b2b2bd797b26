"""Detector configuration and the classifier zoo it builds."""

import pytest

from repro.core.config import (
    CLASSIFIER_NAMES,
    DetectorConfig,
    build_base_classifier,
    build_model,
)
from repro.ml import AdaBoostM1, Bagging
from repro.ml.reptree import REPTree


def test_all_eight_classifiers_listed():
    assert len(CLASSIFIER_NAMES) == 8


def test_config_rejects_unknown_classifier():
    with pytest.raises(ValueError):
        DetectorConfig("RandomForest")


def test_config_rejects_unknown_ensemble():
    with pytest.raises(ValueError):
        DetectorConfig("J48", ensemble="stacking")


def test_config_rejects_zero_hpcs():
    with pytest.raises(ValueError):
        DetectorConfig("J48", n_hpcs=0)


def test_config_rejects_zero_estimators():
    with pytest.raises(ValueError):
        DetectorConfig("J48", n_estimators=0)


def test_config_name_general():
    assert DetectorConfig("J48", "general", 8).name == "8HPC-J48"


def test_config_name_boosted():
    assert DetectorConfig("SMO", "boosted", 2).name == "2HPC-Boosted-SMO"


def test_config_name_bagging():
    assert DetectorConfig("JRip", "bagging", 4).name == "4HPC-Bagging-JRip"


def test_with_budget_preserves_other_fields():
    config = DetectorConfig("MLP", "boosted", 16, n_estimators=5, seed=3)
    other = config.with_budget(2)
    assert other.n_hpcs == 2
    assert other.classifier == "MLP"
    assert other.ensemble == "boosted"
    assert other.n_estimators == 5
    assert other.seed == 3


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_registry_builds_every_base_classifier(name):
    model = build_base_classifier(name)
    assert not model.fitted_


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        build_base_classifier("KNN")


def test_build_model_general():
    model = build_model(DetectorConfig("REPTree", "general", 4))
    assert isinstance(model, REPTree)


def test_build_model_boosted():
    model = build_model(DetectorConfig("REPTree", "boosted", 4, n_estimators=7))
    assert isinstance(model, AdaBoostM1)
    assert model.n_estimators == 7
    assert isinstance(model.base, REPTree)


def test_build_model_bagging():
    model = build_model(DetectorConfig("REPTree", "bagging", 4))
    assert isinstance(model, Bagging)
    assert isinstance(model.base, REPTree)
