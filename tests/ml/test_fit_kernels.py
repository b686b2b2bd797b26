"""Differential tests: vectorized fit paths vs scalar references.

``test_inference_kernels.py`` pins the *inference* kernels to their
scalar references; this file does the same for *training*.  Every
learner with a retired fit path in :mod:`tests.oracles.ml` is fitted
twice on the same data — once through the shipped vectorized path, once
inside :func:`~tests.oracles.ml.retired_ml` — and the fitted parameters
AND the predictions must be *bit identical* (``np.array_equal``, never
closeness).  The same harness runs each learner
under AdaBoost.M1 and Bagging so ensemble resampling, reweighting, and
member cloning cannot hide a divergence, plus hypothesis-driven random
corpora with deliberately awkward shapes: constant feature columns,
duplicated rows, single-row sets, and single-class labels.

A golden-digest regression layer pins the SHA-256 of every fitted model
on a fixed seeded corpus (see ``golden_fit_digests.json``), so a change
that alters *both* paths in lockstep — invisible to the differential
comparison — still trips a test.  Regenerate after an intentional
protocol change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/ml/test_fit_kernels.py

Digests cover float arithmetic bit-for-bit, so they are specific to the
BLAS/libm build; CI and the regeneration run must share an environment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    MLP,
    SGD,
    SMO,
    AdaBoostM1,
    Bagging,
    BayesNet,
    J48,
    JRip,
    OneR,
    REPTree,
)
from tests.oracles.ml import retired_ml

GOLDEN_PATH = Path(__file__).parent / "golden_fit_digests.json"

#: Cheap configurations of every dual-path learner (plus BayesNet, whose
#: discretizer routes through the dual-path MDL cut search).  Epochs and
#: round caps are lowered so the whole matrix stays fast; the protocol
#: under test is identical at any setting.
LEARNERS = {
    "BayesNet": lambda: BayesNet(),
    "J48": lambda: J48(),
    "JRip": lambda: JRip(),
    "MLP": lambda: MLP(epochs=15, seed=5),
    "OneR": lambda: OneR(),
    "REPTree": lambda: REPTree(),
    "SGD": lambda: SGD(epochs=25, seed=5),
    "SMO": lambda: SMO(max_rounds=5),
}

MODES = {
    "general": lambda make: make(),
    "boosted": lambda make: AdaBoostM1(make(), n_estimators=3, seed=1),
    "bagging": lambda make: Bagging(make(), n_estimators=3, seed=1),
}


def _update_digest(h, value) -> None:
    """Feed one fitted-model component into a hash, canonically."""
    if isinstance(value, np.ndarray):
        h.update(f"ndarray:{value.dtype}:{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(f"seq:{len(value)}".encode())
        for item in value:
            _update_digest(h, item)
    elif isinstance(value, dict):
        h.update(f"dict:{len(value)}".encode())
        for key in sorted(value):
            h.update(repr(key).encode())
            _update_digest(h, value[key])
    elif isinstance(value, (bool, np.bool_)):
        h.update(repr(bool(value)).encode())
    elif isinstance(value, (float, np.floating)):
        # canonical bit pattern: float and np.float64 repr differently
        h.update(np.float64(value).tobytes())
    elif isinstance(value, (int, np.integer)):
        h.update(repr(int(value)).encode())
    elif isinstance(value, (str, bytes)) or value is None:
        h.update(repr(value).encode())
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _update_digest(h, getattr(value, f.name))
    elif hasattr(value, "__dict__") or hasattr(value, "__slots__"):
        h.update(type(value).__name__.encode())
        state = getattr(value, "__dict__", None) or {
            slot: getattr(value, slot)
            for slot in value.__slots__
            if hasattr(value, slot)
        }
        for key in sorted(state):
            h.update(key.encode())
            _update_digest(h, state[key])
    else:  # pragma: no cover - no fitted attribute should land here
        raise TypeError(f"cannot fingerprint {type(value)!r}")


def fingerprint(model) -> str:
    """SHA-256 over every fitted attribute of a trained model.

    Walks ``vars(model)`` (which covers nested ensembles, tree nodes,
    rule lists, and scalers recursively), so two models fingerprint
    equal iff every learned parameter is bit-identical.
    """
    h = hashlib.sha256()
    _update_digest(h, vars(model))
    return h.hexdigest()


def _corpus(seed: int, n: int = 90, d: int = 5):
    """Two overlapping Gaussian classes with a constant and a duplicated
    column, weighted — the shapes fit paths historically get wrong."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(np.intp)
    features = rng.normal(size=(n, d)) + labels[:, None] * 0.8
    features[:, -1] = 3.25  # constant column: no valid split/cut/bucket
    if d >= 3:
        features[:, -2] = features[:, 0]  # duplicated column: split ties
    weights = rng.uniform(0.25, 2.0, size=n)
    queries = np.vstack([features, rng.normal(size=(33, d))])
    return features, labels, weights, queries


def fit_both(build, features, labels, sample_weight=None):
    """Fit through both paths; return ``(fast, scalar)`` models."""
    fast = build()
    fast.fit(features, labels, sample_weight=sample_weight)
    with retired_ml():
        ref = build()
        ref.fit(features, labels, sample_weight=sample_weight)
    return fast, ref


def assert_identical(fast, ref, queries) -> None:
    assert fingerprint(fast) == fingerprint(ref)
    assert np.array_equal(fast.predict_proba(queries), ref.predict_proba(queries))
    assert np.array_equal(fast.predict(queries), ref.predict(queries))


def test_retired_ml_swaps_every_fit_path_and_restores_it():
    from repro.ml import discretize, jrip, tree
    from tests.oracles import ml as oracle

    def paths():
        return (
            discretize._best_cut, tree.find_split, jrip._prefix_coverage,
            vars(OneR)["_sweep"], vars(MLP)["_train"], vars(SGD)["_train"],
            vars(SMO)["_fit_linear"], vars(REPTree)["_accumulate_prune_counts"],
        )

    shipped = paths()
    with retired_ml():
        retired = paths()
        assert retired[:7] == (
            oracle.best_cut_scalar, oracle.find_split_scalar,
            oracle.jrip_prefix_coverage_scalar, oracle.oner_sweep_scalar,
            oracle.mlp_train_scalar, oracle.sgd_train_scalar,
            oracle.smo_fit_linear_scalar,
        )
        assert retired[7].__func__ is oracle.accumulate_prune_counts_scalar
    assert paths() == shipped


# ------------------------------------------------- learner x mode matrix
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("learner", LEARNERS)
def test_fit_matches_scalar_reference(learner, mode):
    features, labels, weights, queries = _corpus(seed=2018)
    build = lambda: MODES[mode](LEARNERS[learner])
    sample_weight = weights if build().supports_sample_weight else None
    fast, ref = fit_both(build, features, labels, sample_weight)
    assert_identical(fast, ref, queries)


# ------------------------------------------------------- property tests
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 60), d=st.integers(1, 6))
@pytest.mark.parametrize("learner", LEARNERS)
def test_fit_matches_on_random_corpora(learner, seed, n, d):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)).round(1)  # coarse grid: many ties
    labels = (rng.random(n) < 0.5).astype(np.intp)
    if seed % 3 == 0:
        features[:, 0] = -1.5  # constant attribute
    fast, ref = fit_both(LEARNERS[learner], features, labels)
    assert_identical(fast, ref, rng.normal(size=(16, d)))


@pytest.mark.parametrize("learner", LEARNERS)
def test_fit_matches_on_single_row(learner):
    """Regression: SMO's partner draw used to crash on one-row sets
    (``rng.integers(0)`` raises); a pair step needs two rows."""
    features = np.array([[0.5, -1.0, 2.0]])
    labels = np.array([1], dtype=np.intp)
    fast, ref = fit_both(LEARNERS[learner], features, labels)
    assert_identical(fast, ref, np.array([[0.5, -1.0, 2.0], [9.0, 9.0, 9.0]]))


@pytest.mark.parametrize("learner", LEARNERS)
def test_fit_matches_when_one_class_is_absent(learner):
    rng = np.random.default_rng(11)
    features = rng.normal(size=(25, 4))
    labels = np.zeros(25, dtype=np.intp)  # single-class training set
    fast, ref = fit_both(LEARNERS[learner], features, labels)
    assert_identical(fast, ref, rng.normal(size=(10, 4)))


# -------------------------------------------------------- golden digests
def test_golden_fit_digests():
    """Pin the exact fitted parameters of every learner x mode cell.

    The differential tests above cannot see a change that alters the
    vectorized and scalar paths in lockstep; this regression layer can.
    On an intentional protocol change, regenerate with
    ``REPRO_REGEN_GOLDEN=1`` and review the diff of the JSON.
    """
    features, labels, weights, _ = _corpus(seed=2018)
    digests = {}
    for mode, wrap in MODES.items():
        for learner, make in LEARNERS.items():
            model = wrap(make)
            sw = weights if model.supports_sample_weight else None
            model.fit(features, labels, sample_weight=sw)
            digests[f"{learner}/{mode}"] = fingerprint(model)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digests == golden
