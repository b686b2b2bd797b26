"""AdaBoost.M1 (Freund & Schapire, 1997), as in WEKA's ``AdaBoostM1``.

The paper's "Boosted" detectors wrap AdaBoost around every one of the
eight base classifiers.  Like WEKA, base learners that honour instance
weights are trained on the reweighted set directly; learners that do not
(SMO, JRip) are trained on a weight-proportional bootstrap resample.
Training stops early when a round's weighted error hits zero (perfect —
keep the model, stop) or reaches 1/2 (no better than chance — drop the
round), matching WEKA's behaviour.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.ml.base import (
    Classifier,
    build_unfitted,
    check_features,
    check_training_set,
    pack_members,
    proba_from_counts,
    unfitted_spec,
    unpack_members,
)
from repro.ml.tree import FlatForest

_EPS = 1e-10


def _member_class(counts: np.ndarray) -> np.ndarray:
    """A flat-tree member's ``predict`` at each node: its leaf class."""
    return (proba_from_counts(counts)[:, 1] >= 0.5).astype(np.intp)


class AdaBoostM1(Classifier):
    """AdaBoost.M1 over an arbitrary base classifier.

    Args:
        base: prototype classifier; each round trains a fresh clone.
        n_estimators: boosting rounds (WEKA ``-I`` 10).
        use_resampling: force resampling even for weight-aware learners
            (WEKA ``-Q``); learners without weight support always resample.
        seed: resampling seed.
    """

    supports_sample_weight = False

    def __init__(
        self,
        base: Classifier,
        n_estimators: int = 10,
        use_resampling: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        self.base = base
        self.n_estimators = n_estimators
        self.use_resampling = use_resampling
        self.seed = seed
        self.params = {
            "base": base,
            "n_estimators": n_estimators,
            "use_resampling": use_resampling,
            "seed": seed,
        }
        self.estimators_: list[Classifier] = []
        self.estimator_weights_: list[float] = []

    def clone(self) -> "AdaBoostM1":
        return AdaBoostM1(
            base=self.base.clone(),
            n_estimators=self.n_estimators,
            use_resampling=self.use_resampling,
            seed=self.seed,
        )

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "AdaBoostM1":
        features, labels, weights = check_training_set(features, labels, sample_weight)
        n = len(labels)
        dist = weights / weights.sum()
        rng = np.random.default_rng(self.seed)
        resample = self.use_resampling or not self.base.supports_sample_weight
        self.__dict__.pop("_forest", None)  # fused from the old members

        self.estimators_ = []
        self.estimator_weights_ = []
        for _ in range(self.n_estimators):
            model = self.base.clone()
            if resample:
                idx = rng.choice(n, size=n, replace=True, p=dist)
                # a resample can be single-class; redraw a few times
                for _retry in range(4):
                    if len(np.unique(labels[idx])) == 2:
                        break
                    idx = rng.choice(n, size=n, replace=True, p=dist)
                model.fit(features[idx], labels[idx])
            else:
                model.fit(features, labels, sample_weight=dist * n)
            predictions = model.predict(features)
            error = float(dist[predictions != labels].sum())
            if error >= 0.5:
                if not self.estimators_:
                    # degenerate data: keep one model anyway
                    self.estimators_.append(model)
                    self.estimator_weights_.append(1.0)
                break
            if error < _EPS:
                self.estimators_.append(model)
                self.estimator_weights_.append(np.log(1.0 / _EPS))
                break
            beta = error / (1.0 - error)
            self.estimators_.append(model)
            self.estimator_weights_.append(float(np.log(1.0 / beta)))
            dist = dist * np.where(predictions == labels, beta, 1.0)
            dist = dist / dist.sum()
        self.fitted_ = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        features = check_features(features)
        if not self.estimators_:
            return np.zeros((features.shape[0], 2))
        # the stacked (n_members, n) prediction matrix, from one fused
        # descent of flat-tree members or from each member's batch
        # kernel, is reduced to weighted votes in one pass (outer-axis
        # reduction is sequential in member order, bit-identical to the
        # old loop)
        forest = self._forest
        if forest is not None:
            stacked = forest.leaf_values(features)
        else:
            stacked = np.stack([m.predict(features) for m in self.estimators_])
        alphas = np.asarray(self.estimator_weights_)[:, None]
        votes = np.stack(
            [
                (alphas * (stacked == 0)).sum(axis=0),
                (alphas * (stacked == 1)).sum(axis=0),
            ],
            axis=1,
        )
        total = votes.sum(axis=1, keepdims=True)
        return votes / np.where(total > 0, total, 1.0)

    @cached_property
    def _forest(self) -> FlatForest | None:
        """The members fused for inference (None unless every member is
        a flat tree), built on first use.  Threads racing on the first
        use at worst each build an equal forest, and either is kept."""
        return FlatForest.of(self.estimators_, _member_class)

    # -- serialization ---------------------------------------------------
    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        members, arrays = pack_members(self.estimators_)
        spec = {
            "params": {
                "n_estimators": self.n_estimators,
                "use_resampling": self.use_resampling,
                "seed": self.seed,
            },
            "base": unfitted_spec(self.base),
            "weights": [float(w) for w in self.estimator_weights_],
            "members": members,
        }
        return spec, arrays

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict) -> "AdaBoostM1":
        model = cls(base=build_unfitted(spec["base"]), **spec["params"])
        model.estimators_ = unpack_members(spec["members"], arrays)
        model.estimator_weights_ = [float(w) for w in spec["weights"]]
        model.fitted_ = True
        return model

    @property
    def n_models(self) -> int:
        """Number of base models actually kept (early stop can shrink it)."""
        self._require_fitted()
        return len(self.estimators_)
