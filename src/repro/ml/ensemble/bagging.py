"""Bagging (Breiman, 1996), as in WEKA's ``Bagging``.

Each round trains a fresh clone of the base classifier on a bootstrap
resample (100% of the training size, drawn with replacement) and the
ensemble averages the members' class probabilities.  The paper notes
bagging "is best used with models with low bias and high variance" —
its strongest rows (BayesNet, JRip at 4 HPCs, Table 2) are exactly the
variance-reduction cases.

Out-of-bag accuracy is tracked per member, giving a free generalization
estimate (WEKA ``-O``).
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


class Bagging(Classifier):
    """Bootstrap-aggregated ensemble of one base classifier.

    Args:
        base: prototype classifier; each round trains a fresh clone.
        n_estimators: ensemble size (WEKA ``-I`` 10).
        bag_fraction: bootstrap size as a fraction of the training set
            (WEKA ``-P`` 100%).
        seed: bootstrap seed.
    """

    supports_sample_weight = False

    def __init__(
        self,
        base: Classifier,
        n_estimators: int = 10,
        bag_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        if not 0 < bag_fraction <= 1.0:
            raise ValueError("bag_fraction must be in (0, 1]")
        self.base = base
        self.n_estimators = n_estimators
        self.bag_fraction = bag_fraction
        self.seed = seed
        self.params = {
            "base": base,
            "n_estimators": n_estimators,
            "bag_fraction": bag_fraction,
            "seed": seed,
        }
        self.estimators_: list[Classifier] = []
        self.oob_accuracy_: float | None = None

    def clone(self) -> "Bagging":
        return Bagging(
            base=self.base.clone(),
            n_estimators=self.n_estimators,
            bag_fraction=self.bag_fraction,
            seed=self.seed,
        )

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "Bagging":
        features, labels, weights = check_training_set(features, labels, sample_weight)
        n = len(labels)
        bag_size = max(int(round(self.bag_fraction * n)), 2)
        rng = np.random.default_rng(self.seed)
        dist = weights / weights.sum()
        self.__dict__.pop("_forest", None)  # fused from the old members

        self.estimators_ = []
        oob_votes = np.zeros((n, 2))
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=bag_size, replace=True, p=dist)
            for _retry in range(4):
                if len(np.unique(labels[idx])) == 2:
                    break
                idx = rng.choice(n, size=bag_size, replace=True, p=dist)
            model = self.base.clone()
            model.fit(features[idx], labels[idx])
            self.estimators_.append(model)
            out_of_bag = np.setdiff1d(np.arange(n), idx, assume_unique=False)
            if out_of_bag.size:
                proba = model.predict_proba(features[out_of_bag])
                oob_votes[out_of_bag] += proba
        voted = oob_votes.sum(axis=1) > 0
        if voted.any():
            oob_pred = np.argmax(oob_votes[voted], axis=1)
            self.oob_accuracy_ = float(np.mean(oob_pred == labels[voted]))
        self.fitted_ = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        features = check_features(features)
        # stack the members' batch probabilities (one fused descent of
        # flat-tree members) and average along the member axis
        # (outer-axis reduction is sequential in member order,
        # bit-identical to the old accumulation loop)
        forest = self._forest
        if forest is not None:
            stacked = forest.leaf_values(features)
        else:
            stacked = np.stack([m.predict_proba(features) for m in self.estimators_])
        return stacked.sum(axis=0) / len(self.estimators_)

    @cached_property
    def _forest(self) -> FlatForest | None:
        """The members fused for inference (None unless every member is
        a flat tree), built on first use.  Threads racing on the first
        use at worst each build an equal forest, and either is kept."""
        return FlatForest.of(self.estimators_, proba_from_counts)

    # -- serialization ---------------------------------------------------
    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        members, arrays = pack_members(self.estimators_)
        spec = {
            "params": {
                "n_estimators": self.n_estimators,
                "bag_fraction": self.bag_fraction,
                "seed": self.seed,
            },
            "base": unfitted_spec(self.base),
            "oob_accuracy": self.oob_accuracy_,
            "members": members,
        }
        return spec, arrays

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict) -> "Bagging":
        model = cls(base=build_unfitted(spec["base"]), **spec["params"])
        model.estimators_ = unpack_members(spec["members"], arrays)
        oob = spec["oob_accuracy"]
        model.oob_accuracy_ = float(oob) if oob is not None else None
        model.fitted_ = True
        return model

    @property
    def n_models(self) -> int:
        self._require_fitted()
        return len(self.estimators_)
