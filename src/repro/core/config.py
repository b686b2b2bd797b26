"""Configuration of one hardware malware detector variant.

The paper's design space is the cross product
``{8 base classifiers} x {general, AdaBoost, Bagging} x {16, 8, 4, 2 HPCs}``.
A :class:`DetectorConfig` names one point of that space; :func:`build_model`
turns it into a trainable model, with every base learner's
hyper-parameters (WEKA defaults, per paper §3.3) in
:func:`build_base_classifier`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ml import (
    MLP,
    SGD,
    SMO,
    AdaBoostM1,
    Bagging,
    BayesNet,
    Classifier,
    J48,
    JRip,
    OneR,
    REPTree,
)

#: Ensemble modes studied by the paper.
GENERAL, BOOSTED, BAGGING = "general", "boosted", "bagging"
ENSEMBLE_MODES: tuple[str, ...] = (GENERAL, BOOSTED, BAGGING)

#: HPC budgets reported in Figures 3/5 and Tables 2/3.
HPC_BUDGETS: tuple[int, ...] = (16, 8, 4, 2)

#: WEKA names of the eight base classifiers, in the paper's order.
CLASSIFIER_NAMES: tuple[str, ...] = (
    "BayesNet",
    "J48",
    "JRip",
    "MLP",
    "OneR",
    "REPTree",
    "SGD",
    "SMO",
)


@dataclass(frozen=True)
class DetectorConfig:
    """One detector variant: classifier x ensemble mode x HPC budget.

    Attributes:
        classifier: WEKA name of the base learner.
        ensemble: ``"general"``, ``"boosted"`` or ``"bagging"``.
        n_hpcs: feature budget (number of counters read per window).
        n_estimators: ensemble size (ignored for ``"general"``).
        feature_method: ranking method of the reduction stage.
        seed: seed forwarded to stochastic learners and resamplers.
    """

    classifier: str
    ensemble: str = GENERAL
    n_hpcs: int = 4
    n_estimators: int = 10
    feature_method: str = "correlation"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIER_NAMES:
            raise ValueError(
                f"unknown classifier {self.classifier!r}; "
                f"choose from {CLASSIFIER_NAMES}"
            )
        if self.ensemble not in ENSEMBLE_MODES:
            raise ValueError(
                f"unknown ensemble mode {self.ensemble!r}; choose from {ENSEMBLE_MODES}"
            )
        if self.n_hpcs < 1:
            raise ValueError("n_hpcs must be positive")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be positive")

    @property
    def name(self) -> str:
        """Paper-style label, e.g. ``"4HPC-Boosted-JRip"``."""
        if self.ensemble == GENERAL:
            return f"{self.n_hpcs}HPC-{self.classifier}"
        suffix = "Boosted" if self.ensemble == BOOSTED else "Bagging"
        return f"{self.n_hpcs}HPC-{suffix}-{self.classifier}"

    def with_budget(self, n_hpcs: int) -> "DetectorConfig":
        """Same detector at a different HPC budget."""
        return DetectorConfig(
            classifier=self.classifier,
            ensemble=self.ensemble,
            n_hpcs=n_hpcs,
            n_estimators=self.n_estimators,
            feature_method=self.feature_method,
            seed=self.seed,
        )


def build_base_classifier(name: str, seed: int = 0) -> Classifier:
    """Instantiate a base learner with the framework's default settings."""
    factories = {
        "BayesNet": lambda: BayesNet(),
        "J48": lambda: J48(),
        "JRip": lambda: JRip(seed=seed + 1),
        "MLP": lambda: MLP(seed=seed),
        "OneR": lambda: OneR(),
        "REPTree": lambda: REPTree(seed=seed + 1),
        "SGD": lambda: SGD(epochs=120, seed=seed),
        "SMO": lambda: SMO(seed=seed),
    }
    if name not in factories:
        raise KeyError(f"unknown classifier {name!r}; choose from {sorted(factories)}")
    return factories[name]()


def build_model(config: DetectorConfig) -> Classifier:
    """Build the (possibly ensemble-wrapped) model for one config."""
    base = build_base_classifier(config.classifier, seed=config.seed)
    if config.ensemble == BOOSTED:
        return AdaBoostM1(base, n_estimators=config.n_estimators, seed=config.seed)
    if config.ensemble == BAGGING:
        return Bagging(base, n_estimators=config.n_estimators, seed=config.seed)
    return base
