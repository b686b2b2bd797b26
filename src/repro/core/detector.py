"""The hardware malware detector: feature reduction + classifier pipeline.

:class:`HMDDetector` is the paper's Figure 2 pipeline as one object:
fitted on a training corpus over the full 44-event space, it ranks events
(correlation attribute evaluation), keeps the top ``n_hpcs``, trains the
configured (general or ensemble) classifier on the reduced features, and
then classifies windows — either offline matrices or, via
:mod:`repro.core.runtime`, a live stream read from the counter registers.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DetectorConfig, build_model
from repro.features.reduction import FeatureReducer
from repro.ml.base import Classifier
from repro.ml.metrics import DetectorScores, evaluate_detector
from repro.workloads.dataset import Dataset


class HMDDetector:
    """End-to-end hardware-based malware detector.

    Args:
        config: which classifier/ensemble/HPC-budget variant to build.

    Attributes:
        reducer: fitted feature-reduction stage (after :meth:`fit`).
        model: fitted classifier (after :meth:`fit`).
    """

    def __init__(self, config: DetectorConfig) -> None:
        self.config = config
        self.reducer = FeatureReducer(
            n_features=config.n_hpcs, method=config.feature_method
        )
        self.model: Classifier = build_model(config)
        self.fitted_ = False

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def monitored_events(self) -> tuple[str, ...]:
        """The HPC events this detector reads every window."""
        if not self.fitted_:
            raise RuntimeError("detector is not fitted")
        return self.reducer.selected

    def fit(self, train: Dataset, ranking_dataset: Dataset | None = None) -> "HMDDetector":
        """Train the full pipeline on a (44-event or wider) corpus.

        Args:
            train: training samples; must contain at least ``n_hpcs`` events.
            ranking_dataset: optional dataset to rank features on instead
                of ``train`` (the evaluation matrix shares one ranking
                across all detectors, as the paper's Table 1 does).
        """
        self.reducer.fit(ranking_dataset if ranking_dataset is not None else train)
        reduced = self.reducer.transform(train)
        self.model.fit(reduced.features, reduced.labels)
        self.fitted_ = True
        return self

    def _reduce(self, dataset: Dataset) -> Dataset:
        if not self.fitted_:
            raise RuntimeError("detector is not fitted")
        return self.reducer.transform(dataset)

    def predict(self, dataset: Dataset) -> np.ndarray:
        """Hard window classifications (0 benign / 1 malware)."""
        return self.model.predict(self._reduce(dataset).features)

    def decision_scores(self, dataset: Dataset) -> np.ndarray:
        """Graded malware scores for ROC analysis."""
        return self.model.decision_scores(self._reduce(dataset).features)

    def _window_proba(self, windows: np.ndarray) -> np.ndarray:
        """Malware-class probabilities of raw windows on monitored_events.

        Each row scores exactly as it would in any other batch, so a
        caller may stack several executions into one call and split the
        result.  A lone row is scored as the first row of a two-row
        batch: some kernels reduce a one-row batch in another order
        (numpy's pairwise sum over a length-1 axis in AdaBoost's vote,
        BLAS matrix-vector instead of matrix-matrix products in MLP and
        SGD), which changes the last bits of its score.  An empty batch
        scores to an empty array (some learners reject empty input).
        """
        if not self.fitted_:
            raise RuntimeError("detector is not fitted")
        windows = np.asarray(windows, dtype=float)
        if windows.ndim == 1:
            windows = windows[None, :]
        if windows.shape[1] != self.config.n_hpcs:
            raise ValueError(
                f"expected {self.config.n_hpcs} event columns, got {windows.shape[1]}"
            )
        if windows.shape[0] == 0:
            return np.zeros(0)
        if windows.shape[0] == 1:
            return self.model.predict_proba(np.repeat(windows, 2, axis=0))[:1, 1]
        return self.model.predict_proba(windows)[:, 1]

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        """Classify raw windows already projected onto monitored_events.

        0/1 flags at the 0.5 probability threshold, the classifiers'
        ``predict`` rule; every row classifies the same whatever it is
        batched with.
        """
        return (self._window_proba(windows) >= 0.5).astype(np.intp)

    def decision_scores_windows(self, windows: np.ndarray) -> np.ndarray:
        """Graded malware scores for raw windows on monitored_events.

        Same input contract as :meth:`predict_windows`; an empty batch
        scores to an empty array.
        """
        return self._window_proba(windows)

    def grade_windows(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flags and graded scores from a single probability pass.

        Every classifier derives both ``predict`` (0.5-threshold) and
        ``decision_scores`` (malware-class probability) from one
        ``predict_proba`` call (:class:`repro.ml.base.Classifier`), so
        computing both from the same batch pass yields flags and scores
        bit-identical to :meth:`predict_windows` and
        :meth:`decision_scores_windows` at half the inference cost —
        this is what lets the quality tracker grade executions without
        doubling the verdict path's classification work.  Rows grade
        independently of their batch, for any batch size.
        """
        scores = self._window_proba(windows)
        return (scores >= 0.5).astype(np.intp), scores

    def evaluate(self, test: Dataset) -> DetectorScores:
        """Accuracy/AUC/ACC×AUC on unknown applications (paper §4)."""
        reduced = self._reduce(test)
        predictions = self.model.predict(reduced.features)
        scores = self.model.decision_scores(reduced.features)
        return evaluate_detector(reduced.labels, predictions, scores)
