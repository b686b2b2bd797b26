"""SGD: linear model trained by stochastic gradient descent (WEKA ``SGD``).

WEKA's ``SGD`` defaults to hinge loss (a linear SVM) with learning rate
0.01, L2 regularization 1e-4, 500 epochs, on normalized inputs.  The
paper's SGD rows are the weakest general detector (AUC 0.74 at 16 HPCs)
— an aggressively regularized linear boundary underfits the multimodal
malware distribution, which is exactly what makes it a good showcase for
boosting.

WEKA trains online (one weight update per instance); like the MLP, this
implementation uses mini-batches for speed: each batch computes every
row's margin against the weights *frozen at the batch start*, applies the
L2 decay once (``decay ** batch_len``, the compounding of the per-row
decays), and accumulates all row steps in a single rank-1 aggregation.
On the corpora this repo trains, ~90% of hinge rows violate the margin
every epoch, so per-row margin freshness changes little — the batch
approximation tracks the online trajectory closely while turning ~n
sequential scalar updates per epoch into ~n / batch_size BLAS calls.

Scores are calibrated into probabilities with a logistic link on the
margin, so ROC analysis gets a graded score rather than a hard label.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_features, check_training_set
from repro.ml.scaling import StandardScaler


def _margins(xb: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """Raw scores of a batch against frozen weights (shared BLAS matvec).

    The retired per-row loop in ``tests/oracles/ml.py`` calls this too,
    so gemv-vs-ddot rounding differences can never leak into the
    differential comparison.
    """
    return xb @ w + b


def _apply_update(w: np.ndarray, coef: np.ndarray, xb: np.ndarray) -> float:
    """Accumulate all row steps of a batch: ``w += coef @ xb``.

    Returns the bias increment ``sum(coef)``.  Shared with the retired
    loop for the same reason as :func:`_margins`.
    """
    w += coef @ xb
    return float(np.sum(coef))


class SGD(Classifier):
    """Hinge-loss linear classifier trained by mini-batch SGD.

    Args:
        learning_rate: step size (WEKA ``-L`` 0.01).
        reg_lambda: L2 penalty (WEKA ``-R`` 1e-4).
        epochs: passes over the shuffled data (WEKA ``-E`` 500).
        loss: ``"hinge"`` (default, SVM) or ``"logistic"``.
        batch_size: mini-batch size approximating WEKA's online updates.
        seed: shuffle seed.
    """

    supports_sample_weight = True

    def __init__(
        self,
        learning_rate: float = 0.01,
        reg_lambda: float = 1e-4,
        epochs: int = 500,
        loss: str = "hinge",
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")
        if epochs < 1:
            raise ValueError("epochs must be positive")
        if loss not in ("hinge", "logistic"):
            raise ValueError(f"unknown loss {loss!r}")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.learning_rate = learning_rate
        self.reg_lambda = reg_lambda
        self.epochs = epochs
        self.loss = loss
        self.batch_size = batch_size
        self.seed = seed
        self.params = {
            "learning_rate": learning_rate,
            "reg_lambda": reg_lambda,
            "epochs": epochs,
            "loss": loss,
            "batch_size": batch_size,
            "seed": seed,
        }
        self.scaler_: StandardScaler | None = None
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "SGD":
        features, labels, weights = check_training_set(features, labels, sample_weight)
        self.scaler_ = StandardScaler.fit(features)
        x = self.scaler_.transform(features)
        y = labels * 2.0 - 1.0  # {-1, +1}
        rng = np.random.default_rng(self.seed)
        rel_weight = weights / weights.mean()
        w, b = self._train(x, y, rel_weight, rng)
        self.weights_ = w
        self.bias_ = float(b)
        self.fitted_ = True
        return self

    def _train(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rel_weight: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float]:
        """Vectorized mini-batch loop.

        Row steps become one ``np.where`` (hinge) or one vectorized
        logistic gradient; ``np.exp`` evaluates element-wise identically
        on arrays and scalars, so the coefficients match the retired
        per-row loop in ``tests/oracles/ml.py`` bitwise.
        """
        n, d = x.shape
        w = np.zeros(d)
        b = 0.0
        lr = self.learning_rate
        bs = self.batch_size
        decay = 1.0 - lr * self.reg_lambda
        decay_full = decay**bs
        hinge = self.loss == "hinge"
        for _ in range(self.epochs):
            order = rng.permutation(n)
            xo, yo, ro = x[order], y[order], rel_weight[order]
            for start in range(0, n, bs):
                stop = start + bs
                xb, yb, rb = xo[start:stop], yo[start:stop], ro[start:stop]
                m = yb * _margins(xb, w, b)
                length = len(xb)
                w *= decay_full if length == bs else decay**length
                if hinge:
                    coef = np.where(m < 1.0, lr * rb * yb, 0.0)
                else:
                    grad = -yb / (1.0 + np.exp(m))
                    coef = -(lr * rb * grad)
                b += _apply_update(w, coef, xb)
        return w, b

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed margin; positive means malware."""
        self._require_fitted()
        features = check_features(features)
        assert self.scaler_ is not None and self.weights_ is not None
        return self.scaler_.transform(features) @ self.weights_ + self.bias_

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        margin = self.decision_function(features)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(margin, -35, 35)))
        return np.column_stack([1.0 - p1, p1])

    # -- serialization ---------------------------------------------------
    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        assert self.scaler_ is not None and self.weights_ is not None
        spec = {"params": dict(self.params), "bias": float(self.bias_)}
        return spec, {
            "scaler_mean": self.scaler_.mean,
            "scaler_scale": self.scaler_.scale,
            "weights": self.weights_,
        }

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict) -> "SGD":
        model = cls(**spec["params"])
        model.scaler_ = StandardScaler(
            mean=np.asarray(arrays["scaler_mean"]),
            scale=np.asarray(arrays["scaler_scale"]),
        )
        model.weights_ = np.asarray(arrays["weights"])
        model.bias_ = float(spec["bias"])
        model.fitted_ = True
        return model

    @property
    def n_weights(self) -> int:
        """Weight count incl. bias (hardware multiply-accumulate chain)."""
        self._require_fitted()
        assert self.weights_ is not None
        return self.weights_.size + 1
