"""MLP: multi-layer perceptron, as in WEKA's ``MultilayerPerceptron``.

One sigmoid hidden layer whose width defaults to WEKA's ``'a'`` heuristic
((#attributes + #classes) / 2), trained by full-batch backpropagation
with learning rate 0.3 and momentum 0.2 (WEKA defaults), on standardized
inputs, minimizing squared error against one-hot targets — the exact
configuration behind the paper's "MultiLperc." rows.  The paper's
hardware analysis singles the MLP out as the costliest detector; the
trained weight matrices exposed here are what the cost model prices.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_features, check_training_set
from repro.ml.scaling import StandardScaler


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid (masked two-branch reference form)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sigmoid_fast(x: np.ndarray) -> np.ndarray:
    """Branch-free sigmoid, bit-identical to :func:`_sigmoid`.

    ``exp(-|x|)`` evaluates the same ``exp`` argument as the matching
    branch of the reference (``-x`` for ``x >= 0``, ``x`` otherwise), and
    the shared denominator ``1 + exp(-|x|)`` with a numerator of ``1``
    (positive branch) or ``exp(-|x|)`` (negative branch) reproduces both
    branch formulas exactly — without the boolean-gather round trips,
    which dominate the per-batch cost at mini-batch sizes.
    """
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


class MLP(Classifier):
    """Single-hidden-layer perceptron with momentum backpropagation.

    WEKA trains online (one update per instance); for speed we use
    mini-batches, which approximates online updates while staying
    vectorized.

    Args:
        hidden_units: hidden layer width; ``None`` applies WEKA's ``'a'``
            rule, ``(n_features + 2) // 2``.
        learning_rate: backprop step size (WEKA ``-L`` 0.3).
        momentum: previous-update carry-over (WEKA ``-M`` 0.2).
        epochs: training epochs (WEKA ``-N`` 500).
        batch_size: mini-batch size approximating WEKA's online updates.
        seed: weight initialization seed.
    """

    supports_sample_weight = True

    def __init__(
        self,
        hidden_units: int | None = None,
        learning_rate: float = 0.3,
        momentum: float = 0.2,
        epochs: int = 200,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if hidden_units is not None and hidden_units < 1:
            raise ValueError("hidden_units must be positive")
        if not 0 < learning_rate:
            raise ValueError("learning_rate must be positive")
        if not 0 <= momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if epochs < 1:
            raise ValueError("epochs must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.hidden_units = hidden_units
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.params = {
            "hidden_units": hidden_units,
            "learning_rate": learning_rate,
            "momentum": momentum,
            "epochs": epochs,
            "batch_size": batch_size,
            "seed": seed,
        }
        self.scaler_: StandardScaler | None = None
        self.w_hidden_: np.ndarray | None = None  # (d, h)
        self.b_hidden_: np.ndarray | None = None  # (h,)
        self.w_out_: np.ndarray | None = None  # (h, 2)
        self.b_out_: np.ndarray | None = None  # (2,)

    def _resolve_hidden(self, n_features: int) -> int:
        if self.hidden_units is not None:
            return self.hidden_units
        return max((n_features + 2) // 2, 2)

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MLP":
        features, labels, weights = check_training_set(features, labels, sample_weight)
        self.scaler_ = StandardScaler.fit(features)
        x = self.scaler_.transform(features)
        n, d = x.shape
        h = self._resolve_hidden(d)
        rng = np.random.default_rng(self.seed)
        w1 = rng.uniform(-0.5, 0.5, size=(d, h))
        b1 = np.zeros(h)
        w2 = rng.uniform(-0.5, 0.5, size=(h, 2))
        b2 = np.zeros(2)
        targets = np.zeros((n, 2))
        targets[np.arange(n), labels] = 1.0
        rel_weight = (weights / weights.mean())[:, None]

        w1, b1, w2, b2 = self._train(x, targets, rel_weight, rng, w1, b1, w2, b2)
        self.w_hidden_, self.b_hidden_ = w1, b1
        self.w_out_, self.b_out_ = w2, b2
        self.fitted_ = True
        return self

    def _train(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        rel_weight: np.ndarray,
        rng: np.random.Generator,
        w1: np.ndarray,
        b1: np.ndarray,
        w2: np.ndarray,
        b2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Momentum backprop over shuffled mini-batches.

        Bit-identical to the retired loop in ``tests/oracles/ml.py`` — the
        rng draws, matmul shapes, and the arithmetic order of every
        momentum update are the same — but the whole epoch is gathered
        into permuted contiguous arrays once (mini-batches become views
        instead of three fancy-indexed copies each), the sigmoid is the
        branch-free :func:`_sigmoid_fast`, and momentum buffers update
        in place instead of rebinding fresh arrays per batch.
        """
        dw1 = np.zeros_like(w1)
        db1 = np.zeros_like(b1)
        dw2 = np.zeros_like(w2)
        db2 = np.zeros_like(b2)
        lr, mom = self.learning_rate, self.momentum
        n = x.shape[0]
        bs = self.batch_size
        for epoch in range(self.epochs):
            order = rng.permutation(n)
            xo = x[order]
            to = targets[order]
            wo = rel_weight[order]
            for start in range(0, n, bs):
                stop = start + bs
                xb, tb, wb = xo[start:stop], to[start:stop], wo[start:stop]
                hidden = _sigmoid_fast(xb @ w1 + b1)
                out = _sigmoid_fast(hidden @ w2 + b2)
                delta_out = (out - tb) * out * (1.0 - out) * wb / len(xb)
                delta_hidden = (delta_out @ w2.T) * hidden * (1.0 - hidden)
                # in-place form of `d = mom * d - (lr * a.T) @ g`:
                # identical values, no per-batch rebinding
                dw2 *= mom
                dw2 -= (lr * hidden.T) @ delta_out
                db2 *= mom
                db2 -= lr * delta_out.sum(axis=0)
                dw1 *= mom
                dw1 -= (lr * xb.T) @ delta_hidden
                db1 *= mom
                db1 -= lr * delta_hidden.sum(axis=0)
                w2 += dw2
                b2 += db2
                w1 += dw1
                b1 += db1
        return w1, b1, w2, b2

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        features = check_features(features)
        assert self.scaler_ is not None
        assert self.w_hidden_ is not None and self.w_out_ is not None
        assert self.b_hidden_ is not None and self.b_out_ is not None
        x = self.scaler_.transform(features)
        hidden = _sigmoid(x @ self.w_hidden_ + self.b_hidden_)
        out = _sigmoid(hidden @ self.w_out_ + self.b_out_)
        total = out.sum(axis=1, keepdims=True)
        return out / np.where(total > 0, total, 1.0)

    # -- serialization ---------------------------------------------------
    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        assert self.scaler_ is not None
        assert self.w_hidden_ is not None and self.w_out_ is not None
        assert self.b_hidden_ is not None and self.b_out_ is not None
        return {"params": dict(self.params)}, {
            "scaler_mean": self.scaler_.mean,
            "scaler_scale": self.scaler_.scale,
            "w_hidden": self.w_hidden_,
            "b_hidden": self.b_hidden_,
            "w_out": self.w_out_,
            "b_out": self.b_out_,
        }

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict) -> "MLP":
        model = cls(**spec["params"])
        model.scaler_ = StandardScaler(
            mean=np.asarray(arrays["scaler_mean"]),
            scale=np.asarray(arrays["scaler_scale"]),
        )
        model.w_hidden_ = np.asarray(arrays["w_hidden"])
        model.b_hidden_ = np.asarray(arrays["b_hidden"])
        model.w_out_ = np.asarray(arrays["w_out"])
        model.b_out_ = np.asarray(arrays["b_out"])
        model.fitted_ = True
        return model

    # -- structure, for the hardware model -------------------------------
    @property
    def layer_sizes(self) -> tuple[int, int, int]:
        """(inputs, hidden units, outputs) of the trained network."""
        self._require_fitted()
        assert self.w_hidden_ is not None and self.w_out_ is not None
        return (
            self.w_hidden_.shape[0],
            self.w_hidden_.shape[1],
            self.w_out_.shape[1],
        )
