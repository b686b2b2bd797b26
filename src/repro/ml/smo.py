"""SMO: support vector machine via Sequential Minimal Optimization.

Mirrors WEKA's ``SMO``: linear (degree-1 polynomial) kernel, C = 1,
standardized inputs, trained with Platt's pairwise working-set updates.
One WEKA default matters enormously for the paper's numbers: SMO does
*not* fit logistic models by default, so its "probabilities" are hard
0/1 votes.  A hard-voting detector produces a one-point ROC curve whose
AUC is (TPR + TNR) / 2 — which is why the paper's general SMO shows AUC
0.65 while its accuracy is unremarkable-but-fine, and why AdaBoost
(whose weighted vote over ten SMOs *is* graded) lifts SMO's AUC to ~0.9.
Set ``build_logistic_model=True`` for Platt-calibrated scores.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_features, check_training_set
from repro.ml.scaling import StandardScaler


class SMO(Classifier):
    """SVM trained with simplified SMO (Platt, 1998).

    Args:
        c: soft-margin penalty (WEKA ``-C`` 1.0).
        kernel: ``"linear"`` (WEKA default PolyKernel E=1) or ``"rbf"``.
        gamma: RBF width (ignored for linear).
        tol: KKT violation tolerance (WEKA ``-L`` 1e-3).
        max_passes: consecutive violation-free passes required to stop.
        max_rounds: hard cap on full working-set sweeps (historical
            fixed cap 60, now tunable).  Simplified SMO never reaches a
            KKT-clean pass on the noisy HPC corpus — the soft-margin
            alphas of overlapping windows keep exchanging mass forever —
            so training always runs to this cap.  Train accuracy is
            statistically flat from ~10 sweeps on, so callers that fit
            many throwaway models (benchmarks, sweeps) can lower this
            for a near-proportional speedup; the default stays 60 so
            fitted models are bit-identical to the historical
            implementation.
        build_logistic_model: fit a logistic on the margin for graded
            probabilities (WEKA ``-M``, default off — see module docs).
        seed: partner-selection seed.
    """

    supports_sample_weight = False

    def __init__(
        self,
        c: float = 1.0,
        kernel: str = "linear",
        gamma: float = 0.1,
        tol: float = 1e-3,
        max_passes: int = 3,
        max_rounds: int = 60,
        build_logistic_model: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if c <= 0:
            raise ValueError("c must be positive")
        if kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {kernel!r}")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
        self.c = c
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.max_rounds = max_rounds
        self.build_logistic_model = build_logistic_model
        self.seed = seed
        self.params = {
            "c": c,
            "kernel": kernel,
            "gamma": gamma,
            "tol": tol,
            "max_passes": max_passes,
            "max_rounds": max_rounds,
            "build_logistic_model": build_logistic_model,
            "seed": seed,
        }
        self.scaler_: StandardScaler | None = None
        self.alpha_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.weights_: np.ndarray | None = None  # linear kernel only
        self.support_x_: np.ndarray | None = None
        self.support_y_: np.ndarray | None = None
        self.logistic_ab_: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    def _kernel_row(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return x @ xi
        diff = x - xi
        return np.exp(-self.gamma * np.einsum("ij,ij->i", diff, diff))

    def _margins(self, x: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            assert self.weights_ is not None
            return x @ self.weights_ + self.bias_
        assert self.support_x_ is not None and self.support_y_ is not None
        assert self.alpha_ is not None
        out = np.full(x.shape[0], self.bias_)
        for a, yi, xi in zip(self.alpha_, self.support_y_, self.support_x_):
            out += a * yi * self._kernel_row(x, xi)
        return out

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "SMO":
        features, labels, _ = check_training_set(features, labels, sample_weight)
        self.scaler_ = StandardScaler.fit(features)
        x = self.scaler_.transform(features)
        y = labels * 2.0 - 1.0
        rng = np.random.default_rng(self.seed)

        if x.shape[0] < 2:
            # a pair step needs two rows; historically a single-row set
            # crashed the partner draw (``rng.integers(0)``)
            alpha, b, w = np.zeros(x.shape[0]), 0.0, np.zeros(x.shape[1])
        elif self.kernel == "linear":
            alpha, b, w = self._fit_linear(x, y, rng)
        else:
            alpha, b, w = self._fit_rbf(x, y, rng)

        self.alpha_ = alpha
        self.bias_ = float(b)
        support = alpha > 1e-8
        self.support_x_ = x[support]
        self.support_y_ = y[support]
        if self.kernel == "linear":
            self.weights_ = w
        else:
            self.alpha_ = alpha[support]
        self.fitted_ = True
        if self.build_logistic_model:
            margins = self._margins(x)
            self.logistic_ab_ = _fit_platt(margins, labels)
        return self

    # -- linear-kernel training (per-visit margin protocol) ------------
    #
    # The linear path consumes the historical protocol exactly: every
    # margin that feeds a KKT test or a pair update is the per-row ddot
    # ``float(x[i] @ w) + b`` against the *live* weights.  It
    # additionally keeps a gemv margin snapshot, but only as a *screen*:
    # it pre-filters candidate violators (with a slack much wider than
    # the gemv-vs-ddot rounding gap yet much narrower than ``tol``) and
    # every candidate is then confirmed with the exact ddot test before
    # a partner is drawn.  Rows the screen rejects cannot pass the exact
    # test, and rng draws happen exactly where the historical loop draws
    # them, so the fitted model is bit-identical to it (the loop is kept
    # as a reference in ``tests/oracles/ml.py``).
    #
    # Scalar locals are plain Python floats throughout (``y``/``kdiag``
    # prefetched via ``tolist``, alphas mirrored in a list): float and
    # np.float64 are both IEEE-754 doubles with identical rounding, so
    # every result matches the historical np.float64 forms bit for bit
    # while skipping numpy's per-scalar dispatch, which dominated the
    # visit cost.

    def _pair_update(
        self,
        xr: list[np.ndarray],
        yl: list[float],
        alpha: np.ndarray,
        al: list[float],
        w: np.ndarray,
        b: float,
        kl: list[float],
        i: int,
        j: int,
        err_i: float,
        err_j: float,
    ) -> tuple[bool, float]:
        """Attempt one Platt pair step on ``(i, j)``; mutates alpha/w.

        Returns ``(changed, b)``; the caller refreshes the margin cache
        when ``changed``.  Shared with the retired linear loop in
        ``tests/oracles/ml.py`` so the update arithmetic cannot drift.
        """
        ai_old, aj_old = al[i], al[j]
        yi, yj = yl[i], yl[j]
        if yi != yj:
            low = max(0.0, aj_old - ai_old)
            high = min(self.c, self.c + aj_old - ai_old)
        else:
            low = max(0.0, ai_old + aj_old - self.c)
            high = min(self.c, ai_old + aj_old)
        if high - low < 1e-12:
            return False, b
        kij = float(xr[i] @ xr[j])
        eta = 2.0 * kij - kl[i] - kl[j]
        if eta >= 0:
            return False, b
        aj = aj_old - yj * (err_i - err_j) / eta
        aj = min(max(aj, low), high)
        if abs(aj - aj_old) < 1e-5:
            return False, b
        ai = ai_old + yi * yj * (aj_old - aj)
        alpha[i] = al[i] = ai
        alpha[j] = al[j] = aj
        w += yi * (ai - ai_old) * xr[i] + yj * (aj - aj_old) * xr[j]
        b1 = b - err_i - yi * (ai - ai_old) * kl[i] - yj * (aj - aj_old) * kij
        b2 = b - err_j - yi * (ai - ai_old) * kij - yj * (aj - aj_old) * kl[j]
        if 0 < ai < self.c:
            b = b1
        elif 0 < aj < self.c:
            b = b2
        else:
            b = (b1 + b2) / 2.0
        return True, b

    #: Screening slack for the fast path's gemv pre-filter: orders of
    #: magnitude above the gemv-vs-ddot rounding gap, orders of
    #: magnitude below ``tol``, so the screen can never reject a row
    #: the exact per-visit test would accept.
    _SCREEN_SLACK = 1e-7

    def _visit(
        self,
        xr: list[np.ndarray],
        yl: list[float],
        alpha: np.ndarray,
        al: list[float],
        w: np.ndarray,
        b: float,
        kl: list[float],
        rng: np.random.Generator,
        i: int,
    ) -> tuple[bool, float]:
        """One exact working-set visit of row ``i``.

        Evaluates the per-row ddot margin against the live weights,
        tests KKT, and on violation draws a partner and attempts a
        :meth:`_pair_update`.  Returns ``(stepped, b)``.
        """
        yi = yl[i]
        err_i = float(xr[i] @ w) + b - yi
        ai = al[i]
        if (yi * err_i < -self.tol and ai < self.c) or (
            yi * err_i > self.tol and ai > 0
        ):
            n = len(xr)
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            err_j = float(xr[j] @ w) + b - yl[j]
            return self._pair_update(xr, yl, alpha, al, w, b, kl, i, j, err_i, err_j)
        return False, b

    def _fit_linear(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """Screened working-set scan, bit-identical to the historical loop.

        In *sparse* rounds (few updates) a gemv margin snapshot
        ``x @ w + b`` — rebuilt whenever an update lands — pre-filters
        the rows that can possibly violate KKT, and only the surviving
        candidates pay a Python-loop visit; each visit re-runs the exact
        ddot KKT test (see ``_SCREEN_SLACK``) before drawing a partner,
        so skipped rows cannot pass the exact test and rng draws happen
        exactly where the historical loop draws them.  In *dense* rounds —
        early optimization, when snapshot rebuilds would outnumber the
        visits they skip — the round walks every row exactly like the
        historical loop.  Both strategies consume the identical per-visit
        protocol, so the fitted model is bit-identical regardless of
        which rounds used which strategy; the previous round's update
        count picks the cheaper one.
        """
        n = x.shape[0]
        alpha = np.zeros(n)
        b = 0.0
        w = np.zeros(x.shape[1])
        kdiag = np.einsum("ij,ij->i", x, x)
        xr = list(x)
        yl = y.tolist()
        al = alpha.tolist()
        kl = kdiag.tolist()
        lo = -self.tol + self._SCREEN_SLACK
        hi = self.tol - self._SCREEN_SLACK
        passes = 0
        iterations = 0
        max_iterations = self.max_rounds * n
        last_changed = n  # assume dense until a round proves otherwise
        while passes < self.max_passes and iterations < max_iterations:
            changed = 0
            if last_changed * 16 > n:
                # Dense round: walk every row like the historical loop.
                for i in range(n):
                    stepped, b = self._visit(xr, yl, alpha, al, w, b, kl, rng, i)
                    if stepped:
                        changed += 1
            else:
                i = 0
                stale = True
                candidates = np.empty(0, dtype=np.intp)
                pos = 0
                while i < n:
                    if stale:
                        yerr = y * (x @ w + b - y)
                        screened = ((yerr < lo) & (alpha < self.c)) | (
                            (yerr > hi) & (alpha > 0)
                        )
                        candidates = np.flatnonzero(screened)
                        pos = int(np.searchsorted(candidates, i))
                        stale = False
                    if pos >= candidates.size:
                        break
                    i = int(candidates[pos])
                    stepped, b = self._visit(xr, yl, alpha, al, w, b, kl, rng, i)
                    if stepped:
                        changed += 1
                        stale = True
                    i += 1
                    pos += 1
            iterations += n
            last_changed = changed
            passes = passes + 1 if changed == 0 else 0
        return alpha, b, w

    def _fit_rbf(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """RBF-kernel SMO (historical per-visit loop).

        Kernel rows are cached lazily; margins are evaluated over live
        support vectors per visit.  The evaluation matrix trains linear
        SMO only, so this path is kept scalar.
        """
        n = x.shape[0]
        alpha = np.zeros(n)
        b = 0.0
        w = np.zeros(x.shape[1])  # unused by rbf predictions, returned for symmetry
        kernel_cache: dict[int, np.ndarray] = {}

        def krow(i: int) -> np.ndarray:
            if i not in kernel_cache:
                kernel_cache[i] = self._kernel_row(x, x[i])
            return kernel_cache[i]

        def f(i: int) -> float:
            live = alpha > 0
            if not live.any():
                return b
            return float((alpha[live] * y[live] * krow(i)[live]).sum() + b)

        kdiag = np.ones(n)
        passes = 0
        iterations = 0
        max_iterations = self.max_rounds * n
        while passes < self.max_passes and iterations < max_iterations:
            changed = 0
            for i in range(n):
                iterations += 1
                err_i = f(i) - y[i]
                if (y[i] * err_i < -self.tol and alpha[i] < self.c) or (
                    y[i] * err_i > self.tol and alpha[i] > 0
                ):
                    j = int(rng.integers(n - 1))
                    if j >= i:
                        j += 1
                    err_j = f(j) - y[j]
                    ai_old, aj_old = alpha[i], alpha[j]
                    if y[i] != y[j]:
                        low = max(0.0, aj_old - ai_old)
                        high = min(self.c, self.c + aj_old - ai_old)
                    else:
                        low = max(0.0, ai_old + aj_old - self.c)
                        high = min(self.c, ai_old + aj_old)
                    if high - low < 1e-12:
                        continue
                    kij = float(krow(i)[j])
                    eta = 2.0 * kij - kdiag[i] - kdiag[j]
                    if eta >= 0:
                        continue
                    aj = aj_old - y[j] * (err_i - err_j) / eta
                    aj = float(np.clip(aj, low, high))
                    if abs(aj - aj_old) < 1e-5:
                        continue
                    ai = ai_old + y[i] * y[j] * (aj_old - aj)
                    alpha[i], alpha[j] = ai, aj
                    b1 = b - err_i - y[i] * (ai - ai_old) * 1.0 - y[j] * (aj - aj_old) * kij
                    b2 = b - err_j - y[i] * (ai - ai_old) * kij - y[j] * (aj - aj_old) * 1.0
                    if 0 < ai < self.c:
                        b = b1
                    elif 0 < aj < self.c:
                        b = b2
                    else:
                        b = (b1 + b2) / 2.0
                    changed += 1
            passes = passes + 1 if changed == 0 else 0
        return alpha, b, w

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed SVM margin of each row."""
        self._require_fitted()
        features = check_features(features)
        assert self.scaler_ is not None
        return self._margins(self.scaler_.transform(features))

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        margins = self.decision_function(features)
        if self.logistic_ab_ is not None:
            a, b = self.logistic_ab_
            p1 = 1.0 / (1.0 + np.exp(np.clip(a * margins + b, -35, 35)))
        else:
            # WEKA default: hard votes masquerading as probabilities.
            p1 = (margins >= 0).astype(float)
        return np.column_stack([1.0 - p1, p1])

    # -- serialization ---------------------------------------------------
    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        assert self.scaler_ is not None and self.alpha_ is not None
        assert self.support_x_ is not None and self.support_y_ is not None
        spec = {
            "params": dict(self.params),
            "bias": float(self.bias_),
            "logistic_ab": (
                [float(self.logistic_ab_[0]), float(self.logistic_ab_[1])]
                if self.logistic_ab_ is not None
                else None
            ),
        }
        arrays = {
            "scaler_mean": self.scaler_.mean,
            "scaler_scale": self.scaler_.scale,
            "alpha": self.alpha_,
            "support_x": self.support_x_,
            "support_y": self.support_y_,
        }
        if self.weights_ is not None:
            arrays["weights"] = self.weights_
        return spec, arrays

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict) -> "SMO":
        model = cls(**spec["params"])
        model.scaler_ = StandardScaler(
            mean=np.asarray(arrays["scaler_mean"]),
            scale=np.asarray(arrays["scaler_scale"]),
        )
        model.alpha_ = np.asarray(arrays["alpha"])
        model.bias_ = float(spec["bias"])
        model.support_x_ = np.asarray(arrays["support_x"])
        model.support_y_ = np.asarray(arrays["support_y"])
        if "weights" in arrays:
            model.weights_ = np.asarray(arrays["weights"])
        elif model.kernel == "linear":
            raise ValueError("linear-kernel SMO artifact is missing weights")
        ab = spec["logistic_ab"]
        model.logistic_ab_ = (float(ab[0]), float(ab[1])) if ab is not None else None
        model.fitted_ = True
        return model

    @property
    def n_support_vectors(self) -> int:
        self._require_fitted()
        assert self.support_x_ is not None
        return self.support_x_.shape[0]


def _fit_platt(margins: np.ndarray, labels: np.ndarray, epochs: int = 200) -> tuple[float, float]:
    """Platt scaling: fit sigmoid P(y=1|m) = 1/(1+exp(a*m+b)) by Newton steps."""
    prior1 = float((labels == 1).sum())
    prior0 = float((labels == 0).sum())
    target = np.where(labels == 1, (prior1 + 1.0) / (prior1 + 2.0), 1.0 / (prior0 + 2.0))
    a, b = -1.0, 0.0
    for _ in range(epochs):
        z = np.clip(a * margins + b, -35, 35)
        p = 1.0 / (1.0 + np.exp(z))
        # dL/dz = target - p for z = a*m + b with p = 1/(1+e^z)
        grad_common = target - p
        ga = float((grad_common * margins).sum())
        gb = float(grad_common.sum())
        wdiag = p * (1.0 - p)
        haa = float((wdiag * margins * margins).sum()) + 1e-9
        hbb = float(wdiag.sum()) + 1e-9
        a -= ga / haa
        b -= gb / hbb
        if abs(ga) < 1e-8 and abs(gb) < 1e-8:
            break
    return a, b
