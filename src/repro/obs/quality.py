"""Model-quality and drift observability: reference profiles, divergence
scoring, and streaming calibration telemetry.

The paper's detectors are train-once, but a deployed fleet faces
workload drift and novel malware families that silently rot a model
long before accuracy tables notice.  This module is the measurement
layer for that failure mode:

* :class:`ReferenceProfile` — captured at train time: per-feature
  fixed-bin histograms over the reduced HPC feature windows, a
  prediction-score histogram, a per-app vote-margin histogram, and
  binned calibration counts carrying exact sufficient statistics
  (count, positives, Σscore, Σscore², Σscore·y per bin) so ECE and the
  Brier score are computed *exactly* from the bins, not approximated.
  Serialized to JSON with the same atomic-replace discipline and
  content-addressed SHA-256 identity as :mod:`repro.analysis.cache`.
* :class:`DriftScorer` — PSI (with epsilon smoothing so empty cells
  stay finite) and a histogram-based KS statistic per feature, plus
  score-distribution shift and calibration error.  Everything is a
  deterministic function of integer bin counts on fixed edges: the
  same counts always produce the same score, and identical
  distributions score exactly zero PSI.
* :class:`QualityTracker` — a streaming consumer with sliding live
  windows: each observed batch of executions contributes its exact
  bin-count arrays to a :class:`~repro.obs.health._SlidingSum` (the
  window :class:`~repro.obs.health.SlidingWindowSignals` is built on),
  and eviction subtracts them, so windowed drift scores equal a fresh
  accumulation over the surviving executions.  It keeps one global
  window plus one per host (per-host drift for the serving fleet),
  emits ``quality_*`` counters/gauges/histograms and ``quality.drift``
  trace events, and evaluates declarative :class:`QualityAlertRule`\\ s
  (PSI threshold with hold and hysteresis) through the same
  :class:`~repro.obs.health.AlertBook` health uses, whose transitions
  are ``quality.alert`` events — so ``repro-hmd watch`` can gate a
  pipeline on drift exactly like it gates on health.

The tracker never touches verdict computation: monitors built with
``quality=None`` pay one attribute check, and enabling tracking leaves
verdicts bit-identical (asserted by
``tests/serve/test_service.py::test_serve_quality_tracking_keeps_verdicts_identical``;
perfbench's ``obs.quality_share`` prices the enabled path).

Determinism contract: evaluation time is whatever clock the caller
supplies (event timestamps during replay, a fake clock in tests), time
only moves forward, and all divergence math is exact on fixed bins —
replaying the same stream yields byte-identical alert transitions.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, TextIO

import numpy as np

from repro.ioutil import atomic_write_text, dumps_json
from repro.obs.health import (
    AlertBook,
    AlertRule,
    AlertState,
    _SlidingSum,
    parse_alert_spec,
)
from repro.obs.metrics import NULL_REGISTRY, Registry
from repro.obs.trace import NULL_TRACER, Tracer

#: Schema tag written into profiles and quality reports.
QUALITY_SCHEMA_VERSION = 1

#: Signals the tracker exposes (quality alert rules may target any).
QUALITY_SIGNAL_NAMES = (
    "live_windows",
    "executions",
    "max_feature_psi",
    "mean_feature_psi",
    "max_feature_ks",
    "score_psi",
    "score_ks",
    "margin_psi",
    "ece",
    "brier",
)

#: Bucket bounds for the per-feature PSI histogram metric.
PSI_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0, 2.0)

#: Calibration sufficient-statistic columns (exact ECE/Brier from bins).
_CAL_KEYS = ("count", "pos", "sum_score", "sum_score_sq", "sum_score_pos")

_NAN = float("nan")


class QualityError(ValueError):
    """Malformed, missing, or incompatible reference profile."""


# -- binning -----------------------------------------------------------
#
# A histogram with edges e0..eK has K+2 cells: cell 0 is underflow
# (v < e0), cells 1..K are the K equal-width bins (left-closed, with
# the last bin closed on both sides so the reference maximum lands in
# bin K, not overflow), and cell K+1 is overflow (v > eK).  NaN values
# never enter a cell; they are tallied separately so live NaNs are
# visible without poisoning divergence scores.


def _cell_indices(edges: np.ndarray, values: np.ndarray) -> tuple:
    """Map finite ``values`` to cell indices; returns (indices, finite mask)."""
    values = np.asarray(values, dtype=float).ravel()
    ok = ~np.isnan(values)
    v = values[ok]
    idx = np.searchsorted(edges, v, side="right")
    idx[v == edges[-1]] = edges.size - 1
    return idx, ok


def bin_values(edges: np.ndarray, values) -> tuple:
    """Cell counts (underflow, K bins, overflow) and the NaN tally."""
    edges = np.asarray(edges, dtype=float)
    idx, ok = _cell_indices(edges, values)
    counts = np.bincount(idx, minlength=edges.size + 1).astype(np.int64)
    return counts, int(ok.size - idx.size)


def bin_matrix(edges: np.ndarray, values: np.ndarray) -> tuple:
    """Per-feature cell counts for a ``(windows, features)`` matrix.

    Vectorized equivalent of calling :func:`bin_values` once per
    feature column with that feature's edge row: ``edges`` is
    ``(F, K+1)``, ``values`` is ``(W, F)``; returns ``(F, K+2)`` cell
    counts and the per-feature NaN tally.  ``searchsorted(side="right")``
    semantics are reproduced by counting edges <= value, with the same
    reference-maximum clamp into the last closed bin.
    """
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(values, dtype=float)
    n_features, cells = edges.shape[0], edges.shape[1] + 1
    ok = ~np.isnan(values)
    idx = (values[:, :, None] >= edges[None, :, :]).sum(axis=2)
    idx[values == edges[None, :, -1]] = edges.shape[1] - 1
    flat = (idx + np.arange(n_features) * cells)[ok]
    counts = np.bincount(flat, minlength=n_features * cells)
    return (
        counts.reshape(n_features, cells).astype(np.int64),
        (~ok).sum(axis=0),
    )


def _equal_width_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width edges spanning the finite values.

    A constant column (or no finite evidence at all) would produce
    zero-width bins, so the span is widened to ±0.5 around the single
    value — the constant lands mid-histogram and any live deviation
    shows up as mass in a neighbouring or under/overflow cell.
    """
    values = np.asarray(values, dtype=float).ravel()
    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, int(n_bins) + 1)


# -- reference profile -------------------------------------------------


@dataclass
class _Contribution:
    """One batch's exact additive contribution to a live window.

    Contributions add and subtract field by field (integer histograms
    are exactly additive), so a window's total is a
    :class:`~repro.obs.health._SlidingSum` of them.  Never mutated, but
    not frozen: a frozen dataclass's ``__init__`` would add ~3 µs to
    every window add and eviction.
    """

    feature: np.ndarray  # (n_features, cells) int64
    score: np.ndarray  # (cells,) int64
    margin: np.ndarray  # (cells,) int64
    cal: np.ndarray  # (len(_CAL_KEYS), cells) float64
    n_windows: int
    n_nan: int
    n_executions: int = 1

    def __add__(self, other: "_Contribution") -> "_Contribution":
        return _Contribution(
            self.feature + other.feature, self.score + other.score,
            self.margin + other.margin, self.cal + other.cal,
            self.n_windows + other.n_windows, self.n_nan + other.n_nan,
            self.n_executions + other.n_executions,
        )

    def __sub__(self, other: "_Contribution") -> "_Contribution":
        return _Contribution(
            self.feature - other.feature, self.score - other.score,
            self.margin - other.margin, self.cal - other.cal,
            self.n_windows - other.n_windows, self.n_nan - other.n_nan,
            self.n_executions - other.n_executions,
        )


class ReferenceProfile:
    """Fixed-bin training-time distributions a live stream is scored against.

    Built by :func:`build_reference_profile`; all live binning goes
    through :meth:`bin_batch` with the *same* edges and the same cell
    conventions as the build, so a live stream drawn from the training
    distribution scores (near) zero divergence by construction.
    """

    def __init__(
        self,
        feature_names: tuple,
        feature_edges: np.ndarray,
        feature_counts: np.ndarray,
        feature_nan: tuple,
        score_edges: np.ndarray,
        score_counts: np.ndarray,
        margin_edges: np.ndarray,
        margin_counts: np.ndarray,
        calibration: np.ndarray,
        vote_threshold: float = 0.5,
        meta: dict | None = None,
    ) -> None:
        self.feature_names = tuple(str(n) for n in feature_names)
        self.feature_edges = np.asarray(feature_edges, dtype=float)
        self.feature_counts = np.asarray(feature_counts, dtype=np.int64)
        self.feature_nan = tuple(int(n) for n in feature_nan)
        self.score_edges = np.asarray(score_edges, dtype=float)
        self.score_counts = np.asarray(score_counts, dtype=np.int64)
        self.margin_edges = np.asarray(margin_edges, dtype=float)
        self.margin_counts = np.asarray(margin_counts, dtype=np.int64)
        self.calibration = np.asarray(calibration, dtype=float)
        self.vote_threshold = float(vote_threshold)
        self.meta = dict(meta or {})
        f = len(self.feature_names)
        cells = self.feature_edges.shape[1] + 1 if f else 0
        if self.feature_edges.shape[0] != f or self.feature_counts.shape != (f, cells):
            raise QualityError(
                f"profile shape mismatch: {f} features, edges "
                f"{self.feature_edges.shape}, counts {self.feature_counts.shape}"
            )
        if self.calibration.shape != (len(_CAL_KEYS), self.score_cells):
            raise QualityError(
                f"calibration shape {self.calibration.shape} != "
                f"({len(_CAL_KEYS)}, {self.score_cells})"
            )

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def feature_cells(self) -> int:
        return self.feature_edges.shape[1] + 1

    @property
    def score_cells(self) -> int:
        return self.score_edges.size + 1

    @property
    def margin_cells(self) -> int:
        return self.margin_edges.size + 1

    @property
    def n_windows(self) -> int:
        """Training windows the per-feature histograms were built from."""
        return int(self.feature_counts[0].sum()) if self.n_features else 0

    # -- live binning --------------------------------------------------
    def bin_batch(self, entries: list) -> _Contribution:
        """Bin several executions into one additive contribution.

        ``entries`` is a list of ``(windows, scores, margin, truth)``
        tuples whose ``windows`` are already validated ``(n, F)`` float
        matrices.  Counts equal the sum of binning each entry alone
        (integer histograms are exactly additive), but the feature
        matrices are concatenated and binned in one vectorized pass —
        this is what makes deferred batch flushing cheaper than
        per-observation binning.
        """
        windows_all = np.concatenate(
            [windows for windows, _, _, _ in entries]
        ) if entries else np.zeros((0, self.n_features))
        feature, feature_nan = bin_matrix(self.feature_edges, windows_all)
        scores_all = np.concatenate(
            [np.asarray(scores, dtype=float).ravel() for _, scores, _, _ in entries]
        ) if entries else np.zeros(0)
        idx, ok = _cell_indices(self.score_edges, scores_all)
        score_counts = np.bincount(idx, minlength=self.score_cells).astype(np.int64)
        margins = np.array([margin for _, _, margin, _ in entries], dtype=float)
        margin_counts, _ = bin_values(self.margin_edges, margins)
        cal = np.zeros((len(_CAL_KEYS), self.score_cells))
        known = [
            (np.asarray(scores, dtype=float).ravel(), float(bool(truth)))
            for _, scores, _, truth in entries
            if truth is not None
        ]
        if known:
            s = np.concatenate([scores for scores, _ in known])
            y = np.concatenate(
                [np.full(scores.size, label) for scores, label in known]
            )
            cal_idx, cal_ok = _cell_indices(self.score_edges, s)
            s, y = s[cal_ok], y[cal_ok]
            cells = self.score_cells
            cal[0] = np.bincount(cal_idx, minlength=cells)
            cal[1] = np.bincount(cal_idx, weights=y, minlength=cells)
            cal[2] = np.bincount(cal_idx, weights=s, minlength=cells)
            cal[3] = np.bincount(cal_idx, weights=s * s, minlength=cells)
            cal[4] = np.bincount(cal_idx, weights=s * y, minlength=cells)
        return _Contribution(
            feature=feature,
            score=score_counts,
            margin=margin_counts,
            cal=cal,
            n_windows=int(windows_all.shape[0]),
            n_nan=int(feature_nan.sum()),
            n_executions=len(entries),
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": QUALITY_SCHEMA_VERSION,
            "feature_names": list(self.feature_names),
            "feature_edges": self.feature_edges.tolist(),
            "feature_counts": self.feature_counts.tolist(),
            "feature_nan": list(self.feature_nan),
            "score_edges": self.score_edges.tolist(),
            "score_counts": self.score_counts.tolist(),
            "margin_edges": self.margin_edges.tolist(),
            "margin_counts": self.margin_counts.tolist(),
            "calibration": {
                key: self.calibration[i].tolist()
                for i, key in enumerate(_CAL_KEYS)
            },
            "vote_threshold": self.vote_threshold,
            "meta": self.meta,
        }

    @property
    def profile_id(self) -> str:
        """Content-addressed identity (SHA-256 of the canonical JSON)."""
        payload = dumps_json(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ReferenceProfile":
        if not isinstance(data, dict) or "feature_names" not in data:
            raise QualityError("not a reference profile (missing feature_names)")
        schema = data.get("schema")
        if schema != QUALITY_SCHEMA_VERSION:
            raise QualityError(
                f"unsupported profile schema {schema!r} "
                f"(expected {QUALITY_SCHEMA_VERSION})"
            )
        try:
            cal = data["calibration"]
            return cls(
                feature_names=tuple(data["feature_names"]),
                feature_edges=np.asarray(data["feature_edges"], dtype=float),
                feature_counts=np.asarray(data["feature_counts"], dtype=np.int64),
                feature_nan=tuple(data["feature_nan"]),
                score_edges=np.asarray(data["score_edges"], dtype=float),
                score_counts=np.asarray(data["score_counts"], dtype=np.int64),
                margin_edges=np.asarray(data["margin_edges"], dtype=float),
                margin_counts=np.asarray(data["margin_counts"], dtype=np.int64),
                calibration=np.asarray(
                    [cal[key] for key in _CAL_KEYS], dtype=float
                ),
                vote_threshold=float(data.get("vote_threshold", 0.5)),
                meta=data.get("meta"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise QualityError(f"malformed reference profile: {exc}") from exc

    def save(self, path: str | Path) -> str:
        """Atomically write the profile as JSON; returns its profile_id."""
        data = self.to_dict()
        data["profile_id"] = self.profile_id
        atomic_write_text(Path(path), dumps_json(data))
        return data["profile_id"]

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceProfile":
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise QualityError(f"reference profile not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise QualityError(f"profile {path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)


def build_reference_profile(
    detector,
    dataset,
    n_bins: int = 12,
    vote_threshold: float = 0.5,
    meta: dict | None = None,
) -> ReferenceProfile:
    """Capture a fitted detector's training-time reference distributions.

    ``dataset`` is the (training) :class:`~repro.workloads.dataset.Dataset`
    the profile describes; it is reduced through the detector's fitted
    feature reducer so the per-feature histograms are over exactly the
    features the detector sees at run time.  Vote margins are computed
    per app — each app's window-vote fraction minus ``vote_threshold``
    — matching how monitors derive verdict margins live.
    """
    if not getattr(detector, "fitted_", False):
        raise QualityError("cannot profile an unfitted detector")
    reduced = detector.reducer.transform(dataset)
    features = np.asarray(reduced.features, dtype=float)
    labels = np.asarray(reduced.labels, dtype=float)
    scores = np.asarray(detector.model.decision_scores(features), dtype=float)
    flags = np.asarray(detector.model.predict(features), dtype=float)
    names = tuple(detector.monitored_events)
    if features.shape[1] != len(names):
        raise QualityError(
            f"reduced dataset has {features.shape[1]} features, "
            f"detector monitors {len(names)}"
        )

    feature_edges = np.stack(
        [_equal_width_edges(features[:, f], n_bins) for f in range(len(names))]
    )
    # Same vectorized binning the live tracker uses, so reference and
    # live counts go through one code path (a live stream drawn from the
    # training data scores exactly zero PSI by construction).
    feature_counts, nan_counts = bin_matrix(feature_edges, features)
    feature_nan = [int(n) for n in nan_counts]

    score_edges = _equal_width_edges(scores, n_bins)
    score_counts, _ = bin_values(score_edges, scores)

    margins = [
        float(flags[reduced.app_ids == app].mean()) - float(vote_threshold)
        for app in np.unique(reduced.app_ids)
    ]
    margin_edges = np.linspace(-1.0, 1.0, n_bins + 1)
    margin_counts, _ = bin_values(margin_edges, margins)

    idx, ok = _cell_indices(score_edges, scores)
    s, y = scores[ok], labels[ok]
    cells = score_edges.size + 1
    calibration = np.stack(
        [
            np.bincount(idx, minlength=cells).astype(float),
            np.bincount(idx, weights=y, minlength=cells),
            np.bincount(idx, weights=s, minlength=cells),
            np.bincount(idx, weights=s * s, minlength=cells),
            np.bincount(idx, weights=s * y, minlength=cells),
        ]
    )
    return ReferenceProfile(
        feature_names=names,
        feature_edges=feature_edges,
        feature_counts=feature_counts,
        feature_nan=tuple(feature_nan),
        score_edges=score_edges,
        score_counts=score_counts,
        margin_edges=margin_edges,
        margin_counts=margin_counts,
        calibration=calibration,
        vote_threshold=vote_threshold,
        meta=meta,
    )


# -- divergence scoring ------------------------------------------------


class DriftScorer:
    """Deterministic divergence scores between a profile and live counts.

    All inputs are bin-count arrays on the profile's fixed edges, so
    every score is an exact function of integer counts; ``epsilon`` is
    the PSI smoothing pseudo-count per cell.
    """

    def __init__(self, profile: ReferenceProfile, epsilon: float = 1e-4) -> None:
        self.profile = profile
        self.epsilon = float(epsilon)
        # The reference side of every divergence is fixed for the life
        # of the scorer, so its smoothed distribution, log, and CDF are
        # computed once here; the per-observation hot path
        # (:meth:`window_drift`) then only normalizes the live side.
        eps = self.epsilon
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.asarray(profile.feature_counts, dtype=float)
            n = ref.sum(axis=1, keepdims=True)
            self._feat_ref_ok = n.ravel() > 0
            self._feat_p = (ref + eps) / (n + eps * ref.shape[1])
            self._feat_log_p = np.log(self._feat_p)
            self._feat_cdf = np.cumsum(ref, axis=1) / n
            sref = np.asarray(profile.score_counts, dtype=float)
            sn = sref.sum()
            self._score_ref_ok = sn > 0
            self._score_p = (sref + eps) / (sn + eps * sref.size)
            self._score_log_p = np.log(self._score_p)
            self._score_cdf = np.cumsum(sref) / sn
            mref = np.asarray(profile.margin_counts, dtype=float)
            mn = mref.sum()
            self._margin_ref_ok = mn > 0
            self._margin_p = (mref + eps) / (mn + eps * mref.size)
            self._margin_log_p = np.log(self._margin_p)

    def window_drift(self, feature_counts, score_counts, cal) -> dict:
        """Per-feature PSI and KS, score PSI and KS, and calibration
        (:meth:`calibration`) of one live window in one fused pass.

        The live side is normalized against the precomputed reference
        tensors; PSI is Σ (q − p)·(log q − log p) with ``epsilon``
        pseudo-counts per cell, KS the max |CDF difference| on the
        shared cells.  Identical counts score exactly 0.0 (``q - p`` is
        exactly zero), and a side with no evidence scores NaN.
        """
        eps = self.epsilon
        live = np.asarray(feature_counts, dtype=float)
        n = live.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = (live + eps) / (n + eps * live.shape[1])
            feat_psi = np.sum((q - self._feat_p) * (np.log(q) - self._feat_log_p), axis=1)
            feat_ks = np.max(
                np.abs(np.cumsum(live, axis=1) / n - self._feat_cdf), axis=1
            )
            bad = ~self._feat_ref_ok | (n.ravel() <= 0)
            feat_psi[bad] = _NAN
            feat_ks[bad] = _NAN
            slive = np.asarray(score_counts, dtype=float)
            sn = slive.sum()
            score_psi = score_ks = _NAN
            if self._score_ref_ok and sn > 0:
                sq = (slive + eps) / (sn + eps * slive.size)
                score_psi = float(
                    np.sum((sq - self._score_p) * (np.log(sq) - self._score_log_p))
                )
                score_ks = float(
                    np.max(np.abs(np.cumsum(slive) / sn - self._score_cdf))
                )
        cal_scores = self.calibration(cal)
        return {
            "feature_psi": feat_psi,
            "feature_ks": feat_ks,
            "score_psi": score_psi,
            "score_ks": score_ks,
            "ece": cal_scores["ece"],
            "brier": cal_scores["brier"],
        }

    def margin_psi(self, live_margin_counts: np.ndarray) -> float:
        """PSI of the live vote-margin histogram against the reference —
        the tracker's per-observation ``margin_psi`` signal."""
        live = np.asarray(live_margin_counts, dtype=float)
        n = live.sum()
        if not self._margin_ref_ok or n <= 0:
            return _NAN
        eps = self.epsilon
        q = (live + eps) / (n + eps * live.size)
        return float(np.sum((q - self._margin_p) * (np.log(q) - self._margin_log_p)))

    def calibration(self, live_cal: np.ndarray) -> dict:
        """Exact ECE and Brier score from live calibration bins.

        ECE is Σ (n_b/N)·|mean_score_b − frac_pos_b|; Brier is exact
        because labels are 0/1: Σ(s−y)² = Σs² − 2Σs·y + Σy.
        """
        count = np.asarray(live_cal[0], dtype=float)
        n = count.sum()
        if n <= 0:
            return {"ece": _NAN, "brier": _NAN, "count": 0}
        nz = count > 0
        conf = live_cal[2][nz] / count[nz]
        acc = live_cal[1][nz] / count[nz]
        ece = float(np.sum(count[nz] / n * np.abs(conf - acc)))
        brier = float(
            (live_cal[3].sum() - 2.0 * live_cal[4].sum() + live_cal[1].sum()) / n
        )
        return {"ece": ece, "brier": brier, "count": int(n)}


# -- alert rules over drift signals ------------------------------------


@dataclass(frozen=True)
class QualityAlertRule(AlertRule):
    """An :class:`~repro.obs.health.AlertRule` over the drift signals.

    Same comparator/hold/hysteresis semantics and state machine; only
    the valid signal family differs (:data:`QUALITY_SIGNAL_NAMES`).
    """

    signal_names: ClassVar[tuple] = QUALITY_SIGNAL_NAMES


def parse_quality_alert_spec(spec: str) -> QualityAlertRule:
    """Parse an inline ``--quality-alert`` rule specification.

    Same grammar as ``--alert``: ``SIGNAL OP THRESHOLD[:SEVERITY
    [:FOR_S[:CLEAR]]]``, e.g. ``max_feature_psi>=0.25:critical:0:0.1``.
    """
    return parse_alert_spec(spec, rule_cls=QualityAlertRule)


#: Default drift gate installed when tracking is enabled without
#: explicit rules: PSI ≥ 0.25 is the classical "significant population
#: shift" threshold, with a hysteresis clear at 0.1.
DEFAULT_QUALITY_RULES = (
    QualityAlertRule(
        name="max_feature_psi>=0.25",
        signal="max_feature_psi",
        op=">=",
        threshold=0.25,
        severity="critical",
        clear_threshold=0.1,
    ),
)


# -- streaming tracker -------------------------------------------------


class QualityTracker:
    """Streams live executions against a reference profile.

    The in-process hook (``quality=`` on the monitors and the service)
    calls :meth:`observe_execution` with the reduced feature windows,
    per-window scores, and the verdict's vote margin; the tracker bins
    them, slides its windows, recomputes drift signals, and advances
    the alert state machines.  One global window drives alerting; a
    per-host window map provides per-host drift signals for the fleet.

    Args:
        profile: the training-time :class:`ReferenceProfile`.
        rules: :class:`QualityAlertRule`\\ s evaluated on the global
            signals (defaults to :data:`DEFAULT_QUALITY_RULES`).
        window_s: trailing live-window length in seconds.
        min_windows: drift signals are NaN until the live window holds
            this many feature windows.  Defaults (``None``) to 75% of
            the profile's reference window count: within-app windows
            are strongly correlated, so a live window covering only a
            few applications is a genuinely different mixture than the
            full training corpus and PSI stays high until coverage
            builds — the adaptive floor keeps warm-up silent (NaN never
            breaches a rule) without a magic constant that breaks at a
            different corpus scale.
        min_executions: executions (≈ distinct applications) the window
            additionally needs before any drift signal reports; margin
            PSI (one sample per execution) is gated on this alone.
        eval_interval_s: minimum event-time spacing between full drift
            evaluations.  Binning is per-observation and exact, but
            re-scoring the whole window and walking the rule state
            machines on every execution of a burst is pure overhead on
            the verdict path (the window barely changed), so bursts
            share one evaluation — the same evaluation-interval pattern
            every metrics backend uses.  ``0`` evaluates on every
            observation; :meth:`tick` and :meth:`report` always
            evaluate, so a final dump never misses a breach.
        tracer: receives ``quality.drift`` (one per evaluation, at most
            one per ``eval_interval_s``) and ``quality.alert`` (one per
            rule transition) events.
        metrics: quality counters/gauges/histograms land here.
        stream: optional text stream for one-line transition notices.
        clock: time source when observations carry no timestamp.
    """

    def __init__(
        self,
        profile: ReferenceProfile,
        rules: tuple | list | None = None,
        window_s: float = 60.0,
        min_windows: int | None = None,
        min_executions: int = 8,
        eval_interval_s: float = 1.0,
        tracer: Tracer | None = None,
        metrics: Registry | None = None,
        stream: TextIO | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if eval_interval_s < 0:
            raise ValueError(
                f"eval_interval_s must be >= 0, got {eval_interval_s}"
            )
        self.profile = profile
        self.scorer = DriftScorer(profile)
        self.window_s = float(window_s)
        self.eval_interval_s = float(eval_interval_s)
        self._last_eval: float | None = None
        self._pending: list = []  # (ts, host, windows, scores, margin, truth)
        if min_windows is None:
            min_windows = max(64, round(0.75 * profile.n_windows))
        self.min_windows = int(min_windows)
        self.min_executions = int(min_executions)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.clock = clock
        self.window = self._new_window()
        self.hosts: dict = {}
        self.last_signals: dict = {}
        self.total_executions = 0
        self.total_windows = 0
        self.total_nan = 0
        self._now: float | None = None
        self._lock = threading.RLock()
        self._c_execs = self.metrics.counter(
            "quality_executions_total", "executions scored against the profile"
        )
        self._c_windows = self.metrics.counter(
            "quality_windows_total", "feature windows scored against the profile"
        )
        self._c_nan = self.metrics.counter(
            "quality_nan_values_total", "NaN feature values excluded from binning"
        )
        self.alerts = AlertBook(
            "quality",
            DEFAULT_QUALITY_RULES if rules is None else rules,
            self.tracer,
            self.metrics,
            stream,
        )
        self._g_max_psi = self.metrics.gauge(
            "quality_max_feature_psi", "worst per-feature PSI in the live window"
        )
        self._g_score_psi = self.metrics.gauge(
            "quality_score_psi", "prediction-score PSI in the live window"
        )
        self._g_ece = self.metrics.gauge(
            "quality_ece", "expected calibration error in the live window"
        )
        self._h_psi = self.metrics.histogram(
            "quality_feature_psi",
            "per-feature PSI at each evaluation",
            buckets=PSI_BUCKETS,
        )

    def _new_window(self) -> _SlidingSum:
        # binning no executions is the all-zero contribution
        return _SlidingSum(self.window_s, self.profile.bin_batch([]))

    # -- feeding -------------------------------------------------------
    def observe_execution(
        self,
        host: str,
        windows,
        scores,
        margin: float = _NAN,
        truth: bool | None = None,
        ts: float | None = None,
    ) -> None:
        """Score one execution's reduced windows against the profile.

        The observation itself is a cheap validated append — binning is
        deferred to the next evaluation (:meth:`_flush` batches every
        pending execution into one vectorized pass), keeping the
        verdict path's per-execution cost flat no matter how expensive
        drift scoring is.
        """
        windows = np.atleast_2d(np.asarray(windows, dtype=float))
        if windows.size == 0:
            windows = windows.reshape(0, self.profile.n_features)
        if windows.shape[1] != self.profile.n_features:
            raise QualityError(
                f"execution has {windows.shape[1]} features, "
                f"profile has {self.profile.n_features}"
            )
        with self._lock:
            now = self.clock() if ts is None else float(ts)
            self._now = now if self._now is None else max(self._now, now)
            now = self._now
            self._pending.append((now, host, windows, scores, margin, truth))
            self.total_executions += 1
            self.total_windows += int(windows.shape[0])
            self._c_execs.inc()
            self._c_windows.inc(int(windows.shape[0]))
            if (
                self._last_eval is None
                or now - self._last_eval >= self.eval_interval_s
            ):
                self._evaluate(now, host)

    def _flush(self) -> None:
        """Bin every pending observation into the live windows.

        Pending executions are grouped by host, each group is binned in
        one batched pass, and the global window receives the exact sum
        of the group contributions.  The whole batch is stamped with its
        newest timestamp, so eviction is batch-granular: entries leave
        the window at most one evaluation interval later than they
        would under per-observation stamping.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        batch_ts = pending[-1][0]
        groups: dict = {}
        for _, host, windows, scores, margin, truth in pending:
            groups.setdefault(host, []).append((windows, scores, margin, truth))
        total = None
        for host, entries in groups.items():
            contrib = self.profile.bin_batch(entries)
            if host:
                if host not in self.hosts:
                    self.hosts[host] = self._new_window()
                self.hosts[host].add(batch_ts, contrib)
            total = contrib if total is None else total + contrib
        self.window.add(batch_ts, total)
        if total.n_nan:
            self.total_nan += total.n_nan
            self._c_nan.inc(total.n_nan)

    def tick(self, now: float | None = None) -> dict:
        """Re-evaluate without new evidence (windows still slide)."""
        with self._lock:
            at = self.clock() if now is None else float(now)
            self._now = at if self._now is None else max(self._now, at)
            self._evaluate(self._now, host=None)
            return dict(self.last_signals)

    # -- signals -------------------------------------------------------
    def _window_signals(self, window: _SlidingSum, now: float) -> tuple:
        window.evict(now)
        live = window.total
        signals = {
            "live_windows": float(live.n_windows),
            "executions": float(live.n_executions),
            "max_feature_psi": _NAN,
            "mean_feature_psi": _NAN,
            "max_feature_ks": _NAN,
            "score_psi": _NAN,
            "score_ks": _NAN,
            "margin_psi": _NAN,
            "ece": _NAN,
            "brier": _NAN,
        }
        features = []
        if (
            live.n_windows >= self.min_windows
            and live.n_executions >= self.min_executions
        ):
            drift = self.scorer.window_drift(live.feature, live.score, live.cal)
            psi, ks = drift["feature_psi"], drift["feature_ks"]
            features = [
                {"feature": name, "psi": float(psi[f]), "ks": float(ks[f])}
                for f, name in enumerate(self.profile.feature_names)
            ]
            signals["max_feature_psi"] = max(f["psi"] for f in features)
            signals["mean_feature_psi"] = float(psi.sum()) / psi.size
            signals["max_feature_ks"] = max(f["ks"] for f in features)
            signals["score_psi"] = drift["score_psi"]
            signals["score_ks"] = drift["score_ks"]
            signals["ece"] = drift["ece"]
            signals["brier"] = drift["brier"]
        if live.n_executions >= self.min_executions:
            signals["margin_psi"] = self.scorer.margin_psi(live.margin)
        return signals, features

    def signals(self, now: float | None = None) -> dict:
        """Global drift signals at ``now`` (NaN below evidence floors)."""
        with self._lock:
            at = self._now if now is None else float(now)
            if at is None:
                at = self.clock()
            self._flush()
            values, _ = self._window_signals(self.window, at)
            return values

    def host_signals(self, host: str, now: float | None = None) -> dict:
        """Drift signals for one host's live window."""
        with self._lock:
            at = self._now if now is None else float(now)
            if at is None:
                at = self.clock()
            self._flush()
            if host not in self.hosts:
                raise KeyError(f"no quality window for host {host!r}")
            values, _ = self._window_signals(self.hosts[host], at)
            return values

    # -- evaluation ----------------------------------------------------
    def _evaluate(self, now: float, host: str | None) -> None:
        self._last_eval = now
        self._flush()
        values, features = self._window_signals(self.window, now)
        self.last_signals = values
        worst = ""
        if features:
            worst = max(features, key=lambda f: f["psi"])["feature"]
            for f in features:
                self._h_psi.observe(f["psi"])
            self._g_max_psi.set(values["max_feature_psi"])
            self._g_score_psi.set(values["score_psi"])
            if not math.isnan(values["ece"]):
                self._g_ece.set(values["ece"])
        # The observing host's window slides here whether or not the
        # drift event below reads it, so host windows stay bounded.
        if host in self.hosts:
            self.hosts[host].evict(now)
        # Building the drift event costs a second full window scoring
        # (the per-host PSI), so skip it entirely when nobody records
        # it — rule evaluation below never depends on the event.
        if host is not None and self.tracer.enabled:
            # The event carries the global-window signals (what the
            # alert rules evaluate) plus the observing host's own window
            # PSI — per-host windows are smaller, so the host signal
            # stays NaN until that host alone accumulates enough
            # evidence, which is exactly when a per-host claim is sound.
            host_psi = _NAN
            if host and host in self.hosts:
                host_values, _ = self._window_signals(self.hosts[host], now)
                host_psi = host_values["max_feature_psi"]
            self.tracer.event(
                "quality.drift",
                ts=now,
                host=host,
                worst_feature=worst,
                host_max_feature_psi=host_psi,
                **values,
            )
        self.alerts.evaluate(values, now)

    # -- results -------------------------------------------------------
    @property
    def states(self) -> list[AlertState]:
        """Every drift rule's state machine (:attr:`AlertBook.states`)."""
        return self.alerts.states

    def drift_fired(self) -> bool:
        """Whether any drift rule has ever fired."""
        return self.alerts.fired()

    def critical_fired(self) -> bool:
        """Whether any critical drift rule has ever fired (CI exit gate)."""
        return self.alerts.critical_fired()

    def report(self) -> dict:
        """JSON-ready final quality report (``--quality-out``).

        Runs a full evaluation first: observations that landed inside
        the last ``eval_interval_s`` still advance the rule state
        machines before the final alert states are rendered.
        """
        with self._lock:
            now = self._now if self._now is not None else self.clock()
            self._evaluate(now, host=None)
            values, features = self._window_signals(self.window, now)
            hosts = {}
            for host in sorted(self.hosts):
                host_values, _ = self._window_signals(self.hosts[host], now)
                hosts[host] = host_values
            return {
                "schema": QUALITY_SCHEMA_VERSION,
                "profile_id": self.profile.profile_id,
                "window_s": self.window_s,
                "min_windows": self.min_windows,
                "evaluated_at": now,
                "signals": values,
                "features": features,
                "hosts": hosts,
                "totals": {
                    "executions": self.total_executions,
                    "windows": self.total_windows,
                    "nan_values": self.total_nan,
                },
                "alerts": self.alerts.to_dicts(),
                "drift_fired": self.alerts.fired(),
                "critical_fired": self.alerts.critical_fired(),
            }

    def dump(self, path: str | Path) -> None:
        """Atomically write the final quality report to ``path`` as JSON.

        The file is one line of compact JSON (:func:`repro.ioutil.dumps_json`):
        numpy scalars in the report are written as native numbers, never
        stringified.
        """
        atomic_write_text(path, dumps_json(self.report()))


def _fmt_signal(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.4g}"


def quality_table(report: dict) -> str:
    """Render a quality report as a terminal table."""
    totals = report["totals"]
    lines = [
        f"Quality — window {report['window_s']:g}s, "
        f"{totals['executions']} executions / {totals['windows']} windows "
        f"scored against profile {report['profile_id'][:12]}"
    ]
    lines.append("signals:")
    for name in QUALITY_SIGNAL_NAMES:
        lines.append(
            f"  {name:26s} {_fmt_signal(report['signals'].get(name, _NAN)):>12s}"
        )
    if report["features"]:
        lines.append("features:")
        lines.append(f"  {'feature':38s} {'psi':>9s} {'ks':>9s}")
        for row in sorted(
            report["features"], key=lambda f: -f["psi"] if f["psi"] == f["psi"] else 0
        ):
            lines.append(
                f"  {row['feature']:38s} {_fmt_signal(row['psi']):>9s} "
                f"{_fmt_signal(row['ks']):>9s}"
            )
    if report["alerts"]:
        lines.append("alerts:")
        for alert in report["alerts"]:
            rule = alert["rule"]
            lines.append(
                f"  {rule['name']:38s} {rule['severity']:8s} {alert['state']:7s} "
                f"fired {alert['fired_count']}"
            )
    return "\n".join(lines)
