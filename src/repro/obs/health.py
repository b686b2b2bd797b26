"""Live health evaluation: sliding-window signals, alert rules, SLOs.

The paper's claim is about *run-time* detection, so the reproduction
needs a run-time answer to "is the detector healthy right now" — not a
post-mortem table.  This module layers three pieces on the telemetry the
pipeline already emits:

* :class:`SlidingWindowSignals` — derived signals over a configurable
  time window: detection rate, degraded-verdict ratio, retry rate,
  windows-lost fraction, and p50/p95 per-window classify latency.  The
  latency quantiles are exact in the same sense as
  :func:`~repro.obs.stats.histogram_quantile`: observations land in the
  same fixed buckets :class:`~repro.obs.metrics.Histogram` uses, bucket
  counts add and subtract exactly as window entries arrive and expire,
  so a windowed quantile equals the quantile of a histogram built from
  only the window's observations.
* :class:`AlertRule` / :class:`AlertState` — declarative threshold rules
  (comparator, ``for_s`` hold duration, severity, hysteresis via a
  distinct clear threshold) evaluated deterministically against a
  supplied clock.  :class:`AlertBook` evaluates a tracker's rules and
  publishes their firing/cleared transitions: ``health.alert`` (or
  ``quality.alert``) trace events, registry counters, and stderr lines
  when a stream is given.
* :class:`SLO` — objectives like "≥95% non-degraded verdicts" or
  "p95 classify < 10 ms" with burn-rate and remaining-error-budget
  reporting.

:class:`HealthEvaluator` ties them together and has two feeding paths
with one code path behind them: :meth:`~HealthEvaluator.ingest` consumes
``fleet.verdict`` / ``monitor.verdict`` trace events (from a file a
:class:`~repro.obs.stream.TraceFollower` tails), and the in-process hook
(``health=`` on :class:`~repro.core.runtime.RuntimeMonitor` and
:class:`~repro.core.fleet.FleetMonitor`) calls
:meth:`~HealthEvaluator.observe_verdict` directly, no file round-trip.
Either way the evaluator never touches verdict computation — verdicts
stay bit-identical with health evaluation enabled — and a monitor built
with ``health=None`` pays one attribute check, like the null tracer.

Determinism contract: evaluation time is whatever clock the caller
supplies — event timestamps during replay, an injected fake clock in
tests — and transitions record that time, so replaying the same trace
yields byte-identical transition history.
"""

from __future__ import annotations

import json
import math
import operator
import re
import threading
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, TextIO

import numpy as np

from repro.ioutil import atomic_write_text, dumps_json
from repro.obs.archive import VERDICT_EVENTS
from repro.obs.metrics import FAST_LATENCY_BUCKETS, NULL_REGISTRY, Registry
from repro.obs.stats import histogram_quantile
from repro.obs.trace import NULL_TRACER, Tracer

#: Schema tag written into health reports (bump on incompatible change).
HEALTH_SCHEMA_VERSION = 1

#: Rule severities, least to most urgent.
SEVERITIES = ("info", "warning", "critical")

#: Signals every window exposes (alert rules may target any of these).
SIGNAL_NAMES = (
    "verdicts",
    "detection_rate",
    "degraded_ratio",
    "retry_rate",
    "windows_lost_fraction",
    "p50_classify_s",
    "p95_classify_s",
)

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

_NAN = float("nan")


class HealthConfigError(ValueError):
    """Malformed alert rule or SLO specification."""


class _SlidingSum:
    """Running total of timestamped additive contributions over a
    trailing window.

    ``entries`` holds ``(ts, contribution)`` pairs in time order and
    ``total`` their sum; :meth:`evict` pops the expired entries and
    subtracts their contribution, so ``total`` always equals a fresh sum
    over the survivors.  A contribution is anything with exact ``+`` and
    ``-``: int64 vectors here, drift-bin counts in
    :mod:`repro.obs.quality`.
    """

    def __init__(self, window_s: float, zero) -> None:
        self.window_s = window_s
        self.entries: deque = deque()
        self.total = zero

    def add(self, ts: float, contribution) -> None:
        # Eviction pops from the left while entries are expired, which
        # requires timestamps to be non-decreasing.  A straggler stamped
        # earlier than the tail (fleet and serve threads finish out of
        # order) is clamped forward to the tail's time.
        ts = max(float(ts), self.entries[-1][0]) if self.entries else float(ts)
        self.entries.append((ts, contribution))
        self.total = self.total + contribution

    def evict(self, now: float) -> None:
        """Drop entries that have aged out of the window ending at ``now``."""
        cutoff = now - self.window_s
        while self.entries and self.entries[0][0] <= cutoff:
            self.total = self.total - self.entries.popleft()[1]


class SlidingWindowSignals:
    """Exact derived signals over a trailing time window.

    Verdict-level evidence (alarms, degradation, kept and lost windows,
    retries) and classify-latency bucket counts are each a
    :class:`_SlidingSum` of small int64 vectors, so every signal is
    exactly what a fresh accumulation over the surviving entries would
    produce.

    Args:
        window_s: trailing window length in seconds.
        buckets: classify-latency bucket bounds (must match the
            producing histogram's buckets for windowed quantiles to be
            exact; defaults to the monitor's
            :data:`~repro.obs.metrics.FAST_LATENCY_BUCKETS`).
    """

    def __init__(
        self, window_s: float = 60.0, buckets: tuple = FAST_LATENCY_BUCKETS
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = float(window_s)
        self.buckets = tuple(float(b) for b in buckets)
        # (1, alarm, degraded, kept, lost, retries) per verdict
        self._verdicts = _SlidingSum(self.window_s, np.zeros(6, dtype=np.int64))
        # observations per latency bucket (the last is +Inf)
        self._classify = _SlidingSum(
            self.window_s, np.zeros(len(self.buckets) + 1, dtype=np.int64)
        )
        # Lifetime totals (never evicted) for the final report.
        self.total_verdicts = 0
        self.total_degraded = 0

    def observe_verdict(
        self,
        ts: float,
        *,
        is_malware: bool,
        degraded: bool,
        n_windows: int,
        n_windows_lost: int = 0,
        retries: int = 0,
    ) -> None:
        self._verdicts.add(
            ts,
            np.array(
                [
                    1, bool(is_malware), bool(degraded), int(n_windows),
                    int(n_windows_lost), int(retries),
                ],
                dtype=np.int64,
            ),
        )
        self.total_verdicts += 1
        self.total_degraded += bool(degraded)

    def observe_classify(self, ts: float, seconds: float, n: int = 1) -> None:
        """Record ``n`` per-window classify observations of ``seconds``."""
        if n <= 0:
            return
        counts = np.zeros(len(self.buckets) + 1, dtype=np.int64)
        counts[bisect_left(self.buckets, float(seconds))] = n
        self._classify.add(ts, counts)

    def evict(self, now: float) -> None:
        """Drop entries that have aged out of the window ending at ``now``."""
        self._verdicts.evict(now)
        self._classify.evict(now)

    def _verdict_totals(self, now: float) -> list:
        """``[n, alarms, degraded, kept, lost, retries]`` in the window."""
        self.evict(now)
        return self._verdicts.total.tolist()

    def values(self, now: float) -> dict:
        """Every signal at time ``now`` (NaN where there is no evidence)."""
        n, alarms, degraded, kept, lost, retries = self._verdict_totals(now)
        counts = self._classify.total.tolist()
        classify = {"count": sum(counts), "buckets": self.buckets, "counts": counts}
        return {
            "verdicts": float(n),
            "detection_rate": alarms / n if n else _NAN,
            "degraded_ratio": degraded / n if n else _NAN,
            "retry_rate": retries / n if n else _NAN,
            "windows_lost_fraction": (
                lost / (kept + lost) if kept + lost else _NAN
            ),
            "p50_classify_s": histogram_quantile(classify, 0.50),
            "p95_classify_s": histogram_quantile(classify, 0.95),
        }

    def classify_good_fraction(self, bound_s: float, now: float) -> float:
        """Fraction of windowed classify observations at or under ``bound_s``.

        Exact under the histogram's upper-bound semantics: an
        observation counts as good when its bucket bound is <=
        ``bound_s``, which matches :func:`histogram_quantile` so
        "p95 <= bound" and "good fraction >= 0.95" agree.
        """
        self.evict(now)
        counts = self._classify.total.tolist()
        total = sum(counts)
        if not total:
            return _NAN
        good = 0
        for bound, count in zip(self.buckets, counts):
            if bound > bound_s:
                break
            good += count
        return good / total

    def degraded_good_fraction(self, now: float) -> float:
        """Fraction of windowed verdicts that are *not* degraded."""
        n, _, degraded, *_ = self._verdict_totals(now)
        return (n - degraded) / n if n else _NAN

    def windows_kept_fraction(self, now: float) -> float:
        """Fraction of requested sampling windows that survived."""
        _, _, _, kept, lost, _ = self._verdict_totals(now)
        return kept / (kept + lost) if kept + lost else _NAN


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold rule over a window signal.

    Args:
        name: rule identifier (shown in transitions and reports).
        signal: one of :data:`SIGNAL_NAMES`.
        op: comparator applied as ``signal op threshold``.
        threshold: breach threshold.
        for_s: the breach must hold continuously this long before the
            rule fires (0 = fire on first breach).
        severity: ``info`` / ``warning`` / ``critical``.
        clear_threshold: hysteresis — once firing, the rule clears only
            when ``signal op clear_threshold`` is false.  Defaults to
            ``threshold`` (no hysteresis band).
    """

    name: str
    signal: str
    op: str
    threshold: float
    for_s: float = 0.0
    severity: str = "warning"
    clear_threshold: float | None = None

    #: Signals rules of this class may target.  Subclasses evaluating a
    #: different signal family (e.g. drift signals in
    #: :mod:`repro.obs.quality`) override this; the state machine and
    #: spec grammar are shared unchanged.
    signal_names: ClassVar[tuple] = SIGNAL_NAMES

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise HealthConfigError(
                f"rule {self.name!r}: unknown comparator {self.op!r} "
                f"(use one of {'/'.join(_OPS)})"
            )
        if self.signal not in type(self).signal_names:
            raise HealthConfigError(
                f"rule {self.name!r}: unknown signal {self.signal!r} "
                f"(use one of {', '.join(type(self).signal_names)})"
            )
        if self.severity not in SEVERITIES:
            raise HealthConfigError(
                f"rule {self.name!r}: unknown severity {self.severity!r} "
                f"(use one of {'/'.join(SEVERITIES)})"
            )
        if self.for_s < 0:
            raise HealthConfigError(f"rule {self.name!r}: for_s cannot be negative")
        if self.clear_threshold is not None:
            upward = self.op in (">", ">=")
            band_ok = (
                self.clear_threshold <= self.threshold
                if upward
                else self.clear_threshold >= self.threshold
            )
            if not band_ok:
                side = "below" if upward else "above"
                raise HealthConfigError(
                    f"rule {self.name!r}: clear_threshold must be {side} "
                    f"threshold for op {self.op!r} (hysteresis band)"
                )

    def breaches(self, value: float) -> bool:
        """Whether ``value`` violates the rule (NaN never breaches)."""
        if math.isnan(value):
            return False
        return _OPS[self.op](value, self.threshold)

    def clears(self, value: float) -> bool:
        """Whether a firing rule may return to ok (NaN keeps it firing)."""
        if math.isnan(value):
            return False
        clear_at = (
            self.threshold if self.clear_threshold is None else self.clear_threshold
        )
        return not _OPS[self.op](value, clear_at)

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "signal": self.signal,
            "op": self.op,
            "threshold": self.threshold,
            "for_s": self.for_s,
            "severity": self.severity,
        }
        if self.clear_threshold is not None:
            data["clear_threshold"] = self.clear_threshold
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AlertRule":
        try:
            return cls(
                name=data.get("name") or f"{data['signal']}{data['op']}",
                signal=data["signal"],
                op=data["op"],
                threshold=float(data["threshold"]),
                for_s=float(data.get("for_s", 0.0)),
                severity=data.get("severity", "warning"),
                clear_threshold=(
                    float(data["clear_threshold"])
                    if data.get("clear_threshold") is not None
                    else None
                ),
            )
        except KeyError as exc:
            raise HealthConfigError(f"alert rule missing field {exc}") from exc


_SPEC_RE = re.compile(r"^\s*([a-z0-9_]+)\s*(>=|<=|>|<)\s*([0-9.eE+-]+)\s*$")


def parse_alert_spec(spec: str, rule_cls: type = AlertRule) -> AlertRule:
    """Parse an inline ``--alert`` rule specification.

    Format: ``SIGNAL OP THRESHOLD[:SEVERITY[:FOR_S[:CLEAR]]]``, e.g.
    ``degraded_ratio>=0.2:critical:5:0.1`` fires at 0.2 after 5 s of
    sustained breach and clears below 0.1.  ``rule_cls`` selects which
    :class:`AlertRule` family validates the signal name (the quality
    tracker parses the same grammar against its drift signals).
    """
    condition, *extras = spec.split(":")
    if len(extras) > 3:
        raise HealthConfigError(f"bad alert spec {spec!r}: too many ':' fields")
    match = _SPEC_RE.match(condition)
    if not match:
        raise HealthConfigError(
            f"bad alert spec {spec!r}; expected SIGNAL OP THRESHOLD like "
            "degraded_ratio>=0.2[:severity[:for_s[:clear_threshold]]]"
        )
    signal, op, raw_threshold = match.groups()
    try:
        threshold = float(raw_threshold)
        severity = extras[0] if len(extras) > 0 and extras[0] else "warning"
        for_s = float(extras[1]) if len(extras) > 1 and extras[1] else 0.0
        clear = float(extras[2]) if len(extras) > 2 and extras[2] else None
    except ValueError as exc:
        raise HealthConfigError(f"bad alert spec {spec!r}: {exc}") from exc
    return rule_cls(
        name=condition.replace(" ", ""),
        signal=signal,
        op=op,
        threshold=threshold,
        for_s=for_s,
        severity=severity,
        clear_threshold=clear,
    )


def load_alert_rules(path: str | Path) -> list[AlertRule]:
    """Read alert rules from a JSON file.

    Accepts either a bare list of rule objects or ``{"rules": [...]}``;
    see :meth:`AlertRule.from_dict` for the per-rule schema.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise HealthConfigError(f"alert rules {path}: invalid JSON ({exc})") from exc
    rules = data.get("rules") if isinstance(data, dict) else data
    if not isinstance(rules, list):
        raise HealthConfigError(
            f"alert rules {path}: expected a list of rules or {{'rules': [...]}}"
        )
    return [AlertRule.from_dict(rule) for rule in rules]


class AlertState:
    """Runtime state machine for one :class:`AlertRule`.

    States: ``ok`` → ``pending`` (breaching, waiting out ``for_s``) →
    ``firing`` → back to ``ok`` when the clear condition holds.  Every
    firing/cleared transition is appended to :attr:`transitions` with
    the evaluation timestamp, so a replay under the same clock produces
    the same history.
    """

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule
        self.state = "ok"
        self.pending_since: float | None = None
        self.fired_count = 0
        self.last_value = _NAN
        self.transitions: list[dict] = []

    def update(self, value: float, now: float) -> dict | None:
        """Advance the state machine; returns the transition, if any."""
        self.last_value = value
        if self.state == "firing":
            if self.rule.clears(value):
                self.state = "ok"
                self.pending_since = None
                transition = {
                    "rule": self.rule.name, "state": "cleared",
                    "ts": now, "value": value, "severity": self.rule.severity,
                }
                self.transitions.append(transition)
                return transition
            return None
        if self.rule.breaches(value):
            if self.pending_since is None:
                self.pending_since = now
            if now - self.pending_since >= self.rule.for_s:
                self.state = "firing"
                self.fired_count += 1
                transition = {
                    "rule": self.rule.name, "state": "firing",
                    "ts": now, "value": value, "severity": self.rule.severity,
                    "breached_since": self.pending_since,
                }
                self.transitions.append(transition)
                return transition
            self.state = "pending"
        else:
            self.state = "ok"
            self.pending_since = None
        return None

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.to_dict(),
            "state": self.state,
            "fired_count": self.fired_count,
            "last_value": self.last_value,
            "transitions": list(self.transitions),
        }


class AlertBook:
    """One tracker's alert rules and everything their transitions publish.

    :meth:`evaluate` advances every rule's :class:`AlertState` against a
    dict of signal values.  Each firing/cleared transition increments
    ``<kind>_alerts_fired_total`` / ``<kind>_alerts_cleared_total``,
    records a ``<kind>.alert`` trace event (``host="*"``: the rules
    judge fleet-wide signals) and, when ``stream`` is given, prints a
    ``[<kind>]`` notice there.  :class:`HealthEvaluator` (kind
    ``health``) and :class:`~repro.obs.quality.QualityTracker` (kind
    ``quality``) each hold one.
    """

    def __init__(
        self,
        kind: str,
        rules: tuple | list,
        tracer: Tracer,
        metrics: Registry,
        stream: TextIO | None,
    ) -> None:
        self.kind = kind
        self.states = [AlertState(rule) for rule in rules]
        self.tracer = tracer
        self.stream = stream
        self._c_fired = metrics.counter(
            f"{kind}_alerts_fired_total", "alert rules entering the firing state"
        )
        self._c_cleared = metrics.counter(
            f"{kind}_alerts_cleared_total", "alert rules returning to ok"
        )

    def evaluate(self, values: dict, now: float) -> None:
        """Advance every rule to ``now`` (a missing signal is NaN)."""
        for state in self.states:
            transition = state.update(values.get(state.rule.signal, _NAN), now)
            if transition is None:
                continue
            if transition["state"] == "firing":
                self._c_fired.inc()
            else:
                self._c_cleared.inc()
            self.tracer.event(f"{self.kind}.alert", host="*", **transition)
            if self.stream is not None:
                rule = state.rule
                print(
                    f"[{self.kind}] {transition['state'].upper():7s} "
                    f"{rule.severity:8s} {rule.name}: "
                    f"{rule.signal} {rule.op} {rule.threshold:g} "
                    f"(value {transition['value']:.4g} at t={transition['ts']:.3f})",
                    file=self.stream,
                )

    def fired(self) -> bool:
        """Whether any rule has ever fired."""
        return any(state.fired_count for state in self.states)

    def critical_fired(self) -> bool:
        """Whether any critical rule has ever fired (the CI exit gate)."""
        return any(
            state.rule.severity == "critical" and state.fired_count
            for state in self.states
        )

    def to_dicts(self) -> list[dict]:
        """Every rule's state, for a report's ``alerts`` list."""
        return [state.to_dict() for state in self.states]


@dataclass(frozen=True)
class SLO:
    """A service-level objective with error-budget accounting.

    ``good_fraction`` of the window's units (verdicts or classify
    observations, per :attr:`kind`) must be at least :attr:`objective`;
    the error budget is ``1 - objective`` and the burn rate is the bad
    fraction divided by that budget (1.0 = exactly consuming budget).

    Args:
        name: the spec string it was parsed from (used in reports).
        kind: ``nondegraded`` (non-degraded verdict fraction),
            ``windows_kept`` (surviving sampling-window fraction), or
            ``classify_latency`` (classify observations at or under
            ``bound_s``).
        objective: required good fraction in (0, 1).
        bound_s: latency bound for ``classify_latency`` objectives.
    """

    name: str
    kind: str
    objective: float
    bound_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("nondegraded", "windows_kept", "classify_latency"):
            raise HealthConfigError(f"SLO {self.name!r}: unknown kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise HealthConfigError(
                f"SLO {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective}"
            )
        if self.kind == "classify_latency" and (
            self.bound_s is None or self.bound_s <= 0
        ):
            raise HealthConfigError(
                f"SLO {self.name!r}: classify_latency needs a positive bound"
            )

    def good_fraction(self, window: SlidingWindowSignals, now: float) -> float:
        if self.kind == "nondegraded":
            return window.degraded_good_fraction(now)
        if self.kind == "windows_kept":
            return window.windows_kept_fraction(now)
        return window.classify_good_fraction(self.bound_s, now)

    def status(self, window: SlidingWindowSignals, now: float) -> dict:
        """Compliance, burn rate, and remaining error budget at ``now``."""
        good = self.good_fraction(window, now)
        budget = 1.0 - self.objective
        if math.isnan(good):
            burn = _NAN
            remaining = _NAN
            ok = None
        else:
            bad = 1.0 - good
            burn = bad / budget
            remaining = 1.0 - burn
            ok = good >= self.objective
        return {
            "slo": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "bound_s": self.bound_s,
            "good_fraction": good,
            "burn_rate": burn,
            "budget_remaining": remaining,
            "ok": ok,
        }


_SLO_QUANTILE_RE = re.compile(r"^\s*p(\d{1,2})_classify_s\s*<=?\s*([0-9.eE+-]+)\s*$")
_SLO_GOOD_RE = re.compile(r"^\s*(nondegraded|windows_kept)\s*>=?\s*([0-9.eE+-]+)\s*$")
_SLO_BAD_RE = re.compile(
    r"^\s*(degraded_ratio|windows_lost_fraction)\s*<=?\s*([0-9.eE+-]+)\s*$"
)

_BAD_TO_KIND = {"degraded_ratio": "nondegraded", "windows_lost_fraction": "windows_kept"}


def parse_slo(spec: str) -> SLO:
    """Parse an ``--slo`` objective specification.

    Accepted forms::

        nondegraded>=0.95            # ≥95% of verdicts non-degraded
        degraded_ratio<=0.05         # same objective, budget spelling
        windows_kept>=0.9            # ≥90% of sampling windows survive
        windows_lost_fraction<=0.1   # same objective, budget spelling
        p95_classify_s<=0.01         # 95% of windows classify in <=10ms
    """
    match = _SLO_QUANTILE_RE.match(spec)
    if match:
        quantile, bound = match.groups()
        return SLO(
            name=spec.strip(), kind="classify_latency",
            objective=int(quantile) / 100.0, bound_s=float(bound),
        )
    match = _SLO_GOOD_RE.match(spec)
    if match:
        kind, objective = match.groups()
        return SLO(name=spec.strip(), kind=kind, objective=float(objective))
    match = _SLO_BAD_RE.match(spec)
    if match:
        signal, budget = match.groups()
        return SLO(
            name=spec.strip(), kind=_BAD_TO_KIND[signal],
            objective=1.0 - float(budget),
        )
    raise HealthConfigError(
        f"bad SLO spec {spec!r}; expected one of nondegraded>=F, "
        "degraded_ratio<=F, windows_kept>=F, windows_lost_fraction<=F, "
        "pNN_classify_s<=SECONDS"
    )


class HealthEvaluator:
    """Evaluates alert rules and SLOs over a live verdict stream.

    One evaluator serves both feeding paths: the in-process monitor hook
    calls :meth:`observe_verdict` / :meth:`observe_classify` directly,
    and a file watcher replays trace events through :meth:`ingest` and
    metrics-snapshot deltas through :meth:`absorb_metrics`.  All entry
    points are thread-safe (the fleet observes from worker threads).

    Args:
        rules: alert rules to evaluate.
        slos: objectives to track.
        window_s: sliding-window length for every derived signal.
        tracer: receives one ``health.alert`` event per firing/cleared
            transition.
        metrics: counts verdicts observed, evaluations, and transitions
            (``health_alerts_fired_total`` / ``health_alerts_cleared_total``).
        stream: optional text stream; transitions render there as
            one-line notices (the CLI passes stderr).
        clock: time source for entry points not given an explicit
            timestamp — inject a fake for replayable tests.
    """

    def __init__(
        self,
        rules: tuple | list = (),
        slos: tuple | list = (),
        window_s: float = 60.0,
        tracer: Tracer | None = None,
        metrics: Registry | None = None,
        stream: TextIO | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.window = SlidingWindowSignals(window_s)
        self.slos = list(slos)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.clock = clock
        self.last_values: dict = {}
        self._now: float | None = None
        self._lock = threading.RLock()
        self._c_verdicts = self.metrics.counter(
            "health_verdicts_observed_total", "verdicts fed to the health evaluator"
        )
        self._c_evals = self.metrics.counter(
            "health_evaluations_total", "alert-rule evaluation passes"
        )
        self.alerts = AlertBook("health", rules, self.tracer, self.metrics, stream)

    # -- feeding paths -------------------------------------------------
    def observe_verdict(
        self,
        app_name: str = "",
        *,
        is_malware: bool,
        degraded: bool = False,
        n_windows: int,
        n_windows_lost: int = 0,
        retries: int = 0,
        ts: float | None = None,
    ) -> None:
        """The in-process hook: one verdict straight from a monitor."""
        with self._lock:
            now = self.clock() if ts is None else float(ts)
            self.window.observe_verdict(
                now,
                is_malware=is_malware,
                degraded=degraded,
                n_windows=n_windows,
                n_windows_lost=n_windows_lost,
                retries=retries,
            )
            self._c_verdicts.inc()
            self._evaluate(now)

    def observe_classify(
        self, seconds: float, n: int = 1, ts: float | None = None
    ) -> None:
        """Record per-window classify latency (no rule evaluation)."""
        with self._lock:
            now = self.clock() if ts is None else float(ts)
            self.window.observe_classify(now, seconds, n)

    def ingest(self, event: dict) -> bool:
        """Consume one trace event; returns True when it fed a signal.

        Recognizes the verdict events the monitors emit; anything else
        (spans, matrix cells) is ignored so a whole trace file can be
        streamed through without filtering.
        """
        if event.get("type") != "event" or event.get("name") not in VERDICT_EVENTS:
            return False
        attrs = event.get("attrs", {})
        self.observe_verdict(
            attrs.get("app", ""),
            is_malware=bool(attrs.get("is_malware", False)),
            degraded=bool(attrs.get("degraded", False)),
            n_windows=int(attrs.get("n_windows", 0)),
            n_windows_lost=int(attrs.get("n_windows_lost", 0)),
            retries=max(int(attrs.get("attempts", 1)) - 1, 0),
            ts=float(event.get("ts", 0.0)),
        )
        return True

    def absorb_metrics(self, snapshot: dict, ts: float | None = None) -> None:
        """Fold a metrics-snapshot *delta* into the classify window.

        Every ``*_classify_seconds`` histogram increment is replayed as
        observations at its bucket's upper bound — the same upper-bound
        convention :func:`histogram_quantile` uses, so windowed
        quantiles from a followed metrics file agree with the producing
        histogram's own quantiles.  Pass deltas
        (:meth:`~repro.obs.stream.MetricsFollower.poll`), not cumulative
        snapshots, or observations double-count.
        """
        with self._lock:
            now = self.clock() if ts is None else float(ts)
            for name, data in snapshot.get("histograms", {}).items():
                if not name.endswith("_classify_seconds"):
                    continue
                bounds = list(data["buckets"]) + [float("inf")]
                for bound, count in zip(bounds, data["counts"]):
                    if count:
                        self.window.observe_classify(now, bound, int(count))

    # -- evaluation ----------------------------------------------------
    def tick(self, now: float | None = None) -> dict:
        """Evaluate all rules at ``now`` (clock time when omitted) and
        return the current signal values."""
        with self._lock:
            self._evaluate(self.clock() if now is None else float(now))
            return dict(self.last_values)

    def _evaluate(self, now: float) -> None:
        # Time only moves forward: a late-arriving event (fleet threads
        # finish out of order) evaluates at the latest time seen, so the
        # window never slides backwards and replays stay deterministic.
        self._now = now if self._now is None else max(self._now, now)
        values = self.window.values(self._now)
        self.last_values = values
        self._c_evals.inc()
        self.alerts.evaluate(values, self._now)

    # -- results -------------------------------------------------------
    @property
    def states(self) -> list[AlertState]:
        """Every rule's state machine (:attr:`AlertBook.states`)."""
        return self.alerts.states

    @property
    def firing(self) -> list[AlertState]:
        """Alert states currently in the firing state."""
        return [state for state in self.states if state.state == "firing"]

    def critical_fired(self) -> bool:
        """Whether any critical rule has ever fired (the CI exit gate)."""
        return self.alerts.critical_fired()

    def slo_statuses(self, now: float | None = None) -> list[dict]:
        with self._lock:
            at = self._now if now is None else float(now)
            if at is None:
                at = self.clock()
            return [slo.status(self.window, at) for slo in self.slos]

    def report(self) -> dict:
        """JSON-ready final health report (``--health-out``)."""
        with self._lock:
            now = self._now if self._now is not None else self.clock()
            return {
                "schema": HEALTH_SCHEMA_VERSION,
                "window_s": self.window.window_s,
                "evaluated_at": now,
                "signals": self.window.values(now),
                "totals": {
                    "verdicts": self.window.total_verdicts,
                    "degraded": self.window.total_degraded,
                },
                "alerts": self.alerts.to_dicts(),
                "slos": [slo.status(self.window, now) for slo in self.slos],
                "critical_fired": self.alerts.critical_fired(),
            }

    def dump(self, path: str | Path) -> None:
        """Atomically write the final health report to ``path`` as JSON.

        The file is one line of compact JSON (:func:`repro.ioutil.dumps_json`):
        numpy scalars in the report are written as native numbers, never
        stringified.
        """
        atomic_write_text(path, dumps_json(self.report()))


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value == float("inf"):
            return "+Inf"
        if float(value).is_integer() and abs(value) < 1e6:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def health_table(report: dict) -> str:
    """Render a health report as the ``watch`` terminal table."""
    lines = [
        f"Health — window {report['window_s']:g}s, "
        f"{report['totals']['verdicts']} verdicts total "
        f"({report['totals']['degraded']} degraded)"
    ]
    lines.append("signals:")
    for name in SIGNAL_NAMES:
        value = report["signals"].get(name, _NAN)
        shown = (
            _fmt_value(value * 1e3) + " ms"
            if name.endswith("_s") and isinstance(value, float) and value == value
            else _fmt_value(value)
        )
        lines.append(f"  {name:26s} {shown:>12s}")
    if report["alerts"]:
        lines.append("alerts:")
        lines.append(
            f"  {'rule':30s} {'severity':8s} {'state':7s} "
            f"{'value':>10s} {'threshold':>10s} {'fired':>5s}"
        )
        for alert in report["alerts"]:
            rule = alert["rule"]
            threshold = f"{rule['op']}{rule['threshold']:g}"
            lines.append(
                f"  {rule['name']:30s} {rule['severity']:8s} {alert['state']:7s} "
                f"{_fmt_value(alert['last_value']):>10s} {threshold:>10s} "
                f"{alert['fired_count']:>5d}"
            )
    if report["slos"]:
        lines.append("SLOs:")
        lines.append(
            f"  {'objective':30s} {'good':>8s} {'target':>8s} "
            f"{'burn':>7s} {'budget left':>12s} {'ok':>4s}"
        )
        for slo in report["slos"]:
            ok = {True: "yes", False: "NO", None: "-"}[slo["ok"]]
            lines.append(
                f"  {slo['slo']:30s} {_fmt_value(slo['good_fraction']):>8s} "
                f"{slo['objective']:>8.2f} {_fmt_value(slo['burn_rate']):>7s} "
                f"{_fmt_value(slo['budget_remaining']):>12s} {ok:>4s}"
            )
    return "\n".join(lines)
