"""JRip: RIPPER rule induction (Cohen, 1995), as in WEKA's ``JRip``.

RIPPER learns an ordered rule list for the minority ("positive") class
and falls back to a default rule for everything else.  Each rule is grown
condition-by-condition to maximize FOIL information gain on a grow set,
then greedily suffix-pruned on a held-out prune set (IREP*'s
``(p - n) / (p + n)`` metric); rule-set construction stops when a new
rule's prune-set error exceeds 1/2 or the positives are exhausted.

This is IREP* — RIPPER without the global optimization rounds (WEKA's
``-O 2``); DESIGN.md records the simplification.  The paper's hardware
analysis notes JRip's area "highly depends on how many rules are
generated"; :attr:`JRip.rules_` exposes exactly that structure to the
cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import Classifier, check_features, check_training_set

_EPS = 1e-12
#: Cap on candidate thresholds examined per attribute per growth step.
_MAX_THRESHOLDS = 48


#: Interior quantile grid used when an attribute has too many distinct values.
_QUANTILE_GRID = np.linspace(0, 1, _MAX_THRESHOLDS + 2)[1:-1]


def _sorted_quantiles(sorted_values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(values, qs)`` on pre-sorted data, bitwise identical.

    Replicates numpy's ``linear`` method — virtual index ``q * (n - 1)``
    and its two-sided lerp (``b - diff * (1 - t)`` when ``t >= 0.5``) —
    without re-partitioning the data or the per-call dispatch overhead,
    which dominates JRip's grow loop.
    """
    n = sorted_values.size
    virtual = qs * (n - 1)
    previous = np.floor(virtual)
    t = virtual - previous
    lo = previous.astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    a = sorted_values[lo]
    b = sorted_values[hi]
    diff = b - a
    out = a + diff * t
    upper = t >= 0.5
    out[upper] = b[upper] - diff[upper] * (1.0 - t[upper])
    return out


def _dedupe_sorted(sorted_values: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted array (``np.unique`` minus the sort)."""
    if sorted_values.size == 0:
        return sorted_values
    keep = np.empty(sorted_values.size, dtype=bool)
    keep[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=keep[1:])
    return sorted_values[keep]


def _attribute_thresholds(column: np.ndarray) -> np.ndarray | None:
    """Candidate thresholds of one attribute (midpoints of distinct values).

    Shared with the retired per-attribute search in ``tests/oracles/ml.py``
    so threshold construction can never differ between them.  Returns
    ``None`` when the column is constant.
    """
    sorted_values = np.sort(column)
    distinct = _dedupe_sorted(sorted_values)
    if distinct.size < 2:
        return None
    if distinct.size > _MAX_THRESHOLDS:
        # quantile output over monotone qs is already sorted
        distinct = _dedupe_sorted(_sorted_quantiles(sorted_values, _QUANTILE_GRID))
    return (distinct[:-1] + distinct[1:]) / 2.0


@dataclass(frozen=True)
class Condition:
    """One numeric test ``feature <op> threshold`` with op in {<=, >}."""

    attribute: int
    op: str
    threshold: float

    def covers(self, features: np.ndarray) -> np.ndarray:
        column = features[:, self.attribute]
        if self.op == "<=":
            return column <= self.threshold
        return column > self.threshold

    def __str__(self) -> str:
        return f"x{self.attribute} {self.op} {self.threshold:.6g}"


@dataclass
class Rule:
    """Conjunctive rule predicting the positive class.

    Attributes:
        conditions: ANDed numeric tests.
        class_counts: Laplace-ready weighted train counts of covered rows.
    """

    conditions: list[Condition]
    class_counts: np.ndarray

    def covers(self, features: np.ndarray) -> np.ndarray:
        mask = np.ones(features.shape[0], dtype=bool)
        for condition in self.conditions:
            mask &= condition.covers(features)
        return mask

    def __str__(self) -> str:
        body = " and ".join(str(c) for c in self.conditions) or "true"
        return f"({body})"


def _prefix_coverage(conditions: list[Condition], features: np.ndarray) -> np.ndarray:
    """Rows covered by each condition prefix, shape ``(n_rows, n_conditions)``.

    Column ``k`` is the conjunction of conditions ``0..k``: one stacked
    comparison and a ``logical_and.accumulate`` along the condition axis.
    """
    attributes = np.array([c.attribute for c in conditions], dtype=np.intp)
    thresholds = np.array([c.threshold for c in conditions])
    negate = np.array([c.op == ">" for c in conditions])
    satisfied = (features[:, attributes] <= thresholds) ^ negate
    return np.logical_and.accumulate(satisfied, axis=1)


def _foil_gain(p0: float, n0: float, p1: np.ndarray, n1: np.ndarray) -> np.ndarray:
    """FOIL information gain of refining coverage (p0,n0) to (p1,n1)."""
    before = np.log2((p0 + 1.0) / (p0 + n0 + 2.0))
    after = np.log2((p1 + 1.0) / (p1 + n1 + 2.0))
    return p1 * (after - before)


class CompiledRuleList:
    """Array form of an ordered rule list for batch application.

    All conditions of all rules are stacked into parallel arrays so one
    comparison evaluates every condition on every row at once; per-rule
    conjunction is a segmented ``logical_and.reduceat`` and first-match
    assignment an ``argmax`` over the rule-hit matrix.  Because ``>`` is
    exactly ``not <=`` on finite floats (and the feature checks reject
    NaN), this is bit-identical to applying :meth:`Rule.covers` rule by
    rule, as the differential tests check.
    """

    __slots__ = ("attributes", "thresholds", "negate", "offsets", "rule_counts")

    def __init__(self, rules: list[Rule]) -> None:
        conditions = [c for rule in rules for c in rule.conditions]
        self.attributes = np.array(
            [c.attribute for c in conditions], dtype=np.intp
        )
        self.thresholds = np.array([c.threshold for c in conditions])
        self.negate = np.array([c.op == ">" for c in conditions])
        lengths = [len(rule.conditions) for rule in rules]
        if any(length == 0 for length in lengths):
            raise ValueError("cannot compile an unconditional rule")
        self.offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.intp)
        self.rule_counts = (
            np.vstack([rule.class_counts for rule in rules])
            if rules
            else np.zeros((0, 2))
        )

    @classmethod
    def from_arrays(
        cls,
        attributes: np.ndarray,
        thresholds: np.ndarray,
        negate: np.ndarray,
        offsets: np.ndarray,
        rule_counts: np.ndarray,
    ) -> "CompiledRuleList":
        """Rebuild a compiled rule list from its parallel arrays.

        Inverse of the compiling constructor; the arrays become the live
        inference state verbatim (they may be read-only memory maps).
        """
        attributes = np.asanyarray(attributes)
        thresholds = np.asanyarray(thresholds)
        negate = np.asanyarray(negate)
        offsets = np.asanyarray(offsets)
        rule_counts = np.asanyarray(rule_counts)
        n_conditions = attributes.shape[0]
        if thresholds.shape != (n_conditions,) or negate.shape != (n_conditions,):
            raise ValueError("condition arrays are misaligned")
        n_rules = rule_counts.shape[0]
        if rule_counts.shape != (n_rules, 2):
            raise ValueError("rule_counts must have shape (n_rules, 2)")
        if n_rules and (
            offsets.shape != (n_rules,)
            or offsets[0] != 0
            or np.any(np.diff(offsets) <= 0)
            or offsets[-1] >= n_conditions
        ):
            raise ValueError("rule offsets are not a valid segmentation")
        compiled = cls.__new__(cls)
        compiled.attributes = attributes
        compiled.thresholds = thresholds
        compiled.negate = negate
        compiled.offsets = offsets
        compiled.rule_counts = rule_counts
        return compiled

    @property
    def n_rules(self) -> int:
        return self.rule_counts.shape[0]

    def apply(self, features: np.ndarray, default_counts: np.ndarray) -> np.ndarray:
        """Class counts of the first matching rule per row (default when
        no rule fires), shape ``(n, 2)``."""
        counts = np.tile(default_counts, (features.shape[0], 1))
        if self.n_rules == 0 or features.shape[0] == 0:
            return counts
        satisfied = (
            features[:, self.attributes] <= self.thresholds
        ) ^ self.negate
        hits = np.logical_and.reduceat(satisfied, self.offsets, axis=1)
        fired = hits.any(axis=1)
        first = np.argmax(hits, axis=1)
        counts[fired] = self.rule_counts[first[fired]]
        return counts


class JRip(Classifier):
    """RIPPER (IREP*) ordered rule-list classifier.

    Args:
        folds: grow/prune split denominator; one fold prunes (WEKA ``-F`` 3).
        min_weight: minimum covered positive weight per rule (WEKA ``-N`` 2).
        seed: RNG seed for the stratified grow/prune shuffle.
        use_pruning: disable to keep grown rules verbatim (WEKA ``-P``).
    """

    supports_sample_weight = False

    def __init__(
        self,
        folds: int = 3,
        min_weight: float = 2.0,
        seed: int = 1,
        use_pruning: bool = True,
    ) -> None:
        super().__init__()
        if folds < 2:
            raise ValueError("folds must be >= 2")
        self.folds = folds
        self.min_weight = min_weight
        self.seed = seed
        self.use_pruning = use_pruning
        self.params = {
            "folds": folds,
            "min_weight": min_weight,
            "seed": seed,
            "use_pruning": use_pruning,
        }
        self.rules_: list[Rule] = []
        self.positive_class_: int = 1
        self.default_counts_: np.ndarray | None = None
        self._compiled: CompiledRuleList | None = None

    # ------------------------------------------------------------------
    def _candidate_conditions(
        self, features: np.ndarray, positives: np.ndarray, weights: np.ndarray
    ) -> tuple[Condition, float] | None:
        """Best single condition by FOIL gain over current coverage.

        Per attribute, one ``<=`` coverage matrix and two weight products
        score every threshold both ways; a running strict-``>`` best
        update keeps the first maximum in attribute, ``<=``-then-``>``
        visit order.
        """
        p0 = float(weights[positives].sum())
        n0 = float(weights[~positives].sum())
        if p0 <= 0:
            return None
        wpos = weights * positives
        wneg = weights * (~positives)
        best: tuple[Condition, float] | None = None
        for j in range(features.shape[1]):
            thresholds = _attribute_thresholds(features[:, j])
            if thresholds is None:
                continue
            le = features[:, j][:, None] <= thresholds[None, :]
            p_le = wpos @ le
            n_le = wneg @ le
            for op, p1, n1 in (("<=", p_le, n_le), (">", p0 - p_le, n0 - n_le)):
                gains = _foil_gain(p0, n0, p1, n1)
                k = int(np.argmax(gains))
                if gains[k] > _EPS and (best is None or gains[k] > best[1]):
                    best = (Condition(j, op, float(thresholds[k])), float(gains[k]))
        return best

    def _grow_rule(
        self, features: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> Rule:
        """Grow one rule on the grow set until it covers no negatives."""
        conditions: list[Condition] = []
        covered = np.ones(features.shape[0], dtype=bool)
        positives = labels == self.positive_class_
        while True:
            sub = covered
            if not (positives & sub).any():
                break
            if not (~positives & sub).any():
                break  # pure positive coverage: rule is done
            found = self._candidate_conditions(
                features[sub], positives[sub], weights[sub]
            )
            if found is None:
                break
            condition, _gain = found
            conditions.append(condition)
            covered &= condition.covers(features)
        return Rule(conditions=conditions, class_counts=np.zeros(2))

    @staticmethod
    def _prune_metric(p: float, n: float) -> float:
        return (p - n) / (p + n) if p + n > 0 else -1.0

    def _prune_rule(
        self, rule: Rule, features: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> Rule:
        """Suffix-prune the rule to maximize (p-n)/(p+n) on the prune set.

        The masses of every prefix come from one matvec over the
        :func:`_prefix_coverage` matrix.
        """
        if not rule.conditions:
            return Rule(conditions=[], class_counts=np.zeros(2))
        positives = labels == self.positive_class_
        prefix = _prefix_coverage(rule.conditions, features)
        p_mass = (weights * positives) @ prefix
        n_mass = (weights * (~positives)) @ prefix
        best_len = len(rule.conditions)
        best_score = -np.inf
        scores = [
            self._prune_metric(float(p), float(n)) for p, n in zip(p_mass, n_mass)
        ]
        for k in range(len(scores), 0, -1):
            if scores[k - 1] > best_score + _EPS:
                best_score = scores[k - 1]
                best_len = k
        return Rule(conditions=rule.conditions[:best_len], class_counts=np.zeros(2))

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "JRip":
        features, labels, weights = check_training_set(features, labels, sample_weight)
        mass = [float(weights[labels == c].sum()) for c in (0, 1)]
        self.positive_class_ = int(np.argmin(mass))
        rng = np.random.default_rng(self.seed)

        remaining = np.ones(len(labels), dtype=bool)
        self.rules_ = []
        positives = labels == self.positive_class_
        while (remaining & positives).any():
            idx = np.flatnonzero(remaining)
            if idx.size < 2 * self.folds:
                break
            shuffled = rng.permutation(idx)
            n_prune = idx.size // self.folds
            prune_idx, grow_idx = shuffled[:n_prune], shuffled[n_prune:]
            rule = self._grow_rule(features[grow_idx], labels[grow_idx], weights[grow_idx])
            if self.use_pruning and n_prune > 0:
                rule = self._prune_rule(
                    rule, features[prune_idx], labels[prune_idx], weights[prune_idx]
                )
            if not rule.conditions:
                break
            covered_prune = rule.covers(features[prune_idx])
            p = float(weights[prune_idx][covered_prune & positives[prune_idx]].sum())
            n = float(weights[prune_idx][covered_prune & ~positives[prune_idx]].sum())
            if self.use_pruning and n_prune > 0 and (p + n > 0) and n > p:
                break  # prune-set error above 1/2: reject rule, stop
            covered_all = rule.covers(features) & remaining
            pos_weight = float(weights[covered_all & positives].sum())
            if pos_weight < self.min_weight:
                break
            counts = np.zeros(2)
            for c in (0, 1):
                counts[c] = float(weights[covered_all & (labels == c)].sum())
            rule.class_counts = counts
            self.rules_.append(rule)
            remaining &= ~rule.covers(features)

        default = np.zeros(2)
        for c in (0, 1):
            default[c] = float(weights[remaining & (labels == c)].sum())
        if default.sum() <= 0:
            default = np.array(mass, dtype=float)
        self.default_counts_ = default
        self._compiled = CompiledRuleList(self.rules_)
        self.fitted_ = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        features = check_features(features)
        assert self.default_counts_ is not None
        if self._compiled is None:
            self._compiled = CompiledRuleList(self.rules_)
        counts = self._compiled.apply(features, self.default_counts_)
        smoothed = counts + 1.0
        return smoothed / smoothed.sum(axis=1, keepdims=True)

    # -- serialization ---------------------------------------------------
    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        assert self.default_counts_ is not None
        if self._compiled is None:
            self._compiled = CompiledRuleList(self.rules_)
        compiled = self._compiled
        spec = {
            "params": dict(self.params),
            "positive_class": int(self.positive_class_),
        }
        return spec, {
            "cond_attribute": compiled.attributes,
            "cond_threshold": compiled.thresholds,
            "cond_negate": compiled.negate,
            "rule_offsets": compiled.offsets,
            "rule_counts": compiled.rule_counts,
            "default_counts": self.default_counts_,
        }

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict) -> "JRip":
        model = cls(**spec["params"])
        compiled = CompiledRuleList.from_arrays(
            arrays["cond_attribute"],
            arrays["cond_threshold"],
            arrays["cond_negate"],
            arrays["rule_offsets"],
            arrays["rule_counts"],
        )
        # rebuild the structural rule list (hardware cost model, __str__)
        # from the compiled segmentation; prediction keeps the arrays
        bounds = np.append(compiled.offsets, compiled.attributes.shape[0])
        rules = []
        for r in range(compiled.n_rules):
            conditions = [
                Condition(
                    int(compiled.attributes[i]),
                    ">" if compiled.negate[i] else "<=",
                    float(compiled.thresholds[i]),
                )
                for i in range(int(bounds[r]), int(bounds[r + 1]))
            ]
            rules.append(
                Rule(conditions, np.array(compiled.rule_counts[r], dtype=float))
            )
        model.rules_ = rules
        model.positive_class_ = int(spec["positive_class"])
        model.default_counts_ = np.asanyarray(arrays["default_counts"])
        model._compiled = compiled
        model.fitted_ = True
        return model

    # -- structure, for the hardware model and reports ------------------
    @property
    def n_rules(self) -> int:
        self._require_fitted()
        return len(self.rules_)

    @property
    def n_conditions(self) -> int:
        """Total condition count across all rules (hardware comparators)."""
        self._require_fitted()
        return sum(len(rule.conditions) for rule in self.rules_)

    def describe(self) -> str:
        """Human-readable ordered rule list."""
        self._require_fitted()
        lines = [
            f"{rule} => class {self.positive_class_} "
            f"[{rule.class_counts[self.positive_class_]:.1f}/"
            f"{rule.class_counts.sum():.1f}]"
            for rule in self.rules_
        ]
        assert self.default_counts_ is not None
        lines.append(f"default => class {int(np.argmax(self.default_counts_))}")
        return "\n".join(lines)
