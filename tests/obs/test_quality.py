"""Quality observability: binning, divergence scoring, streaming tracker."""

import functools
import json
import math
import operator

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.obs import (
    QualityAlertRule,
    QualityError,
    QualityTracker,
    ReferenceProfile,
    Registry,
    Tracer,
    build_reference_profile,
    parse_quality_alert_spec,
    quality_table,
)
from repro.obs.archive import DRIFT_RULE, normalize_events
from repro.obs.health import HealthConfigError
from repro.obs.quality import (
    DEFAULT_QUALITY_RULES,
    DriftScorer,
    _cell_indices,
    _equal_width_edges,
    bin_matrix,
    bin_values,
)
from tests.oracles.quality import bin_execution, ks, psi

N_BINS = 4
N_FEATURES = 2
N_REF = 240


def make_profile(seed=3, n_ref=N_REF):
    """Small synthetic profile over uniform-[0,1] features and scores."""
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0.0, 1.0, size=(n_ref, N_FEATURES))
    edges = np.stack([np.linspace(0.0, 1.0, N_BINS + 1)] * N_FEATURES)
    counts, _ = bin_matrix(edges, feats)
    scores = rng.uniform(0.0, 1.0, n_ref)
    score_edges = np.linspace(0.0, 1.0, N_BINS + 1)
    score_counts, _ = bin_values(score_edges, scores)
    margin_edges = np.linspace(-1.0, 1.0, N_BINS + 1)
    margin_counts, _ = bin_values(margin_edges, rng.uniform(-0.5, 0.5, 30))
    labels = (scores > 0.5).astype(float)
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
        feature_names=tuple(f"f{i}" for i in range(N_FEATURES)),
        feature_edges=edges,
        feature_counts=counts,
        feature_nan=(0,) * N_FEATURES,
        score_edges=score_edges,
        score_counts=score_counts,
        margin_edges=margin_edges,
        margin_counts=margin_counts,
        calibration=calibration,
        vote_threshold=0.5,
        meta={"origin": "test"},
    )


@pytest.fixture(scope="module")
def profile():
    return make_profile()


def ref_like(profile, n, seed=9):
    """A live draw from the same distribution the profile was built on."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, N_FEATURES)), rng.uniform(0.0, 1.0, n)


def ref_data():
    """The exact draw :func:`make_profile` binned (same seed, same order)."""
    rng = np.random.default_rng(3)
    feats = rng.uniform(0.0, 1.0, size=(N_REF, N_FEATURES))
    scores = rng.uniform(0.0, 1.0, N_REF)
    return feats, scores


def shifted(n):
    """A live draw entirely outside the reference support (overflow mass)."""
    return np.full((n, N_FEATURES), 5.0), np.full(n, 5.0)


# -- binning -----------------------------------------------------------


def test_bin_values_cell_conventions():
    edges = np.linspace(0.0, 1.0, N_BINS + 1)
    counts, n_nan = bin_values(edges, [-5.0, 0.1, 0.5, 1.0, 2.0, float("nan")])
    assert n_nan == 1
    assert counts[0] == 1  # underflow
    assert counts[-1] == 1  # overflow (2.0 > last edge)
    # The exact last edge lands in the last closed bin, not overflow.
    assert counts[N_BINS] == 1
    assert counts[1] == 1 and counts[3] == 1  # 0.1 and 0.5 (left-closed bins)
    assert counts.sum() == 5  # NaN never enters a cell


def test_bin_matrix_matches_per_column_bin_values():
    rng = np.random.default_rng(5)
    edges = np.stack([np.linspace(0.0, 1.0, 5), np.linspace(-2.0, 2.0, 5)])
    values = rng.uniform(-3.0, 3.0, size=(40, 2))
    values[3, 0] = float("nan")
    values[7, 1] = float("nan")
    values[0, 0] = edges[0, -1]  # exact last edge, column 0
    counts, n_nan = bin_matrix(edges, values)
    for f in range(2):
        expected, expected_nan = bin_values(edges[f], values[:, f])
        assert np.array_equal(counts[f], expected)
        assert n_nan[f] == expected_nan


def test_equal_width_edges_widen_constant_and_empty_columns():
    edges = _equal_width_edges(np.full(5, 3.0), N_BINS)
    assert edges[0] == 2.5 and edges[-1] == 3.5
    empty = _equal_width_edges(np.array([]), N_BINS)
    assert empty[0] == -0.5 and empty[-1] == 0.5
    # The constant itself lands mid-histogram, not in under/overflow.
    counts, _ = bin_values(edges, [3.0])
    assert counts[0] == 0 and counts[-1] == 0 and counts.sum() == 1


def test_bin_execution_empty_and_mismatched(profile):
    contrib = bin_execution(
        profile, np.zeros((0, N_FEATURES)), np.zeros(0), margin=float("nan")
    )
    assert contrib.n_windows == 0
    assert contrib.feature.sum() == 0 and contrib.score.sum() == 0
    assert contrib.margin.sum() == 0 and contrib.cal.sum() == 0
    with pytest.raises(QualityError):
        bin_execution(profile, np.zeros((3, N_FEATURES + 1)), np.zeros(3))


def test_bin_execution_tallies_nan_without_binning(profile):
    windows, scores = ref_like(profile, 6)
    windows[0, 0] = float("nan")
    contrib = bin_execution(profile, windows, scores, margin=0.1, truth=True)
    assert contrib.n_nan == 1
    assert contrib.feature[0].sum() == 5  # NaN excluded from feature 0
    assert contrib.feature[1].sum() == 6


def test_bin_batch_equals_merged_bin_execution(profile):
    rng = np.random.default_rng(11)
    entries = []
    for truth in (True, None, False):
        windows = rng.uniform(-0.5, 1.5, size=(7, N_FEATURES))
        scores = rng.uniform(0.0, 1.0, 7)
        entries.append((windows, scores, float(rng.uniform(-1, 1)), truth))
    entries[0][0][2, 1] = float("nan")
    batched = profile.bin_batch(entries)
    merged = functools.reduce(
        operator.add,
        [bin_execution(profile, w, s, m, t) for w, s, m, t in entries],
    )
    assert np.array_equal(batched.feature, merged.feature)
    assert np.array_equal(batched.score, merged.score)
    assert np.array_equal(batched.margin, merged.margin)
    assert np.array_equal(batched.cal, merged.cal)
    assert batched.n_windows == merged.n_windows == 21
    assert batched.n_nan == merged.n_nan == 1
    assert batched.n_executions == merged.n_executions == 3


# -- divergence scoring ------------------------------------------------


def test_psi_identical_counts_exactly_zero_and_empty_nan():
    counts = np.array([3, 10, 7, 0, 5], dtype=float)
    assert psi(counts, counts, epsilon=1e-4) == 0.0
    assert math.isnan(psi(counts, np.zeros(5), epsilon=1e-4))
    assert math.isnan(psi(np.zeros(5), counts, epsilon=1e-4))
    assert psi(counts, np.array([0, 0, 0, 20, 0]), epsilon=1e-4) > 1.0


def test_ks_bounds():
    a = np.array([10, 0, 0, 0], dtype=float)
    b = np.array([0, 0, 0, 10], dtype=float)
    assert ks(a, a) == 0.0
    assert ks(a, b) == pytest.approx(1.0)
    assert math.isnan(ks(a, np.zeros(4)))


def test_window_drift_matches_scalar_helpers(profile):
    scorer = DriftScorer(profile)
    rng = np.random.default_rng(21)
    live_feat = rng.integers(0, 30, size=profile.feature_counts.shape)
    live_score = rng.integers(0, 30, size=profile.score_counts.shape)
    windows, scores = ref_like(profile, 20)
    cal = bin_execution(profile, windows, scores, truth=True).cal
    drift = scorer.window_drift(live_feat, live_score, cal)
    for f in range(profile.n_features):
        assert drift["feature_psi"][f] == pytest.approx(
            psi(profile.feature_counts[f], live_feat[f], scorer.epsilon)
        )
        assert drift["feature_ks"][f] == pytest.approx(
            ks(profile.feature_counts[f], live_feat[f])
        )
    assert drift["score_psi"] == pytest.approx(
        psi(profile.score_counts, live_score, scorer.epsilon)
    )
    assert drift["score_ks"] == pytest.approx(ks(profile.score_counts, live_score))
    cal_direct = scorer.calibration(cal)
    assert drift["ece"] == cal_direct["ece"]
    assert drift["brier"] == cal_direct["brier"]


def test_window_drift_identical_counts_score_exactly_zero(profile):
    scorer = DriftScorer(profile)
    drift = scorer.window_drift(
        profile.feature_counts, profile.score_counts, profile.calibration
    )
    assert np.all(drift["feature_psi"] == 0.0)
    assert np.all(drift["feature_ks"] == 0.0)
    assert drift["score_psi"] == 0.0 and drift["score_ks"] == 0.0


def test_window_drift_empty_live_side_is_nan(profile):
    scorer = DriftScorer(profile)
    drift = scorer.window_drift(
        np.zeros_like(profile.feature_counts),
        np.zeros_like(profile.score_counts),
        np.zeros_like(profile.calibration),
    )
    assert np.all(np.isnan(drift["feature_psi"]))
    assert math.isnan(drift["score_psi"])
    assert math.isnan(drift["ece"]) and math.isnan(drift["brier"])


def test_margin_psi_matches_scalar_helper(profile):
    scorer = DriftScorer(profile)
    live = np.array([0, 2, 9, 4, 0, 1], dtype=np.int64)
    assert scorer.margin_psi(live) == pytest.approx(
        psi(profile.margin_counts, live, scorer.epsilon)
    )
    assert math.isnan(scorer.margin_psi(np.zeros_like(live)))


def test_calibration_ece_and_brier_are_exact(profile):
    scorer = DriftScorer(profile)
    rng = np.random.default_rng(31)
    scores_neg = rng.uniform(0.0, 1.0, 50)
    scores_pos = rng.uniform(0.0, 1.0, 50)
    cal = bin_execution(
        profile, rng.uniform(0, 1, (50, N_FEATURES)), scores_neg, truth=False
    ).cal + bin_execution(
        profile, rng.uniform(0, 1, (50, N_FEATURES)), scores_pos, truth=True
    ).cal
    result = scorer.calibration(cal)
    s = np.concatenate([scores_neg, scores_pos])
    y = np.concatenate([np.zeros(50), np.ones(50)])
    assert result["brier"] == pytest.approx(np.mean((s - y) ** 2))
    idx, _ = _cell_indices(profile.score_edges, s)
    ece = 0.0
    for cell in np.unique(idx):
        sel = idx == cell
        ece += sel.mean() * abs(s[sel].mean() - y[sel].mean())
    assert result["ece"] == pytest.approx(ece)
    assert result["count"] == 100


# -- profile serialization ---------------------------------------------


def test_profile_round_trip_and_content_id(tmp_path, profile):
    path = tmp_path / "profile.json"
    saved_id = profile.save(path)
    loaded = ReferenceProfile.load(path)
    assert loaded.profile_id == profile.profile_id == saved_id
    assert loaded.to_dict() == profile.to_dict()
    assert loaded.n_windows == N_REF
    # Identity is content-addressed: any count change moves it.
    bumped = make_profile()
    bumped.feature_counts[0, 1] += 1
    assert bumped.profile_id != profile.profile_id


def test_profile_load_errors(tmp_path):
    with pytest.raises(QualityError, match="not found"):
        ReferenceProfile.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(QualityError, match="invalid JSON"):
        ReferenceProfile.load(bad)
    wrong = tmp_path / "wrong.json"
    data = make_profile().to_dict()
    data["schema"] = 99
    wrong.write_text(json.dumps(data))
    with pytest.raises(QualityError, match="schema"):
        ReferenceProfile.load(wrong)
    not_profile = tmp_path / "metrics.json"
    not_profile.write_text('{"counters": {}}')
    with pytest.raises(QualityError, match="feature_names"):
        ReferenceProfile.load(not_profile)


def test_profile_shape_validation(profile):
    data = profile.to_dict()
    data["feature_counts"] = [row[:-1] for row in data["feature_counts"]]
    with pytest.raises(QualityError, match="shape"):
        ReferenceProfile.from_dict(data)


def test_build_reference_profile_from_fitted_detector(small_split):
    detector = HMDDetector(DetectorConfig("OneR", "general", 2)).fit(
        small_split.train
    )
    built = build_reference_profile(detector, small_split.train, meta={"k": 1})
    assert built.feature_names == tuple(detector.monitored_events)
    assert built.n_windows == len(small_split.train.labels)
    assert built.meta == {"k": 1}
    # A live replay of the training data scores exactly zero drift.
    scorer = DriftScorer(built)
    drift = scorer.window_drift(
        built.feature_counts, built.score_counts, built.calibration
    )
    assert np.all(drift["feature_psi"] == 0.0)
    with pytest.raises(QualityError, match="unfitted"):
        build_reference_profile(
            HMDDetector(DetectorConfig("OneR", "general", 2)), small_split.train
        )


# -- alert rule parsing ------------------------------------------------


def test_parse_quality_alert_spec():
    rule = parse_quality_alert_spec("max_feature_psi>=1.5:critical:0:0.5")
    assert isinstance(rule, QualityAlertRule)
    assert rule.signal == "max_feature_psi"
    assert rule.op == ">=" and rule.threshold == 1.5
    assert rule.severity == "critical"
    assert rule.for_s == 0.0 and rule.clear_threshold == 0.5
    with pytest.raises(HealthConfigError):
        parse_quality_alert_spec("degraded_ratio>=0.2")  # health-only signal
    with pytest.raises(HealthConfigError):
        parse_quality_alert_spec("max_feature_psi>>1")


# -- streaming tracker -------------------------------------------------


def make_tracker(profile, **kwargs):
    kwargs.setdefault("window_s", 1e9)
    kwargs.setdefault("min_windows", 30)
    kwargs.setdefault("min_executions", 1)
    return QualityTracker(profile, **kwargs)


def feed(tracker, windows, scores, host="h0", ts=0.0, per_exec=10, truth=None):
    """Feed ``windows`` in per_exec chunks, one second apart; returns last ts."""
    for start in range(0, len(windows), per_exec):
        chunk = windows[start : start + per_exec]
        tracker.observe_execution(
            host,
            chunk,
            scores[start : start + per_exec],
            margin=0.25,
            truth=truth,
            ts=ts,
        )
        ts += 1.0
    return ts


def test_tracker_validates_construction(profile):
    with pytest.raises(ValueError, match="window_s"):
        QualityTracker(profile, window_s=0.0)
    with pytest.raises(ValueError, match="eval_interval_s"):
        QualityTracker(profile, eval_interval_s=-1.0)


def test_tracker_adaptive_evidence_floor(profile):
    assert QualityTracker(profile).min_windows == max(64, round(0.75 * N_REF))
    assert QualityTracker(profile, min_windows=5).min_windows == 5


def test_tracker_rejects_feature_mismatch(profile):
    tracker = make_tracker(profile)
    with pytest.raises(QualityError, match="features"):
        tracker.observe_execution("h0", np.zeros((2, N_FEATURES + 1)), np.zeros(2))


def test_tracker_below_floor_signals_are_nan(profile):
    tracker = make_tracker(profile, min_windows=30)
    windows, scores = ref_like(profile, 10)
    feed(tracker, windows, scores)
    values = tracker.signals()
    assert values["live_windows"] == 10.0
    assert math.isnan(values["max_feature_psi"])
    assert not tracker.drift_fired()


def test_tracker_stationary_stream_stays_silent(profile):
    """Replaying the reference draw itself scores exactly zero PSI.

    The evidence floor is pinned to the full reference window count so
    no evaluation ever sees a partial (genuinely divergent) mixture.
    """
    tracker = make_tracker(profile, min_windows=N_REF)
    windows, scores = ref_data()
    feed(tracker, windows, scores, per_exec=20, truth=False)
    values = tracker.signals()
    assert values["max_feature_psi"] == 0.0
    assert values["score_psi"] == 0.0
    assert tracker.total_executions == 12
    assert tracker.total_windows == N_REF
    assert not tracker.drift_fired() and not tracker.critical_fired()


def test_tracker_shifted_stream_fires_default_rule(profile):
    tracker = make_tracker(profile)
    windows, scores = shifted(60)
    feed(tracker, windows, scores)
    assert tracker.signals()["max_feature_psi"] > 1.0
    assert tracker.drift_fired() and tracker.critical_fired()
    state = tracker.states[0]
    assert state.state == "firing" and state.fired_count == 1


def test_tracker_hysteresis_fire_then_clear(profile):
    rule = QualityAlertRule(
        name="psi", signal="max_feature_psi", op=">=", threshold=1.0,
        severity="critical", clear_threshold=0.5,
    )
    tracker = make_tracker(profile, rules=(rule,), window_s=10.0)
    bad_w, bad_s = shifted(40)
    ts = feed(tracker, bad_w, bad_s, ts=0.0)
    assert tracker.states[0].state == "firing"
    # Stationary traffic after the window slides past the shifted burst.
    good_w, good_s = ref_like(profile, 120)
    feed(tracker, good_w, good_s, ts=ts + 20.0)
    assert tracker.states[0].state == "ok"
    kinds = [t["state"] for t in tracker.states[0].transitions]
    assert kinds == ["firing", "cleared"]


def test_tracker_eviction_is_exact(profile):
    tracker = make_tracker(profile, window_s=10.0)
    windows, scores = ref_like(profile, 40)
    feed(tracker, windows, scores)
    assert tracker.signals()["live_windows"] == 40.0
    values = tracker.signals(now=1000.0)
    assert values["live_windows"] == 0.0
    assert math.isnan(values["max_feature_psi"])
    assert np.all(tracker.window.total.feature == 0)
    assert tracker.total_windows == 40  # lifetime totals never evict


def test_tracker_counts_nan_feature_values(profile):
    tracker = make_tracker(profile)
    windows, scores = ref_like(profile, 10)
    windows[2, 0] = windows[4, 1] = float("nan")
    feed(tracker, windows, scores)
    tracker.signals()
    assert tracker.total_nan == 2


def test_tracker_empty_execution_is_harmless(profile):
    tracker = make_tracker(profile)
    tracker.observe_execution("h0", np.zeros((0, N_FEATURES)), np.zeros(0), ts=0.0)
    values = tracker.signals()
    assert values["live_windows"] == 0.0
    assert tracker.total_executions == 1 and tracker.total_windows == 0


def test_eval_interval_throttles_evaluations(profile):
    tracer = Tracer(enabled=True)
    tracker = make_tracker(profile, eval_interval_s=10.0, tracer=tracer)
    windows, scores = ref_like(profile, 60)
    feed(tracker, windows, scores)  # 6 executions at ts 0..5
    drift_events = [e for e in tracer.events if e["name"] == "quality.drift"]
    assert len(drift_events) == 1  # only the first observation evaluated
    tracker.observe_execution("h0", windows[:10], scores[:10], ts=50.0)
    drift_events = [e for e in tracer.events if e["name"] == "quality.drift"]
    assert len(drift_events) == 2


def test_eval_interval_zero_evaluates_every_observation(profile):
    tracer = Tracer(enabled=True)
    tracker = make_tracker(profile, eval_interval_s=0.0, tracer=tracer)
    windows, scores = ref_like(profile, 30)
    feed(tracker, windows, scores)
    drift_events = [e for e in tracer.events if e["name"] == "quality.drift"]
    assert len(drift_events) == 3


def test_report_runs_a_final_evaluation(profile):
    """A breach that lands inside the eval interval still reaches report()."""
    tracker = make_tracker(profile, eval_interval_s=1e9, min_windows=40)
    good_w, good_s = ref_like(profile, 30)
    tracker.observe_execution("h0", good_w, good_s, ts=0.0)  # evaluates below floor
    bad_w, bad_s = shifted(60)
    tracker.observe_execution("h0", bad_w, bad_s, ts=1.0)  # throttled
    assert not tracker.drift_fired()
    report = tracker.report()
    assert tracker.drift_fired()
    assert report["drift_fired"] and report["critical_fired"]
    assert report["alerts"][0]["state"] == "firing"


def test_tick_slides_windows_without_new_evidence(profile):
    tracker = make_tracker(profile, window_s=10.0)
    windows, scores = ref_like(profile, 40)
    feed(tracker, windows, scores)
    values = tracker.tick(now=500.0)
    assert values["live_windows"] == 0.0


def test_host_signals_and_drift_event_payload(profile):
    tracer = Tracer(enabled=True)
    tracker = make_tracker(profile, tracer=tracer, min_windows=20)
    w0, s0 = ref_like(profile, 40, seed=1)
    w1, s1 = shifted(40)
    ts = feed(tracker, w0, s0, host="good")
    feed(tracker, w1, s1, host="evil", ts=ts)
    good = tracker.host_signals("good")
    evil = tracker.host_signals("evil")
    assert good["max_feature_psi"] < evil["max_feature_psi"]
    with pytest.raises(KeyError):
        tracker.host_signals("unknown")
    events = [e for e in tracer.events if e["name"] == "quality.drift"]
    assert events
    last = events[-1]["attrs"]
    assert last["host"] == "evil"
    assert "host_max_feature_psi" in last and "max_feature_psi" in last
    assert last["worst_feature"] in profile.feature_names


def test_archived_trace_carries_drift_rows(profile):
    tracer = Tracer()
    tracker = make_tracker(profile, tracer=tracer, min_windows=20)
    windows, scores = shifted(40)
    feed(tracker, windows, scores, host="h0")
    _, alerts, _ = normalize_events(tracer.events)
    rows = [a for a in alerts if a["rule"] == DRIFT_RULE]
    hosts = {a["host"] for a in rows}
    assert hosts == {"*", "h0"}  # fleet row plus the observing host's row
    assert all(a["state"] == "observation" for a in rows)
    fired = [a for a in alerts if a["state"] == "firing"]
    assert fired and fired[0]["severity"] == "critical"


def test_disabled_tracer_skips_the_drift_event_scoring(profile):
    """Only the global window is scored per evaluation when the drift
    event (which adds the observing host's window) is not recorded."""
    tracker = make_tracker(
        profile, tracer=Tracer(enabled=False), eval_interval_s=0.0, min_windows=20
    )
    scored = []
    score = tracker._window_signals

    def counting(window, now):
        scored.append(window)
        return score(window, now)

    tracker._window_signals = counting
    windows, scores = shifted(40)
    feed(tracker, windows, scores, host="h0")
    assert len(scored) == 4  # four evaluations, one scoring each
    assert all(window is tracker.window for window in scored)


def test_tracker_metrics_and_stream_output(profile):
    import io

    registry = Registry()
    stream = io.StringIO()
    tracker = make_tracker(profile, metrics=registry, stream=stream)
    windows, scores = shifted(40)
    feed(tracker, windows, scores)
    snap = registry.snapshot()
    assert snap["counters"]["quality_executions_total"]["value"] == 4
    assert snap["counters"]["quality_windows_total"]["value"] == 40
    assert snap["counters"]["quality_alerts_fired_total"]["value"] == 1
    assert snap["gauges"]["quality_max_feature_psi"]["value"] > 1.0
    assert snap["histograms"]["quality_feature_psi"]["count"] > 0
    assert "FIRING" in stream.getvalue()


def test_report_and_quality_table_render(profile):
    tracker = make_tracker(profile)
    windows, scores = ref_like(profile, 60)
    feed(tracker, windows, scores, host="web-1", truth=False)
    report = tracker.report()
    assert report["profile_id"] == profile.profile_id
    assert report["totals"] == {"executions": 6, "windows": 60, "nan_values": 0}
    assert "web-1" in report["hosts"]
    assert len(report["features"]) == N_FEATURES
    text = quality_table(report)
    assert profile.profile_id[:12] in text
    assert "max_feature_psi" in text
    assert "f0" in text and "f1" in text
    assert "max_feature_psi>=0.25" in text


def test_dump_writes_json_report(tmp_path, profile):
    tracker = make_tracker(profile)
    windows, scores = ref_like(profile, 40)
    feed(tracker, windows, scores)
    path = tmp_path / "quality.json"
    tracker.dump(path)
    data = json.loads(path.read_text())
    assert data["profile_id"] == profile.profile_id
    assert data["signals"]["live_windows"] == 40.0


def test_replay_is_deterministic(profile):
    """Same stream, same timestamps → byte-identical transitions."""
    def run():
        tracker = make_tracker(profile, window_s=10.0)
        bad_w, bad_s = shifted(40)
        ts = feed(tracker, bad_w, bad_s)
        good_w, good_s = ref_like(profile, 120)
        feed(tracker, good_w, good_s, ts=ts + 20.0)
        return [t for s in tracker.states for t in s.transitions]

    assert run() == run()
