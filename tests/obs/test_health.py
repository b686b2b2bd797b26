"""Health subsystem: window signals, alert state machine, SLO budgets."""

import io
import json
import math

import pytest

from repro.obs import (
    AlertRule,
    AlertState,
    HealthConfigError,
    HealthEvaluator,
    Registry,
    SlidingWindowSignals,
    Tracer,
    health_table,
    load_alert_rules,
    parse_alert_spec,
    parse_slo,
)


def _verdict_event(ts, degraded=False, is_malware=False, n_windows=10,
                   n_windows_lost=0, attempts=1, name="fleet.verdict"):
    return {
        "type": "event", "name": name, "ts": ts, "pid": 1, "tid": 1,
        "attrs": {
            "app": "app", "is_malware": is_malware, "degraded": degraded,
            "n_windows": n_windows, "n_windows_lost": n_windows_lost,
            "attempts": attempts,
        },
    }


# -- sliding-window signals --------------------------------------------


def test_window_signals_exact_over_entries():
    window = SlidingWindowSignals(window_s=10.0)
    window.observe_verdict(1.0, is_malware=True, degraded=True,
                           n_windows=8, n_windows_lost=2, retries=1)
    window.observe_verdict(2.0, is_malware=False, degraded=False, n_windows=10)
    values = window.values(3.0)
    assert values["verdicts"] == 2.0
    assert values["detection_rate"] == 0.5
    assert values["degraded_ratio"] == 0.5
    assert values["retry_rate"] == 0.5
    assert values["windows_lost_fraction"] == 2 / 20


def test_window_eviction_subtracts_exactly():
    window = SlidingWindowSignals(window_s=5.0)
    window.observe_verdict(0.0, is_malware=True, degraded=True,
                           n_windows=5, n_windows_lost=5, retries=2)
    window.observe_verdict(4.0, is_malware=False, degraded=False, n_windows=10)
    # At t=6 the t=0 entry has aged out (cutoff is now - window = 1.0).
    values = window.values(6.0)
    assert values["verdicts"] == 1.0
    assert values["degraded_ratio"] == 0.0
    assert values["retry_rate"] == 0.0
    assert values["windows_lost_fraction"] == 0.0


def test_window_empty_signals_are_nan():
    values = SlidingWindowSignals(window_s=5.0).values(100.0)
    for name in ("detection_rate", "degraded_ratio", "retry_rate",
                 "windows_lost_fraction", "p50_classify_s", "p95_classify_s"):
        assert math.isnan(values[name]), name
    assert values["verdicts"] == 0.0


def test_window_classify_quantiles_match_histogram_semantics():
    """A windowed quantile equals the quantile of a histogram holding
    only the window's observations (same buckets, same upper bounds)."""
    from repro.obs import Histogram
    from repro.obs.stats import histogram_quantile

    window = SlidingWindowSignals(window_s=100.0)
    hist = Histogram("h", buckets=window.buckets)
    for i, value in enumerate((2e-6, 4e-6, 8e-6, 2e-5, 9e-4)):
        window.observe_classify(float(i), value)
        hist.observe(value)
    snap = {"count": hist.count, "buckets": hist.buckets, "counts": hist.counts}
    values = window.values(50.0)
    assert values["p50_classify_s"] == histogram_quantile(snap, 0.50)
    assert values["p95_classify_s"] == histogram_quantile(snap, 0.95)


def test_window_classify_eviction():
    window = SlidingWindowSignals(window_s=5.0)
    window.observe_classify(0.0, 1.0, n=100)  # slow batch, ages out
    window.observe_classify(8.0, 1e-6, n=4)
    values = window.values(10.0)
    assert values["p95_classify_s"] == 1e-6
    assert window.classify_good_fraction(1e-5, 10.0) == 1.0


def test_window_rejects_bad_length():
    with pytest.raises(ValueError):
        SlidingWindowSignals(window_s=0.0)


# -- alert rules -------------------------------------------------------


def test_rule_validation_errors():
    with pytest.raises(HealthConfigError):
        AlertRule("r", "degraded_ratio", "~", 0.5)
    with pytest.raises(HealthConfigError):
        AlertRule("r", "not_a_signal", ">=", 0.5)
    with pytest.raises(HealthConfigError):
        AlertRule("r", "degraded_ratio", ">=", 0.5, severity="fatal")
    with pytest.raises(HealthConfigError):
        AlertRule("r", "degraded_ratio", ">=", 0.5, for_s=-1.0)
    with pytest.raises(HealthConfigError):
        # clear threshold on the wrong side of an upward rule
        AlertRule("r", "degraded_ratio", ">=", 0.5, clear_threshold=0.6)
    # and the right side is accepted, both directions
    AlertRule("r", "degraded_ratio", ">=", 0.5, clear_threshold=0.4)
    AlertRule("r", "verdicts", "<", 1.0, clear_threshold=2.0)


def test_alert_fires_immediately_without_for_duration():
    state = AlertState(AlertRule("r", "degraded_ratio", ">=", 0.2))
    assert state.update(0.1, 1.0) is None
    transition = state.update(0.3, 2.0)
    assert transition["state"] == "firing" and transition["ts"] == 2.0
    assert state.state == "firing" and state.fired_count == 1


def test_alert_for_duration_requires_sustained_breach():
    state = AlertState(AlertRule("r", "degraded_ratio", ">=", 0.2, for_s=5.0))
    assert state.update(0.5, 0.0) is None
    assert state.state == "pending"
    assert state.update(0.5, 4.0) is None  # only 4s sustained
    # A dip below threshold resets the pending timer entirely.
    assert state.update(0.1, 4.5) is None
    assert state.state == "ok"
    assert state.update(0.5, 5.0) is None
    transition = state.update(0.5, 10.0)
    assert transition["state"] == "firing"
    assert transition["breached_since"] == 5.0


def test_alert_hysteresis_clears_only_below_clear_threshold():
    rule = AlertRule("r", "degraded_ratio", ">=", 0.2, clear_threshold=0.1)
    state = AlertState(rule)
    state.update(0.3, 1.0)
    assert state.state == "firing"
    # Back under the firing threshold but inside the hysteresis band.
    assert state.update(0.15, 2.0) is None
    assert state.state == "firing"
    transition = state.update(0.05, 3.0)
    assert transition["state"] == "cleared" and transition["ts"] == 3.0
    assert state.state == "ok"


def test_alert_nan_keeps_state():
    nan = float("nan")
    state = AlertState(AlertRule("r", "degraded_ratio", ">=", 0.2))
    assert state.update(nan, 1.0) is None and state.state == "ok"
    state.update(0.5, 2.0)
    assert state.update(nan, 3.0) is None and state.state == "firing"


def test_parse_alert_spec_full_form():
    rule = parse_alert_spec("degraded_ratio>=0.2:critical:5:0.1")
    assert rule.signal == "degraded_ratio"
    assert rule.op == ">=" and rule.threshold == 0.2
    assert rule.severity == "critical"
    assert rule.for_s == 5.0 and rule.clear_threshold == 0.1


@pytest.mark.parametrize("bad", [
    "", "degraded_ratio", "degraded_ratio=0.2", "nope>=x",
    "degraded_ratio>=0.2:critical:5:0.1:extra", "degraded_ratio>=0.2:loud",
])
def test_parse_alert_spec_rejects_garbage(bad):
    with pytest.raises(HealthConfigError):
        parse_alert_spec(bad)


def test_load_alert_rules_both_shapes(tmp_path):
    rule = {"signal": "degraded_ratio", "op": ">=", "threshold": 0.2,
            "severity": "critical"}
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([rule]))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"rules": [rule]}))
    for path in (bare, wrapped):
        (loaded,) = load_alert_rules(path)
        assert loaded.signal == "degraded_ratio"
        assert loaded.severity == "critical"
        assert loaded.name == "degraded_ratio>="  # auto-named


def test_load_alert_rules_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(HealthConfigError):
        load_alert_rules(bad)
    bad.write_text('{"rules": 5}')
    with pytest.raises(HealthConfigError):
        load_alert_rules(bad)
    bad.write_text('[{"op": ">="}]')
    with pytest.raises(HealthConfigError):
        load_alert_rules(bad)


# -- SLOs --------------------------------------------------------------


def test_parse_slo_forms_and_equivalence():
    assert parse_slo("nondegraded>=0.95").objective == 0.95
    assert parse_slo("degraded_ratio<=0.05").kind == "nondegraded"
    assert parse_slo("degraded_ratio<=0.05").objective == pytest.approx(0.95)
    assert parse_slo("windows_kept>=0.9").kind == "windows_kept"
    assert parse_slo("windows_lost_fraction<=0.1").kind == "windows_kept"
    slo = parse_slo("p95_classify_s<=0.01")
    assert slo.kind == "classify_latency"
    assert slo.objective == 0.95 and slo.bound_s == 0.01


@pytest.mark.parametrize("bad", ["", "p95_classify_s", "latency<=0.01",
                                 "nondegraded>=1.5", "p95_classify_s<=0"])
def test_parse_slo_rejects_garbage(bad):
    with pytest.raises(HealthConfigError):
        parse_slo(bad)


def test_slo_burn_rate_and_budget():
    window = SlidingWindowSignals(window_s=100.0)
    for i in range(20):
        window.observe_verdict(float(i), is_malware=False,
                               degraded=(i < 2), n_windows=10)
    status = parse_slo("nondegraded>=0.95").status(window, 50.0)
    # 2/20 degraded: bad fraction 0.10 against a 0.05 budget.
    assert status["good_fraction"] == 0.9
    assert status["burn_rate"] == pytest.approx(2.0)
    assert status["budget_remaining"] == pytest.approx(-1.0)
    assert status["ok"] is False


def test_slo_with_no_evidence_is_undetermined():
    window = SlidingWindowSignals(window_s=100.0)
    status = parse_slo("p95_classify_s<=0.01").status(window, 50.0)
    assert math.isnan(status["good_fraction"])
    assert status["ok"] is None


def test_latency_slo_agrees_with_quantile_signal():
    window = SlidingWindowSignals(window_s=100.0)
    for i in range(100):
        window.observe_classify(float(i), 1e-6 if i < 95 else 0.05)
    status = parse_slo("p95_classify_s<=0.01").status(window, 99.0)
    assert status["good_fraction"] == 0.95
    assert status["ok"] is True
    assert window.values(99.0)["p95_classify_s"] <= 0.01


# -- the evaluator -----------------------------------------------------


def test_evaluator_replay_is_deterministic():
    events = [
        _verdict_event(float(t), degraded=(t % 2 == 0)) for t in range(10)
    ]

    def run():
        evaluator = HealthEvaluator(
            rules=[parse_alert_spec("degraded_ratio>=0.4:critical")],
            clock=lambda: pytest.fail("replay must never consult the clock"),
        )
        for event in events:
            assert evaluator.ingest(event)
        # JSON text so NaN signals compare equal (NaN != NaN as floats).
        return json.dumps(evaluator.report(), sort_keys=True)

    assert run() == run()


def test_evaluator_transitions_use_event_timestamps():
    evaluator = HealthEvaluator(
        rules=[parse_alert_spec("degraded_ratio>=0.5:critical:0:0.2")]
    )
    evaluator.ingest(_verdict_event(10.0, degraded=True))
    (state,) = evaluator.states
    assert state.transitions[0]["state"] == "firing"
    assert state.transitions[0]["ts"] == 10.0
    for t in range(11, 20):
        evaluator.ingest(_verdict_event(float(t), degraded=False))
    assert state.transitions[1]["state"] == "cleared"
    assert evaluator.critical_fired()  # sticky even after clearing


def test_evaluator_emits_trace_events_metrics_and_stderr():
    tracer = Tracer()
    registry = Registry()
    stream = io.StringIO()
    evaluator = HealthEvaluator(
        rules=[parse_alert_spec("degraded_ratio>=0.5:warning")],
        tracer=tracer, metrics=registry, stream=stream,
    )
    evaluator.observe_verdict("a", is_malware=False, degraded=True,
                              n_windows=10, ts=1.0)
    names = [e["name"] for e in tracer.events]
    assert "health.alert" in names
    snap = registry.snapshot()
    assert snap["counters"]["health_alerts_fired_total"]["value"] == 1
    assert snap["counters"]["health_verdicts_observed_total"]["value"] == 1
    assert "FIRING" in stream.getvalue()
    assert not evaluator.critical_fired()  # warning, not critical


def test_evaluator_ignores_unrelated_events():
    evaluator = HealthEvaluator()
    assert not evaluator.ingest({"type": "span", "name": "fleet.app", "ts": 1.0})
    assert not evaluator.ingest({"type": "event", "name": "matrix.cell", "ts": 1.0})
    assert evaluator.ingest(_verdict_event(1.0, name="monitor.verdict"))
    assert evaluator.window.total_verdicts == 1


def test_ingest_reaches_the_same_report_as_observe_verdict():
    """Replaying verdict events (the ``watch`` path) and feeding the same
    verdicts in process evaluate every rule and SLO identically."""

    def make():
        return HealthEvaluator(
            rules=[
                parse_alert_spec("degraded_ratio>=0.2:critical:5:0.1"),
                parse_alert_spec("windows_lost_fraction>=0.1:warning"),
                parse_alert_spec("retry_rate>=0.5:warning:10"),
            ],
            slos=[parse_slo("nondegraded>=0.95"), parse_slo("windows_kept>=0.9")],
            window_s=30.0,
            clock=lambda: pytest.fail("both paths carry their own timestamps"),
        )

    observed, ingested = make(), make()
    for i in range(2000):
        fields = dict(
            is_malware=i % 3 == 0, degraded=i % 7 == 0, n_windows=10,
            n_windows_lost=int(i % 11 == 0),
        )
        attempts = 1 + (i % 13 == 0)
        observed.observe_verdict("app", retries=attempts - 1, ts=i * 0.01, **fields)
        assert ingested.ingest(_verdict_event(i * 0.01, attempts=attempts, **fields))
    assert observed.window.total_degraded == ingested.window.total_degraded > 0
    assert json.dumps(observed.report(), sort_keys=True) == json.dumps(
        ingested.report(), sort_keys=True
    )


def test_evaluator_absorb_metrics_feeds_classify_window():
    registry = Registry()
    hist = registry.histogram("monitor_window_classify_seconds",
                              buckets=(1e-6, 1e-3))
    hist.observe_many(5e-7, 10)
    evaluator = HealthEvaluator(slos=[parse_slo("p95_classify_s<=0.001")])
    evaluator.absorb_metrics(registry.snapshot(), ts=1.0)
    (status,) = evaluator.slo_statuses(1.0)
    assert status["good_fraction"] == 1.0
    # Non-classify histograms are ignored.
    other = Registry()
    other.histogram("fleet_backoff_sleep_seconds", buckets=(1.0,)).observe(90.0)
    evaluator.absorb_metrics(other.snapshot(), ts=1.0)
    assert evaluator.slo_statuses(1.0)[0]["good_fraction"] == 1.0


def test_evaluator_report_round_trips_to_json():
    evaluator = HealthEvaluator(
        rules=[parse_alert_spec("verdicts<1:info")],
        slos=[parse_slo("nondegraded>=0.9")],
    )
    evaluator.observe_verdict("a", is_malware=True, n_windows=5, ts=2.0)
    report = evaluator.report()
    assert report["schema"] == 1
    assert report["signals"]["verdicts"] == 1.0
    assert json.loads(json.dumps(report, default=str))["critical_fired"] is False


def test_evaluator_dump_writes_report(tmp_path):
    path = tmp_path / "health.json"
    evaluator = HealthEvaluator()
    evaluator.observe_verdict("a", is_malware=False, n_windows=3, ts=1.0)
    evaluator.dump(path)
    assert json.loads(path.read_text())["totals"]["verdicts"] == 1


def test_health_table_renders_all_sections():
    evaluator = HealthEvaluator(
        rules=[parse_alert_spec("degraded_ratio>=0.5:critical")],
        slos=[parse_slo("nondegraded>=0.95")],
    )
    evaluator.observe_verdict("a", is_malware=True, degraded=True,
                              n_windows=8, n_windows_lost=2, ts=1.0)
    table = health_table(evaluator.report())
    assert "signals:" in table and "alerts:" in table and "SLOs:" in table
    assert "degraded_ratio>=0.5" in table
    assert "firing" in table
    assert "nondegraded>=0.95" in table


def test_out_of_order_events_never_rewind_the_window():
    evaluator = HealthEvaluator(window_s=5.0)
    evaluator.observe_verdict("a", is_malware=False, n_windows=1, ts=100.0)
    # A straggler from a worker thread, stamped earlier: it must not
    # slide the window backwards, and its evidence is clamped forward
    # (counted as of arrival) rather than lost behind a newer entry.
    evaluator.observe_verdict("b", is_malware=False, n_windows=1, ts=10.0)
    assert evaluator.last_values["verdicts"] == 2.0
    assert evaluator.tick(200.0)["verdicts"] == 0.0  # both evict cleanly


# -- SlidingWindowSignals straggler clamping ---------------------------


def _fill_out_of_order(signals):
    """A worker-thread arrival order: interleaved stragglers throughout."""
    entries = [
        (100.0, True, False, 10, 0, 0),
        (40.0, False, True, 8, 2, 1),   # straggler, clamped to 100
        (105.0, True, False, 10, 0, 0),
        (60.0, False, False, 6, 0, 2),  # straggler, clamped to 105
        (101.0, True, True, 4, 4, 0),   # behind the tail, clamped to 105
        (110.0, False, False, 10, 0, 0),
    ]
    for ts, alarm, degraded, kept, lost, retries in entries:
        signals.observe_verdict(
            ts, is_malware=alarm, degraded=degraded, n_windows=kept,
            n_windows_lost=lost, retries=retries,
        )
        signals.observe_classify(ts, 1e-5, n=kept)
    return entries


def test_monotone_clamps_stragglers_to_the_deque_tail():
    signals = SlidingWindowSignals(window_s=50.0)
    _fill_out_of_order(signals)
    stamps = [ts for ts, _ in signals._verdicts.entries]
    assert stamps == sorted(stamps), "clamping must keep the deque sorted"
    assert stamps == [100.0, 100.0, 105.0, 105.0, 105.0, 110.0]


def test_out_of_order_timestamps_never_break_eviction():
    """Eviction pops from the left while expired; an unclamped straggler
    behind a newer entry would be unreachable and survive forever."""
    signals = SlidingWindowSignals(window_s=50.0)
    _fill_out_of_order(signals)
    # Every entry is inside the window ending at 120.
    assert signals.values(120.0)["verdicts"] == 6.0
    # At 159 the entries clamped to <= 105 have expired (cutoff is
    # inclusive: ts <= now - 50); at 160 the 110 entry goes too —
    # nothing lingers.
    assert signals.values(159.0)["verdicts"] == 1.0
    values = signals.values(160.0)
    assert values["verdicts"] == 0.0
    assert not signals._verdicts.entries and not signals._classify.entries
    assert not signals._classify.total.any() and not signals._verdicts.total.any()


def test_windowed_aggregates_match_a_from_scratch_recount():
    """Incremental eviction totals must equal a fresh accumulation over
    the clamped entries that survive the same window."""
    incremental = SlidingWindowSignals(window_s=50.0)
    _fill_out_of_order(incremental)
    for now in (120.0, 152.0, 158.0, 161.0):
        expected = SlidingWindowSignals(window_s=50.0)
        for ts, entry in incremental._verdicts.entries:  # clamped, sorted
            _, alarm, degraded, kept, lost, retries = entry.tolist()
            expected.observe_verdict(
                ts, is_malware=alarm, degraded=degraded, n_windows=kept,
                n_windows_lost=lost, retries=retries,
            )
        for ts, counts in incremental._classify.entries:
            (index,) = counts.nonzero()[0]
            bounds = incremental.buckets + (float("inf"),)
            expected.observe_classify(ts, bounds[index], n=int(counts[index]))
        left = incremental.values(now)
        right = expected.values(now)
        for key in left:
            assert left[key] == right[key] or (
                math.isnan(left[key]) and math.isnan(right[key])
            ), f"{key} diverged at now={now}"
