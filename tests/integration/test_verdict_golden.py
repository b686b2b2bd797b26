"""Golden verdict stream: monitor, fleet and serve pinned end to end.

One seeded run of each detection driver, with health and quality on
and fake clocks, is reduced to what an operator sees downstream of the
verdict path: the archive's normalized verdict and alert rows (without
timestamps), the metric counters, gauges and histogram counts, and the
health and quality report totals.  The fixture
(``golden_verdict_stream.json``) pins that reduction, so any change to
how verdicts are classified, counted, traced or fed to the trackers
trips this test even when every driver changes in lockstep.

Regenerate after an intentional change to the verdict pipeline with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/integration/test_verdict_golden.py

and review the JSON diff.  Floats are rounded to 9 decimals: the fleet
and serve trackers receive executions from worker threads in arrival
order, and their float sums may differ in the last bits between runs.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.fleet import FleetJob, FleetMonitor, RetryPolicy
from repro.core.runtime import RuntimeMonitor
from repro.hpc.faults import FaultPlan, ServiceFaultPlan
from repro.hpc.lxc import ContainerPool
from repro.obs import (
    HealthEvaluator,
    QualityTracker,
    Registry,
    Tracer,
    build_reference_profile,
)
from repro.obs.archive import normalize_events
from repro.serve import DetectionService, ServeJob
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.dataset import MALWARE
from repro.workloads.malware import MALWARE_FAMILIES

GOLDEN_PATH = Path(__file__).parent / "golden_verdict_stream.json"
N_WINDOWS = 10
POOL_SEED = 5

#: Counters that count scheduling, not verdicts: how many windows a
#: restarted serve worker rebuilt from the ledger, how often a producer
#: blocked on a full channel, and how many injected crashes landed
#: before the run drained all depend on thread timing.
UNPINNED_COUNTERS = frozenset({
    "serve_backpressure_waits_total",
    "serve_recovered_windows_total",
    "serve_worker_crashes_total",
})


def fake_clock() -> float:
    """A frozen wall clock: every observation lands at one instant."""
    return 1000.0


@pytest.fixture(scope="module")
def detector(small_split):
    return HMDDetector(DetectorConfig("REPTree", "general", 4)).fit(
        small_split.train
    )


@pytest.fixture(scope="module")
def profile(detector, small_split):
    return build_reference_profile(detector, small_split.train)


@pytest.fixture(scope="module")
def apps():
    rng = np.random.default_rng(17)
    return [
        (family.instantiate(rng)[0], family.label == MALWARE)
        for family in (BENIGN_FAMILIES + MALWARE_FAMILIES)[::3]
    ]


def make_obs(profile):
    tracer, metrics = Tracer(), Registry()
    health = HealthEvaluator(
        window_s=1e9, tracer=tracer, metrics=metrics, clock=fake_clock
    )
    # Quality keeps its own (disabled) tracer: its drift events name the
    # observing host, which in a threaded driver is whichever execution
    # happened to arrive first.
    quality = QualityTracker(
        profile, window_s=1e9, eval_interval_s=1e9, min_windows=20,
        min_executions=2, metrics=metrics, clock=fake_clock,
    )
    return tracer, metrics, health, quality


def run_monitor(detector, profile, apps):
    tracer, metrics, health, quality = make_obs(profile)
    monitor = RuntimeMonitor(
        detector, tracer=tracer, metrics=metrics, health=health,
        quality=quality,
    )
    pool = ContainerPool(seed=POOL_SEED)
    for app, truth in apps:
        monitor.monitor(app, N_WINDOWS, pool, is_malware=truth)
    return tracer, metrics, health, quality


def run_fleet(detector, profile, apps):
    tracer, metrics, health, quality = make_obs(profile)
    fleet = FleetMonitor(
        detector,
        workers=2,
        faults=FaultPlan(
            seed=11, crash_rate=0.3, glitch_rate=0.3, drop_rate=0.03
        ),
        retry=RetryPolicy(max_attempts=2),
        pool_seed=POOL_SEED,
        tracer=tracer,
        metrics=metrics,
        health=health,
        quality=quality,
        sleep=lambda _seconds: None,
    )
    fleet.monitor_fleet(
        [FleetJob(app, N_WINDOWS, truth) for app, truth in apps]
    )
    return tracer, metrics, health, quality


def run_serve(detector, profile, apps):
    tracer, metrics, health, quality = make_obs(profile)
    service = DetectionService(
        detector,
        producers=1,
        workers=2,
        queue_depth=4,
        host_vote_windows=N_WINDOWS,
        faults=ServiceFaultPlan(
            seed=1, worker_crash_rate=1.0, max_crashes_per_worker=2
        ),
        pool_seed=POOL_SEED,
        tracer=tracer,
        metrics=metrics,
        health=health,
        quality=quality,
    )
    service.run(
        [ServeJob(app, N_WINDOWS, truth) for _ in range(2) for app, truth in apps]
    )
    return tracer, metrics, health, quality


RUNS = {"monitor": run_monitor, "fleet": run_fleet, "serve": run_serve}


def canonical(value):
    """JSON-stable form: floats rounded, NaN as None, tuples as lists."""
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return None if math.isnan(value) else round(value, 9)
    return value


def digest_run(tracer, metrics, health, quality) -> dict:
    health_report = health.report()
    quality_report = quality.report()
    verdicts, alerts, _spans = normalize_events(tracer.events)
    for row in verdicts + alerts:
        del row["ts"]
    snapshot = metrics.snapshot()
    return canonical({
        "verdicts": sorted(
            verdicts, key=lambda row: (row["source"], row["execution"])
        ),
        "alerts": sorted(alerts, key=lambda row: sorted(row.items())),
        "counters": {
            name: data["value"]
            for name, data in snapshot["counters"].items()
            if name not in UNPINNED_COUNTERS
        },
        "gauges": {
            name: data["value"] for name, data in snapshot["gauges"].items()
        },
        "histogram_counts": {
            name: data["count"]
            for name, data in snapshot["histograms"].items()
        },
        "health_totals": health_report["totals"],
        "quality_totals": quality_report["totals"],
    })


def test_golden_verdict_stream(detector, profile, apps):
    """Every driver's verdict stream matches the committed fixture."""
    digest = {
        name: digest_run(*run(detector, profile, apps))
        for name, run in RUNS.items()
    }
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in RUNS:
        assert digest[name] == golden[name], name
