"""The four workloads, each a loop of short calibrated slices.

Every timed quantity is built from slices of well under 0.3 s with a
calibration probe on each side (see ``calib.py``), and reported as a
median (or quantile) over many slices at reference host speed.  In a
traced run every other slice runs with the span recorder installed; the
traced slices give the per-layer table and the untraced ones the base
for the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import common
from calib import Calibrator
from spans import LayerStats, SpanRecorder

#: Layers reported as busy (CPU self) seconds per pass: every workload
#: exercises them.
TIME_LAYERS = ("hpc.execute", "hpc.sample", "ml.classify", "core.vote", "registry.load")
#: Layers only some workloads exercise, reported as a share of pass wall
#: time (an idle layer reads 0, which is a ratio, not a stuck timer).
SHARE_LAYERS = (
    "serve.publish",
    "serve.consume_wait",
    "obs.health",
    "obs.quality",
    "obs.dump",
    "obs.archive_ingest",
    "registry.save",
    "workloads.corpus",
    "features.rank",
    "ml.fit",
)


@dataclass
class Record:
    kind: str
    traced: bool
    raw: float
    cpu: float
    factor: float
    layers: dict | None
    counts: dict = field(default_factory=dict)

    @property
    def scaled(self) -> float:
        return self.raw * self.factor


class Run:
    """Slice bookkeeping shared by the workloads."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cal = Calibrator()
        self.recorder = SpanRecorder() if trace else None
        self.records: list[Record] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.scratch = common.WORK_DIR / "tmp" / f"{workload}-{seed}-{time.time_ns()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._deadline = None
        self._n = 0

    # -- timing ----------------------------------------------------------
    def start_clock(self) -> None:
        self._deadline = time.perf_counter() + self.seconds

    def running(self) -> bool:
        return time.perf_counter() < self._deadline

    def next_traced(self) -> bool:
        """Alternate traced and untraced slices in a traced run."""
        self._n += 1
        return self.trace and self._n % 2 == 0

    def slice(self, kind: str, fn, *args, traced: bool = False, **kwargs):
        """Time ``fn`` as one slice; return ``(result, record)``."""
        if traced:
            self.recorder.install()
        try:
            result, raw, cpu, factor = self.cal.measure(fn, *args, **kwargs)
        finally:
            if traced:
                self.recorder.uninstall()
        layers = self.recorder.take() if traced else None
        record = Record(kind, traced, raw, cpu, factor, layers)
        self.records.append(record)
        return result, record

    # -- correctness -----------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    # -- results ---------------------------------------------------------
    def of(self, kind_prefix: str, traced: bool = False) -> list[Record]:
        return [
            r for r in self.records
            if r.kind.startswith(kind_prefix) and r.traced == traced
        ]

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_scaled(records: list[Record]) -> float:
    return statistics.median([r.scaled for r in records])


def _latency(scaled: list[float], raw: list[float]) -> tuple[dict, dict]:
    """Latency quantiles in ms: scaled ones for the result, raw beside them."""
    qs = {"p50": 0.5, "p90": 0.9, "p99": 0.99}
    return (
        {f"verdict_latency_{k}_ms": common.quantile(scaled, q) * 1e3 for k, q in qs.items()},
        {f"verdict_latency_{k}_ms": common.quantile(raw, q) * 1e3 for k, q in qs.items()},
    )


def _untraced_main(run: Run, kind: str) -> list[Record]:
    records = run.of(kind, traced=False)
    if not records:
        raise RuntimeError(f"no untraced {kind} slices completed")
    return records


# -- per-layer table ------------------------------------------------------

def layer_report(run: Run, main_kinds: tuple[str, ...], p99_ms: float) -> tuple[dict, dict]:
    """Per-layer metrics and the full table from a traced run.

    A *pass* is one slice of each kind; each layer's figure per pass is
    the sum over kinds of the median, over that kind's traced slices, of
    the layer's scaled busy (or wait) seconds in the slice.
    """
    traced = [r for r in run.records if r.traced]
    kinds = sorted({r.kind for r in traced})
    names = sorted({name for r in traced for name in r.layers})
    table: dict[str, dict] = {}
    for name in names:
        row = {"calls": 0.0, "busy_s": 0.0, "wait_s": 0.0, "rows": 0.0}
        for kind in kinds:
            of_kind = [r for r in traced if r.kind == kind]
            stats = [r.layers.get(name, LayerStats()) for r in of_kind]
            row["calls"] += statistics.median([s.calls for s in stats])
            row["rows"] += statistics.median([s.rows for s in stats])
            row["busy_s"] += statistics.median(
                [s.busy * r.factor for s, r in zip(stats, of_kind)]
            )
            row["wait_s"] += statistics.median(
                [s.wait * r.factor for s, r in zip(stats, of_kind)]
            )
        table[name] = row
    pass_wall = pass_idle = unattributed = 0.0
    counts: dict[str, float] = {}
    for kind in kinds:
        of_kind = [r for r in traced if r.kind == kind]
        pass_wall += _median_scaled(of_kind)
        pass_idle += statistics.median(
            [max(r.raw - r.cpu, 0.0) * r.factor for r in of_kind]
        )
        unattributed += statistics.median([
            (r.cpu - sum(s.busy for s in r.layers.values())) * r.factor
            for r in of_kind
        ])
        for key in {k for r in of_kind for k in r.counts}:
            counts[key] = counts.get(key, 0.0) + statistics.median(
                [r.counts.get(key, 0) for r in of_kind]
            )

    def group(prefix: str) -> dict:
        rows = [row for name, row in table.items()
                if name == prefix or name.startswith(prefix + ".")]
        return {
            key: sum(row[key] for row in rows)
            for key in ("calls", "busy_s", "wait_s", "rows")
        }

    traced_main = sum(_median_scaled(run.of(k, traced=True)) for k in main_kinds)
    untraced_main = sum(_median_scaled(run.of(k, traced=False)) for k in main_kinds)
    classify = group("ml.classify")
    metrics = {f"{layer}_s": group(layer)["busy_s"] for layer in TIME_LAYERS}
    metrics["unattributed_s"] = unattributed
    metrics["verdict_latency_p99_ms"] = p99_ms
    metrics["hpc.execute_calls"] = group("hpc.execute")["calls"]
    metrics["ml.classify_calls"] = classify["calls"]
    metrics["ml.rows_per_call"] = (
        classify["rows"] / classify["calls"] if classify["calls"] else 0.0
    )
    metrics["serve.messages"] = group("serve.publish")["calls"]
    metrics["serve.backpressure_waits"] = counts.get("serve.backpressure_waits", 0.0)
    metrics["obs.trace_events"] = counts.get("obs.trace_events", 0.0)
    metrics["registry.bytes"] = counts.get("registry.bytes", 0.0)
    for layer in SHARE_LAYERS:
        row = group(layer)
        metrics[f"{layer}_share"] = (row["busy_s"] + row["wait_s"]) / pass_wall
    metrics["tracing_overhead_ratio"] = traced_main / untraced_main
    report = {
        "pass_kinds": kinds,
        "pass_wall_s": pass_wall,
        "pass_idle_s": pass_idle,
        "unattributed_s": unattributed,
        "layers": table,
        "counts": counts,
        "traced_slices": len(traced),
    }
    return metrics, report


def render_table(workload: str, report: dict, metrics: dict) -> str:
    kinds: dict[str, int] = {}
    for kind in report["pass_kinds"]:
        family = kind.split(".")[0]
        kinds[family] = kinds.get(family, 0) + 1
    lines = [
        f"traced run: {workload}  (seconds per pass at reference speed; a pass "
        f"is one slice of each kind: "
        f"{', '.join(f'{k} x{n}' if n > 1 else k for k, n in kinds.items())})",
        f"{'layer':34s} {'calls':>9s} {'busy_s':>11s} {'wait_s':>11s} {'share':>7s}",
    ]
    wall = report["pass_wall_s"]
    for name, row in sorted(report["layers"].items()):
        share = (row["busy_s"] + row["wait_s"]) / wall if wall else 0.0
        lines.append(
            f"{name:34s} {row['calls']:9.1f} {row['busy_s']:11.6f} "
            f"{row['wait_s']:11.6f} {share:7.3f}"
        )
    lines.append(f"{'unattributed (cpu outside spans)':34s} {'':9s} "
                 f"{report['unattributed_s']:11.6f}")
    lines.append(f"{'process idle (wall - cpu)':34s} {'':9s} {report['pass_idle_s']:11.6f}")
    lines.append(f"{'pass wall':34s} {'':9s} {wall:11.6f}")
    for key, value in sorted(report["counts"].items()):
        lines.append(f"{key:34s} {value:9.1f}")
    lines.append(f"tracing_overhead_ratio {metrics['tracing_overhead_ratio']:.4f}  "
                 f"verdict_latency_p99_ms {metrics['verdict_latency_p99_ms']:.4f}")
    return "\n".join(lines)


# -- serve-short / serve-long --------------------------------------------

#: Jobs per throughput slice, and single-execution requests per latency
#: slice, sized so each slice takes a few tens of milliseconds.
SERVE_SHAPE = {"serve-short": (24, 12), "serve-long": (2, 1)}
SETUP_REPS = 40
QUEUE_DEPTH = 64


def _load_artifacts(cache):
    model_id = json.loads((cache / "model.json").read_text())["model_id"]
    return model_id, cache / "registry"


def _reference(run: Run, cache) -> list:
    path = cache / f"ref-{run.workload}-{run.seed}.json"
    return [common.verdict_from_json(v) for v in json.loads(path.read_text())]


def _verdict_quality(reference: list, jobs: list) -> tuple[float, float]:
    from repro.ml.metrics import roc_auc

    truth = np.array([job.is_malware for job in jobs], dtype=np.intp)
    accuracy = float(np.mean([v.is_malware == t for v, t in zip(reference, truth)]))
    auc = float(roc_auc(truth, np.array([v.malware_fraction for v in reference])))
    return accuracy, auc


def run_serve(run: Run, cache) -> tuple[dict, dict]:
    from repro.registry import ModelRegistry
    from repro.serve import DetectionService

    model_id, registry_dir = _load_artifacts(cache)
    jobs = common.serve_jobs(run.workload, run.seed)
    reference = _reference(run, cache)
    chunk, group = SERVE_SHAPE[run.workload]
    n_chunks = len(jobs) // chunk
    n_counters = common.DEPLOYED[2]

    def warm_start():
        detector = ModelRegistry(registry_dir).load_detector(model_id)
        DetectionService(detector, n_counters=n_counters, queue_depth=QUEUE_DEPTH)
        return detector

    def service(start: int) -> DetectionService:
        return DetectionService(
            detector, producers=1, workers=1, queue_depth=QUEUE_DEPTH,
            n_counters=n_counters, pool_seed=common.POOL_BASE + start,
        )

    def latency_group(first: int) -> list[float]:
        times = []
        for i in range(first, first + group):
            index = i % len(jobs)
            svc = service(index)
            start = time.perf_counter()
            report = svc.run([jobs[index]])
            times.append(time.perf_counter() - start)
            pending.append((index, report.verdicts[0]))
        return times

    detector = warm_start()
    # Warm-up: first calls fault in code paths and mapped pages.
    service(0).run(jobs[:chunk])
    run.cal.break_chain()
    run.start_clock()
    for _ in range(SETUP_REPS):
        detector, _rec = run.slice("setup", warm_start, traced=run.next_traced())
    windows, windows_raw, latencies, latencies_raw = [], [], [], []
    pending: list = []
    k = lat_next = 0
    while run.running():
        start = (k % n_chunks) * chunk
        svc = service(start)
        traced = run.next_traced()
        report, record = run.slice("chunk", svc.run, jobs[start : start + chunk], traced=traced)
        record.counts["serve.backpressure_waits"] = report.backpressure_waits
        if not traced:
            windows.append(report.n_windows / record.scaled)
            windows_raw.append(report.n_windows / record.raw)
        for i, verdict in enumerate(report.verdicts):
            run.check(verdict == reference[start + i], f"chunk verdict {start + i}")
        k += 1
        pending.clear()
        times, record = run.slice("latency", latency_group, lat_next)
        latencies.extend(t * record.factor for t in times)
        latencies_raw.extend(times)
        for index, verdict in pending:
            run.check(verdict == reference[index], f"single verdict {index}")
        lat_next += group
    accuracy, auc = _verdict_quality(reference, jobs)
    latency, latency_raw = _latency(latencies, latencies_raw)
    e2e = {
        "windows_per_s": statistics.median(windows),
        **latency,
        "setup_s": _median_scaled(run.of("setup")),
        "peak_rss_mb": peak_rss_mb(),
        "verdict_accuracy": accuracy,
        "auc_mean": auc,
    }
    raw = {
        "windows_per_s": statistics.median(windows_raw),
        **latency_raw,
        "setup_s": statistics.median([r.raw for r in run.of("setup")]),
        "latency_samples": len(latencies),
        "throughput_slices": len(windows),
    }
    return e2e, raw


# -- monitor-obs -----------------------------------------------------------

MONITOR_CHUNK = 16
#: Event time starts here and advances by each execution's sampled
#: windows (10 ms each).  Health and quality windows then hold a fixed
#: number of executions however fast the host runs, so their work and
#: memory do not follow the host's speed.
EVENT_EPOCH = 1_700_000_000.0


class EventClock:
    """Simulated wall clock for the health and quality trackers."""

    def __init__(self) -> None:
        self.now = EVENT_EPOCH

    def __call__(self) -> float:
        return self.now
HEALTH_RULES = ("detection_rate>=0.9:warning", "p95_classify_s>=0.01:critical")
HEALTH_SLOS = ("nondegraded>=0.95",)


def run_monitor(run: Run, cache) -> tuple[dict, dict]:
    from repro.core.runtime import RuntimeMonitor
    from repro.hpc.lxc import ContainerPool
    from repro.hpc.microarch import DEFAULT_WINDOW_MS
    from repro.obs import (
        Archive,
        HealthEvaluator,
        QualityTracker,
        ReferenceProfile,
        Registry,
        Tracer,
        parse_alert_spec,
        parse_slo,
    )
    from repro.registry import ModelRegistry

    model_id, registry_dir = _load_artifacts(cache)
    jobs = common.serve_jobs(run.workload, run.seed)
    reference = _reference(run, cache)
    n_chunks = len(jobs) // MONITOR_CHUNK
    rules = [parse_alert_spec(spec) for spec in HEALTH_RULES]
    slos = [parse_slo(spec) for spec in HEALTH_SLOS]
    out = run.scratch
    clock = EventClock()

    def warm_start():
        detector = ModelRegistry(registry_dir).load_detector(model_id)
        tracer, metrics = Tracer(), Registry()
        health = HealthEvaluator(
            rules=rules, slos=slos, tracer=tracer, metrics=metrics, clock=clock
        )
        quality = QualityTracker(
            ReferenceProfile.load(cache / "profile.json"), tracer=tracer,
            metrics=metrics, clock=clock,
        )
        monitor = RuntimeMonitor(
            detector, n_counters=common.DEPLOYED[2], tracer=tracer,
            metrics=metrics, health=health, quality=quality,
        )
        return monitor

    def monitor_slice(start: int, slice_no: int):
        times, verdicts = [], []
        for i in range(start, start + MONITOR_CHUNK):
            job = jobs[i]
            clock.now += job.n_windows * DEFAULT_WINDOW_MS / 1000.0
            t0 = time.perf_counter()
            verdict = monitor.monitor(
                job.app, job.n_windows, ContainerPool(seed=common.POOL_BASE + i),
                job.is_malware,
            )
            times.append(time.perf_counter() - t0)
            verdicts.append(verdict)
        trace_path = out / "trace.jsonl"
        metrics_path = out / "metrics.json"
        events = monitor.tracer.dump(trace_path)
        monitor.tracer.drain()
        monitor.metrics.dump(metrics_path)
        monitor.health.dump(out / "health.json")
        monitor.quality.dump(out / "quality.json")
        Archive(out / f"archive-{slice_no}").ingest_trace(trace_path, metrics_path)
        return times, verdicts, events

    monitor = warm_start()
    monitor_slice(0, 0)  # warm-up
    shutil.rmtree(out / "archive-0", ignore_errors=True)
    run.cal.break_chain()
    run.start_clock()
    for _ in range(SETUP_REPS):
        _m, _rec = run.slice("setup", warm_start, traced=run.next_traced())
    windows, windows_raw, latencies, latencies_raw = [], [], [], []
    k = 0
    while run.running():
        start = (k % n_chunks) * MONITOR_CHUNK
        traced = run.next_traced()
        (times, verdicts, events), record = run.slice(
            "chunk", monitor_slice, start, k + 1, traced=traced
        )
        record.counts["obs.trace_events"] = events
        n = sum(v.n_windows for v in verdicts)
        if not traced:
            windows.append(n / record.scaled)
            windows_raw.append(n / record.raw)
            latencies.extend(t * record.factor for t in times)
            latencies_raw.extend(times)
        for i, verdict in enumerate(verdicts):
            run.check(verdict == reference[start + i], f"monitor verdict {start + i}")
        shutil.rmtree(out / f"archive-{k + 1}", ignore_errors=True)
        run.cal.break_chain()
        k += 1
    accuracy, auc = _verdict_quality(reference, jobs)
    latency, latency_raw = _latency(latencies, latencies_raw)
    e2e = {
        "windows_per_s": statistics.median(windows),
        **latency,
        "setup_s": _median_scaled(run.of("setup")),
        "peak_rss_mb": peak_rss_mb(),
        "verdict_accuracy": accuracy,
        "auc_mean": auc,
    }
    raw = {
        "windows_per_s": statistics.median(windows_raw),
        **latency_raw,
        "setup_s": statistics.median([r.raw for r in run.of("setup")]),
        "latency_samples": len(latencies),
        "throughput_slices": len(windows),
    }
    return e2e, raw


# -- train-grid ------------------------------------------------------------

#: Windows per application of the training corpus (fixed) and of the
#: held-out corpus (instantiated from the seed).  The training corpus
#: does not depend on the seed: fit cost depends on the data (boosting
#: stops early, SMO iterates to convergence), and a seed-dependent
#: corpus moved the grid's fit time by 11% between seeds.
GRID_TRAIN_WINDOWS = 6
GRID_TEST_WINDOWS = 8
GRID_CELLS = (
    ("BayesNet", "general"),
    ("J48", "general"),
    ("JRip", "general"),
    ("MLP", "general"),
    ("OneR", "general"),
    ("REPTree", "general"),
    ("SGD", "general"),
    ("SMO", "general"),
    ("REPTree", "boosted"),
    ("REPTree", "bagging"),
)
GRID_HPCS = 4
RANK_REPS = 4


def run_train(run: Run) -> tuple[dict, dict]:
    from repro.core.config import DetectorConfig
    from repro.core.detector import HMDDetector
    from repro.core.runtime import DetectionVerdict
    from repro import features
    from repro.registry import ModelRegistry
    from repro.workloads import BENIGN_FAMILIES, MALWARE, MALWARE_FAMILIES, CorpusBuilder
    from repro.workloads.dataset import concatenate

    families = BENIGN_FAMILIES + MALWARE_FAMILIES
    configs = [DetectorConfig(c, e, GRID_HPCS) for c, e in GRID_CELLS]
    cell_names = [f"{c}-{e}" for c, e in GRID_CELLS]

    def build_family(index: int, seed: int, windows: int, draws: int = 1):
        return CorpusBuilder(
            [families[index]] * draws, seed=seed * 1000 + index,
            windows_per_app=windows,
        ).build()

    def fit(config, train, traced: bool, name: str):
        if traced:
            with run.recorder.span(f"ml.fit.{name}"):
                return HMDDetector(config).fit(train)
        return HMDDetector(config).fit(train)

    def held_out(detector, apps):
        times, verdicts = [], []
        for app_name, windows in apps:
            t0 = time.perf_counter()
            flags, _scores = detector.grade_windows(windows)
            verdicts.append(DetectionVerdict.from_flags(app_name, flags, 0.5))
            times.append(time.perf_counter() - t0)
        return times, verdicts

    def round_trip(registry, detector, test_windows):
        entry = registry.save_detector(detector)
        loaded = registry.load_detector(entry.model_id)
        return entry, loaded.grade_windows(test_windows)[1]

    first: dict = {}
    latencies: list[float] = []
    latencies_raw: list[float] = []
    accuracies: dict[str, float] = {}
    aucs: dict[str, float] = {}
    held_out_corpus = concatenate([
        build_family(index, run.seed, GRID_TEST_WINDOWS, common.HOST_DRAWS)
        for index in range(len(families))
    ])
    run.start_clock()
    round_no = 0
    while run.running() or round_no < 3:
        traced = run.next_traced()
        blocks = []
        for index in range(len(families)):
            block, _rec = run.slice(
                f"corpus.{index:02d}", build_family, index,
                common.TRAIN_CORPUS_SEED, GRID_TRAIN_WINDOWS, traced=traced,
            )
            blocks.append(block)
        corpus = concatenate(blocks)
        if "corpus" in first:
            run.check(
                np.array_equal(corpus.features, first["corpus"]),
                f"corpus rebuild round {round_no}",
            )
        else:
            first["corpus"] = corpus.features
        for rep in range(RANK_REPS):
            # Looked up per call, so a traced slice calls the wrapper.
            run.slice(f"rank.{rep}", lambda: features.rank_features(corpus), traced=traced)
        registry = ModelRegistry(run.scratch / f"registry-{round_no}")
        for config, name in zip(configs, cell_names):
            detector, _rec = run.slice(
                f"fit.{name}", fit, config, corpus, traced, name, traced=traced
            )
            test = detector.reducer.transform(held_out_corpus)
            apps = [
                (test.app_names[a], test.features[test.app_ids == a])
                for a in np.unique(test.app_ids)
            ]
            truth = [test.app_label(a) == MALWARE for a in np.unique(test.app_ids)]
            (times, verdicts), record = run.slice(
                f"heldout.{name}", held_out, detector, apps, traced=traced
            )
            if not traced:
                latencies.extend(t * record.factor for t in times)
                latencies_raw.extend(times)
            scores = detector.grade_windows(test.features)[1]
            (entry, loaded_scores), record = run.slice(
                f"registry.{name}", round_trip, registry, detector, test.features,
                traced=traced,
            )
            record.counts["registry.bytes"] = sum(
                p.stat().st_size
                for p in (registry.root / "models" / entry.model_id).iterdir()
            )
            run.check(
                loaded_scores.tobytes() == scores.tobytes(),
                f"registry round trip {name} round {round_no}",
            )
            if name in first:
                ref_scores, ref_verdicts = first[name]
                run.check(scores.tobytes() == ref_scores, f"refit {name} round {round_no}")
                run.check(verdicts == ref_verdicts, f"held-out verdicts {name} round {round_no}")
            else:
                first[name] = (scores.tobytes(), verdicts)
                accuracies[name] = float(
                    np.mean([v.is_malware == t for v, t in zip(verdicts, truth)])
                )
                aucs[name] = detector.evaluate(held_out_corpus).auc
        shutil.rmtree(registry.root, ignore_errors=True)
        run.cal.break_chain()
        round_no += 1

    def kind_sum(prefix: str, raw: bool = False) -> float:
        """Sum over slice kinds with ``prefix`` of each kind's median."""
        kinds = sorted({r.kind for r in run.records if r.kind.startswith(prefix)})
        return sum(
            statistics.median([r.raw if raw else r.scaled for r in _untraced_main(run, kind)])
            for kind in kinds
        )

    fits = corpus.n_samples * len(configs)
    latency, latency_raw = _latency(latencies, latencies_raw)
    e2e = {
        "windows_per_s": fits / kind_sum("fit."),
        **latency,
        "setup_s": kind_sum("corpus.") + kind_sum("rank.") / RANK_REPS,
        "peak_rss_mb": peak_rss_mb(),
        "verdict_accuracy": float(np.mean(list(accuracies.values()))),
        "auc_mean": float(np.mean(list(aucs.values()))),
    }
    raw = {
        "windows_per_s": fits / kind_sum("fit.", raw=True),
        **latency_raw,
        "setup_s": kind_sum("corpus.", raw=True) + kind_sum("rank.", raw=True) / RANK_REPS,
        "train_s": kind_sum("fit."),
        "fit_s": {name: kind_sum(f"fit.{name}") for name in cell_names},
        "train_rows": corpus.n_samples,
        "rounds": round_no,
        "latency_samples": len(latencies),
        "accuracy_per_cell": accuracies,
        "auc_per_cell": aucs,
    }
    return e2e, raw
