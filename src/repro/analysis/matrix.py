"""Evaluation-matrix runner regenerating the paper's result grid.

The paper's evaluation (§4) is one grid: 8 classifiers × {general,
AdaBoost, Bagging} × {16, 8, 4, 2} HPCs, measured for accuracy (Fig. 3),
AUC (Table 2, Fig. 4), ACC×AUC (Fig. 5), and hardware cost (Table 3).
:class:`MatrixRunner` computes any slice of that grid against one corpus
and split protocol, optionally averaged over several split seeds (the
paper uses one split; averaging is our variance-reduction deviation,
recorded in EXPERIMENTS.md).

Results can be backed by a content-addressed, crash-safe
:class:`~repro.analysis.cache.ResultCache` (per-record granularity,
atomic writes) so interrupted runs resume instead of restarting and
benchmarks/CLI re-render tables without retraining.  With ``workers >
1`` the cache-missing cells fan out over a
``concurrent.futures.ProcessPoolExecutor``: each worker process builds
one runner in its initializer, so the per-seed split and
feature-ranking work is shared across every cell that worker
evaluates.  Every record is a pure function of (corpus, split protocol,
config), so results are bit-identical whatever ``workers`` is, and grid
methods return records in input order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.cache import ResultCache, dataset_fingerprint, record_cache_key
from repro.analysis.records import EvalRecord, HardwareRecord, RocRecord
from repro.core.config import CLASSIFIER_NAMES, DetectorConfig
from repro.core.detector import HMDDetector
from repro.features.correlation import FeatureRanking, rank_features
from repro.hardware.lowering import lower
from repro.ml.metrics import roc_curve
from repro.ml.validation import app_level_split
from repro.obs import NULL_REGISTRY, NULL_TRACER, Registry, Tracer
from repro.workloads.dataset import Dataset

#: Record kinds a runner can produce (and cache) per grid cell.
RECORD_KIND_EVAL = "eval"
RECORD_KIND_HARDWARE = "hardware"
RECORD_KIND_ROC = "roc"


def paper_grid() -> list[DetectorConfig]:
    """All 96 detector configs behind Figures 3/5 and Table 2."""
    configs = []
    for classifier in CLASSIFIER_NAMES:
        for n_hpcs in (16, 8, 4, 2):
            for ensemble in ("general", "boosted", "bagging"):
                configs.append(DetectorConfig(classifier, ensemble, n_hpcs))
    return configs


def table3_grid() -> list[DetectorConfig]:
    """The 24 configs of the paper's hardware Table 3."""
    configs = []
    for classifier in CLASSIFIER_NAMES:
        configs.append(DetectorConfig(classifier, "general", 8))
        configs.append(DetectorConfig(classifier, "boosted", 4))
        configs.append(DetectorConfig(classifier, "boosted", 2))
    return configs


@dataclass(frozen=True)
class MatrixTiming:
    """Wall-clock instrumentation of one evaluated grid cell.

    Attributes:
        name: config label, e.g. ``"4HPC-Boosted-JRip"``.
        kind: ``"eval"``, ``"hardware"`` or ``"roc"``.
        fit_seconds: time spent training (summed over split seeds).
        eval_seconds: time spent scoring / lowering after training.
        cached: True when the record came from the result cache
            (both timings are then zero).
    """

    name: str
    kind: str
    fit_seconds: float
    eval_seconds: float
    cached: bool = False

    @property
    def total_seconds(self) -> float:
        return self.fit_seconds + self.eval_seconds


class MatrixRunner:
    """Evaluates detector configs on a shared corpus/split/ranking.

    Args:
        dataset: full 44-event corpus.
        train_fraction: application-level split ratio (paper: 0.7).
        seeds: split seeds to average over.
        workers: processes computing cache-missing grid cells; ``1``
            (the default) computes them inline without a pool.
        cache: optional content-addressed result cache; hits skip
            training entirely, misses are written back per record as
            they complete, so a killed run loses only cells in flight.
        progress: optional callback invoked in this process with a
            :class:`MatrixTiming` as each grid cell completes (cache
            hits included).
        tracer: optional :class:`~repro.obs.Tracer` receiving
            ``matrix.fit`` / ``matrix.eval`` / ``matrix.roc`` /
            ``matrix.hardware`` / ``matrix.ranking`` spans; defaults to
            the disabled :data:`~repro.obs.NULL_TRACER` (a no-op).
            Worker processes trace into their own buffers, absorbed
            here as their cells land.
        metrics: optional :class:`~repro.obs.Registry` counting cached
            vs computed cells and observing per-stage wall-time
            histograms; defaults to the disabled registry.  Worker
            snapshots are merged into it.
    """

    def __init__(
        self,
        dataset: Dataset,
        train_fraction: float = 0.7,
        seeds: tuple[int, ...] = (7,),
        workers: int = 1,
        cache: ResultCache | None = None,
        progress: Callable[[MatrixTiming], None] | None = None,
        tracer: Tracer | None = None,
        metrics: Registry | None = None,
    ) -> None:
        if not seeds:
            raise ValueError("need at least one split seed")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.dataset = dataset
        self.train_fraction = train_fraction
        self.seeds = tuple(seeds)
        self.cache = cache
        self.progress = progress
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_cached = self.metrics.counter(
            "matrix_cells_cached_total", "grid cells served from the result cache"
        )
        self._c_computed = self.metrics.counter(
            "matrix_cells_computed_total", "grid cells trained and evaluated"
        )
        self._c_rankings = self.metrics.counter(
            "matrix_rankings_computed_total", "shared feature rankings computed"
        )
        self._h_fit = self.metrics.histogram(
            "matrix_fit_seconds", "per-cell detector training wall time"
        )
        self._h_eval = self.metrics.histogram(
            "matrix_eval_seconds", "per-cell scoring/lowering wall time"
        )
        self.timings: list[MatrixTiming] = []
        #: Detectors trained for this runner, in workers too (0 on a
        #: fully warm cache).
        self.n_fits = 0
        self._splits = {
            seed: app_level_split(dataset, train_fraction, seed=seed)
            for seed in self.seeds
        }
        # One shared feature ranking per (split, method), like the
        # paper's Table 1; computed lazily so warm-cache re-renders
        # rank nothing.
        self._rankings: dict[tuple[int, str], FeatureRanking] = {}
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # shared split/ranking plumbing
    # ------------------------------------------------------------------
    def ranking(self, seed: int, method: str) -> FeatureRanking:
        """The shared feature ranking of one split, per requested method."""
        key = (seed, method)
        if key not in self._rankings:
            with self.tracer.span("matrix.ranking", seed=seed, method=method):
                self._rankings[key] = rank_features(
                    self._splits[seed].train, method=method
                )
            self._c_rankings.inc()
        return self._rankings[key]

    def _fit_detector(self, config: DetectorConfig, seed: int) -> HMDDetector:
        split = self._splits[seed]
        detector = HMDDetector(config)
        # Reuse the split's shared ranking — computed with the config's
        # own ranking method, not silently the default one.
        detector.reducer.ranking_ = self.ranking(seed, config.feature_method)
        reduced = detector.reducer.transform(split.train)
        detector.model.fit(reduced.features, reduced.labels)
        detector.fitted_ = True
        self.n_fits += 1
        return detector

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def corpus_fingerprint(self) -> str:
        """Content fingerprint of the evaluation corpus (cached)."""
        if self._fingerprint is None:
            self._fingerprint = dataset_fingerprint(self.dataset)
        return self._fingerprint

    def cache_key(
        self, config: DetectorConfig, kind: str, extra: dict | None = None
    ) -> str:
        """Content address of one grid cell under this runner's protocol."""
        return record_cache_key(
            corpus=self.corpus_fingerprint(),
            train_fraction=self.train_fraction,
            seeds=self.seeds,
            config=config,
            kind=kind,
            extra=extra,
        )

    def _note(self, timing: MatrixTiming) -> None:
        self.timings.append(timing)
        if timing.cached:
            self._c_cached.inc()
        else:
            self._c_computed.inc()
            self._h_fit.observe(timing.fit_seconds)
            self._h_eval.observe(timing.eval_seconds)
        if self.progress is not None:
            self.progress(timing)

    # ------------------------------------------------------------------
    # timed single-cell computations (no cache interaction)
    # ------------------------------------------------------------------
    def timed_evaluate(self, config: DetectorConfig) -> tuple[EvalRecord, MatrixTiming]:
        """Accuracy/AUC of one config plus its fit/eval wall time."""
        accs, aucs = [], []
        fit_seconds = eval_seconds = 0.0
        for seed in self.seeds:
            start = time.perf_counter()
            with self.tracer.span("matrix.fit", config=config.name, seed=seed):
                detector = self._fit_detector(config, seed)
            fitted = time.perf_counter()
            with self.tracer.span("matrix.eval", config=config.name, seed=seed):
                scores = detector.evaluate(self._splits[seed].test)
            done = time.perf_counter()
            fit_seconds += fitted - start
            eval_seconds += done - fitted
            accs.append(scores.accuracy)
            aucs.append(scores.auc)
        record = EvalRecord(
            classifier=config.classifier,
            ensemble=config.ensemble,
            n_hpcs=config.n_hpcs,
            accuracy=float(np.mean(accs)),
            auc=float(np.mean(aucs)),
            n_seeds=len(self.seeds),
        )
        return record, MatrixTiming(
            config.name, RECORD_KIND_EVAL, fit_seconds, eval_seconds
        )

    def timed_roc(
        self, config: DetectorConfig, max_points: int = 200
    ) -> tuple[RocRecord, MatrixTiming]:
        """ROC curve of one config on the first split seed (Figure 4)."""
        seed = self.seeds[0]
        start = time.perf_counter()
        with self.tracer.span("matrix.fit", config=config.name, seed=seed):
            detector = self._fit_detector(config, seed)
        fitted = time.perf_counter()
        with self.tracer.span("matrix.roc", config=config.name, seed=seed):
            test = self._splits[seed].test
            reduced = detector.reducer.transform(test)
            scores = detector.model.decision_scores(reduced.features)
            fpr, tpr, _ = roc_curve(reduced.labels, scores)
            auc = float(np.trapezoid(tpr, fpr))
            if len(fpr) > max_points:
                idx = np.linspace(0, len(fpr) - 1, max_points).astype(int)
                fpr, tpr = fpr[idx], tpr[idx]
        record = RocRecord(
            classifier=config.classifier,
            ensemble=config.ensemble,
            n_hpcs=config.n_hpcs,
            fpr=tuple(float(v) for v in fpr),
            tpr=tuple(float(v) for v in tpr),
            auc=auc,
        )
        done = time.perf_counter()
        return record, MatrixTiming(
            config.name, RECORD_KIND_ROC, fitted - start, done - fitted
        )

    def timed_hardware(
        self, config: DetectorConfig
    ) -> tuple[HardwareRecord, MatrixTiming]:
        """Hardware cost of one config trained on the first split seed."""
        start = time.perf_counter()
        with self.tracer.span("matrix.fit", config=config.name, seed=self.seeds[0]):
            detector = self._fit_detector(config, self.seeds[0])
        fitted = time.perf_counter()
        with self.tracer.span("matrix.hardware", config=config.name):
            design = lower(detector.model)
        record = HardwareRecord(
            classifier=config.classifier,
            ensemble=config.ensemble,
            n_hpcs=config.n_hpcs,
            latency_cycles=design.latency_cycles,
            area_percent=round(design.area_percent, 2),
            luts=design.resources.luts,
            ffs=design.resources.ffs,
            dsps=design.resources.dsps,
            brams=design.resources.brams,
        )
        done = time.perf_counter()
        return record, MatrixTiming(
            config.name, RECORD_KIND_HARDWARE, fitted - start, done - fitted
        )

    def _compute(self, config: DetectorConfig, kind: str, extra: dict | None) -> tuple:
        """``(record, timing)`` of one grid cell of ``kind``."""
        if kind == RECORD_KIND_EVAL:
            return self.timed_evaluate(config)
        if kind == RECORD_KIND_HARDWARE:
            return self.timed_hardware(config)
        if kind == RECORD_KIND_ROC:
            return self.timed_roc(config, **extra)
        raise ValueError(f"unknown record kind {kind!r}")

    # ------------------------------------------------------------------
    # public cache-aware API
    # ------------------------------------------------------------------
    def evaluate(self, config: DetectorConfig) -> EvalRecord:
        """Accuracy/AUC of one config, averaged over the split seeds."""
        return self.evaluate_grid([config])[0]

    def evaluate_grid(self, configs: list[DetectorConfig]) -> list[EvalRecord]:
        return self._run_grid(configs, RECORD_KIND_EVAL)

    def roc(self, config: DetectorConfig, max_points: int = 200) -> RocRecord:
        """ROC curve of one config on the first split seed (Figure 4)."""
        return self.roc_grid([config], max_points=max_points)[0]

    def roc_grid(
        self, configs: list[DetectorConfig], max_points: int = 200
    ) -> list[RocRecord]:
        return self._run_grid(configs, RECORD_KIND_ROC, {"max_points": max_points})

    def hardware(self, config: DetectorConfig) -> HardwareRecord:
        """Hardware cost of one config trained on the first split seed."""
        return self.hardware_grid([config])[0]

    def hardware_grid(self, configs: list[DetectorConfig]) -> list[HardwareRecord]:
        return self._run_grid(configs, RECORD_KIND_HARDWARE)

    def _run_grid(
        self, configs: list[DetectorConfig], kind: str, extra: dict | None = None
    ) -> list:
        """Records of ``configs`` in input order, each distinct cell
        looked up in the cache or computed exactly once."""
        records: dict[DetectorConfig, object] = {}
        pending: list[DetectorConfig] = []
        for config in dict.fromkeys(configs):
            record = None
            if self.cache is not None:
                record = self.cache.get(self.cache_key(config, kind, extra))
            if record is None:
                pending.append(config)
            else:
                records[config] = record
                self._note(MatrixTiming(config.name, kind, 0.0, 0.0, cached=True))

        def land(config: DetectorConfig, record, timing: MatrixTiming) -> None:
            records[config] = record
            if self.cache is not None:
                self.cache.put(self.cache_key(config, kind, extra), record)
            self._note(timing)

        if self.workers == 1 or len(pending) <= 1:
            for config in pending:
                land(config, *self._compute(config, kind, extra))
        else:
            self._fan_out(pending, kind, extra, land)
        return [records[config] for config in configs]

    def _fan_out(
        self,
        pending: list[DetectorConfig],
        kind: str,
        extra: dict | None,
        land: Callable[..., None],
    ) -> None:
        """Compute ``pending`` over a process pool, landing each cell
        (with its worker's trace events and metrics) as it completes."""
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)),
            initializer=_init_worker,
            initargs=(
                self.dataset, self.train_fraction, self.seeds,
                self.tracer.enabled, self.metrics.enabled,
            ),
        ) as pool:
            futures = {
                pool.submit(_worker_task, config, kind, extra): config
                for config in pending
            }
            for future in as_completed(futures):
                record, timing, fits, events, snapshot = future.result()
                self.n_fits += fits
                self.tracer.absorb(events)
                if snapshot is not None:
                    self.metrics.merge(snapshot)
                land(futures[future], record, timing)


#: Per-worker-process runner, built once by :func:`_init_worker`; its
#: tracer and registry buffer observability until drained back to the
#: parent with every completed cell (events carry the worker's pid).
_WORKER_RUNNER: MatrixRunner | None = None


def _init_worker(
    dataset: Dataset,
    train_fraction: float,
    seeds: tuple[int, ...],
    trace_enabled: bool,
    metrics_enabled: bool,
) -> None:
    """Build the worker's shared runner (splits computed once per worker)."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = MatrixRunner(
        dataset, train_fraction=train_fraction, seeds=seeds,
        tracer=Tracer(enabled=trace_enabled),
        metrics=Registry(enabled=metrics_enabled),
    )


def _worker_task(config: DetectorConfig, kind: str, extra: dict | None) -> tuple:
    """Compute one grid cell in a worker.

    Returns ``(record, timing, fits, trace_events, metrics_snapshot)``;
    the observability payloads are empty/None when disabled so the
    pickle cost of the default path stays unchanged.
    """
    runner = _WORKER_RUNNER
    assert runner is not None, "worker used before initialization"
    fits_before = runner.n_fits
    record, timing = runner._compute(config, kind, extra)
    events = runner.tracer.drain() if runner.tracer.enabled else []
    snapshot = runner.metrics.drain() if runner.metrics.enabled else None
    return record, timing, runner.n_fits - fits_before, events, snapshot
