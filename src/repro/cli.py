"""Command-line interface: build corpora, train detectors, render tables.

Installed as ``repro-hmd``.  Subcommands:

* ``corpus``   — build the synthetic corpus and write it to CSV/ARFF.
* ``rank``     — reproduce Table 1 (feature ranking).
* ``evaluate`` — train/evaluate one detector variant.
* ``train``    — train a detector and save it to the model registry.
* ``profile``  — capture a detector's drift reference profile.
* ``matrix``   — run a slice of the paper's evaluation grid.
* ``hardware`` — reproduce Table 3 (hardware cost estimates).
* ``monitor``  — run-time detection demo on freshly executed applications.
* ``fleet``    — fault-tolerant fleet monitoring with optional fault injection.
* ``serve``    — streaming detection service over bounded queues.
* ``verilog``  — emit RTL for a trained detector.
* ``crossval`` — cross-validated scores with error bars.
* ``evasion``  — malware recall vs evasion strength.
* ``stats``    — summarize trace/metrics files from a previous run.
* ``watch``    — live health monitoring over a trace/metrics pair.
* ``report``   — fleet-wide roll-ups over the historical verdict archive.
* ``replay``   — re-drive the detection service from archived traffic.

``train``/``matrix``/``hardware``/``monitor``/``fleet``/``serve``/``crossval``
accept ``--trace-out PATH`` (JSONL span/event trace) and
``--metrics-out PATH`` (JSON metrics snapshot); instrumentation is off
— and free — unless one of them is given.
``monitor``/``fleet``/``serve`` additionally accept
``--health-out`` / ``--alerts`` / ``--alert`` / ``--slo`` to evaluate
health in-process and write a final health report, and
``--quality-ref`` / ``--quality-out`` / ``--quality-alert`` to score
the live stream against a ``profile``-captured reference for model
drift; ``watch`` follows the files of a live (or finished, with
``--once``) run and exits non-zero when a critical health or drift
alert fired.
``fleet``/``serve`` accept ``--archive-dir DIR`` to rotate the finished
run into the content-addressed fleet archive that ``report`` queries
and ``replay`` re-drives.
``monitor``/``fleet``/``serve`` accept ``--model-id REF --registry-dir
DIR`` to deploy a detector previously saved by ``train`` instead of
refitting: the compiled artifact is mmap-loaded, so startup performs
zero fits (the trace shows a ``cli.load_model`` span where ``cli.fit``
would be).

``monitor``/``fleet``/``serve`` share one flag set and one deploy path:
each records its flags as a run_meta
(:func:`repro.core.deploy.deploy_meta`), builds its detector and hosts
from that dict (:func:`repro.core.deploy.deploy`), and archives the
same dict, which ``replay`` deploys again.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from repro import __version__
from repro.analysis import (
    CacheError,
    MatrixRunner,
    ResultCache,
    figure3_table,
    figure5_table,
    improvement_summary,
    table1_table,
    table2_table,
    table3_grid,
    table3_table,
    timing_table,
)
from repro.core import (
    CLASSIFIER_NAMES,
    DetectorConfig,
    FleetJob,
    FleetMonitor,
    HMDDetector,
    RetryPolicy,
    RuntimeMonitor,
)
from repro.core.config import ENSEMBLE_MODES
from repro.core.deploy import DEPLOY_KEYS, deploy, deploy_meta, pool_seed
from repro.features import rank_features
from repro.hpc import ContainerPool, FaultPlan, ServiceFaultPlan
from repro.ioutil import atomic_write_text
from repro.ml import app_level_split
from repro.obs import (
    Archive,
    ArchiveError,
    HealthConfigError,
    HealthEvaluator,
    MatrixProgressSink,
    MetricsError,
    MetricsFollower,
    QualityError,
    QualityTracker,
    ReferenceProfile,
    Registry,
    TraceFollower,
    Tracer,
    build_reference_profile,
    health_table,
    load_alert_rules,
    load_metrics,
    fleet_report,
    fleet_report_data,
    load_trace,
    merge_snapshots,
    metrics_table,
    parse_alert_spec,
    parse_quality_alert_spec,
    parse_slo,
    span_table,
)
from repro.registry import ModelRegistry, RegistryError
from repro.serve import DetectionService, replay_segment, serve_jobs
from repro.workloads import BENIGN_FAMILIES, MALWARE_FAMILIES, default_corpus


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2018, help="corpus seed")
    parser.add_argument(
        "--windows", type=int, default=40, help="10 ms windows collected per app"
    )


def _build_corpus(args: argparse.Namespace):
    return default_corpus(seed=args.seed, windows_per_app=args.windows)


def cmd_corpus(args: argparse.Namespace) -> int:
    """Build the corpus, print its summary, optionally export it."""
    corpus = _build_corpus(args)
    print(corpus.summary())
    if args.csv:
        corpus.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.arff:
        corpus.to_arff(args.arff)
        print(f"wrote {args.arff}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    """Reproduce Table 1: the ranked most-important HPC events."""
    corpus = _build_corpus(args)
    split = app_level_split(corpus, 0.7, seed=args.split_seed)
    ranking = rank_features(split.train, method=args.method)
    print(table1_table(ranking, k=args.top))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Train one detector variant and print its test scores."""
    corpus = _build_corpus(args)
    split = app_level_split(corpus, 0.7, seed=args.split_seed)
    config = DetectorConfig(args.classifier, args.ensemble, args.hpcs)
    detector = HMDDetector(config).fit(split.train)
    scores = detector.evaluate(split.test)
    print(f"{config.name}: accuracy={scores.accuracy:.3f} auc={scores.auc:.3f} "
          f"performance={scores.performance:.3f}")
    print(f"monitored events: {', '.join(detector.monitored_events)}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Train a detector and save its compiled artifact to the registry.

    Uses the same corpus/split/fit pipeline as ``monitor``/``fleet``/
    ``serve``, so a model trained with matching flags is exactly the
    detector those commands would fit at startup — deploy it with
    their ``--model-id``/``--registry-dir`` and they skip the fit.
    """
    obs = _RunObs(args)
    with obs.tracer.span("cli.corpus"):
        corpus = _build_corpus(args)
    split = app_level_split(corpus, 0.7, seed=args.split_seed)
    config = DetectorConfig(args.classifier, args.ensemble, args.hpcs)
    with obs.tracer.span("cli.fit", config=config.name):
        detector = HMDDetector(config).fit(split.train)
    try:
        registry = ModelRegistry(args.registry_dir)
        entry = registry.save_detector(detector, tags=tuple(args.tag or ()))
    except (OSError, RegistryError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    scores = detector.evaluate(split.test)
    print(f"saved model {entry.model_id}")
    print(
        f"  config: {config.name}  accuracy={scores.accuracy:.3f} "
        f"auc={scores.auc:.3f}"
    )
    if entry.tags:
        print(f"  tags: {', '.join(entry.tags)}")
    print(
        f"  deploy: repro-hmd serve --registry-dir {args.registry_dir} "
        f"--model-id {entry.short_id}"
    )
    obs.finish()
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    """List the models saved in a registry directory."""
    try:
        entries = ModelRegistry(args.registry_dir).entries()
    except (OSError, RegistryError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    if not entries:
        print(f"no models in {args.registry_dir}")
        return 0
    print(f"{'id':12s} {'kind':12s} {'name':24s} tags")
    for entry in entries:
        print(
            f"{entry.short_id:12s} {entry.kind:12s} {entry.name:24s} "
            f"{', '.join(entry.tags)}"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Train a detector and capture its drift reference profile.

    Uses the same corpus/split/fit pipeline as ``monitor``/``fleet``/
    ``serve``, so a profile built with matching flags describes exactly
    the detector those commands deploy — hand the written file to their
    ``--quality-ref`` to score the live stream against it.
    """
    corpus = _build_corpus(args)
    split = app_level_split(corpus, 0.7, seed=args.split_seed)
    config = DetectorConfig(args.classifier, args.ensemble, args.hpcs)
    detector = HMDDetector(config).fit(split.train)
    try:
        profile = build_reference_profile(
            detector,
            split.train,
            n_bins=args.bins,
            vote_threshold=args.vote_threshold,
            meta={
                "command": "profile",
                "seed": args.seed,
                "windows": args.windows,
                "split_seed": args.split_seed,
                "config": config.name,
            },
        )
        profile_id = profile.save(args.out)
    except (OSError, QualityError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    print(
        f"wrote reference profile {args.out} (id {profile_id[:12]}): "
        f"{profile.n_features} features x {profile.feature_cells} cells, "
        f"{profile.n_windows} training windows, detector {config.name}"
    )
    print(f"monitored events: {', '.join(profile.feature_names)}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _vote_threshold(text: str) -> float:
    """Validate --vote-threshold against the (0, 1] constructor check."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


#: --faults key → FaultPlan field.
_FAULT_KEYS = {
    "crash": "crash_rate",
    "glitch": "glitch_rate",
    "drop": "drop_rate",
    "permanent": "permanent_rate",
}


def _fault_rates(text: str) -> dict:
    """Parse ``crash=0.2,glitch=0.1,drop=0.05,permanent=0.01`` specs."""
    rates: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        if not sep or key not in _FAULT_KEYS:
            known = "/".join(_FAULT_KEYS)
            raise argparse.ArgumentTypeError(
                f"bad fault spec {part!r}; expected {known} entries like crash=0.2"
            )
        try:
            rate = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad fault rate {raw!r} for {key}"
            ) from None
        if not 0.0 <= rate <= 1.0:
            raise argparse.ArgumentTypeError(
                f"fault rate {key} must be in [0, 1], got {raw}"
            )
        rates[_FAULT_KEYS[key]] = rate
    if not rates:
        raise argparse.ArgumentTypeError("empty fault spec")
    return rates


def _service_faults(text: str) -> dict:
    """Parse ``crash=0.5`` / ``crash=0.5,max=3`` service chaos specs."""
    fields: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        if not sep or key not in ("crash", "max"):
            raise argparse.ArgumentTypeError(
                f"bad service fault spec {part!r}; expected crash=R[,max=N]"
            )
        if key == "crash":
            try:
                rate = float(raw)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"bad crash rate {raw!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise argparse.ArgumentTypeError(
                    f"crash rate must be in [0, 1], got {raw}"
                )
            fields["worker_crash_rate"] = rate
        else:
            try:
                fields["max_crashes_per_worker"] = int(raw)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"bad max crashes {raw!r}"
                ) from None
    if "worker_crash_rate" not in fields:
        raise argparse.ArgumentTypeError(
            "service fault spec needs a crash rate, e.g. crash=0.5"
        )
    return fields


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for grid evaluation (1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="crash-safe result cache directory; warm entries skip training",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="stream per-config progress and print the fit/eval timing table",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a JSONL span/event trace of this run to PATH "
        "(render with: repro-hmd stats --trace PATH)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSON metrics snapshot of this run to PATH "
        "(render with: repro-hmd stats --metrics PATH)",
    )


def _add_archive_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--archive-dir", default=None, metavar="DIR",
        help="archive this run's verdicts/alerts/spans and metrics into "
        "the fleet history at DIR (query with: repro-hmd report)",
    )


def _alert_spec(text: str) -> object:
    try:
        return parse_alert_spec(text)
    except HealthConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _slo_spec(text: str) -> object:
    try:
        return parse_slo(text)
    except HealthConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_health_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--health-out", default=None, metavar="PATH",
        help="write a final health report JSON (signals, alert states, SLOs)",
    )
    parser.add_argument(
        "--alerts", default=None, metavar="RULES.json",
        help="JSON file of alert rules (a list, or {'rules': [...]})",
    )
    parser.add_argument(
        "--alert", type=_alert_spec, action="append", metavar="SPEC",
        help="inline alert rule, e.g. degraded_ratio>=0.2:critical:5:0.1 "
        "(SIGNAL OP THRESHOLD[:severity[:for_s[:clear_threshold]]]); repeatable",
    )
    parser.add_argument(
        "--slo", type=_slo_spec, action="append", metavar="SPEC",
        help="service-level objective, e.g. nondegraded>=0.95 or "
        "p95_classify_s<=0.01; repeatable",
    )
    parser.add_argument(
        "--health-window", type=float, default=60.0, metavar="SECONDS",
        help="sliding window for derived health signals (default 60)",
    )


def _health_rules_and_slos(args: argparse.Namespace) -> tuple[list, list]:
    try:
        rules = list(load_alert_rules(args.alerts)) if args.alerts else []
    except (OSError, HealthConfigError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    return rules + list(args.alert or []), list(args.slo or [])


def _quality_alert_spec(text: str) -> object:
    try:
        return parse_quality_alert_spec(text)
    except HealthConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_quality_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quality-ref", default=None, metavar="PROFILE.json",
        help="reference profile (from: repro-hmd profile --out) to score "
        "live executions against for model drift",
    )
    parser.add_argument(
        "--quality-out", default=None, metavar="PATH",
        help="write a final quality report JSON (drift signals, per-feature "
        "PSI/KS, alert states); needs --quality-ref",
    )
    parser.add_argument(
        "--quality-alert", type=_quality_alert_spec, action="append",
        metavar="SPEC",
        help="inline drift alert rule, e.g. max_feature_psi>=0.25:critical"
        " (same grammar as --alert over the drift signals); repeatable, "
        "default: max_feature_psi>=0.25:critical with hysteresis clear 0.1",
    )
    parser.add_argument(
        "--quality-window", type=float, default=60.0, metavar="SECONDS",
        help="sliding live window for drift scoring (default 60)",
    )
    parser.add_argument(
        "--quality-min-windows", type=int, default=None, metavar="N",
        help="feature windows required before drift signals report "
        "(default: 75%% of the profile's reference windows)",
    )


def _add_deploy_args(parser: argparse.ArgumentParser) -> None:
    """The flags ``monitor``/``fleet``/``serve`` share: every
    :data:`~repro.core.deploy.DEPLOY_KEYS` field, then the observability,
    health and quality groups."""
    _add_corpus_args(parser)
    parser.add_argument("--split-seed", type=int, default=7)
    parser.add_argument("--classifier", default="REPTree", choices=CLASSIFIER_NAMES)
    parser.add_argument("--ensemble", default="boosted", choices=ENSEMBLE_MODES)
    parser.add_argument("--hpcs", type=int, default=4)
    parser.add_argument(
        "--model-id", default=None, metavar="REF",
        help="deploy a registry model (id, unique id prefix, or tag) "
        "instead of fitting at startup; --classifier/--ensemble/--hpcs "
        "are ignored",
    )
    parser.add_argument(
        "--registry-dir", default="models", metavar="DIR",
        help="model registry directory --model-id resolves against "
        "(default: models)",
    )
    parser.add_argument("--counters", type=int, default=4)
    parser.add_argument(
        "--vote-threshold", type=_vote_threshold, default=0.5,
        help="flagged-window quorum that raises a malware verdict, in (0, 1]",
    )
    parser.add_argument("--stride", type=int, default=1,
                        help="run every Nth family only")
    _add_obs_args(parser)
    _add_health_args(parser)
    _add_quality_args(parser)


class _RunObs:
    """One invocation's observability, built from its flags.

    The tracer and registry are enabled only when ``--trace-out`` /
    ``--metrics-out`` ask, or ``--archive-dir``: the archive ingests
    this run's trace events and metrics snapshot, so archiving implies
    observing.  On the detection verbs (``monitor``/``fleet``/
    ``serve``) the health evaluator and drift tracker are built when
    their flags ask; their alert transitions render to stderr and land
    in the run's tracer/registry, so the dumped artifacts carry the
    health and drift history for ``watch``/``report``.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        archiving = bool(getattr(args, "archive_dir", None))
        self.tracer = Tracer(enabled=bool(args.trace_out) or archiving)
        # building the parser is a few ms of every command's wall time
        self.tracer.span_ended("cli.parse", getattr(args, "parse_seconds", 0.0))
        self.metrics = Registry(enabled=bool(args.metrics_out) or archiving)
        self.health = self._health() if hasattr(args, "health_out") else None
        self.quality = self._quality() if hasattr(args, "quality_ref") else None

    @property
    def hooks(self) -> dict:
        """The observability keywords ``RuntimeMonitor``, ``FleetMonitor``
        and ``DetectionService`` accept."""
        return {
            "tracer": self.tracer,
            "metrics": self.metrics,
            "health": self.health,
            "quality": self.quality,
        }

    def _health(self) -> HealthEvaluator | None:
        args = self.args
        rules, slos = _health_rules_and_slos(args)
        if not (args.health_out or rules or slos):
            return None
        return HealthEvaluator(
            rules=rules, slos=slos, window_s=args.health_window,
            tracer=self.tracer, metrics=self.metrics, stream=sys.stderr,
        )

    def _quality(self) -> QualityTracker | None:
        args = self.args
        if not args.quality_ref:
            if args.quality_out or args.quality_alert:
                raise SystemExit(
                    "error: --quality-out/--quality-alert need --quality-ref"
                )
            return None
        try:
            profile = ReferenceProfile.load(args.quality_ref)
        except QualityError as exc:
            raise SystemExit(f"error: {exc}") from exc
        return QualityTracker(
            profile,
            rules=args.quality_alert or None,
            window_s=args.quality_window,
            min_windows=args.quality_min_windows,
            tracer=self.tracer,
            metrics=self.metrics,
            stream=sys.stderr,
        )

    def finish(self, run_meta: dict | None = None) -> None:
        """Summarize and dump every artifact, then archive the run.

        The archived segment is content-addressed, so re-running the
        identical workload archives a new segment only if its records
        differ (the timestamps will), while re-ingesting this run's own
        ``--trace-out`` file later is a no-op.
        """
        args = self.args
        if self.health is not None:
            firing = [state.rule.name for state in self.health.firing]
            print(
                f"health: {int(self.health.window.total_verdicts)} verdicts "
                f"observed, {len(firing)} alert(s) firing"
                + (f" ({', '.join(firing)})" if firing else ""),
                file=sys.stderr,
            )
            if args.health_out:
                self.health.dump(args.health_out)
                print(f"wrote health report {args.health_out}", file=sys.stderr)
        if self.quality is not None:
            report = self.quality.report()
            psi = report["signals"]["max_feature_psi"]
            print(
                f"quality: {report['totals']['executions']} executions / "
                f"{report['totals']['windows']} windows scored, "
                f"max feature PSI {'-' if psi != psi else format(psi, '.3f')}, "
                f"drift alerts fired: {'yes' if report['drift_fired'] else 'no'}",
                file=sys.stderr,
            )
            if args.quality_out:
                self.quality.dump(args.quality_out)
                print(f"wrote quality report {args.quality_out}", file=sys.stderr)
        if args.trace_out:
            n = self.tracer.dump(args.trace_out)
            print(f"wrote trace {args.trace_out} ({n} events)", file=sys.stderr)
        if args.metrics_out:
            self.metrics.dump(args.metrics_out)
            print(f"wrote metrics {args.metrics_out}", file=sys.stderr)
        if not getattr(args, "archive_dir", None):
            return
        try:
            result = Archive(args.archive_dir).ingest_events(
                self.tracer.events,
                metrics=self.metrics.snapshot(),
                run_meta=run_meta,
                run_id=args.trace_out,
                source=(run_meta or {}).get("command", "trace"),
            )
        except (OSError, ArchiveError) as exc:
            raise SystemExit(f"error: {exc}") from exc
        print(
            f"archived segment {result.segment_id[:12]} "
            f"({result.n_verdicts} verdicts, {result.n_alerts} alerts)"
            + ("" if result.ingested else " [already archived]"),
            file=sys.stderr,
        )


def _make_runner(
    corpus,
    seeds: tuple[int, ...],
    args: argparse.Namespace,
    total: int,
    tracer: Tracer,
    metrics: Registry,
):
    try:
        cache = (
            ResultCache(args.cache_dir, metrics=metrics) if args.cache_dir else None
        )
    except CacheError as exc:
        raise SystemExit(f"error: {exc}") from exc
    progress = None
    if args.timings or tracer.enabled:
        # One code path for stderr progress lines and per-cell trace
        # events; silent (trace-only) when --timings was not given.
        progress = MatrixProgressSink(
            total,
            tracer=tracer,
            metrics=metrics,
            stream=sys.stderr if args.timings else None,
        )
    return MatrixRunner(
        corpus, seeds=seeds, workers=args.workers, cache=cache,
        progress=progress, tracer=tracer, metrics=metrics,
    )


def _report_timings(runner, args: argparse.Namespace) -> None:
    if args.timings:
        print()
        print(timing_table(runner.timings))
        if runner.cache is not None:
            print(f"cache {args.cache_dir}: {runner.cache.stats}")


def cmd_matrix(args: argparse.Namespace) -> int:
    """Run a slice of the evaluation grid and print Figs 3/5, Table 2."""
    obs = _RunObs(args)
    with obs.tracer.span("cli.corpus"):
        corpus = _build_corpus(args)
    configs = [
        DetectorConfig(classifier, ensemble, n_hpcs)
        for classifier in (args.classifiers or CLASSIFIER_NAMES)
        for n_hpcs in args.budgets
        for ensemble in args.ensembles
    ]
    runner = _make_runner(
        corpus, tuple(args.split_seeds), args, len(configs), obs.tracer, obs.metrics
    )
    with obs.tracer.span("cli.grid", cells=len(configs)):
        records = runner.evaluate_grid(configs)
    with obs.tracer.span("cli.render"):
        print(figure3_table(records))
        print()
        print(table2_table(records))
        print()
        print(figure5_table(records))
        print()
        print(improvement_summary(records))
        _report_timings(runner, args)
    obs.finish()
    return 0


def cmd_hardware(args: argparse.Namespace) -> int:
    """Reproduce Table 3: hardware latency/area estimates."""
    obs = _RunObs(args)
    with obs.tracer.span("cli.corpus"):
        corpus = _build_corpus(args)
    configs = table3_grid()
    runner = _make_runner(
        corpus, (args.split_seed,), args, len(configs), obs.tracer, obs.metrics
    )
    with obs.tracer.span("cli.grid", cells=len(configs)):
        records = runner.hardware_grid(configs)
    with obs.tracer.span("cli.render"):
        print(table3_table(records))
        _report_timings(runner, args)
    obs.finish()
    return 0


def _deploy(args: argparse.Namespace, command: str, **extras):
    """``(obs, meta, detector, hosts)`` of one detection run: its
    observability, then the run_meta it archives, then the deployment
    built from that meta (:func:`repro.core.deploy.deploy`)."""
    obs = _RunObs(args)
    meta = deploy_meta(
        command, **{key: getattr(args, key) for key in DEPLOY_KEYS}, **extras
    )
    try:
        detector, hosts = deploy(meta, obs.tracer)
    except (OSError, RegistryError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    return obs, meta, detector, hosts


def _label(is_malware: bool) -> str:
    return "malware" if is_malware else "benign"


#: Column header and row of the fleet/serve verdict tables.
_VERDICT_HEADER = f"{'application':28s} {'truth':7s} {'verdict':7s} {'flagged':>7s}"


def _verdict_row(truth: bool, verdict) -> str:
    return (
        f"{verdict.app_name:28s} {_label(truth):7s} "
        f"{_label(verdict.is_malware):7s} {verdict.malware_fraction:>7.0%}"
    )


def _print_verdicts(
    pairs, row, accuracy: str, header: str | None = None, notes=(), tail=""
) -> None:
    """Print ``row(truth, verdict)`` per ``(truth, verdict)`` pair under
    ``header``, then ``notes``, then the ``accuracy: correct/total`` line
    and its ``tail``.  ``pairs`` may be lazy, so each row prints as its
    verdict lands."""
    if header is not None:
        print(header)
    correct = total = 0
    for truth, verdict in pairs:
        correct += verdict.is_malware == truth
        total += 1
        print(row(truth, verdict))
    for note in notes:
        print(note)
    print(f"\n{accuracy}: {correct}/{total}{tail}")


def cmd_monitor(args: argparse.Namespace) -> int:
    """Deploy a detector and stream fresh executions through it."""
    obs, meta, detector, hosts = _deploy(args, "monitor")
    monitor = RuntimeMonitor(
        detector,
        n_counters=args.counters,
        vote_threshold=args.vote_threshold,
        **obs.hooks,
    )
    pool = ContainerPool(seed=pool_seed(meta))
    with obs.tracer.span("cli.monitor"):
        _print_verdicts(
            (
                (truth, monitor.monitor(app, args.windows, pool, is_malware=truth))
                for app, truth in hosts
            ),
            lambda truth, verdict: (
                f"{verdict.app_name:28s} truth={_label(truth):7s} "
                f"verdict={_label(verdict.is_malware):7s} "
                f"flagged={verdict.malware_fraction:.0%}"
            ),
            "application-level accuracy",
        )
    obs.finish(meta)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Monitor a fleet of fresh executions, optionally under faults."""
    obs, meta, detector, hosts = _deploy(
        args, "fleet", workers=args.fleet_workers, retries=args.retries,
        faulted=args.faults is not None,
    )
    faults = (
        FaultPlan(seed=args.seed + 123, **args.faults)
        if args.faults is not None
        else None
    )
    fleet = FleetMonitor(
        detector,
        workers=args.fleet_workers,
        n_counters=args.counters,
        vote_threshold=args.vote_threshold,
        faults=faults,
        retry=RetryPolicy(max_attempts=args.retries),
        pool_seed=pool_seed(meta),
        **obs.hooks,
    )
    verdicts = fleet.monitor_fleet(
        [FleetJob(app, args.windows, truth) for app, truth in hosts]
    )
    degraded = sum(v.degraded for v in verdicts)
    lost = sum(v.n_windows_lost for v in verdicts)
    mean_conf = sum(v.confidence for v in verdicts) / len(verdicts) if verdicts else 0.0
    _print_verdicts(
        zip((truth for _, truth in hosts), verdicts),
        lambda truth, verdict: (
            f"{_verdict_row(truth, verdict)} {verdict.confidence:>5.2f} "
            f"{verdict.n_windows_lost:>4d} {'yes' if verdict.degraded else 'no'}"
        ),
        "fleet accuracy",
        header=f"{_VERDICT_HEADER} {'conf':>5s} {'lost':>4s} degraded",
        tail=f"  degraded: {degraded}  windows lost: {lost}  "
        f"mean confidence: {mean_conf:.2f}",
    )
    obs.finish(meta)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Stream executions through the long-running detection service."""
    obs, meta, detector, hosts = _deploy(
        args, "serve", rounds=args.rounds,
        host_vote_windows=args.host_vote_windows, producers=args.producers,
        workers=args.serve_workers, queue_depth=args.queue_depth,
        drift=args.drift,
    )
    faults = (
        ServiceFaultPlan(seed=args.seed + 321, **args.faults)
        if args.faults is not None
        else None
    )
    service = DetectionService.from_meta(detector, meta, faults=faults, **obs.hooks)
    jobs = serve_jobs(meta, hosts)
    report = service.run(jobs)
    if len(report.verdicts) != len(jobs):  # pragma: no cover - invariant
        raise SystemExit(
            f"verdict totality violated: {len(report.verdicts)} verdicts "
            f"for {len(jobs)} executions"
        )
    _print_verdicts(
        zip((job.is_malware for job in jobs), report.verdicts),
        _verdict_row,
        "serve accuracy",
        header=_VERDICT_HEADER,
        notes=[
            f"ALERT host={alert['host']} flagged={alert['fraction']:.0%} "
            f"over last {alert['windows']} windows"
            for alert in report.alerts
        ],
        tail=f"  windows: {report.n_windows}  "
        f"throughput: {report.windows_per_second:.0f} windows/s\n"
        f"worker crashes: {report.worker_crashes}  "
        f"recovered windows: {report.recovered_windows}  "
        f"backpressure waits: {report.backpressure_waits}  "
        f"host alerts: {len(report.alerts)}",
    )
    obs.finish(meta)
    return 0


def cmd_verilog(args: argparse.Namespace) -> int:
    """Train a detector and emit its RTL implementation."""
    from repro.hardware.verilog import generate

    corpus = _build_corpus(args)
    split = app_level_split(corpus, 0.7, seed=args.split_seed)
    config = DetectorConfig(args.classifier, "general", args.hpcs)
    detector = HMDDetector(config).fit(split.train)
    text = generate(detector.model, name=args.module)
    if args.output:
        try:
            atomic_write_text(args.output, text)
        except OSError as exc:
            raise SystemExit(f"error: {exc}") from exc
        print(f"wrote {args.output}")
    else:
        print(text)
    print(f"// monitored events: {', '.join(detector.monitored_events)}")
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    """Cross-validated detector scores with fold error bars."""
    from repro.analysis.crossval import cross_validated_record, stability_table

    obs = _RunObs(args)
    c_folds = obs.metrics.counter(
        "crossval_records_total", "cross-validated records computed"
    )
    with obs.tracer.span("cli.corpus"):
        corpus = _build_corpus(args)
    records = []
    with obs.tracer.span("cli.crossval", folds=args.folds):
        for classifier in args.classifiers or ("REPTree", "JRip", "OneR"):
            config = DetectorConfig(classifier, args.ensemble, args.hpcs)
            with obs.tracer.span("crossval.record", config=config.name):
                records.append(
                    cross_validated_record(
                        corpus, config, n_folds=args.folds, seed=args.split_seed
                    )
                )
            c_folds.inc()
    print(stability_table(records))
    obs.finish()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Summarize trace/metrics files written by --trace-out/--metrics-out.

    ``--trace`` and ``--metrics`` both accept several files (e.g. one
    per worker, or a rotated series).  Traces are concatenated and
    sorted by event timestamp, metrics are merged with the exact
    histogram merge, so either way the tables read as one run.
    """
    if not args.trace and not args.metrics:
        raise SystemExit("error: stats needs --trace and/or --metrics")
    sections = []
    try:
        if args.trace:
            events = [
                event for path in args.trace for event in load_trace(path)
            ]
            events.sort(key=lambda event: float(event.get("ts", 0.0)))
            sections.append(span_table(events))
        if args.metrics:
            snapshot = merge_snapshots(load_metrics(path) for path in args.metrics)
            sections.append(metrics_table(snapshot))
    except (OSError, ValueError, MetricsError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    print("\n\n".join(sections))
    return 0


def _finite_or_null(value):
    """``value`` with every NaN or infinite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def cmd_report(args: argparse.Namespace) -> int:
    """Fleet-wide roll-ups over the archive; optionally ingest first.

    ``--ingest`` rotates ``--trace-out`` JSONL files (with optional
    paired ``--ingest-metrics`` snapshots, same order) into the archive
    before querying — re-ingesting an already-archived run is a no-op.
    ``--json`` emits the machine-readable report for CI gates; a
    statistic with no finite value (a drift bucket of warm-up rows only,
    a quantile of an empty histogram) is ``null``, so the output is
    strict JSON.
    """
    import json as json_mod

    try:
        archive = Archive(args.archive_dir)
        for i, trace_path in enumerate(args.ingest or []):
            metrics_path = (
                args.ingest_metrics[i]
                if args.ingest_metrics and i < len(args.ingest_metrics)
                else None
            )
            result = archive.ingest_trace(
                trace_path, metrics_path, run_id=trace_path
            )
            print(
                f"ingested {trace_path} -> segment {result.segment_id[:12]} "
                f"({result.n_verdicts} verdicts)"
                + ("" if result.ingested else " [already archived]"),
                file=sys.stderr,
            )
        hosts = tuple(args.host) if args.host else None
        sources = tuple(args.source) if args.source else None
        if args.json:
            data = fleet_report_data(
                archive, hosts=hosts, sources=sources,
                since=args.since, until=args.until, bucket_s=args.bucket,
            )
            print(
                json_mod.dumps(
                    _finite_or_null(data), indent=1, sort_keys=True,
                    allow_nan=False,
                )
            )
        else:
            print(
                fleet_report(
                    archive, hosts=hosts, sources=sources,
                    since=args.since, until=args.until, bucket_s=args.bucket,
                )
            )
    except (OSError, ValueError, ArchiveError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-drive the detection service from an archived segment.

    At ``--repeat 1`` this is the archive's end-to-end integrity check
    (every replayed verdict is asserted bit-identical to the archived
    record); higher repeats answer capacity questions — how many times
    the archived traffic the chosen geometry sustains per unit time.
    """
    try:
        archive = Archive(args.archive_dir)
        result = replay_segment(
            archive,
            segment_id=args.segment,
            repeat=args.repeat,
            producers=args.producers,
            workers=args.serve_workers,
            queue_depth=args.queue_depth,
        )
    except (OSError, ValueError, ArchiveError, RegistryError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    print(
        f"replayed segment {result.segment_id[:12]} x{result.repeat}: "
        f"{result.executions} executions, {result.n_windows} windows, "
        f"{result.matched} verdicts matched bit-identical\n"
        f"geometry: {result.producers} producers x {result.workers} workers "
        f"(queue depth {result.queue_depth})\n"
        f"archived wall: {result.archived_seconds:.3f}s  "
        f"replay wall: {result.replay_seconds:.3f}s  "
        f"speed: {result.speedup:.2f}x archived traffic "
        f"({result.windows_per_second:.0f} windows/s)"
    )
    return 0


def _quality_transition(event: dict) -> tuple[int, int]:
    """(transition, critical-firing) tally for one trace event.

    ``quality.alert`` events are emitted by the in-process
    :class:`~repro.obs.quality.QualityTracker`; ``watch`` gates on the
    critical firings exactly like it gates on its own health rules.
    """
    if event.get("type") != "event" or event.get("name") != "quality.alert":
        return 0, 0
    attrs = event.get("attrs", {})
    critical = (
        attrs.get("severity") == "critical" and attrs.get("state") == "firing"
    )
    return 1, int(critical)


def cmd_watch(args: argparse.Namespace) -> int:
    """Follow a run's trace/metrics pair and evaluate health live.

    With ``--once`` the files are read in full, evaluated at their own
    event timestamps (so repeated invocations on the same artifacts
    report identical transitions), and the process exits 1 if any
    critical alert fired — the CI assertion mode.  Without it, the
    files are tailed and a refreshing health table renders every
    ``--interval`` seconds until Ctrl-C or ``--duration`` elapses.
    Critical drift alerts (``quality.alert`` events a ``--quality-ref``
    run recorded) trip the exit gate the same way health criticals do.
    """
    rules, slos = _health_rules_and_slos(args)
    evaluator = HealthEvaluator(
        rules=rules, slos=slos, window_s=args.health_window, stream=sys.stderr
    )
    q_transitions = q_critical = 0

    def ingest(events: list[dict]) -> None:
        nonlocal q_transitions, q_critical
        for event in events:
            evaluator.ingest(event)
            t, c = _quality_transition(event)
            q_transitions += t
            q_critical += c

    if args.once:
        try:
            events = load_trace(args.trace)
        except OSError as exc:
            raise SystemExit(f"error: {exc}") from exc
        ingest(events)
        if args.metrics:
            try:
                snapshot = load_metrics(args.metrics)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"error: {exc}") from exc
            last_ts = max([0.0] + [float(e.get("ts", 0.0)) for e in events])
            evaluator.absorb_metrics(snapshot, ts=last_ts)
            evaluator.tick(last_ts)
        print(health_table(evaluator.report()))
    else:
        trace_follower = TraceFollower(args.trace)
        metrics_follower = MetricsFollower(args.metrics) if args.metrics else None
        deadline = time.monotonic() + args.duration if args.duration else None
        try:
            while True:
                ingest(trace_follower.poll())
                if metrics_follower is not None:
                    delta = metrics_follower.poll()
                    if delta is not None:
                        evaluator.absorb_metrics(delta)
                evaluator.tick()
                table = health_table(evaluator.report())
                # Clear-and-home on a real terminal; plain append otherwise
                # (pipes and tests get one table per refresh).
                prefix = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
                print(prefix + table, flush=True)
                if deadline is not None and time.monotonic() >= deadline:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
    if q_transitions:
        print(
            f"quality: {q_transitions} drift alert transition(s), "
            f"{q_critical} critical firing",
            file=sys.stderr,
        )
    if args.health_out:
        evaluator.dump(args.health_out)
        print(f"wrote health report {args.health_out}", file=sys.stderr)
    return 1 if evaluator.critical_fired() or q_critical else 0


def cmd_evasion(args: argparse.Namespace) -> int:
    """Malware recall against evasion-strength-swept variants."""
    from repro.workloads import evasive_families, payload_throughput
    from repro.workloads.corpus import CorpusBuilder

    corpus = _build_corpus(args)
    split = app_level_split(corpus, 0.7, seed=args.split_seed)
    config = DetectorConfig(args.classifier, args.ensemble, args.hpcs)
    detector = HMDDetector(config).fit(split.train)
    print(f"detector: {detector.name}")
    print(f"{'strength':>9s} {'recall':>7s} {'payload kept':>13s}")
    for strength in args.strengths:
        families = BENIGN_FAMILIES + evasive_families(MALWARE_FAMILIES, strength)
        evaded = CorpusBuilder(
            families, seed=args.seed + 50, windows_per_app=max(args.windows // 2, 4)
        ).build()
        flags = detector.predict(evaded)
        recall = float(flags[evaded.labels == 1].mean())
        print(f"{strength:>9.0%} {recall:>7.2f} {payload_throughput(strength):>12.0%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-hmd argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-hmd",
        description="Hardware-based malware detection with ensemble learning "
        "(DAC 2018 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="build the synthetic corpus")
    _add_corpus_args(p)
    p.add_argument("--csv", help="write corpus to this CSV path")
    p.add_argument("--arff", help="write corpus to this WEKA ARFF path")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("rank", help="reproduce Table 1 (feature ranking)")
    _add_corpus_args(p)
    p.add_argument("--split-seed", type=int, default=7)
    p.add_argument("--method", default="correlation",
                   choices=("correlation", "information_gain"))
    p.add_argument("--top", type=int, default=16)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="train and evaluate one detector")
    _add_corpus_args(p)
    p.add_argument("--split-seed", type=int, default=7)
    p.add_argument("--classifier", default="REPTree", choices=CLASSIFIER_NAMES)
    p.add_argument("--ensemble", default="general", choices=ENSEMBLE_MODES)
    p.add_argument("--hpcs", type=int, default=4)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "train", help="train a detector and save it to the model registry"
    )
    _add_corpus_args(p)
    p.add_argument("--split-seed", type=int, default=7)
    p.add_argument("--classifier", default="REPTree", choices=CLASSIFIER_NAMES)
    p.add_argument("--ensemble", default="boosted", choices=ENSEMBLE_MODES)
    p.add_argument("--hpcs", type=int, default=4)
    p.add_argument("--registry-dir", required=True, metavar="DIR",
                   help="model registry directory (created if missing)")
    p.add_argument("--tag", action="append", metavar="NAME",
                   help="tag the saved model (repeatable); tags resolve "
                   "in --model-id lookups")
    _add_obs_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("models", help="list models saved in a registry")
    p.add_argument("--registry-dir", required=True, metavar="DIR",
                   help="model registry directory")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser(
        "profile", help="capture a detector's drift reference profile"
    )
    _add_corpus_args(p)
    p.add_argument("--split-seed", type=int, default=7)
    p.add_argument("--classifier", default="REPTree", choices=CLASSIFIER_NAMES)
    p.add_argument("--ensemble", default="boosted", choices=ENSEMBLE_MODES)
    p.add_argument("--hpcs", type=int, default=4)
    p.add_argument("--vote-threshold", type=_vote_threshold, default=0.5,
                   help="vote threshold the deployed monitors will use")
    p.add_argument("--bins", type=_positive_int, default=12,
                   help="histogram bins per feature (default 12)")
    p.add_argument("--out", required=True, metavar="PROFILE.json",
                   help="write the reference profile here (feed to "
                   "monitor/fleet/serve --quality-ref)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("matrix", help="run a slice of the evaluation grid")
    _add_corpus_args(p)
    p.add_argument("--split-seeds", type=int, nargs="+", default=[7])
    p.add_argument("--classifiers", nargs="*", choices=CLASSIFIER_NAMES)
    p.add_argument("--budgets", type=int, nargs="+", default=[16, 8, 4, 2])
    p.add_argument("--ensembles", nargs="+", default=list(ENSEMBLE_MODES),
                   choices=ENSEMBLE_MODES)
    _add_runner_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("hardware", help="reproduce Table 3 (hardware costs)")
    _add_corpus_args(p)
    p.add_argument("--split-seed", type=int, default=7)
    _add_runner_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_hardware)

    p = sub.add_parser("monitor", help="run-time detection demo")
    _add_deploy_args(p)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser(
        "fleet", help="fault-tolerant fleet monitoring with fault injection"
    )
    _add_deploy_args(p)
    p.add_argument("--fleet-workers", type=_positive_int, default=4,
                   help="monitoring threads (1 = serial)")
    p.add_argument("--faults", type=_fault_rates, default=None, metavar="SPEC",
                   help="inject faults, e.g. crash=0.2,glitch=0.1,drop=0.05,"
                   "permanent=0.01 (rates in [0, 1]; omit for a pristine run)")
    p.add_argument("--retries", type=_positive_int, default=3, metavar="N",
                   help="max attempts per application on transient faults")
    _add_archive_args(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "serve", help="streaming detection service over bounded queues"
    )
    _add_deploy_args(p)
    p.add_argument("--rounds", type=_positive_int, default=1,
                   help="times each host executes (exercises the per-host "
                   "sliding vote window)")
    p.add_argument("--producers", type=_positive_int, default=2,
                   help="concurrent execution/publish threads")
    p.add_argument("--serve-workers", type=_positive_int, default=2,
                   metavar="N", dest="serve_workers",
                   help="sharded detector workers (and shard channels)")
    p.add_argument("--queue-depth", type=_positive_int, default=32,
                   help="bound of each shard channel (backpressure knob)")
    p.add_argument("--host-vote-windows", type=_positive_int, default=16,
                   help="length of each host's sliding vote window")
    p.add_argument("--faults", type=_service_faults, default=None,
                   metavar="SPEC",
                   help="inject worker crashes, e.g. crash=0.5 or "
                   "crash=0.5,max=3 (omit for a pristine run)")
    p.add_argument("--drift", type=float, default=0.0, metavar="STRENGTH",
                   help="shift the whole live workload toward a benign "
                   "cover profile at this evasion strength in [0, 1] "
                   "(injected model drift; 0 = stationary)")
    _add_archive_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("verilog", help="emit RTL for a trained detector")
    _add_corpus_args(p)
    p.add_argument("--split-seed", type=int, default=7)
    p.add_argument("--classifier", default="REPTree",
                   choices=("OneR", "J48", "REPTree", "JRip", "SGD", "SMO"))
    p.add_argument("--hpcs", type=int, default=4)
    p.add_argument("--module", default=None, help="generated module name")
    p.add_argument("--output", default=None, help="write RTL to this file")
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser("crossval", help="cross-validated scores with error bars")
    _add_corpus_args(p)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--classifiers", nargs="*", choices=CLASSIFIER_NAMES)
    p.add_argument("--ensemble", default="general", choices=ENSEMBLE_MODES)
    p.add_argument("--hpcs", type=int, default=4)
    p.add_argument("--folds", type=int, default=4)
    _add_obs_args(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser(
        "stats", help="summarize trace/metrics files from a previous run"
    )
    p.add_argument("--trace", metavar="PATH", nargs="+",
                   help="JSONL trace(s) written by --trace-out; several "
                   "(e.g. per-worker or rotated) files merge sorted by "
                   "event timestamp")
    p.add_argument("--metrics", metavar="PATH", nargs="+",
                   help="JSON metrics snapshot(s) written by --metrics-out; "
                   "several (e.g. per-worker) files merge exactly")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "report", help="fleet-wide roll-ups over the verdict archive"
    )
    p.add_argument("--archive-dir", required=True, metavar="DIR",
                   help="fleet archive directory (written by "
                   "serve/fleet --archive-dir or report --ingest)")
    p.add_argument("--ingest", metavar="TRACE", nargs="+",
                   help="rotate these --trace-out JSONL files into the "
                   "archive before reporting (idempotent)")
    p.add_argument("--ingest-metrics", metavar="SNAPSHOT", nargs="+",
                   help="--metrics-out snapshots paired with --ingest "
                   "traces, same order")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report (CI gate)")
    p.add_argument("--host", action="append", metavar="NAME",
                   help="restrict to this host (repeatable)")
    p.add_argument("--source", action="append", metavar="NAME",
                   choices=("serve", "fleet", "monitor", "trace"),
                   help="restrict to segments from this source (repeatable)")
    p.add_argument("--since", type=float, default=None, metavar="UNIX_TS",
                   help="only events at or after this unix timestamp")
    p.add_argument("--until", type=float, default=None, metavar="UNIX_TS",
                   help="only events at or before this unix timestamp")
    p.add_argument("--bucket", type=float, default=86400.0, metavar="SECONDS",
                   help="trend bucket width (default 86400 = 1 day)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "replay", help="re-drive the detection service from archived traffic"
    )
    p.add_argument("--archive-dir", required=True, metavar="DIR",
                   help="fleet archive directory holding the segment")
    p.add_argument("--segment", default=None, metavar="ID",
                   help="segment id or unique prefix (default: the most "
                   "recently archived serve run)")
    p.add_argument("--repeat", type=_positive_int, default=1,
                   help="stream the archived workload this many times "
                   "back-to-back (capacity planning; default 1)")
    p.add_argument("--producers", type=_positive_int, default=None,
                   help="override the archived producer count")
    p.add_argument("--serve-workers", type=_positive_int, default=None,
                   metavar="N", dest="serve_workers",
                   help="override the archived worker count")
    p.add_argument("--queue-depth", type=_positive_int, default=None,
                   help="override the archived queue depth")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "watch", help="live health monitoring over a trace/metrics pair"
    )
    p.add_argument("--trace", required=True, metavar="PATH",
                   help="JSONL trace a run writes via --trace-out "
                   "(may still be growing)")
    p.add_argument("--metrics", metavar="PATH",
                   help="JSON metrics snapshot the same run writes via "
                   "--metrics-out (classify-latency source)")
    _add_health_args(p)
    p.add_argument("--once", action="store_true",
                   help="evaluate the files once and exit; exit code 1 when "
                   "any critical alert fired (CI mode)")
    p.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                   help="refresh period while following (default 2)")
    p.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                   help="stop following after this long (default: until Ctrl-C)")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("evasion", help="malware recall vs evasion strength")
    _add_corpus_args(p)
    p.add_argument("--split-seed", type=int, default=7)
    p.add_argument("--classifier", default="REPTree", choices=CLASSIFIER_NAMES)
    p.add_argument("--ensemble", default="general", choices=ENSEMBLE_MODES)
    p.add_argument("--hpcs", type=int, default=8)
    p.add_argument("--strengths", type=float, nargs="+",
                   default=[0.0, 0.3, 0.6])
    p.set_defaults(func=cmd_evasion)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    args.parse_seconds = time.perf_counter() - started
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
