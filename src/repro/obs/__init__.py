"""repro.obs — zero-dependency observability for the evaluation pipeline.

Seven pieces, all free when disabled:

* :mod:`repro.obs.trace` — span-based :class:`Tracer` (context-manager
  API, monotonic durations, parent/child nesting, per-worker buffers)
  emitting JSONL trace events.
* :mod:`repro.obs.metrics` — :class:`Registry` of counters, gauges, and
  fixed-bucket histograms with Prometheus text and JSON snapshot
  exporters, mergeable across worker processes.
* :mod:`repro.obs.sink` / :mod:`repro.obs.stats` — the unified matrix
  progress sink and the renderers behind ``repro-hmd stats``.
* :mod:`repro.obs.stream` — followers that tail a live trace/metrics
  pair as it grows (rotation- and truncation-tolerant).
* :mod:`repro.obs.health` — sliding-window signals, declarative alert
  rules (evaluated and published by one :class:`AlertBook` per tracker,
  health's and quality's alike), and SLO/error-budget tracking behind
  ``repro-hmd watch`` and the monitors' in-process ``health=`` hook.
* :mod:`repro.obs.archive` / :mod:`repro.obs.rollup` — the fleet
  history: per-run trace events ingested into content-addressed columnar
  segments, and cross-run roll-up queries (detection-rate trends, alert
  frequency, exact merged latency percentiles) behind
  ``repro-hmd report``.
* :mod:`repro.obs.quality` — model-quality and drift observability:
  train-time :class:`ReferenceProfile` histograms, a PSI/KS/ECE
  :class:`DriftScorer`, and the streaming :class:`QualityTracker`
  behind ``repro-hmd profile`` and the monitors' ``quality=`` hook.

Instrumented components (``MatrixRunner``, ``ResultCache``,
``RuntimeMonitor``, ``FleetMonitor``, the CLI) default to the shared
:data:`NULL_TRACER` and :data:`NULL_REGISTRY` (and ``health=None``), so
instrumentation costs one attribute check unless a run opts in with
``--trace-out`` / ``--metrics-out`` / ``--health-out``.
"""

from repro.obs.archive import (
    ARCHIVE_SCHEMA_VERSION,
    DRIFT_RULE,
    Archive,
    ArchiveError,
    IngestResult,
    SegmentData,
    normalize_events,
    normalize_metrics,
    segment_content_id,
)
from repro.obs.health import (
    HEALTH_SCHEMA_VERSION,
    SEVERITIES,
    SIGNAL_NAMES,
    AlertBook,
    AlertRule,
    AlertState,
    HealthConfigError,
    HealthEvaluator,
    SLO,
    SlidingWindowSignals,
    health_table,
    load_alert_rules,
    parse_alert_spec,
    parse_slo,
)
from repro.obs.quality import (
    DEFAULT_QUALITY_RULES,
    QUALITY_SCHEMA_VERSION,
    QUALITY_SIGNAL_NAMES,
    DriftScorer,
    QualityAlertRule,
    QualityError,
    QualityTracker,
    ReferenceProfile,
    build_reference_profile,
    parse_quality_alert_spec,
    quality_table,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    FAST_LATENCY_BUCKETS,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    Registry,
    merge_snapshots,
    snapshot_delta,
)
from repro.obs.rollup import (
    AlertFrame,
    VerdictFrame,
    alert_frequency,
    detection_rate_trend,
    drift_trend,
    fleet_report,
    fleet_report_data,
    latency_quantiles,
    load_frames,
    merged_metrics,
    select_segments,
)
from repro.obs.sink import MatrixProgressSink
from repro.obs.stats import (
    SpanStat,
    aggregate_spans,
    histogram_quantile,
    load_metrics,
    metrics_table,
    span_table,
    toplevel_wall_seconds,
)
from repro.obs.stream import MetricsFollower, TraceFollower
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    load_trace,
)

__all__ = [
    "ARCHIVE_SCHEMA_VERSION",
    "Archive",
    "ArchiveError",
    "AlertFrame",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_QUALITY_RULES",
    "DRIFT_RULE",
    "FAST_LATENCY_BUCKETS",
    "HEALTH_SCHEMA_VERSION",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "QUALITY_SCHEMA_VERSION",
    "QUALITY_SIGNAL_NAMES",
    "SEVERITIES",
    "SIGNAL_NAMES",
    "TRACE_SCHEMA_VERSION",
    "AlertBook",
    "AlertRule",
    "AlertState",
    "Counter",
    "DriftScorer",
    "Gauge",
    "HealthConfigError",
    "HealthEvaluator",
    "Histogram",
    "IngestResult",
    "MatrixProgressSink",
    "MetricsError",
    "MetricsFollower",
    "QualityAlertRule",
    "QualityError",
    "QualityTracker",
    "ReferenceProfile",
    "Registry",
    "SLO",
    "SegmentData",
    "SlidingWindowSignals",
    "Span",
    "SpanStat",
    "Tracer",
    "TraceFollower",
    "VerdictFrame",
    "aggregate_spans",
    "alert_frequency",
    "build_reference_profile",
    "detection_rate_trend",
    "drift_trend",
    "fleet_report",
    "fleet_report_data",
    "health_table",
    "histogram_quantile",
    "latency_quantiles",
    "load_alert_rules",
    "load_frames",
    "load_metrics",
    "load_trace",
    "merge_snapshots",
    "merged_metrics",
    "metrics_table",
    "normalize_events",
    "normalize_metrics",
    "parse_alert_spec",
    "parse_quality_alert_spec",
    "parse_slo",
    "quality_table",
    "segment_content_id",
    "select_segments",
    "snapshot_delta",
    "span_table",
    "toplevel_wall_seconds",
]
