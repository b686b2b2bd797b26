"""Evaluation matrix runners and table/figure renderers (paper §4)."""

from repro.analysis.cache import (
    CacheError,
    CacheStats,
    ResultCache,
    dataset_fingerprint,
    record_cache_key,
)
from repro.analysis.crossval import (
    CrossValRecord,
    cross_validated_record,
    sample_std,
    stability_table,
)
from repro.analysis.matrix import (
    MatrixRunner,
    MatrixTiming,
    paper_grid,
    table3_grid,
)
from repro.analysis.pareto import (
    DesignPoint,
    join_records,
    pareto_front,
    pareto_table,
    recommend_counters,
)
from repro.analysis.records import EvalRecord, HardwareRecord, RocRecord
from repro.analysis.report import (
    figure3_table,
    figure4_report,
    figure5_table,
    improvement_summary,
    roc_ascii,
    table1_table,
    table2_table,
    table3_table,
    timing_table,
)

__all__ = [
    "CacheError",
    "CacheStats",
    "CrossValRecord",
    "DesignPoint",
    "EvalRecord",
    "HardwareRecord",
    "MatrixRunner",
    "MatrixTiming",
    "ResultCache",
    "RocRecord",
    "dataset_fingerprint",
    "figure3_table",
    "figure4_report",
    "figure5_table",
    "improvement_summary",
    "join_records",
    "pareto_front",
    "pareto_table",
    "recommend_counters",
    "paper_grid",
    "record_cache_key",
    "roc_ascii",
    "cross_validated_record",
    "sample_std",
    "stability_table",
    "table1_table",
    "table2_table",
    "table3_table",
    "timing_table",
]
