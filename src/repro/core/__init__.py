"""Core HMD framework: detector configs, pipeline, run-time monitoring."""

from repro.core.config import (
    BAGGING,
    BOOSTED,
    CLASSIFIER_NAMES,
    ENSEMBLE_MODES,
    GENERAL,
    HPC_BUDGETS,
    DetectorConfig,
    build_base_classifier,
    build_model,
)
from repro.core.detector import HMDDetector
from repro.core.policies import (
    AlarmPolicy,
    ConsecutiveWindows,
    EwmaAlarm,
    MajorityVote,
    PolicyDecision,
)
from repro.core.fleet import FleetJob, FleetMonitor, RetryPolicy
from repro.core.runtime import (
    DetectionVerdict,
    RuntimeMonitor,
    VerdictSink,
    detection_latency_windows,
    grade_trace,
    grade_traces,
    validate_deployment,
)
from repro.core.specialized import SpecializedEnsembleDetector

__all__ = [
    "BAGGING",
    "BOOSTED",
    "CLASSIFIER_NAMES",
    "ENSEMBLE_MODES",
    "GENERAL",
    "HPC_BUDGETS",
    "AlarmPolicy",
    "ConsecutiveWindows",
    "DetectionVerdict",
    "DetectorConfig",
    "EwmaAlarm",
    "FleetJob",
    "FleetMonitor",
    "HMDDetector",
    "MajorityVote",
    "PolicyDecision",
    "RetryPolicy",
    "RuntimeMonitor",
    "SpecializedEnsembleDetector",
    "VerdictSink",
    "build_base_classifier",
    "build_model",
    "detection_latency_windows",
    "grade_trace",
    "grade_traces",
    "validate_deployment",
]
