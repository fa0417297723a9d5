"""Anomaly detection for object-centric event logs.

Reconstructs process-instance graphs from an object-centric event log,
trains a graph convolutional autoencoder on the event features, and labels
events whose reconstruction error exceeds an IQR-derived threshold. Ships
with an anomaly-injection benchmark harness and a synthetic log generator
for closed-loop evaluation.
"""

from .autoencoder import (
    GcnaeModel,
    NonFiniteLossError,
    TrainConfig,
    TrainReport,
    backward,
    forward,
    loss,
    score_events,
    train,
)
from .cli import main, run_detection
from .encoding import (
    EncodedGraph,
    FeatureLayout,
    SparseAdjacency,
    build_adjacency,
    build_layout,
    encode_features,
    encode_log,
    normalize_adjacency,
)
from .generator import GenConfig, benchmark_config, generate
from .injection import (
    GroundTruth,
    InjectionPlan,
    inject_all,
    plan_injection,
)
from .instances import ProcessInstance, ProcessInstanceSet, build_instances
from .ocel import (
    Event,
    ObjectCentricLog,
    ObjectEntry,
    OcelError,
    parse_ocel_json,
    write_ocel_json,
)
from .scoring import (
    DetectionReport,
    MetricsBlock,
    ThresholdResult,
    auc_pr,
    auc_roc,
    compute_metrics,
    f1_score,
    iqr_threshold,
    label_events,
    quantile,
    recall_at_k,
)

__version__ = "0.1.0"

__all__ = [
    "DetectionReport",
    "EncodedGraph",
    "Event",
    "FeatureLayout",
    "GcnaeModel",
    "GenConfig",
    "GroundTruth",
    "InjectionPlan",
    "MetricsBlock",
    "NonFiniteLossError",
    "ObjectCentricLog",
    "ObjectEntry",
    "OcelError",
    "ProcessInstance",
    "ProcessInstanceSet",
    "SparseAdjacency",
    "ThresholdResult",
    "TrainConfig",
    "TrainReport",
    "auc_pr",
    "auc_roc",
    "backward",
    "benchmark_config",
    "build_adjacency",
    "build_instances",
    "build_layout",
    "compute_metrics",
    "encode_features",
    "encode_log",
    "f1_score",
    "forward",
    "generate",
    "inject_all",
    "iqr_threshold",
    "label_events",
    "loss",
    "main",
    "normalize_adjacency",
    "parse_ocel_json",
    "plan_injection",
    "quantile",
    "recall_at_k",
    "run_detection",
    "score_events",
    "train",
    "write_ocel_json",
]
