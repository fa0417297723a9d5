"""Anomaly detection for object-centric event logs.

Reconstructs process-instance graphs from an object-centric event log,
trains a graph convolutional autoencoder on the event features, and labels
events whose reconstruction error exceeds an IQR-derived threshold. Ships
with an anomaly-injection benchmark harness and a synthetic log generator
for closed-loop evaluation.

The package root exports the names of the README's library example plus
``write_ocel_json``, ``compute_metrics`` and ``GroundTruth``; everything else
is imported from its module, such as ``ocelad.ocel.ObjectCentricLog`` or
``ocelad.scoring.DetectionReport``.
"""

from .autoencoder import TrainConfig, run_detection
from .generator import GenConfig, benchmark_config, generate
from .injection import GroundTruth, inject_all, plan_injection
from .ocel import parse_ocel_json, write_ocel_json
from .scoring import compute_metrics

__version__ = "0.1.0"

__all__ = [
    "GenConfig",
    "GroundTruth",
    "TrainConfig",
    "benchmark_config",
    "compute_metrics",
    "generate",
    "inject_all",
    "parse_ocel_json",
    "plan_injection",
    "run_detection",
    "write_ocel_json",
]
