"""Automatic thresholding, binary labeling, and evaluation metrics.

The threshold is Q3 + k * IQR over the anomaly-score distribution (k = 1.5
by default); an event is labeled anomalous iff its score strictly exceeds
the threshold. Ranking metrics (AUC-ROC, average precision, recall@k) work
on the raw scores with deterministic tie handling: AUC-ROC uses midranks,
the others break score ties by event index.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .ocel import (
    DuplicateIdError,
    _first_duplicate,
    csv_text,
    json_block,
    loads_unique,
)

NORMAL_LABEL = "normal"
_LABELS = ("anomalous", NORMAL_LABEL)


class ScoringError(Exception):
    """Base class for metric computation failures."""


class EmptyInputError(ScoringError):
    """A quantile or threshold was requested over no values."""


class LengthMismatchError(ScoringError):
    """Prediction and truth vectors differ in length."""


class SingleClassError(ScoringError):
    """AUC-ROC needs both an anomalous and a normal event."""


class NoPositivesError(ScoringError):
    """A recall-style metric needs at least one true anomaly."""


@dataclass(frozen=True)
class ThresholdResult:
    q1: float
    q3: float
    iqr: float
    tau: float
    k_factor: float


@dataclass(frozen=True)
class MetricsBlock:
    """Evaluation results for one detection run."""

    f1: float
    auc_roc: float
    auc_pr: float
    recall_at_k: float
    k: int
    per_type_recall: dict[str, float]


@dataclass
class DetectionReport:
    """Per-event scores and labels, and the threshold."""

    event_ids: tuple[str, ...]
    scores: np.ndarray
    labels: np.ndarray
    threshold: ThresholdResult


def quantile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """``np.quantile``: linear interpolation at position (n - 1) * q of the sorted values."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise EmptyInputError("cannot take a quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return float(np.quantile(data, q))


def validate_k_factor(k_factor: float) -> None:
    """Reject an IQR multiplier that is not finite and >= 0."""
    if not (math.isfinite(k_factor) and k_factor >= 0.0):
        raise ValueError(f"k_factor must be finite and >= 0, got {k_factor}")


def iqr_threshold(scores: Sequence[float] | np.ndarray, k_factor: float = 1.5) -> ThresholdResult:
    """Threshold tau = Q3 + k * (Q3 - Q1) over the score distribution."""
    validate_k_factor(k_factor)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyInputError("cannot take a quantile of no values")
    q1, q3 = np.quantile(scores, [0.25, 0.75]).tolist()
    iqr = q3 - q1
    return ThresholdResult(q1=q1, q3=q3, iqr=iqr, tau=q3 + k_factor * iqr, k_factor=k_factor)


def label_events(scores: Sequence[float] | np.ndarray, threshold: ThresholdResult) -> np.ndarray:
    """Boolean labels: anomalous iff score > tau. Ties count as normal."""
    return np.asarray(scores, dtype=np.float64) > threshold.tau


def _aligned(values, truth, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """``values`` and boolean ``truth`` as arrays of one shape."""
    values, truth = np.asarray(values, dtype=dtype), np.asarray(truth, dtype=bool)
    if values.shape != truth.shape:
        raise LengthMismatchError(f"{values.shape} vs {truth.shape}")
    return values, truth


def f1_score(pred: Sequence[bool] | np.ndarray, truth: Sequence[bool] | np.ndarray) -> float:
    """F1 on the anomalous class; 0 when precision + recall degenerate to 0."""
    pred, truth = _aligned(pred, truth, dtype=bool)
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group.

    Groups split where adjacent sorted scores differ by ``!=``, so each NaN
    is a group of its own and equal infinities share one.
    """
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    stops = np.r_[starts[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + stops) / 2.0 + 1.0, stops - starts + 1)
    return ranks


def auc_roc(scores: Sequence[float] | np.ndarray, truth: Sequence[bool] | np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum formulation with midranks."""
    scores, truth = _aligned(scores, truth)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC-ROC needs both classes present")
    ranks = _midranks(scores)
    u_stat = float(ranks[truth].sum()) - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def _descending_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending, ties broken by ascending event index."""
    return np.lexsort((np.arange(scores.size), -scores))


def auc_pr(scores: Sequence[float] | np.ndarray, truth: Sequence[bool] | np.ndarray) -> float:
    """Average precision: sum of precision at each true anomaly in rank order."""
    scores, truth = _aligned(scores, truth)
    n_pos = int(truth.sum())
    if n_pos == 0:
        raise NoPositivesError("average precision needs at least one true anomaly")
    hits = truth[_descending_order(scores)]
    ranks = np.flatnonzero(hits) + 1
    true_positives = np.arange(1, n_pos + 1)
    # cumsum adds the terms one by one in rank order, as a running sum would.
    return float(np.cumsum((1.0 / n_pos) * (true_positives / ranks))[-1])


def recall_at_k(
    scores: Sequence[float] | np.ndarray,
    truth: Sequence[bool] | np.ndarray,
    k: int | None = None,
) -> float:
    """Fraction of true anomalies among the k highest-scored events.

    ``k`` defaults to the number of true anomalies. Score ties are broken by
    ascending event index, so the cut is deterministic.
    """
    scores, truth = _aligned(scores, truth)
    n_pos = int(truth.sum())
    if n_pos == 0:
        raise NoPositivesError("recall@k needs at least one true anomaly")
    if k is None:
        k = n_pos
    if k < 1:
        raise ValueError("k must be >= 1")
    top = _descending_order(scores)[:k]
    return int(truth[top].sum()) / n_pos


def compute_metrics(
    scores: Sequence[float] | np.ndarray,
    labels: Sequence[bool] | np.ndarray,
    truth_types: Sequence[str],
) -> MetricsBlock:
    """All evaluation metrics for one run against per-event anomaly-type truth.

    ``truth_types`` holds "normal" or an anomaly-type name per event. F1 uses
    the thresholded labels; the ranking metrics use the raw scores. Per-type
    recall restricts the truth to one type while keeping k at the total
    anomaly count.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    types = np.asarray(list(truth_types), dtype=object)
    if not (scores.shape == labels.shape == types.shape):
        raise LengthMismatchError("scores, labels and truth must align")
    binary = types != NORMAL_LABEL
    k = int(binary.sum())
    per_type: dict[str, float] = {}
    for anomaly_type in sorted({t for t in types if t != NORMAL_LABEL}):
        per_type[anomaly_type] = recall_at_k(scores, types == anomaly_type, k=k)
    return MetricsBlock(
        f1=f1_score(labels, binary),
        auc_roc=auc_roc(scores, binary),
        auc_pr=auc_pr(scores, binary),
        recall_at_k=recall_at_k(scores, binary, k=k),
        k=k,
        per_type_recall=per_type,
    )


_RUN_METRICS = ("f1", "auc_roc", "auc_pr", "recall_at_k")


def metrics_document(named_metrics: list[tuple[str, MetricsBlock]]) -> dict:
    """The metrics JSON of the named runs: ``runs``, and ``mean`` and ``std`` over several.

    A run holds its name under ``report``, then its metrics in field order.
    ``std`` is the sample standard deviation; a type a run lacks counts as NaN.
    """
    runs = [
        {"report": name, **asdict(m), "per_type_recall": dict(sorted(m.per_type_recall.items()))}
        for name, m in named_metrics
    ]
    doc: dict = {"runs": runs}
    if len(runs) > 1:
        type_names = sorted({t for run in runs for t in run["per_type_recall"]})
        for stat, reduce in (("mean", np.mean), ("std", lambda v: np.std(v, ddof=1))):
            doc[stat] = {key: float(reduce([run[key] for run in runs])) for key in _RUN_METRICS}
            doc[stat]["per_type_recall"] = {
                t: float(reduce([run["per_type_recall"].get(t, math.nan) for run in runs]))
                for t in type_names
            }
    return doc


def format_metrics_table(document: dict) -> str:
    """Human-readable table of a ``metrics_document``, values as percentages."""
    runs = document["runs"]
    type_names = sorted({t for run in runs for t in run["per_type_recall"]})
    headers = ["run", "F1", "AUC-ROC", "AUC-PR", "Recall@k"] + [
        f"R@k {name}" for name in type_names
    ]

    def row_values(entry: dict) -> list[float]:
        per_type = [entry["per_type_recall"].get(name, math.nan) for name in type_names]
        return [entry[key] for key in _RUN_METRICS] + per_type

    rows = [[run["report"]] + [f"{100 * v:.1f}" for v in row_values(run)] for run in runs]
    if "mean" in document:
        spread = zip(row_values(document["mean"]), row_values(document["std"]))
        rows.append(["mean +/- std"] + [f"{100 * mu:.1f} +/- {100 * sd:.1f}" for mu, sd in spread])

    widths = [
        max(len(headers[i]), max(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows)
    return "\n".join(lines)


def report_to_json(report: DetectionReport) -> str:
    """Full JSON serialization of a detection report. Deterministic.

    The text is ``json.dumps(doc, indent=2)`` of the report document, laid
    out here directly: the stdlib encoder runs in pure Python whenever
    ``indent`` is set. A finite score is written as ``float.__repr__``
    writes it, which is what ``json.dumps`` does.
    """
    quote = encode_basestring_ascii
    events = []
    for event_id, score, anomalous in zip(
        report.event_ids,
        np.asarray(report.scores, dtype=np.float64).tolist(),
        np.asarray(report.labels).tolist(),
    ):
        label = "anomalous" if anomalous else NORMAL_LABEL
        text = float.__repr__(score) if math.isfinite(score) else json.dumps(score)
        events.append(
            "{\n"
            f'      "event_id": {quote(event_id)},\n'
            f'      "score": {text},\n'
            f'      "label": "{label}"\n'
            "    }"
        )
    threshold = [f"{quote(k)}: {json.dumps(v)}" for k, v in asdict(report.threshold).items()]
    blocks = [
        f'"threshold": {json_block(threshold, "  ", "{}")}',
        f'"events": {json_block(events, "  ", "[]")}',
    ]
    return json_block(blocks, "", "{}")


def report_from_json(text: str) -> DetectionReport:
    """Read a report back; a repeated event id or JSON key raises ``DuplicateIdError``.

    A document that is not a report raises ``ValueError``, and so does an
    event whose id is not a string, whose score is not a JSON number or whose
    label is neither "anomalous" nor "normal". ``NaN`` and ``Infinity`` read
    as scores: the writer writes them for non-finite scores.
    """
    doc = loads_unique(text)
    try:
        events = doc["events"]
        event_ids = tuple(entry["event_id"] for entry in events)
        threshold = ThresholdResult(**doc["threshold"])
        scores = [entry["score"] for entry in events]
        labels = [entry["label"] for entry in events]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a detection report: {exc!r}") from exc
    for event_id, score, label in zip(event_ids, scores, labels):
        if type(event_id) is not str or type(score) not in (int, float) or label not in _LABELS:
            raise ValueError(
                f"not a detection report: event {event_id!r} has score {score!r}, label {label!r}"
            )
    if len(set(event_ids)) != len(event_ids):
        raise DuplicateIdError(f"event {_first_duplicate(event_ids)!r} listed twice in report")
    return DetectionReport(
        event_ids=event_ids,
        scores=np.array(scores, dtype=np.float64),
        labels=np.array([label == "anomalous" for label in labels], dtype=bool),
        threshold=threshold,
    )


def report_to_csv(report: DetectionReport) -> str:
    """CSV serialization: event id, score and label."""
    scores = np.asarray(report.scores, dtype=np.float64).tolist()
    labels = np.asarray(report.labels).tolist()
    rows = (
        (event_id, repr(score), "anomalous" if anomalous else NORMAL_LABEL)
        for event_id, score, anomalous in zip(report.event_ids, scores, labels)
    )
    return csv_text(chain([("event_id", "score", "label")], rows))
