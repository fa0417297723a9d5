"""Anomaly injection benchmark harness.

Contaminates a clean log with three anomaly types in equal parts so that the
anomalies amount to roughly a target fraction of the final event count:

* attribute swap - a target event's attribute map is replaced wholesale by
  that of the event whose encoded attributes lie farthest away (Euclidean
  distance over categorical one-hots and min-max-scaled numerics, activity
  excluded),
* timestamp shift - a target event's timestamp is redrawn uniformly from the
  time frame of the other events sharing an object with it, extended by 5%
  on each side,
* random activity - a brand-new event with an activity the process has never
  seen, anchored to an existing event's objects, timestamped within and
  attributed from that neighborhood.

All random activities injected in one run share a single fresh label
("anomalous_act_m" for the smallest m that keeps it outside the original
activity set). One label per injected event would widen the activity one-hot
block with the injection count and dilute each event's reconstruction-error
signal toward zero as logs grow, which defeats the purpose of the benchmark.

Only random activities add events, so with per-type count c the final log
has n + c events and 3c anomalies. The harness returns per-event ground
truth and never mutates the input log.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Collection, Iterator

import numpy as np

from .encoding import build_layout, encode_features
from .instances import _sorted_unique
from .numerics import make_rng
from .ocel import DuplicateIdError, ObjectCentricLog, _build_log, csv_text

ATTRIBUTE_SWAP = "attr_swap"
TIMESTAMP_SHIFT = "timestamp_shift"
RANDOM_ACTIVITY = "random_activity"
ANOMALY_TYPES = (ATTRIBUTE_SWAP, TIMESTAMP_SHIFT, RANDOM_ACTIVITY)

_TRUTH_HEADER = ["event_id", "label"]
_SPAN_MARGIN = 0.05
_MAX_REDRAWS = 10
# Caps the Gram block of the farthest-peer search at 8 MiB of float64.
_GRAM_BLOCK_ELEMENTS = 1 << 20


class InjectionError(Exception):
    """Base class for injection failures."""


class InvalidRateError(InjectionError):
    """The contamination rate or log size is outside the supported range."""


class NoAttributesError(InjectionError):
    """The log carries no attributes, so attribute swaps are impossible."""


class InsufficientCandidatesError(InjectionError):
    """Fewer eligible target events exist than the plan requires."""


@dataclass(frozen=True)
class InjectionPlan:
    """Per-type injection counts for a target contamination rate."""

    rate: float
    attr_swap: int
    timestamp_shift: int
    random_activity: int
    seed: int

    @property
    def total(self) -> int:
        return self.attr_swap + self.timestamp_shift + self.random_activity


@dataclass(frozen=True)
class GroundTruth:
    """Per-event anomaly-type labels, in contaminated-log event order."""

    labels: dict[str, str]

    def counts(self) -> dict[str, int]:
        totals = Counter(self.labels.values())
        return {name: totals[name] for name in ANOMALY_TYPES}

    def to_csv(self) -> str:
        return csv_text([_TRUTH_HEADER, *self.labels.items()])

    @classmethod
    def from_csv(cls, text: str) -> "GroundTruth":
        try:
            rows = [row for row in csv.reader(io.StringIO(text, newline="\n")) if row]
        except csv.Error as exc:
            raise ValueError(f"malformed ground truth CSV: {exc}") from exc
        if not rows or rows[0] != _TRUTH_HEADER:
            raise ValueError("ground truth CSV must start with 'event_id,label'")
        if any(len(row) != 2 for row in rows[1:]):
            raise ValueError("every ground truth row needs exactly an event id and a label")
        labels: dict[str, str] = {}
        for event_id, label in rows[1:]:
            if event_id in labels:
                raise DuplicateIdError(f"event {event_id!r} labeled twice in ground truth CSV")
            labels[event_id] = label
        return cls(labels=labels)


def validate_plan(rate: float, seed: int) -> None:
    """Reject a contamination rate outside [0, 1), NaN included, and a negative seed."""
    if not 0.0 <= rate < 1.0:
        raise InvalidRateError(f"rate must be in [0, 1), got {rate}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def plan_injection(n_original: int, rate: float = 0.10, seed: int = 0) -> InjectionPlan:
    """Equal per-type counts c = round(rate * n / (3 - rate)).

    Only random activities add events, so the contamination of the final log,
    3c / (n + c), lands on the requested rate up to rounding. A rate of 0
    plans nothing and leaves the log untouched.
    """
    validate_plan(rate, seed)
    if rate > 0.0 and n_original < 30:
        raise InvalidRateError(f"need at least 30 events to inject, got {n_original}")
    count = round(rate * n_original / (3.0 - rate)) if rate > 0.0 else 0
    return InjectionPlan(
        rate=rate,
        attr_swap=count,
        timestamp_shift=count,
        random_activity=count,
        seed=seed,
    )


def _attribute_columns(log: ObjectCentricLog) -> np.ndarray:
    """Encoded attribute sub-vectors (activity block dropped), scaled numerics."""
    if not log.columns:
        raise NoAttributesError("log has no attributes to swap")
    layout = build_layout(log)
    return encode_features(log, layout, scale_numeric=True)[:, layout.groups[0].stop :]


def _farthest_peers(
    attr_matrix: np.ndarray, targets: np.ndarray, event_ids: tuple[str, ...]
) -> Iterator[tuple[int, int, float]]:
    """(target, source, distance) per target, in order: the attribute-wise farthest other event.

    Squared distances of a block of targets to every event come from one Gram
    product, ``|t|^2 + |e|^2 - 2 t.e``, whose rounding error stays far below a
    slack of ``1e-9 * (|t|^2 + max |e|^2)``. Only the events within that slack
    of a target's largest squared distance get their exact distance, from the
    same row-wise expression a scan of all events would use, and the maximum
    and the smallest-id tie-break are taken over them: the result is
    bit-identical to that scan.
    """
    n = attr_matrix.shape[0]
    if n < 2:
        return
    squared_norms = np.einsum("ij,ij->i", attr_matrix, attr_matrix)
    slack = 1e-9 * (squared_norms + squared_norms.max())
    rows = max(1, _GRAM_BLOCK_ELEMENTS // n)
    for start in range(0, len(targets), rows):
        block = targets[start : start + rows]
        squared = attr_matrix[block] @ attr_matrix.T
        squared *= -2.0
        squared += squared_norms[block, None]
        squared += squared_norms
        squared[np.arange(len(block)), block] = -np.inf
        near = squared >= (squared.max(axis=1) - slack[block])[:, None]
        for target, peers in zip(block, near):
            peers = np.flatnonzero(peers)
            deltas = attr_matrix[peers] - attr_matrix[target]
            distances = np.sqrt(np.sum(deltas * deltas, axis=1))
            best = distances.max()
            source = min(peers[distances == best], key=event_ids.__getitem__)
            yield int(target), int(source), float(best)


def _related_events(log: ObjectCentricLog) -> Callable[[int], np.ndarray]:
    """For an event index, the indices of the events sharing an object with it, itself included.

    Reads the transpose of the log's event-to-object CSR: the events of each
    object, ascending. The result is sorted and free of duplicates.
    """
    owners = np.repeat(np.arange(len(log.ids)), np.diff(log.ref_indptr))
    events = owners[np.argsort(log.ref_objects, kind="stable")]
    starts = np.zeros(len(log.objects) + 1, dtype=np.int64)
    np.cumsum(np.bincount(log.ref_objects, minlength=len(log.objects)), out=starts[1:])

    def related(index: int) -> np.ndarray:
        objects = log.ref_objects[log.ref_indptr[index] : log.ref_indptr[index + 1]].tolist()
        return _sorted_unique(np.concatenate([events[starts[j] : starts[j + 1]] for j in objects]))

    return related


def _draw_shift(times: np.ndarray, old: int, rng: np.random.Generator) -> int | None:
    """A new timestamp within the related events' time frame widened by 5% on each side.

    None when the related events span no time, or when every draw repeats ``old``.
    """
    if times.size == 0 or times.min() == times.max():
        return None
    t_min, t_max = int(times.min()), int(times.max())
    span = t_max - t_min
    low, high = t_min - _SPAN_MARGIN * span, t_max + _SPAN_MARGIN * span
    for _ in range(_MAX_REDRAWS):
        drawn = int(round(rng.uniform(low, high)))
        if drawn != old:
            return drawn
    return None


def _fresh(prefix: str, taken: Collection[str]) -> Iterator[str]:
    """``prefix`` + "1", "2", ... in turn, skipping the labels in ``taken``."""
    return (f"{prefix}{m}" for m in count(1) if f"{prefix}{m}" not in taken)


def inject_all(
    log: ObjectCentricLog, plan: InjectionPlan
) -> tuple[ObjectCentricLog, GroundTruth]:
    """Apply the full plan: attribute swaps, then timestamp shifts, then random activities.

    Target sets are disjoint (no original event receives two anomalies) and
    the whole operation is deterministic in the plan seed. Swap distances are
    measured on the clean input log, so earlier injections never distort
    later choices. The contaminated log is gathered from the input's columns:
    event i takes its attributes from row ``attribute_rows[i]``, and the new
    events take their objects from their anchors.
    """
    rng = make_rng(plan.seed)
    n_original = len(log.ids)
    labels = ["normal"] * n_original
    attribute_rows = list(range(n_original))

    if plan.attr_swap > 0:
        peers = _farthest_peers(_attribute_columns(log), rng.permutation(n_original), log.ids)
        chosen = list(islice(((i, source) for i, source, d in peers if d > 0.0), plan.attr_swap))
        if len(chosen) < plan.attr_swap:
            raise InsufficientCandidatesError(
                f"only {len(chosen)} attribute-swap candidates for {plan.attr_swap} planned"
            )
        for index, source in chosen:
            attribute_rows[index] = source
            labels[index] = ATTRIBUTE_SWAP

    related = _related_events(log)
    timestamps = log.timestamps.copy()

    if plan.timestamp_shift > 0:
        shifted = 0
        for index in rng.permutation(n_original).tolist():
            if labels[index] != "normal":
                continue
            window = related(index)
            drawn = _draw_shift(timestamps[window[window != index]], int(timestamps[index]), rng)
            if drawn is None:
                continue
            timestamps[index] = drawn
            labels[index] = TIMESTAMP_SHIFT
            shifted += 1
            if shifted == plan.timestamp_shift:
                break
        if shifted < plan.timestamp_shift:
            raise InsufficientCandidatesError(
                f"only {shifted} timestamp-shift candidates for {plan.timestamp_shift} planned"
            )

    # Each new event takes the objects of a random anchor event, a time within
    # the anchor's related events, and the attributes of one of them.
    anchors: list[int] = []
    new_stamps: list[int] = []
    for _ in range(plan.random_activity):
        anchor = int(rng.integers(0, n_original))
        pool = related(anchor)
        t_min, t_max = int(timestamps[pool].min()), int(timestamps[pool].max())
        new_stamps.append(int(round(rng.uniform(t_min, t_max))) if t_max > t_min else t_min)
        attribute_rows.append(attribute_rows[pool[int(rng.integers(0, len(pool)))]])
        anchors.append(anchor)
    ids = [*log.ids, *islice(_fresh("injected_", set(log.ids)), plan.random_activity)]
    labels += [RANDOM_ACTIVITY] * plan.random_activity

    activities = np.array(log.activity_vocabulary, dtype=object)[log.activity_codes].tolist()
    activities += [next(_fresh("anomalous_act_", log.activities))] * plan.random_activity
    bounds = log.ref_indptr
    new_refs = [log.ref_objects[bounds[a] : bounds[a + 1]] for a in anchors]
    refs = np.concatenate([log.ref_objects, *new_refs])
    contaminated = _build_log(
        ids,
        activities,
        np.concatenate([timestamps, np.array(new_stamps, dtype=timestamps.dtype)]),
        np.array([o.object_id for o in log.objects], dtype=object)[refs],
        np.diff(bounds)[list(range(n_original)) + anchors],
        {name: log.values(name)[attribute_rows].tolist() for name in log.columns},
        log.objects,
    )
    return contaminated, GroundTruth(labels=dict(zip(ids, labels)))
