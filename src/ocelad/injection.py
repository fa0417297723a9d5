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
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .encoding import GroupKind, build_layout, encode_features
from .numerics import make_rng
from .ocel import DuplicateIdError, Event, ObjectCentricLog, assemble_log, csv_text

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


class DegenerateSpanError(InjectionError):
    """The related events of a shift target span no time at all."""


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
        totals = {name: 0 for name in ANOMALY_TYPES}
        for label in self.labels.values():
            if label in totals:
                totals[label] += 1
        return totals

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


def plan_injection(n_original: int, rate: float = 0.10, seed: int = 0) -> InjectionPlan:
    """Equal per-type counts c = round(rate * n / (3 - rate)).

    Only random activities add events, so the contamination of the final log,
    3c / (n + c), lands on the requested rate up to rounding. A rate of 0
    plans nothing and leaves the log untouched.
    """
    if not 0.0 <= rate < 1.0:
        raise InvalidRateError(f"rate must be in [0, 1), got {rate}")
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
    layout = build_layout(log)
    non_activity = [g for g in layout.groups if g.kind is not GroupKind.ACTIVITY]
    if not non_activity:
        raise NoAttributesError("log has no attributes to swap")
    features = encode_features(log, layout, scale_numeric=True)
    return features[:, layout.groups[0].stop :]


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


def _object_members(events: Iterable[Event]) -> dict[str, list[int]]:
    members: dict[str, list[int]] = {}
    for index, event in enumerate(events):
        for object_id in sorted(event.object_refs):
            members.setdefault(object_id, []).append(index)
    return members


def _related_indices(
    members: dict[str, list[int]], event: Event, exclude: int | None
) -> list[int]:
    """Indices of events sharing at least one object with ``event``, sorted."""
    related: set[int] = set()
    for object_id in event.object_refs:
        related.update(members.get(object_id, ()))
    if exclude is not None:
        related.discard(exclude)
    return sorted(related)


def _shift_window(events: list[Event], members: dict[str, list[int]], index: int) -> tuple[float, float]:
    related = _related_indices(members, events[index], exclude=index)
    if not related:
        raise DegenerateSpanError("target shares no object with any other event")
    times = [events[i].timestamp for i in related]
    t_min, t_max = min(times), max(times)
    span = t_max - t_min
    if span <= 0:
        raise DegenerateSpanError("related events span no time")
    return t_min - _SPAN_MARGIN * span, t_max + _SPAN_MARGIN * span


def _draw_shift(
    events: list[Event],
    members: dict[str, list[int]],
    index: int,
    rng: np.random.Generator,
) -> int:
    low, high = _shift_window(events, members, index)
    old = events[index].timestamp
    for _ in range(_MAX_REDRAWS):
        drawn = int(round(rng.uniform(low, high)))
        if drawn != old:
            return drawn
    raise DegenerateSpanError("could not draw a timestamp different from the original")


def _fresh_activity(original_activities: frozenset[str] | set[str]) -> str:
    """Smallest-index "anomalous_act_m" label outside the original activity set."""
    counter = 1
    while f"anomalous_act_{counter}" in original_activities:
        counter += 1
    return f"anomalous_act_{counter}"


def _fresh_event_id(taken: set[str], counter: int) -> tuple[str, int]:
    while f"injected_{counter}" in taken:
        counter += 1
    return f"injected_{counter}", counter + 1


def _make_random_activity_event(
    events: list[Event],
    members: dict[str, list[int]],
    anchor: int,
    rng: np.random.Generator,
    activity: str,
    event_id: str,
) -> Event:
    # Pool includes the anchor itself, so it is never empty.
    pool = _related_indices(members, events[anchor], exclude=None)
    times = [events[i].timestamp for i in pool]
    t_min, t_max = min(times), max(times)
    timestamp = int(round(rng.uniform(t_min, t_max))) if t_max > t_min else t_min
    attr_source = pool[int(rng.integers(0, len(pool)))]
    return Event(
        event_id=event_id,
        activity=activity,
        timestamp=timestamp,
        object_refs=events[anchor].object_refs,
        attributes=dict(events[attr_source].attributes),
    )


def inject_all(
    log: ObjectCentricLog, plan: InjectionPlan
) -> tuple[ObjectCentricLog, GroundTruth]:
    """Apply the full plan: attribute swaps, then timestamp shifts, then random activities.

    Target sets are disjoint (no original event receives two anomalies) and
    the whole operation is deterministic in the plan seed. Swap distances are
    measured on the clean input log, so earlier injections never distort
    later choices.
    """
    rng = make_rng(plan.seed)
    n_original = len(log.events)
    events = list(log.events)
    truth = {event.event_id: "normal" for event in events}
    used: set[int] = set()

    if plan.attr_swap > 0:
        attr_matrix = _attribute_columns(log)
        event_ids = log.event_ids()
        chosen: list[tuple[int, int]] = []
        for index, source, distance in _farthest_peers(
            attr_matrix, rng.permutation(n_original), event_ids
        ):
            if distance > 0.0:
                chosen.append((index, source))
                if len(chosen) == plan.attr_swap:
                    break
        if len(chosen) < plan.attr_swap:
            raise InsufficientCandidatesError(
                f"only {len(chosen)} attribute-swap candidates for {plan.attr_swap} planned"
            )
        for index, source in chosen:
            events[index] = replace(
                events[index], attributes=dict(log.events[source].attributes)
            )
            truth[events[index].event_id] = ATTRIBUTE_SWAP
            used.add(index)

    members = _object_members(events)

    if plan.timestamp_shift > 0:
        shifted = 0
        for index in rng.permutation(n_original):
            index = int(index)
            if index in used:
                continue
            try:
                drawn = _draw_shift(events, members, index, rng)
            except DegenerateSpanError:
                continue
            events[index] = replace(events[index], timestamp=drawn)
            truth[events[index].event_id] = TIMESTAMP_SHIFT
            used.add(index)
            shifted += 1
            if shifted == plan.timestamp_shift:
                break
        if shifted < plan.timestamp_shift:
            raise InsufficientCandidatesError(
                f"only {shifted} timestamp-shift candidates for {plan.timestamp_shift} planned"
            )

    if plan.random_activity > 0:
        activity = _fresh_activity(log.activities)
        taken_ids = {event.event_id for event in events}
        id_counter = 1
        for _ in range(plan.random_activity):
            anchor = int(rng.integers(0, n_original))
            event_id, id_counter = _fresh_event_id(taken_ids, id_counter)
            new_event = _make_random_activity_event(
                events, members, anchor, rng, activity, event_id
            )
            events.append(new_event)
            taken_ids.add(event_id)
            truth[event_id] = RANDOM_ACTIVITY

    contaminated = assemble_log(events, log.objects)
    ordered = {event.event_id: truth[event.event_id] for event in contaminated.events}
    return contaminated, GroundTruth(labels=ordered)
