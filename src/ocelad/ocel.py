"""Object-centric event log model plus a strict OCEL JSON reader/writer.

The in-memory model is a validated, immutable, columnar snapshot of an
object-centric event log. Each event field is stored once, as one column in
log order: the event ids, activity codes over a sorted vocabulary, int64
millisecond UTC timestamps, an event-to-object CSR (each event's objects
ordered by object id), and one array per attribute (float64 with NaN for a
missing numeric value, int64 codes into a sorted vocabulary with -1 for a
missing categorical value). ``log.events`` rebuilds ``Event`` objects from
the columns on demand. The reader accepts the OCEL 1.0 JSON interchange
format (``ocel:global-log``, ``ocel:events``, ``ocel:objects``), fills the
columns in one pass over the events, and either returns a valid log or
raises a typed error; it never hands back a partially constructed log.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from enum import Enum
from itertools import chain, repeat
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

logger = logging.getLogger(__name__)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# First and last millisecond that ``datetime`` can represent.
_MIN_MILLIS = -62_135_596_800_000
_MAX_MILLIS = 253_402_300_799_999
_MAX_FLOAT = sys.float_info.max

# Top-level keys of the OCEL 1.0 JSON format. Keys outside this set are
# ignored with a warning; "ocel:global-event"/"ocel:global-object" carry
# defaults we do not model and are skipped silently.
_KNOWN_TOP_KEYS = {
    "ocel:global-log",
    "ocel:events",
    "ocel:objects",
    "ocel:global-event",
    "ocel:global-object",
    "ocel:version",
    "ocel:ordering",
}


class OcelError(Exception):
    """Base class for log parsing and validation failures."""


class MalformedDocumentError(OcelError):
    """Input is not a well-formed OCEL JSON document."""


class MissingFieldError(OcelError):
    """A required event or object field is absent or empty."""


class InvalidTimestampError(OcelError):
    """A timestamp value is not ISO-8601 or lies outside the years 1 to 9999."""


class DuplicateIdError(OcelError):
    """Two events, two objects or two keys of one JSON object share an id,
    or one event references an object twice."""


class DanglingObjectRefError(OcelError):
    """An event references an object that is not declared in the log."""


class InconsistentAttributeKindError(OcelError):
    """The same attribute is numeric in one event and categorical in another."""


class UnsupportedAttributeValueError(OcelError):
    """An attribute value is neither a number nor text."""


class AttributeKind(str, Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Event:
    """A single event: activity, timestamp, object references, attributes.

    ``timestamp`` is milliseconds since the Unix epoch, UTC. ``attributes``
    maps attribute names to ``float`` (numeric) or ``str`` (categorical)
    values; numeric values are always finite.
    """

    event_id: str
    activity: str
    timestamp: int
    object_refs: frozenset[str]
    attributes: Mapping[str, float | str] = field(default_factory=dict)


@dataclass(frozen=True)
class ObjectEntry:
    object_id: str
    object_type: str


@dataclass(frozen=True, eq=False)
class ObjectCentricLog:
    """A validated object-centric event log, one column per event field.

    Event i has id ``ids[i]``, activity ``activity_vocabulary[activity_codes[i]]``
    and timestamp ``timestamps[i]`` (int64 milliseconds since the Unix epoch,
    UTC). Its objects are ``ref_objects[ref_indptr[i]:ref_indptr[i + 1]]``,
    indices into ``objects`` ordered by object id. ``columns`` holds one
    array per attribute of ``schema``: float64 with NaN for a missing numeric
    value, or int64 codes into the sorted ``vocabularies[name]`` with -1 for
    a missing categorical value. All three mappings are in name order.
    Immutable after construction; safe to share across threads for reading.
    """

    ids: tuple[str, ...]
    activity_vocabulary: tuple[str, ...]
    activity_codes: np.ndarray
    timestamps: np.ndarray
    ref_indptr: np.ndarray
    ref_objects: np.ndarray
    objects: tuple[ObjectEntry, ...]
    object_types: frozenset[str]
    schema: Mapping[str, AttributeKind]
    columns: Mapping[str, np.ndarray]
    vocabularies: Mapping[str, tuple[str, ...]]

    @property
    def activities(self) -> frozenset[str]:
        return frozenset(self.activity_vocabulary)

    def values(self, name: str) -> np.ndarray:
        """Attribute ``name`` of every event as an object array: float or str, None if missing."""
        column = self.columns[name]
        if name in self.vocabularies:
            return np.array([*self.vocabularies[name], None], dtype=object)[column]
        return np.where(np.isnan(column), None, column.astype(object))

    @property
    def events(self) -> tuple[Event, ...]:
        """The events as ``Event`` objects, rebuilt from the columns on every access."""
        attributes: list[dict[str, float | str]] = [{} for _ in self.ids]
        for name in self.schema:
            for row, value in zip(attributes, self.values(name).tolist()):
                if value is not None:
                    row[name] = value
        object_ids = np.array([o.object_id for o in self.objects], dtype=object)
        refs, bounds = object_ids[self.ref_objects].tolist(), self.ref_indptr.tolist()
        codes, stamps = self.activity_codes.tolist(), self.timestamps.tolist()
        return tuple(
            Event(event_id, self.activity_vocabulary[code], stamp, frozenset(refs[a:b]), row)
            for event_id, code, stamp, a, b, row in zip(
                self.ids, codes, stamps, bounds, bounds[1:], attributes
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectCentricLog):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _same(a: object, b: object) -> bool:
    """Equality that compares arrays by value, a NaN equal to a NaN."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp into milliseconds since the epoch (UTC).

    Values without a timezone are taken as UTC; a trailing ``Z`` is accepted.
    Sub-millisecond precision is truncated. A time outside the years 1 to
    9999 in UTC, which the writer could not write, is an error.
    """
    normalized = text.strip()
    if normalized.endswith(("Z", "z")):
        normalized = normalized[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(normalized)
    except ValueError as exc:
        raise InvalidTimestampError(f"not an ISO-8601 timestamp: {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt - _EPOCH
    millis = delta.days * 86_400_000 + delta.seconds * 1000 + delta.microseconds // 1000
    if not _MIN_MILLIS <= millis <= _MAX_MILLIS:
        raise InvalidTimestampError(f"timestamp outside the years 1 to 9999 in UTC: {text!r}")
    return millis


def format_timestamps(millis: Sequence[int] | np.ndarray) -> list[str]:
    """Render milliseconds since the epoch as ISO-8601 UTC with millisecond precision.

    Covers the years 1 to 9999, the range of ``datetime``; a value outside it
    raises ``OverflowError``.
    """
    millis = np.asarray(millis)
    if millis.size and not (_MIN_MILLIS <= millis.min() and millis.max() <= _MAX_MILLIS):
        raise OverflowError("timestamp outside the years 1 to 9999")
    stamps = millis.astype(np.int64).astype("datetime64[ms]")
    return [f"{text}+00:00" for text in np.datetime_as_string(stamps, unit="ms").tolist()]


def _codes(values: Sequence[str | None], vocabulary: Sequence[str]) -> np.ndarray:
    """Each value's index in ``vocabulary``, -1 for None."""
    code = {None: -1, **{value: i for i, value in enumerate(vocabulary)}}
    return np.fromiter(map(code.__getitem__, values), dtype=np.int64, count=len(values))


def _attribute_column(
    ids: tuple[str, ...], name: str, values: list[object]
) -> tuple[np.ndarray, tuple[str, ...] | None] | None:
    """Column and vocabulary (None if numeric) of one attribute; None if no event has a value.

    An attribute is numeric iff every value is a number, categorical iff every
    value is a string; a mix of the two is an error, and so is a number that
    is not finite or a value of any other type (the writer could not
    round-trip it). Integers become floats.
    """
    types = set(map(type, values)) - {type(None)}
    if not types:
        return None
    if all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in types):
        try:
            column = np.array(values, dtype=np.float64)
        except OverflowError:
            column = None
        if column is not None and np.count_nonzero(~np.isfinite(column)) == values.count(None):
            return column, None
    elif all(issubclass(t, str) for t in types):
        vocabulary = tuple(sorted(set(values) - {None}))
        return _codes(values, vocabulary), vocabulary
    _raise_first_fault(ids, name, values)


def _raise_first_fault(ids: tuple[str, ...], name: str, values: list[object]) -> NoReturn:
    """Raise for the first value, in event order, that is invalid or of the other kind."""
    first = None
    for row, value in enumerate(values):
        if value is None:
            continue
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        kind = AttributeKind.NUMERIC if numeric else AttributeKind.CATEGORICAL
        if not (numeric and abs(value) <= _MAX_FLOAT or isinstance(value, str)):
            raise UnsupportedAttributeValueError(
                f"event {ids[row]!r}: attribute {name!r} is {value!r}, "
                "not a finite float or a string"
            )
        first = first or kind
        if kind is not first:
            raise InconsistentAttributeKindError(
                f"attribute {name!r} is {first.value} in one event and "
                f"{kind.value} in another (event {ids[row]!r})"
            )


def _build_log(
    ids: Sequence[str],
    activities: Sequence[str],
    timestamps: Sequence[int] | np.ndarray,
    refs: Sequence[str],
    ref_counts: Sequence[int] | np.ndarray,
    attributes: Mapping[str, list[object]],
    objects: Sequence[ObjectEntry],
    declared_types: Iterable[str] = (),
    declared_attrs: Iterable[str] = (),
) -> ObjectCentricLog:
    """The one place a log is built: checks every invariant and encodes the columns.

    ``refs`` lists the object ids of every event in turn, ``ref_counts[i]``
    of them for event i. ``attributes`` holds one value per event for each
    name, None where the event has none. Declared but never-observed
    attributes are categorical, with every value missing. The first fault in
    event order decides the error; attribute faults are sought one attribute
    at a time, in name order.
    """
    ids, objects = tuple(ids), tuple(objects)
    n = len(ids)
    object_index = {o.object_id: i for i, o in enumerate(objects)}
    if len(object_index) != len(objects):
        duplicate = _first_duplicate(o.object_id for o in objects)
        raise DuplicateIdError(f"object {duplicate!r} declared twice")
    if len(set(ids)) != n:
        raise DuplicateIdError(f"event {_first_duplicate(ids)!r} appears twice")

    counts = np.asarray(ref_counts, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.fromiter(map(object_index.get, refs, repeat(-1)), dtype=np.int64, count=len(refs))
    owner = np.repeat(np.arange(n), counts)
    faults = np.flatnonzero((counts == 0) | (np.bincount(owner[indices < 0], minlength=n) > 0))
    if faults.size:
        event = faults[0]
        missing = sorted(set(refs[indptr[event] : indptr[event + 1]]) - object_index.keys())
        if not missing:  # an event tied to no object cannot be placed in any trace
            raise MissingFieldError(f"event {ids[event]!r}: empty object references")
        raise DanglingObjectRefError(
            f"event {ids[event]!r} references undeclared object(s) {missing}"
        )
    rank = np.empty(len(objects), dtype=np.int64)
    rank[[object_index[o] for o in sorted(object_index)]] = np.arange(len(objects))
    indices = indices[np.lexsort((rank[indices], owner))]
    repeated = np.flatnonzero((owner[1:] == owner[:-1]) & (indices[1:] == indices[:-1]))
    if repeated.size:
        event, obj = owner[repeated[0]], objects[indices[repeated[0]]].object_id
        raise DuplicateIdError(f"event {ids[event]!r} references object {obj!r} twice")

    try:
        stamps = np.array(timestamps, dtype=np.int64)
    except OverflowError:  # beyond int64: kept, so that the writer reports it
        stamps = np.array(timestamps, dtype=object)
    columns, vocabularies = {}, {}
    declared = set(declared_attrs)
    for name in sorted(declared.union(attributes)):
        encoded = _attribute_column(ids, name, attributes.get(name, []))
        if encoded is not None or name in declared:
            columns[name], vocabulary = encoded or (np.full(n, -1, dtype=np.int64), ())
            if vocabulary is not None:
                vocabularies[name] = vocabulary
    activity_vocabulary = tuple(sorted(set(activities)))
    return ObjectCentricLog(
        ids=ids,
        activity_vocabulary=activity_vocabulary,
        activity_codes=_codes(activities, activity_vocabulary),
        timestamps=stamps,
        ref_indptr=indptr,
        ref_objects=indices,
        objects=objects,
        object_types=frozenset(declared_types) | frozenset(o.object_type for o in objects),
        schema={
            name: AttributeKind.CATEGORICAL if name in vocabularies else AttributeKind.NUMERIC
            for name in columns
        },
        columns=columns,
        vocabularies=vocabularies,
    )


def _first_duplicate(ids: Iterable[str]) -> str:
    return next(item for item, count in Counter(ids).items() if count > 1)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` hook: a repeated key would silently keep only its last value."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        duplicate = _first_duplicate(key for key, _ in pairs)
        raise DuplicateIdError(f"key {duplicate!r} appears twice in one JSON object")
    return doc


def assemble_log(
    events: list[Event] | tuple[Event, ...],
    objects: list[ObjectEntry] | tuple[ObjectEntry, ...],
) -> ObjectCentricLog:
    """Build a log from parts, deriving type/activity sets and the schema.

    Raises the same typed errors as the parser when the parts are inconsistent.
    """
    unset = [e.event_id for e in events if None in e.attributes.values()]
    if unset:
        raise UnsupportedAttributeValueError(f"event {unset[0]!r}: an attribute value is None")
    names = set().union(*(e.attributes for e in events))
    return _build_log(
        [e.event_id for e in events],
        [e.activity for e in events],
        [e.timestamp for e in events],
        [ref for e in events for ref in e.object_refs],
        [len(e.object_refs) for e in events],
        {name: [e.attributes.get(name) for e in events] for name in names},
        objects,
    )


def parse_ocel_json(data: bytes | str) -> ObjectCentricLog:
    """Parse an OCEL 1.0 JSON document into a validated log.

    Events retain file order. The attribute schema is inferred from the
    global attribute declarations and the observed values; a JSON null means
    the attribute is absent, and true/false are the categorical values
    "true"/"false". Every failure is one of the typed ``OcelError`` subclasses.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocumentError("input is not UTF-8 text") from exc
    else:
        text = data

    def _reject_constant(token: str) -> float:
        raise MalformedDocumentError(f"non-finite number {token!r} is not valid JSON")

    try:
        doc = json.loads(
            text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys
        )
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4,300 digits
        raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top level must be a JSON object")

    for key in doc:
        if key not in _KNOWN_TOP_KEYS:
            logger.warning("ignoring unknown top-level key %r", key)

    global_log = doc.get("ocel:global-log", {})
    if not isinstance(global_log, dict):
        raise MalformedDocumentError("'ocel:global-log' must be an object")
    keys = ("ocel:object-types", "ocel:attribute-names")
    declared = {key: global_log.get(key, []) for key in keys}
    for key, names in declared.items():
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise MalformedDocumentError(f"{key!r} must be a list of strings")
    declared_types, declared_attrs = declared.values()

    objects_raw = doc.get("ocel:objects", {})
    if not isinstance(objects_raw, dict):
        raise MalformedDocumentError("'ocel:objects' must be an object")
    objects: list[ObjectEntry] = []
    for object_id, body in objects_raw.items():
        if not isinstance(body, dict):
            raise MalformedDocumentError(f"object {object_id!r} must be an object")
        object_type = body.get("ocel:type")
        if not isinstance(object_type, str) or not object_type:
            raise MissingFieldError(f"object {object_id!r}: missing ocel:type")
        if declared_types and object_type not in declared_types:
            logger.warning(
                "object %r has undeclared type %r", object_id, object_type
            )
        objects.append(ObjectEntry(object_id=object_id, object_type=object_type))

    events_raw = doc.get("ocel:events", {})
    if not isinstance(events_raw, dict):
        raise MalformedDocumentError("'ocel:events' must be an object")
    activities, timestamps, omaps, vmaps = [], [], [], []
    for event_id, body in events_raw.items():
        if not isinstance(body, dict):
            raise MalformedDocumentError(f"event {event_id!r} must be an object")
        activity = body.get("ocel:activity")
        if not isinstance(activity, str) or not activity:
            raise MissingFieldError(f"event {event_id!r}: missing ocel:activity")
        ts_raw = body.get("ocel:timestamp")
        if not isinstance(ts_raw, str):
            raise MissingFieldError(f"event {event_id!r}: missing ocel:timestamp")
        timestamps.append(parse_timestamp(ts_raw))
        omap = body.get("ocel:omap")
        if not isinstance(omap, list):
            raise MissingFieldError(f"event {event_id!r}: missing ocel:omap")
        vmap = body.get("ocel:vmap", {})
        if not isinstance(vmap, dict):
            raise MalformedDocumentError(f"event {event_id!r}: ocel:vmap must be an object")
        activities.append(activity)
        omaps.append(omap)
        vmaps.append(vmap)

    ids = list(events_raw)
    refs = list(chain.from_iterable(omaps))
    if set(map(type, refs)) - {str}:
        event = next(i for i, omap in enumerate(omaps) if set(map(type, omap)) - {str})
        raise MalformedDocumentError(f"event {ids[event]!r}: ocel:omap entries must be strings")
    attributes = {}
    for name in sorted(set().union(*vmaps)):
        if name not in declared_attrs:
            logger.warning("events use undeclared attribute %r", name)
        values = [vmap.get(name) for vmap in vmaps]
        if bool in set(map(type, values)):
            values = [("true" if v else "false") if type(v) is bool else v for v in values]
        attributes[name] = values
    return _build_log(
        ids,
        activities,
        timestamps,
        refs,
        list(map(len, omaps)),
        attributes,
        objects,
        declared_types,
        declared_attrs,
    )


def write_ocel_json(log: ObjectCentricLog) -> bytes:
    """Serialize a log as OCEL 1.0 JSON. Deterministic: equal logs → equal bytes.

    The text is ``json.dumps(doc, indent=2, ensure_ascii=False)`` of the OCEL
    document, laid out here directly from the columns: the stdlib encoder
    runs in pure Python whenever ``indent`` is set.
    """
    quote = encode_basestring
    object_ids = np.array([quote(o.object_id) for o in log.objects], dtype=object)
    refs = object_ids[log.ref_objects].tolist()
    bounds = log.ref_indptr.tolist()
    activities = [quote(a) for a in log.activity_vocabulary]
    members = [
        [None if value is None else f"{quote(name)}: {json_value(value, False, '        ')}"
         for value in log.values(name).tolist()]
        for name in log.schema
    ]
    rows = zip(*members) if members else repeat(())
    events = [
        f"{quote(event_id)}: {{\n"
        f'      "ocel:activity": {activities[code]},\n'
        f'      "ocel:timestamp": "{stamp}",\n'
        f'      "ocel:omap": {json_block(refs[a:b], "      ", "[]")},\n'
        f'      "ocel:vmap": {json_block([m for m in row if m is not None], "      ", "{}")}\n'
        "    }"
        for event_id, code, stamp, a, b, row in zip(
            log.ids,
            log.activity_codes.tolist(),
            format_timestamps(log.timestamps),
            bounds,
            bounds[1:],
            rows,
        )
    ]
    objects = [
        f"{quote(o.object_id)}: {{\n"
        f'      "ocel:type": {quote(o.object_type)},\n'
        '      "ocel:ovmap": {}\n'
        "    }"
        for o in log.objects
    ]
    object_types = json_block([quote(t) for t in sorted(log.object_types)], "    ", "[]")
    attribute_names = json_block([quote(a) for a in sorted(log.schema)], "    ", "[]")
    text = (
        "{\n"
        '  "ocel:global-log": {\n'
        f'    "ocel:object-types": {object_types},\n'
        f'    "ocel:attribute-names": {attribute_names}\n'
        "  },\n"
        f'  "ocel:events": {json_block(events, "  ", "{}")},\n'
        f'  "ocel:objects": {json_block(objects, "  ", "{}")}\n'
        "}"
    )
    return text.encode("utf-8")


def json_block(members: list[str], indent: str, brackets: str) -> str:
    """A JSON array or object of rendered members, laid out as ``json.dumps(indent=2)``.

    ``indent`` is the indentation of the line that opens the block; members
    spanning several lines carry their own deeper indentation.
    """
    if not members:
        return brackets
    inner = ",\n".join(f"{indent}  {member}" for member in members)
    return f"{brackets[0]}\n{inner}\n{indent}{brackets[1]}"


def json_value(value: object, ensure_ascii: bool, indent: str) -> str:
    """A JSON value as ``json.dumps(indent=2)`` writes it at a line indented by ``indent``."""
    quote = encode_basestring_ascii if ensure_ascii else encode_basestring
    if isinstance(value, str):
        return quote(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        members = [
            f"{quote(key)}: {json_value(item, ensure_ascii, inner)}" for key, item in value.items()
        ]
        return json_block(members, indent, "{}")
    if isinstance(value, (list, tuple)):
        return json_block([json_value(item, ensure_ascii, inner) for item in value], indent, "[]")
    return json.dumps(value)


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    r"""Rows as CSV text with "\n" line endings and minimal quoting.

    A row with a carriage return in any field is written fully quoted: with
    a "\n" terminator, the csv writer of Python 3.11 leaves such a field
    bare, and no CSV reader could take it back.
    """
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any("\r" in value for value in row) else plain).writerow(row)
    return out.getvalue()
