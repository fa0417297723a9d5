"""Object-centric event log model plus a strict OCEL JSON reader/writer.

The in-memory model is a validated, immutable snapshot of an object-centric
event log: events carry an activity, a millisecond UTC timestamp, a non-empty
set of object references and a map of typed attribute values. The reader
accepts the OCEL 1.0 JSON interchange format (``ocel:global-log``,
``ocel:events``, ``ocel:objects``) and either returns a valid log or raises a
typed error; it never hands back a partially constructed log.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import Iterable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# First and last millisecond that ``datetime`` can represent.
_MIN_MILLIS = -62_135_596_800_000
_MAX_MILLIS = 253_402_300_799_999

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
    """A timestamp value cannot be read as ISO-8601."""


class DuplicateIdError(OcelError):
    """Two events, two objects or two keys of one JSON object share an id."""


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


@dataclass(frozen=True)
class ObjectCentricLog:
    """A validated object-centric event log.

    Immutable after construction; safe to share across threads for reading.
    """

    events: tuple[Event, ...]
    objects: tuple[ObjectEntry, ...]
    object_types: frozenset[str]
    activities: frozenset[str]
    schema: Mapping[str, AttributeKind]

    def event_ids(self) -> tuple[str, ...]:
        return tuple(e.event_id for e in self.events)


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp into milliseconds since the epoch (UTC).

    Values without a timezone are taken as UTC; a trailing ``Z`` is accepted.
    Sub-millisecond precision is truncated.
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
    return delta.days * 86_400_000 + delta.seconds * 1000 + delta.microseconds // 1000


def format_timestamps(millis: Sequence[int]) -> list[str]:
    """Render milliseconds since the epoch as ISO-8601 UTC with millisecond precision.

    Covers the years 1 to 9999, the range of ``datetime``; a value outside it
    raises ``OverflowError``.
    """
    if millis and not (_MIN_MILLIS <= min(millis) and max(millis) <= _MAX_MILLIS):
        raise OverflowError("timestamp outside the years 1 to 9999")
    stamps = np.array(millis, dtype=np.int64).astype("datetime64[ms]")
    return [f"{text}+00:00" for text in np.datetime_as_string(stamps, unit="ms").tolist()]


def _coerce_attribute_value(event_id: str, name: str, raw: object) -> float | str | None:
    """Map a JSON attribute value onto the model's value space.

    Numbers become floats, strings stay strings, booleans become the
    categorical strings "true"/"false", nulls mean "attribute absent".
    """
    if raw is None:
        return None
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, str):
        return raw
    raise UnsupportedAttributeValueError(
        f"event {event_id!r}: attribute {name!r} has unsupported type {type(raw).__name__}"
    )


def _infer_schema(
    events: tuple[Event, ...], declared_names: list[str]
) -> dict[str, AttributeKind]:
    """Derive attribute kinds from observed values.

    An attribute is numeric iff every occurrence is a number; an attribute
    with only text occurrences is categorical; a mix of the two is an error,
    and so is a number that is not finite. Declared but never-observed
    attributes default to categorical.
    """
    kinds: dict[str, AttributeKind] = {}
    for event in events:
        for name, value in event.attributes.items():
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise UnsupportedAttributeValueError(
                        f"event {event.event_id!r}: attribute {name!r} is not finite"
                    )
                kind = AttributeKind.NUMERIC
            else:
                kind = AttributeKind.CATEGORICAL
            previous = kinds.get(name)
            if previous is None:
                kinds[name] = kind
            elif previous is not kind:
                raise InconsistentAttributeKindError(
                    f"attribute {name!r} is {previous.value} in one event and "
                    f"{kind.value} in another (event {event.event_id!r})"
                )
    for name in declared_names:
        kinds.setdefault(name, AttributeKind.CATEGORICAL)
    return {name: kinds[name] for name in sorted(kinds)}


def _coerce_event_values(event: Event) -> Event:
    """Normalize integer attribute values to floats (the model's value space)."""
    if not any(
        isinstance(v, int) and not isinstance(v, bool) for v in event.attributes.values()
    ):
        return event
    coerced = {
        name: float(value)
        if isinstance(value, int) and not isinstance(value, bool)
        else value
        for name, value in event.attributes.items()
    }
    return Event(
        event_id=event.event_id,
        activity=event.activity,
        timestamp=event.timestamp,
        object_refs=event.object_refs,
        attributes=coerced,
    )


def _checked_log(
    events: tuple[Event, ...],
    objects: tuple[ObjectEntry, ...],
    declared_types: list[str],
    declared_attrs: list[str],
) -> ObjectCentricLog:
    """The one place a log is built: checks every invariant, derives the rest."""
    known_objects = {o.object_id for o in objects}
    if len(known_objects) != len(objects):
        duplicate = _first_duplicate(o.object_id for o in objects)
        raise DuplicateIdError(f"object {duplicate!r} declared twice")
    if len({e.event_id for e in events}) != len(events):
        duplicate = _first_duplicate(e.event_id for e in events)
        raise DuplicateIdError(f"event {duplicate!r} appears twice")
    for event in events:
        if not event.object_refs:
            # An event tied to no object cannot be placed in any trace.
            raise MissingFieldError(f"event {event.event_id!r}: empty object references")
        missing = event.object_refs - known_objects
        if missing:
            raise DanglingObjectRefError(
                f"event {event.event_id!r} references undeclared object(s) "
                f"{sorted(missing)}"
            )
    return ObjectCentricLog(
        events=events,
        objects=objects,
        object_types=frozenset(declared_types) | frozenset(o.object_type for o in objects),
        activities=frozenset(e.activity for e in events),
        schema=_infer_schema(events, declared_attrs),
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
    events = tuple(_coerce_event_values(e) for e in events)
    return _checked_log(events, tuple(objects), [], [])


def parse_ocel_json(data: bytes | str) -> ObjectCentricLog:
    """Parse an OCEL 1.0 JSON document into a validated log.

    Events retain file order. The attribute schema is inferred from the
    global attribute declarations and the observed values. Every failure is
    one of the typed ``OcelError`` subclasses.
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
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top level must be a JSON object")

    for key in doc:
        if key not in _KNOWN_TOP_KEYS:
            logger.warning("ignoring unknown top-level key %r", key)

    global_log = doc.get("ocel:global-log", {})
    if not isinstance(global_log, dict):
        raise MalformedDocumentError("'ocel:global-log' must be an object")
    declared_types = global_log.get("ocel:object-types", [])
    declared_attrs = global_log.get("ocel:attribute-names", [])
    if not isinstance(declared_types, list) or not all(
        isinstance(t, str) for t in declared_types
    ):
        raise MalformedDocumentError("'ocel:object-types' must be a list of strings")
    if not isinstance(declared_attrs, list) or not all(
        isinstance(a, str) for a in declared_attrs
    ):
        raise MalformedDocumentError("'ocel:attribute-names' must be a list of strings")

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
    events: list[Event] = []
    for event_id, body in events_raw.items():
        if not isinstance(body, dict):
            raise MalformedDocumentError(f"event {event_id!r} must be an object")
        activity = body.get("ocel:activity")
        if not isinstance(activity, str) or not activity:
            raise MissingFieldError(f"event {event_id!r}: missing ocel:activity")
        ts_raw = body.get("ocel:timestamp")
        if not isinstance(ts_raw, str):
            raise MissingFieldError(f"event {event_id!r}: missing ocel:timestamp")
        timestamp = parse_timestamp(ts_raw)
        omap = body.get("ocel:omap")
        if not isinstance(omap, list):
            raise MissingFieldError(f"event {event_id!r}: missing ocel:omap")
        refs = frozenset(str(ref) for ref in omap)
        vmap = body.get("ocel:vmap", {})
        if not isinstance(vmap, dict):
            raise MalformedDocumentError(f"event {event_id!r}: ocel:vmap must be an object")
        attributes: dict[str, float | str] = {}
        for name, raw in vmap.items():
            if name not in declared_attrs:
                logger.warning("event %r uses undeclared attribute %r", event_id, name)
            value = _coerce_attribute_value(event_id, name, raw)
            if value is not None:
                attributes[name] = value
        events.append(
            Event(
                event_id=event_id,
                activity=activity,
                timestamp=timestamp,
                object_refs=refs,
                attributes=attributes,
            )
        )

    return _checked_log(tuple(events), tuple(objects), declared_types, declared_attrs)


def write_ocel_json(log: ObjectCentricLog) -> bytes:
    """Serialize a log as OCEL 1.0 JSON. Deterministic: equal logs → equal bytes.

    The text is ``json.dumps(doc, indent=2, ensure_ascii=False)`` of the OCEL
    document, laid out here directly: the stdlib encoder runs in pure Python
    whenever ``indent`` is set.
    """
    quote = encode_basestring
    stamps = format_timestamps([e.timestamp for e in log.events])
    events = [_event_json(e, stamp) for e, stamp in zip(log.events, stamps)]
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


def _event_json(event: Event, stamp: str) -> str:
    """One member of "ocel:events", for a line indented by four spaces."""
    quote = encode_basestring
    omap = json_block([quote(ref) for ref in sorted(event.object_refs)], "      ", "[]")
    vmap = json_block(
        [
            f"{quote(name)}: {json_value(event.attributes[name], False, '        ')}"
            for name in sorted(event.attributes)
        ],
        "      ",
        "{}",
    )
    return (
        f"{quote(event.event_id)}: {{\n"
        f'      "ocel:activity": {quote(event.activity)},\n'
        f'      "ocel:timestamp": "{stamp}",\n'
        f'      "ocel:omap": {omap},\n'
        f'      "ocel:vmap": {vmap}\n'
        "    }"
    )


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
