"""Object-centric event log model plus a strict OCEL JSON reader/writer.

The in-memory model is a validated, immutable, columnar snapshot of an
object-centric event log. Each event field is stored once, as one column in
log order: the event ids, activity codes over a sorted vocabulary, int64
millisecond UTC timestamps, an event-to-object CSR (each event's objects
ordered by object id), and one array per attribute (float64 with NaN for a
missing numeric value, int64 codes into a sorted vocabulary with -1 for a
missing categorical value). ``log.events`` is a read-only sequence view that
builds each ``Event`` from the columns when it is read. The reader accepts
the OCEL 1.0 JSON interchange format (``ocel:global-log``, ``ocel:events``,
``ocel:objects``), fills each column with one comprehension over the events,
and either returns a valid log or raises a typed error; it never hands back a
partially constructed log.

A repeated key in one JSON object is an error. ``loads_unique`` is the one
strict decoder: it hands every JSON object to the ``_unique_keys`` hook. The
reader puts a pre-check in front of it, so that a valid log decodes with no
Python hook per object. Before decoding, the members of every JSON object are
counted in the UTF-8 bytes: each ``:`` outside strings. The text is decoded
without a hook, and while the columns are extracted the members of the
decoded objects are added up, in bulk, walking only values of an unexpected
container type; a repeated key keeps only its last value, and so leaves one
member short. On a decode error, an extraction fault or a short count, the
text goes through ``loads_unique``, whose repeated-key or decode error takes
precedence over the reader's own fault. The cyclic garbage collector is
paused over the decode and the column build: the decoded tree holds no
reference cycle, so a collection would only rescan it.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import logging
import math
import re
import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain, repeat
from json.encoder import encode_basestring
from typing import NoReturn

import numpy as np

logger = logging.getLogger(__name__)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)  # a time without a timezone is UTC
# First and last millisecond that ``datetime`` can represent.
_MIN_MILLIS = -62_135_596_800_000
_MAX_MILLIS = 253_402_300_799_999
_MAX_FLOAT = sys.float_info.max
# A fraction with a nonzero digit past its third names a time below a
# millisecond. It is read off the text, with a comma decimal mark read as a
# point: ``datetime.fromisoformat`` drops fraction digits past the sixth.
_SUB_MILLISECOND = re.compile(r"\.[0-9]{3}[0-9]*[1-9]")

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
    UTC, within the years 1 to 9999). Its objects are ``ref_objects[ref_indptr[i]:ref_indptr[i + 1]]``,
    indices into ``objects`` ordered by object id. ``columns`` holds one
    array per attribute: float64 with NaN for a missing numeric value, or,
    for a categorical attribute, int64 codes into the sorted
    ``vocabularies[name]`` with -1 for a missing value. An attribute is
    categorical iff ``vocabularies`` has it. Both mappings are in name order.
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
    def events(self) -> Sequence[Event]:
        """The events as a read-only sequence, each ``Event`` built from the columns when read."""
        return _EventView(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectCentricLog):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


class _EventView(Sequence[Event]):
    """``log.events``: as long as the log, and event i is built from row i when it is read.

    Reading one event costs O(attributes) and iterating over all of them
    O(n); a slice is a tuple of events. The view equals a tuple, or another
    view, of equal events.
    """

    __slots__ = ("_log",)

    def __init__(self, log: ObjectCentricLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _EventView)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __getitem__(self, index):
        rows = range(len(self._log.ids))
        if isinstance(index, slice):
            return tuple(map(self._event, rows[index]))
        return self._event(rows[index])

    def _event(self, row: int) -> Event:
        log = self._log
        attributes: dict[str, float | str] = {}
        for name, column in log.columns.items():
            value = column[row]
            if name in log.vocabularies:
                if value >= 0:
                    attributes[name] = log.vocabularies[name][value]
            elif not math.isnan(value):
                attributes[name] = float(value)
        refs = log.ref_objects[log.ref_indptr[row] : log.ref_indptr[row + 1]].tolist()
        return Event(
            log.ids[row],
            log.activity_vocabulary[log.activity_codes[row]],
            int(log.timestamps[row]),
            frozenset(log.objects[i].object_id for i in refs),
            attributes,
        )

    def __iter__(self) -> Iterator[Event]:
        return map(self._event, range(len(self)))


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
    return parse_timestamps([text])[0]


def parse_timestamps(texts: Sequence[str]) -> list[int]:
    """``parse_timestamp`` of each text, one pass per step; the first invalid text raises."""
    return _parse_timestamps(texts)[0]


def _parse_timestamps(texts: Sequence[str]) -> tuple[list[int], int | None]:
    """``parse_timestamps``, and the index of the first text with digits below a millisecond."""
    normalized = [text.strip() for text in texts]
    normalized = [t[:-1] + "+00:00" if t.endswith(("Z", "z")) else t for t in normalized]
    try:
        moments, error = list(map(datetime.fromisoformat, normalized)), None
    except ValueError as exc:
        moments, error = [], exc
    deltas = [m - (_NAIVE_EPOCH if m.tzinfo is None else _EPOCH) for m in moments]
    millis = [d.days * 86_400_000 + d.seconds * 1000 + d.microseconds // 1000 for d in deltas]
    if error is None and (not millis or _MIN_MILLIS <= min(millis) and max(millis) <= _MAX_MILLIS):
        # Every text parsed, so none holds a line break.
        joined = "\n".join(normalized).replace(",", ".")
        found = _SUB_MILLISECOND.search(joined)
        return millis, None if found is None else joined.count("\n", 0, found.start())
    if len(texts) > 1:
        for text in texts:
            parse_timestamps([text])
    if error is not None:
        raise InvalidTimestampError(f"not an ISO-8601 timestamp: {texts[0]!r}") from error
    raise InvalidTimestampError(f"timestamp outside the years 1 to 9999 in UTC: {texts[0]!r}")


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
        kind = "numeric" if numeric else "categorical"
        if not (numeric and abs(value) <= _MAX_FLOAT or isinstance(value, str)):
            raise UnsupportedAttributeValueError(
                f"event {ids[row]!r}: attribute {name!r} is {value!r}, "
                "not a finite float or a string"
            )
        first = first or kind
        if kind != first:
            raise InconsistentAttributeKindError(
                f"attribute {name!r} is {first} in one event and "
                f"{kind} in another (event {ids[row]!r})"
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
        outside = np.flatnonzero((stamps < _MIN_MILLIS) | (stamps > _MAX_MILLIS))
    except OverflowError:  # beyond int64
        outside = [i for i, t in enumerate(timestamps) if not _MIN_MILLIS <= t <= _MAX_MILLIS]
    if len(outside):
        row = outside[0]
        raise InvalidTimestampError(
            f"event {ids[row]!r}: timestamp {timestamps[row]} ms is outside the years 1 to 9999"
        )
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


def _member_count(raw: bytes) -> int:
    """How many members the JSON objects of the JSON text ``raw`` hold: its ``:`` outside strings.

    Exact for any text that ``json.loads`` accepts. Inside a string a
    backslash starts an escape, so dropping each escaped backslash, left to
    right, and then each escaped quote leaves only the quotes that delimit
    strings. A ``:`` lies outside every string iff an even number of them
    precede it. Only the quotes and colons reach numpy, one byte each.
    """
    if b"\\" in raw:
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = np.frombuffer(raw.translate(None, _NOT_MARKS), dtype=np.uint8)
    quotes = marks == ord('"')
    inside = np.logical_xor.accumulate(quotes)
    return int(np.count_nonzero(~(quotes | inside)))


_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'":')))


def _members(value: object) -> int:
    """How many members the JSON objects in a decoded value hold, at every depth.

    Walks one level at a time, so that a wide document costs a few
    comprehensions per level rather than a Python call per value.
    """
    total, level = 0, [value]
    while level:
        dicts = [item for item in level if type(item) is dict]
        lists = [item for item in level if type(item) is list]
        total += sum(map(len, dicts))
        level = [*chain.from_iterable(map(dict.values, dicts)), *chain.from_iterable(lists)]
    return total


@contextmanager
def _gc_paused() -> Iterator[None]:
    """The cyclic garbage collector held off, if it was on.

    A decoded JSON tree and the columns built from it hold no reference
    cycle, so a collection while they grow frees nothing and rescans them.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def loads_unique(text: str, parse_constant=None) -> object:
    """``json.loads``, except that a key repeated in one JSON object raises ``DuplicateIdError``.

    Every JSON object goes through the ``_unique_keys`` hook, with the cyclic
    garbage collector paused over the decode; ``parse_constant`` is passed on
    to ``json.loads``. A document nested too deeply for the decoder raises
    ``ValueError``.
    """
    try:
        with _gc_paused():
            return json.loads(text, parse_constant=parse_constant, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply to decode") from exc


def assemble_log(events: Sequence[Event], objects: Sequence[ObjectEntry]) -> ObjectCentricLog:
    """Build a log from parts, deriving the type and activity sets and each attribute's kind.

    Raises the same typed errors as the parser when the parts are inconsistent.
    """
    events = tuple(events)
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


def _reject_constant(token: str) -> float:
    raise MalformedDocumentError(f"non-finite number {token!r} is not valid JSON")


def parse_ocel_json(data: bytes | str) -> ObjectCentricLog:
    """Parse an OCEL 1.0 JSON document into a validated log.

    Events retain file order. Each attribute's kind is inferred from the
    global attribute declarations and the observed values; a JSON null means
    the attribute is absent, and true/false are the categorical values
    "true"/"false". Every failure is one of the typed ``OcelError`` subclasses.

    The cyclic garbage collector is switched off for the whole process while
    the parse runs, if it was on, and switched on again when the parse
    returns or raises. A thread that enables or disables the collector during
    a parse may find its setting undone when the parse ends.
    """
    if isinstance(data, bytes):
        try:
            text, raw = data.decode("utf-8"), data
        except UnicodeDecodeError as exc:
            raise MalformedDocumentError("input is not UTF-8 text") from exc
    else:
        text, raw = data, None

    with _gc_paused():
        return _read_document(text, raw)


def _read_document(text: str, raw: bytes | None) -> ObjectCentricLog:
    """``parse_ocel_json`` of decoded text; the decoded tree is freed when it returns."""
    members = _member_count(text.encode("utf-8", "surrogatepass") if raw is None else raw)
    warnings: list[tuple[object, ...]] = []
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
        counted, parts = _document_parts(doc, warnings)
    except (ValueError, RecursionError, OcelError) as exc:
        # ValueError: a JSONDecodeError, or an integer of over 4,300 digits.
        counted, parts, error = None, None, exc
    if counted != members:
        try:
            loads_unique(text, _reject_constant)
        except ValueError as exc:
            raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
        if parts is not None:
            raise AssertionError(
                f"{members} members in the text, {counted} decoded, no key repeated"
            )
    for args in warnings:
        logger.warning(*args)
    if parts is None:
        raise error
    return _build_log(*parts)


def _document_parts(doc: object, warnings: list[tuple[object, ...]]) -> tuple[int, tuple]:
    """How many members the JSON objects of ``doc`` hold, and the ``_build_log`` arguments.

    Raises the first fault of the document, in file order; the warnings due
    before it are appended to ``warnings``. The members of the objects this
    reads are counted in bulk, and only values of an unexpected container
    type are walked.
    """
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top level must be a JSON object")
    for key in doc:
        if key not in _KNOWN_TOP_KEYS:
            warnings.append(("ignoring unknown top-level key %r", key))
    others = [value for key, value in doc.items() if key not in ("ocel:events", "ocel:objects")]
    counted = len(doc) + _members(others)

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
    object_ids, bodies = list(objects_raw), list(objects_raw.values())
    if not _only(bodies, dict):
        _raise_object_fault(object_ids, bodies, declared_types, warnings)
    object_types = [body.get("ocel:type") for body in bodies]
    if not _only(object_types, str) or "" in object_types:
        _raise_object_fault(object_ids, bodies, declared_types, warnings)
    undeclared = set(object_types).difference(declared_types) if declared_types else ()
    warnings.extend(
        ("object %r has undeclared type %r", object_id, object_type)
        for object_id, object_type in zip(object_ids, object_types)
        if object_type in undeclared
    )
    objects = list(map(ObjectEntry, object_ids, object_types))
    counted += len(objects_raw) + sum(map(len, bodies))
    counted += _other_members(object_ids, bodies, "object", _OBJECT_FIELDS, warnings)

    events_raw = doc.get("ocel:events", {})
    if not isinstance(events_raw, dict):
        raise MalformedDocumentError("'ocel:events' must be an object")
    ids, bodies = list(events_raw), list(events_raw.values())
    if not _only(bodies, dict):
        _raise_event_fault(ids, bodies)
    activities = [body.get("ocel:activity") for body in bodies]
    stamps = [body.get("ocel:timestamp") for body in bodies]
    omaps = [body.get("ocel:omap") for body in bodies]
    vmaps = [body.get("ocel:vmap", {}) for body in bodies]
    if not (
        _only(activities, str) and "" not in activities and _only(stamps, str)
        and _only(omaps, list) and _only(vmaps, dict)
    ):
        _raise_event_fault(ids, bodies)
    timestamps, truncated = _parse_timestamps(stamps)  # all text: the first bad one is the fault
    if truncated is not None:
        warnings.append(("timestamps truncated to milliseconds, first at event %r", ids[truncated]))
    counted += len(events_raw) + sum(map(len, bodies)) + sum(map(len, vmaps))
    counted += _other_members(ids, bodies, "event", _EVENT_FIELDS, warnings)

    refs = list(chain.from_iterable(omaps))
    if not _only(refs, str):
        event = next(i for i, omap in enumerate(omaps) if not _only(omap, str))
        raise MalformedDocumentError(f"event {ids[event]!r}: ocel:omap entries must be strings")
    attributes = {}
    for name in sorted(set().union(*vmaps)):
        if name not in declared_attrs:
            warnings.append(("events use undeclared attribute %r", name))
        values = [vmap.get(name) for vmap in vmaps]
        types = set(map(type, values))
        if bool in types:
            values = [("true" if v else "false") if type(v) is bool else v for v in values]
        if dict in types or list in types:
            counted += _members(values)
        attributes[name] = values
    parts = (
        ids, activities, timestamps, refs, list(map(len, omaps)), attributes, objects,
        declared_types, declared_attrs,
    )
    return counted, parts


_OBJECT_FIELDS = ("ocel:type",)
_EVENT_FIELDS = ("ocel:activity", "ocel:timestamp", "ocel:omap", "ocel:vmap")


def _only(values: Iterable[object], kind: type) -> bool:
    return set(map(type, values)) <= {kind}


def _other_members(
    ids: list[str],
    bodies: list[dict],
    what: str,
    known: tuple[str, ...],
    warnings: list[tuple[object, ...]],
) -> int:
    """How many members the JSON objects held under ``bodies``' keys outside ``known`` hold.

    The reader drops what these keys hold. Each key other than an object's
    ``ocel:ovmap`` is appended to ``warnings`` once, in name order, and the
    ovmaps once if any of them holds a member: object attributes are not
    modeled. An ovmap that is not a JSON object is an error, raised for the
    first such object in file order after the warnings of the keys before it.
    """
    total = 0
    for key in sorted(set().union(*bodies).difference(known)):
        values = [body[key] for body in bodies if key in body]
        ovmap = (what, key) == ("object", "ocel:ovmap")
        if ovmap and not _only(values, dict):
            row = next(i for i, body in enumerate(bodies) if type(body.get(key, {})) is not dict)
            raise MalformedDocumentError(f"object {ids[row]!r}: ocel:ovmap must be an object")
        members = _members(values)
        if not ovmap:
            warnings.append((f"ignoring unknown {what} key %r", key))
        elif members:
            warnings.append(("ignoring the ocel:ovmap attributes of objects",))
        total += members
    return total


def _raise_object_fault(
    object_ids: list[str], bodies: list[object], declared_types: list[str], warnings: list
) -> NoReturn:
    """Raise for the first faulty object, in file order, after the warnings due before it."""
    for object_id, body in zip(object_ids, bodies):
        if not isinstance(body, dict):
            raise MalformedDocumentError(f"object {object_id!r} must be an object")
        object_type = body.get("ocel:type")
        if not isinstance(object_type, str) or not object_type:
            raise MissingFieldError(f"object {object_id!r}: missing ocel:type")
        if declared_types and object_type not in declared_types:
            warnings.append(("object %r has undeclared type %r", object_id, object_type))


def _raise_event_fault(ids: list[str], bodies: list[object]) -> NoReturn:
    """Raise for the first faulty event, in file order; each event's fields in a fixed order."""
    for event_id, body in zip(ids, bodies):
        if not isinstance(body, dict):
            raise MalformedDocumentError(f"event {event_id!r} must be an object")
        activity = body.get("ocel:activity")
        if not isinstance(activity, str) or not activity:
            raise MissingFieldError(f"event {event_id!r}: missing ocel:activity")
        ts_raw = body.get("ocel:timestamp")
        if not isinstance(ts_raw, str):
            raise MissingFieldError(f"event {event_id!r}: missing ocel:timestamp")
        parse_timestamp(ts_raw)
        if not isinstance(body.get("ocel:omap"), list):
            raise MissingFieldError(f"event {event_id!r}: missing ocel:omap")
        if not isinstance(body.get("ocel:vmap", {}), dict):
            raise MalformedDocumentError(f"event {event_id!r}: ocel:vmap must be an object")


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
    members = [_vmap_members(log, name) for name in log.columns]
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
    attribute_names = json_block([quote(a) for a in sorted(log.columns)], "    ", "[]")
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


def _vmap_members(log: ObjectCentricLog, name: str) -> list[str | None]:
    """Each event's ``"name": value`` member of its vmap, None where the event has no value."""
    key = encode_basestring(name)
    if name in log.vocabularies:
        # Code -1, a missing value, picks the None at the end.
        texts = [f"{key}: {encode_basestring(v)}" for v in log.vocabularies[name]] + [None]
        return [texts[code] for code in log.columns[name].tolist()]
    return [None if v != v else f"{key}: {v!r}" for v in log.columns[name].tolist()]


def json_block(members: list[str], indent: str, brackets: str) -> str:
    """A JSON array or object of rendered members, laid out as ``json.dumps(indent=2)``.

    ``indent`` is the indentation of the line that opens the block; members
    spanning several lines carry their own deeper indentation.
    """
    if not members:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(members) + f"\n{indent}{brackets[1]}"


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
        (quoted if "\r" in "".join(row) else plain).writerow(row)
    return out.getvalue()
