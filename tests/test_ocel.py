"""Parser, writer, and assembly checks for the log model."""

import gc
import json
import logging
import math
from dataclasses import replace
from itertools import chain
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ocelad.ocel as ocel
from ocelad.ocel import (
    _KNOWN_TOP_KEYS,
    DanglingObjectRefError,
    DuplicateIdError,
    Event,
    InconsistentAttributeKindError,
    InvalidTimestampError,
    MalformedDocumentError,
    MissingFieldError,
    ObjectCentricLog,
    OcelError,
    ObjectEntry,
    UnsupportedAttributeValueError,
    _build_log,
    _member_count,
    _unique_keys,
    assemble_log,
    format_timestamps,
    loads_unique,
    logger,
    parse_ocel_json,
    parse_timestamp,
    parse_timestamps,
    write_ocel_json,
)

from conftest import AWKWARD_CHARACTERS, assert_logs_equal, golden_log_bytes, make_log


FIRST_MILLIS = -62_135_596_800_000  # 0001-01-01T00:00:00.000
LAST_MILLIS = 253_402_300_799_999  # 9999-12-31T23:59:59.999


def reference_format_timestamp(millis):
    """Timestamp formatting through ``datetime``, one value at a time."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    return (epoch + timedelta(milliseconds=int(millis))).isoformat(timespec="milliseconds")


def reference_moment(text):
    """One timestamp parsed through ``datetime``, a time without a zone taken as UTC."""
    normalized = text.strip()
    if normalized.endswith(("Z", "z")):
        normalized = normalized[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(normalized)
    except ValueError as exc:
        raise InvalidTimestampError(f"not an ISO-8601 timestamp: {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def reference_parse_timestamp(text):
    """One timestamp in milliseconds since the epoch, as the reader once parsed each."""
    delta = reference_moment(text) - datetime(1970, 1, 1, tzinfo=timezone.utc)
    millis = delta.days * 86_400_000 + delta.seconds * 1000 + delta.microseconds // 1000
    if not FIRST_MILLIS <= millis <= LAST_MILLIS:
        raise InvalidTimestampError(f"timestamp outside the years 1 to 9999 in UTC: {text!r}")
    return millis


def reference_truncates(text):
    """Whether the time ``text`` names lies between two milliseconds."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    return reference_moment(text) != epoch + timedelta(milliseconds=reference_parse_timestamp(text))


def reference_document(log):
    """The OCEL document ``write_ocel_json`` lays out, as ``json.dumps(indent=2)`` would."""
    return {
        "ocel:global-log": {
            "ocel:object-types": sorted(log.object_types),
            "ocel:attribute-names": sorted(log.columns),
        },
        "ocel:events": {
            e.event_id: {
                "ocel:activity": e.activity,
                "ocel:timestamp": reference_format_timestamp(e.timestamp),
                "ocel:omap": sorted(e.object_refs),
                "ocel:vmap": {name: e.attributes[name] for name in sorted(e.attributes)},
            }
            for e in log.events
        },
        "ocel:objects": {
            o.object_id: {"ocel:type": o.object_type, "ocel:ovmap": {}} for o in log.objects
        },
    }


# The parser before the hook-free decode, kept as the oracle of the current one:
# the same log, or the same exception type and message, and the same warnings.
# Since then it only gained the warnings about dropped event and object keys.
def reference_parse_ocel_json(data):
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
    for key in sorted(set().union(*objects_raw.values()) - {"ocel:type"}):
        if key != "ocel:ovmap":
            logger.warning("ignoring unknown object key %r", key)
            continue
        for object_id, body in objects_raw.items():
            if not isinstance(body.get(key, {}), dict):
                raise MalformedDocumentError(f"object {object_id!r}: ocel:ovmap must be an object")
        if any(json_members(body.get(key)) for body in objects_raw.values()):
            logger.warning("ignoring the ocel:ovmap attributes of objects")

    events_raw = doc.get("ocel:events", {})
    if not isinstance(events_raw, dict):
        raise MalformedDocumentError("'ocel:events' must be an object")
    activities, timestamps, omaps, vmaps, truncated = [], [], [], [], []
    for event_id, body in events_raw.items():
        if not isinstance(body, dict):
            raise MalformedDocumentError(f"event {event_id!r} must be an object")
        activity = body.get("ocel:activity")
        if not isinstance(activity, str) or not activity:
            raise MissingFieldError(f"event {event_id!r}: missing ocel:activity")
        ts_raw = body.get("ocel:timestamp")
        if not isinstance(ts_raw, str):
            raise MissingFieldError(f"event {event_id!r}: missing ocel:timestamp")
        timestamps.append(reference_parse_timestamp(ts_raw))
        if reference_truncates(ts_raw):
            truncated.append(event_id)
        omap = body.get("ocel:omap")
        if not isinstance(omap, list):
            raise MissingFieldError(f"event {event_id!r}: missing ocel:omap")
        vmap = body.get("ocel:vmap", {})
        if not isinstance(vmap, dict):
            raise MalformedDocumentError(f"event {event_id!r}: ocel:vmap must be an object")
        activities.append(activity)
        omaps.append(omap)
        vmaps.append(vmap)

    if truncated:
        logger.warning("timestamps truncated to milliseconds, first at event %r", truncated[0])
    fields = {"ocel:activity", "ocel:timestamp", "ocel:omap", "ocel:vmap"}
    for key in sorted(set().union(*events_raw.values()) - fields):
        logger.warning("ignoring unknown event key %r", key)

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


def json_members(value):
    """How many members the JSON objects in a decoded value hold, at every depth."""
    if isinstance(value, dict):
        return len(value) + sum(map(json_members, value.values()))
    if isinstance(value, list):
        return sum(map(json_members, value))
    return 0


def reference_events(log):
    """``log.events`` as the tuple the columnar log first rebuilt on every access."""
    attributes = [{} for _ in log.ids]
    for name in log.columns:
        for row, value in zip(attributes, log.values(name).tolist()):
            if value is not None:
                row[name] = value
    object_ids = np.array([o.object_id for o in log.objects], dtype=object)
    refs, bounds = object_ids[log.ref_objects].tolist(), log.ref_indptr.tolist()
    codes, stamps = log.activity_codes.tolist(), log.timestamps.tolist()
    return tuple(
        Event(event_id, log.activity_vocabulary[code], stamp, frozenset(refs[a:b]), row)
        for event_id, code, stamp, a, b, row in zip(
            log.ids, codes, stamps, bounds, bounds[1:], attributes
        )
    )


log_texts = st.text(
    st.one_of(st.sampled_from(AWKWARD_CHARACTERS), st.characters(blacklist_categories=("Cs",))),
    min_size=1,
    max_size=6,
)
log_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e22, 1e16, 0.1]),
)
log_timestamps = st.one_of(
    st.integers(FIRST_MILLIS, LAST_MILLIS),
    st.sampled_from([FIRST_MILLIS, LAST_MILLIS, -1, 0, 1]),
)


timestamp_texts = st.one_of(
    st.builds(
        lambda millis, cut, offset, suffix, pad: pad + reference_format_timestamp(millis)[:cut]
        + (offset if 13 <= cut < 29 else "") + suffix + pad,
        log_timestamps,
        st.sampled_from([10, 13, 16, 19, 23, 29]),
        st.sampled_from(["", "+00:00", "+01:00", "-01:00", "+23:59", "Z"]),
        st.sampled_from(["", "Z", "z", "x"]),
        st.sampled_from(["", " ", "\t", "\u3000"]),
    ),
    st.text(st.sampled_from("0123456789-:T.+Zz "), max_size=30),
)


@st.composite
def logs(draw):
    """Valid logs with arbitrary text, float attributes and empty vmaps."""
    object_ids = draw(st.lists(log_texts, min_size=1, max_size=4, unique=True))
    objects = [ObjectEntry(object_id=o, object_type=draw(log_texts)) for o in object_ids]
    names = draw(st.lists(log_texts, max_size=4, unique=True))
    numeric = set(names[: draw(st.integers(0, len(names)))])
    events = []
    for event_id in draw(st.lists(log_texts, max_size=5, unique=True)):
        present = draw(st.sets(st.sampled_from(names))) if names else set()
        events.append(
            Event(
                event_id=event_id,
                activity=draw(log_texts),
                timestamp=draw(log_timestamps),
                object_refs=frozenset(draw(st.sets(st.sampled_from(object_ids), min_size=1))),
                attributes={
                    name: draw(log_floats if name in numeric else log_texts) for name in present
                },
            )
        )
    return assemble_log(events, objects)


def reference_attribute_kinds(events):
    """Attribute kinds from a scan of every event's attribute map, integers taken as floats.

    Raises at the first value, in event order, that is invalid or of the
    other kind than the attribute's first value. An integer too large for a
    float is unsupported.
    """
    kinds = {}
    for event in events:
        for name, value in event.attributes.items():
            if isinstance(value, int) and not isinstance(value, bool):
                try:
                    value = float(value)
                except OverflowError:
                    value = math.inf
            if isinstance(value, float) and math.isfinite(value):
                kind = "numeric"
            elif isinstance(value, str):
                kind = "categorical"
            else:
                raise UnsupportedAttributeValueError(name)
            if kinds.setdefault(name, kind) != kind:
                raise InconsistentAttributeKindError(name)
    return {name: kinds[name] for name in sorted(kinds)}


def attribute_kinds(log):
    """Each attribute's kind as the log records it: categorical iff it has a vocabulary.

    A categorical attribute's column holds int64 codes, a numeric one's float64 values.
    """
    assert set(log.vocabularies) <= set(log.columns)
    return {
        name: "categorical" if name in log.vocabularies else "numeric"
        for name, column in log.columns.items()
        if column.dtype == (np.int64 if name in log.vocabularies else np.float64)
    }


def doc_with(events=None, objects=None, types=("A",), attrs=()):
    return {
        "ocel:global-log": {
            "ocel:object-types": list(types),
            "ocel:attribute-names": list(attrs),
        },
        "ocel:events": events or {},
        "ocel:objects": objects or {},
    }


def event_body(activity="act", ts="2023-01-01T00:00:00Z", omap=("o1",), vmap=None):
    return {
        "ocel:activity": activity,
        "ocel:timestamp": ts,
        "ocel:omap": list(omap),
        "ocel:vmap": vmap or {},
    }


class TestParse:
    def test_empty_document(self):
        log = parse_ocel_json(json.dumps(doc_with()).encode())
        assert log.events == ()
        assert log.objects == ()
        assert attribute_kinds(log) == {}

    def test_golden_counts(self, golden_log):
        assert len(golden_log.events) == 8
        assert len(golden_log.objects) == 6
        assert golden_log.object_types == frozenset({"A", "B"})
        assert golden_log.activities == frozenset({f"act{i}" for i in range(1, 6)})
        assert attribute_kinds(golden_log) == {"Attr1": "numeric", "Attr2": "numeric"}

    def test_events_retain_file_order(self, golden_log):
        assert [e.event_id for e in golden_log.events] == [f"e{i}" for i in range(1, 9)]

    def test_not_json(self):
        with pytest.raises(MalformedDocumentError):
            parse_ocel_json(b"this is not json")

    @pytest.mark.parametrize("opening", ["[", '{"a": '], ids=["lists", "objects"])
    def test_nested_too_deeply(self, opening):
        with pytest.raises(MalformedDocumentError, match="nested too deeply"):
            parse_ocel_json(opening * 100_000)
        with pytest.raises(MalformedDocumentError, match="nested too deeply"):
            parse_ocel_json((opening * 100_000).encode("utf-8"))

    def test_not_utf8(self):
        with pytest.raises(MalformedDocumentError):
            parse_ocel_json(b"\xff\xfe\x00bad")

    def test_top_level_not_object(self):
        with pytest.raises(MalformedDocumentError):
            parse_ocel_json(b"[1, 2, 3]")

    def test_nan_rejected(self):
        doc = doc_with(
            events={"e1": event_body(vmap={"x": float("nan")})},
            objects={"o1": {"ocel:type": "A"}},
            attrs=["x"],
        )
        text = json.dumps(doc)  # renders NaN as a bare literal
        assert "NaN" in text
        with pytest.raises(MalformedDocumentError):
            parse_ocel_json(text.encode())

    @pytest.mark.parametrize("missing", ["ocel:activity", "ocel:timestamp", "ocel:omap"])
    def test_missing_event_field(self, missing):
        body = event_body()
        del body[missing]
        doc = doc_with(events={"e1": body}, objects={"o1": {"ocel:type": "A"}})
        with pytest.raises(MissingFieldError):
            parse_ocel_json(json.dumps(doc).encode())

    def test_empty_omap_rejected(self):
        doc = doc_with(events={"e1": event_body(omap=())}, objects={"o1": {"ocel:type": "A"}})
        with pytest.raises(MissingFieldError):
            parse_ocel_json(json.dumps(doc).encode())

    def test_dangling_object_ref(self):
        doc = doc_with(events={"e1": event_body(omap=("zz",))}, objects={"o1": {"ocel:type": "A"}})
        with pytest.raises(DanglingObjectRefError):
            parse_ocel_json(json.dumps(doc).encode())

    def test_duplicate_event_key_rejected(self):
        # json.loads alone keeps the last "e1" and drops the first.
        body = json.dumps(event_body())
        text = (
            '{"ocel:events": {"e1": %s, "e1": %s}, "ocel:objects": {"o1": {"ocel:type": "A"}}}'
            % (body, body)
        )
        with pytest.raises(DuplicateIdError):
            parse_ocel_json(text)

    def test_duplicate_object_key_rejected(self):
        text = '{"ocel:objects": {"o1": {"ocel:type": "A"}, "o1": {"ocel:type": "B"}}}'
        with pytest.raises(DuplicateIdError):
            parse_ocel_json(text)

    def test_overflowing_number_rejected(self):
        doc = doc_with(
            events={"e1": event_body(vmap={"x": 1.0})},
            objects={"o1": {"ocel:type": "A"}},
            attrs=["x"],
        )
        text = json.dumps(doc).replace("1.0", "1e999")
        with pytest.raises(UnsupportedAttributeValueError):
            parse_ocel_json(text)

    def test_integer_literal_beyond_conversion_limit(self):
        # json.loads raises a plain ValueError for an integer of over 4,300 digits.
        doc = doc_with(events={"e1": event_body(vmap={"x": 1})}, objects={"o1": {"ocel:type": "A"}})
        with pytest.raises(MalformedDocumentError):
            parse_ocel_json(json.dumps(doc).replace('"x": 1', '"x": 1' + "0" * 5000))

    def test_object_missing_type(self):
        doc = doc_with(objects={"o1": {}})
        with pytest.raises(MissingFieldError):
            parse_ocel_json(json.dumps(doc).encode())

    def test_mixed_attribute_kinds(self):
        doc = doc_with(
            events={
                "e1": event_body(vmap={"x": 1.5}),
                "e2": event_body(vmap={"x": "text"}),
            },
            objects={"o1": {"ocel:type": "A"}},
            attrs=["x"],
        )
        with pytest.raises(InconsistentAttributeKindError):
            parse_ocel_json(json.dumps(doc).encode())

    def test_unsupported_attribute_value(self):
        doc = doc_with(
            events={"e1": event_body(vmap={"x": [1, 2]})},
            objects={"o1": {"ocel:type": "A"}},
            attrs=["x"],
        )
        with pytest.raises(UnsupportedAttributeValueError):
            parse_ocel_json(json.dumps(doc).encode())

    def test_bool_becomes_categorical(self):
        doc = doc_with(
            events={"e1": event_body(vmap={"flag": True})},
            objects={"o1": {"ocel:type": "A"}},
            attrs=["flag"],
        )
        log = parse_ocel_json(json.dumps(doc).encode())
        assert log.events[0].attributes["flag"] == "true"
        assert attribute_kinds(log) == {"flag": "categorical"}

    def test_null_attribute_means_absent(self):
        doc = doc_with(
            events={"e1": event_body(vmap={"x": None})},
            objects={"o1": {"ocel:type": "A"}},
            attrs=["x"],
        )
        log = parse_ocel_json(json.dumps(doc).encode())
        assert "x" not in log.events[0].attributes

    def test_declared_but_unobserved_attribute_defaults_categorical(self):
        doc = doc_with(
            events={"e1": event_body()},
            objects={"o1": {"ocel:type": "A"}},
            attrs=["ghost"],
        )
        log = parse_ocel_json(json.dumps(doc).encode())
        assert attribute_kinds(log) == {"ghost": "categorical"}

    def test_unknown_top_level_key_warns(self, caplog):
        doc = doc_with(objects={"o1": {"ocel:type": "A"}})
        doc["surprise"] = 1
        with caplog.at_level(logging.WARNING, logger="ocelad.ocel"):
            parse_ocel_json(json.dumps(doc).encode())
        assert any("surprise" in record.message for record in caplog.records)

    def test_dropped_event_and_object_keys_warn_once_per_name(self, caplog):
        events = {
            "e1": {**event_body(), "note": "x", "ocel:typo": 1},
            "e2": {**event_body(), "note": "y"},
        }
        objects = {
            "o1": {"ocel:type": "A", "ocel:ovmap": {"color": "red", "size": 3}, "extra": []},
            "o2": {"ocel:type": "A", "ocel:ovmap": {"color": "blue"}},
        }
        with caplog.at_level(logging.WARNING, logger="ocelad.ocel"):
            log = parse_ocel_json(json.dumps(doc_with(events=events, objects=objects)).encode())
        assert [record.getMessage() for record in caplog.records] == [
            "ignoring unknown object key 'extra'",
            "ignoring the ocel:ovmap attributes of objects",
            "ignoring unknown event key 'note'",
            "ignoring unknown event key 'ocel:typo'",
        ]
        assert len(log.events) == 2

    @pytest.mark.parametrize("ovmap", [["red", 3], "x", None, 2])
    def test_non_object_ovmap_rejected(self, ovmap, caplog):
        objects = {
            "o1": {"ocel:type": "A", "ocel:ovmap": {"color": "red"}, "extra": 1},
            "o2": {"ocel:type": "A", "ocel:ovmap": ovmap},
        }
        with caplog.at_level(logging.WARNING, logger="ocelad.ocel"):
            with pytest.raises(MalformedDocumentError) as error:
                parse_ocel_json(json.dumps(doc_with(objects=objects)).encode())
        assert str(error.value) == "object 'o2': ocel:ovmap must be an object"
        assert [record.getMessage() for record in caplog.records] == [
            "ignoring unknown object key 'extra'"
        ]

    def test_sub_millisecond_stamps_truncated_with_one_warning(self, caplog):
        # Two stamps 0.4 ms apart read as the same millisecond; the one
        # warning names the first event whose stamp lost digits.
        events = {
            "e0": event_body(ts="2023-01-01T00:00:00.122Z"),
            "e1": event_body(ts="2023-01-01T00:00:00.1231Z"),
            "e2": event_body(ts="2023-01-01T00:00:00.1235Z"),
        }
        objects = {"o1": {"ocel:type": "A"}}
        with caplog.at_level(logging.WARNING, logger="ocelad.ocel"):
            log = parse_ocel_json(json.dumps(doc_with(events=events, objects=objects)).encode())
        base = parse_timestamp("2023-01-01T00:00:00Z")
        assert log.timestamps.tolist() == [base + 122, base + 123, base + 123]
        assert [record.getMessage() for record in caplog.records] == [
            "timestamps truncated to milliseconds, first at event 'e1'"
        ]

    def test_written_log_reads_back_without_warnings(self, golden_log, caplog):
        with caplog.at_level(logging.WARNING, logger="ocelad.ocel"):
            parse_ocel_json(write_ocel_json(golden_log))
        assert caplog.records == []

    def test_undeclared_object_type_accepted_with_warning(self, caplog):
        doc = doc_with(objects={"o1": {"ocel:type": "Mystery"}}, types=["A"])
        with caplog.at_level(logging.WARNING, logger="ocelad.ocel"):
            log = parse_ocel_json(json.dumps(doc).encode())
        assert "Mystery" in log.object_types

    def test_totality_on_arbitrary_bytes(self):
        # Every input yields a valid log or a typed error, never anything else.
        from ocelad.numerics import make_rng
        from ocelad.ocel import OcelError

        rng = make_rng(99)
        golden = golden_log_bytes()
        inputs = [bytes(rng.integers(0, 256, size=int(rng.integers(0, 60)), dtype=np.uint8))
                  for _ in range(100)]
        for _ in range(100):
            cut = int(rng.integers(0, len(golden)))
            inputs.append(golden[:cut])  # truncated documents
        for data in inputs:
            try:
                log = parse_ocel_json(data)
            except OcelError:
                continue
            assert isinstance(log, ObjectCentricLog)
            assert parse_ocel_json(write_ocel_json(log)) == log


class TestTimestamps:
    def test_z_suffix(self):
        assert parse_timestamp("1970-01-01T00:00:01Z") == 1000

    def test_offset(self):
        assert parse_timestamp("1970-01-01T01:00:00+01:00") == 0

    def test_naive_taken_as_utc(self):
        assert parse_timestamp("1970-01-01T00:00:00") == 0

    def test_millis_preserved(self):
        assert parse_timestamp("1970-01-01T00:00:00.123Z") == 123

    @pytest.mark.parametrize("year", [1970, 2024, 2100])
    def test_round_trip_across_range(self, year):
        text = f"{year}-06-15T12:34:56.789+00:00"
        millis = parse_timestamp(text)
        assert parse_timestamp(format_timestamps([millis])[0]) == millis

    def test_invalid(self):
        with pytest.raises(InvalidTimestampError):
            parse_timestamp("15/06/2023 12:00")

    @pytest.mark.parametrize(
        "text, millis",
        [
            ("0001-01-01T01:00:00+01:00", FIRST_MILLIS),
            ("9999-12-31T22:59:59.999-01:00", LAST_MILLIS),
        ],
    )
    def test_writable_range_edges_accepted(self, text, millis):
        assert parse_timestamp(text) == millis

    @pytest.mark.parametrize(
        "text", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_outside_writable_range_rejected(self, text):
        # Valid ISO-8601, but before year 1 or after year 9999 in UTC: the
        # writer could not write the log back.
        with pytest.raises(InvalidTimestampError):
            parse_timestamp(text)

    @given(st.lists(timestamp_texts, max_size=8))
    @example(["1970-01-01T00:00:00Z", "0001-01-01T00:30:00+01:00", "x"])
    @example(["1970-01-01T00:00:00Z", "x", "0001-01-01T00:30:00+01:00"])
    @example([" 2023-01-01T10z ", "2023-01-01T10Z", "2023-01-01", "2023-01-01Z"])
    def test_batch_parse_matches_one_at_a_time(self, texts):
        try:
            expected = [reference_parse_timestamp(text) for text in texts]
        except InvalidTimestampError as exc:
            with pytest.raises(InvalidTimestampError) as raised:
                parse_timestamps(texts)
            assert str(raised.value) == str(exc)
        else:
            assert parse_timestamps(texts) == expected

    @given(st.lists(log_timestamps, max_size=20))
    @example([FIRST_MILLIS, LAST_MILLIS, -1, -999, -1000, -1001, 0])
    def test_batch_format_matches_datetime(self, millis):
        assert format_timestamps(millis) == [reference_format_timestamp(m) for m in millis]

    @pytest.mark.parametrize("millis", [FIRST_MILLIS - 1, LAST_MILLIS + 1, 10**30, -(10**30)])
    def test_out_of_range_raises(self, millis):
        with pytest.raises(OverflowError):
            reference_format_timestamp(millis)
        with pytest.raises(OverflowError):
            format_timestamps([0, millis])
        with pytest.raises(InvalidTimestampError, match="event 'e1': timestamp"):
            make_log([("e0", "a", 0, ["o1"], {}), ("e1", "a", millis, ["o1"], {})], {"o1": "T"})


class TestRoundTrip:
    def test_empty(self):
        log = parse_ocel_json(json.dumps(doc_with()).encode())
        again = parse_ocel_json(write_ocel_json(log))
        assert again == log

    def test_golden(self, golden_log):
        again = parse_ocel_json(write_ocel_json(golden_log))
        assert again == golden_log
        assert_logs_equal(again, golden_log)

    def test_mixed_attribute_log(self):
        log = make_log(
            [
                ("e1", "a", 1000, ["o1"], {"price": 3.5, "color": "red"}),
                ("e2", "b", 2000, ["o1", "o2"], {"color": "blue"}),
                ("e3", "a", 3000, ["o2"], {"price": 1.25}),
            ],
            {"o1": "T", "o2": "T"},
        )
        again = parse_ocel_json(write_ocel_json(log))
        assert_logs_equal(again, log)
        assert attribute_kinds(again) == {"color": "categorical", "price": "numeric"}

    def test_write_deterministic(self, golden_log):
        assert write_ocel_json(golden_log) == write_ocel_json(golden_log)

    @settings(deadline=None)
    @given(logs())
    def test_write_matches_stdlib_layout_and_round_trips(self, log):
        data = write_ocel_json(log)
        assert data == json.dumps(reference_document(log), indent=2, ensure_ascii=False).encode()
        assert parse_ocel_json(data) == log


class TestValidate:
    """The checks that the parser and ``assemble_log`` share."""

    def test_golden_clean(self, golden_log):
        assert assemble_log(golden_log.events, golden_log.objects) == golden_log

    def test_duplicate_event_id(self, golden_log):
        with pytest.raises(DuplicateIdError):
            assemble_log((*golden_log.events, golden_log.events[0]), golden_log.objects)

    def test_mixed_kind_diagnostic(self):
        events = (
            Event("e1", "a", 0, frozenset({"o1"}), {"x": 1.0}),
            Event("e2", "a", 1, frozenset({"o1"}), {"x": "text"}),
        )
        with pytest.raises(InconsistentAttributeKindError):
            assemble_log(events, (ObjectEntry("o1", "T"),))

    @pytest.mark.parametrize(
        "mutate, expected_code",
        [
            (lambda log: log.objects[1:], "DanglingObjectRef"),
            (lambda log: log.objects + (log.objects[0],), "DuplicateObjectId"),
        ],
    )
    def test_mutated_log_yields_diagnostic(self, golden_log, mutate, expected_code):
        expected = {
            "DanglingObjectRef": DanglingObjectRefError,
            "DuplicateObjectId": DuplicateIdError,
        }[expected_code]
        with pytest.raises(expected):
            assemble_log(golden_log.events, mutate(golden_log))

    def test_empty_refs_diagnostic(self):
        with pytest.raises(MissingFieldError):
            assemble_log((Event("e1", "a", 0, frozenset(), {}),), ())

    @pytest.mark.parametrize("omap", [[1], [None], ["o1", 2.5], [["o1"]]])
    def test_non_string_omap_entry(self, omap):
        # str() of these would silently link objects "1" or "None".
        doc = doc_with(
            events={"e1": event_body(omap=omap)},
            objects={"o1": {"ocel:type": "A"}, "1": {"ocel:type": "A"}, "None": {"ocel:type": "A"}},
        )
        with pytest.raises(MalformedDocumentError):
            parse_ocel_json(json.dumps(doc))

    def test_repeated_omap_entry(self):
        doc = doc_with(events={"e1": event_body(omap=["o1", "o1"])}, objects={"o1": {"ocel:type": "A"}})
        with pytest.raises(DuplicateIdError):
            parse_ocel_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, None, [1.0]])
    def test_non_finite_numeric(self, value):
        with pytest.raises(UnsupportedAttributeValueError):
            assemble_log(
                [Event("e1", "a", 0, frozenset({"o1"}), {"x": value})],
                [ObjectEntry("o1", "T")],
            )


class TestAssemble:
    def test_rejects_dangling_refs(self):
        with pytest.raises(DanglingObjectRefError):
            assemble_log(
                [Event("e1", "a", 0, frozenset({"ghost"}), {})],
                [ObjectEntry("o1", "T")],
            )

    def test_rejects_empty_refs(self):
        with pytest.raises(MissingFieldError):
            assemble_log([Event("e1", "a", 0, frozenset(), {})], [])

    def test_rejects_mixed_kinds(self):
        with pytest.raises(InconsistentAttributeKindError):
            assemble_log(
                [
                    Event("e1", "a", 0, frozenset({"o1"}), {"x": 1.0}),
                    Event("e2", "a", 1, frozenset({"o1"}), {"x": "s"}),
                ],
                [ObjectEntry("o1", "T")],
            )

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.none(),
                    log_floats,
                    log_texts,
                    st.integers(-(2**70), 2**70),
                    st.sampled_from([math.nan, math.inf, -math.inf, True, [1.0], 10**400]),
                ),
                log_floats,
                st.sampled_from(["", "\x00"]),
            ),
            max_size=8,
        )
    )
    # Text first: a list after it is unsupported, a number after it the other kind.
    @example([("s", 0.0, ""), ([1.0], 0.0, "")])
    @example([("s", 0.0, ""), (2, 0.0, ""), (None, 0.0, "\x00"), (math.nan, 1.0, "")])
    def test_schema_and_values_match_per_event_scan(self, rows):
        # Only "x" can be invalid, so the first invalid value in event order decides the error.
        events = [
            Event(f"e{i}{suffix}", "a", i, frozenset({"o1"}), {"y": y} if x is None else {"x": x, "y": y})
            for i, (x, y, suffix) in enumerate(rows)
        ]
        try:
            expected = reference_attribute_kinds(events)
        except (UnsupportedAttributeValueError, InconsistentAttributeKindError) as error:
            with pytest.raises(type(error)):
                assemble_log(events, [ObjectEntry("o1", "T")])
            return
        log = assemble_log(events, [ObjectEntry("o1", "T")])
        assert attribute_kinds(log) == expected
        for event, again in zip(events, log.events):
            coerced = {name: float(value) if isinstance(value, int) else value
                       for name, value in event.attributes.items()}
            assert again == replace(event, attributes=coerced)
            assert all(type(value) in (float, str) for value in again.attributes.values())

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(UnsupportedAttributeValueError):
            assemble_log([Event("e1", "a", 0, frozenset({"o1"}), {"x": 10**400})], [ObjectEntry("o1", "T")])
        doc = doc_with(events={"e1": event_body(vmap={"x": 1})}, objects={"o1": {"ocel:type": "A"}})
        with pytest.raises(UnsupportedAttributeValueError):
            parse_ocel_json(json.dumps(doc).replace('"x": 1', '"x": 1' + "0" * 400))

    def test_events_rebuilt_from_columns_assemble_to_the_same_log(self, golden_log):
        assert assemble_log(golden_log.events, golden_log.objects) == golden_log

    @settings(deadline=None)
    @given(logs())
    def test_events_round_trip_through_assemble(self, log):
        assert assemble_log(log.events, log.objects) == log

    def test_integer_values_coerced_to_float(self):
        log = assemble_log(
            [Event("e1", "a", 0, frozenset({"o1"}), {"x": 3})],
            [ObjectEntry("o1", "T")],
        )
        assert log.events[0].attributes["x"] == 3.0
        assert isinstance(log.events[0].attributes["x"], float)
        assert attribute_kinds(log) == {"x": "numeric"}


class Members(list):
    """A JSON object as its list of (key, value) members, so that a key can repeat."""


def render(node, layout):
    """JSON text of a tree of ``Members``, lists and scalars; ``layout`` is (item, member) separators."""
    item, member = layout
    if isinstance(node, Members):
        return "{" + item.join(
            f"{json.dumps(key, ensure_ascii=False)}{member}{render(value, layout)}"
            for key, value in node
        ) + "}"
    if isinstance(node, list):
        return "[" + item.join(render(value, layout) for value in node) + "]"
    return json.dumps(node, ensure_ascii=False)


json_layouts = st.sampled_from([(",", ":"), (", ", ": "), (",\n  ", " :\n")])
# Backslash runs of every length, quotes and colons next to them, NUL and
# characters outside the BMP.
awkward_keys = st.lists(
    st.sampled_from([":", '"', "\\", "\\\\", "\\\"", "\x00", "\n", "é", "\U0001f600", "{", "a"]),
    max_size=5,
).map("".join)
json_trees = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**20), 10**20),
        st.floats(allow_nan=False, allow_infinity=False),
        awkward_keys,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.tuples(st.one_of(awkward_keys, st.sampled_from(["k", "j"])), children),
                 max_size=4).map(Members),
    ),
    max_leaves=16,
)


def hook_member_count(text):
    """Members of every JSON object, repeated keys included, as the decoder hands them over."""
    sizes = []
    json.loads(text, object_pairs_hook=lambda pairs: sizes.append(len(pairs)) or dict(pairs))
    return sum(sizes)


def hook_outcome(text):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, DuplicateIdError) as error:
        return type(error), str(error)


class TestMemberCount:
    @settings(deadline=None, max_examples=200)
    @given(json_trees, json_layouts)
    @example(Members([("a:b", "c\\\\"), ("\\\"", [Members([(":", ":")])])]), (",", ":"))
    @example(["\\", "\"\\\\\"", ":"], (",", ":"))
    @example("a:b", (",", ":"))
    @example([":", Members([("k", ":")])], (", ", ": "))
    def test_equals_the_hooks_member_count(self, tree, layout):
        for text in (render(tree, layout), json.dumps(json.loads(render(tree, layout)))):
            assert _member_count(text.encode("utf-8")) == hook_member_count(text)

    @settings(deadline=None, max_examples=100)
    @given(json_trees, json_layouts)
    def test_loads_unique_matches_the_hook(self, tree, layout):
        text = render(tree, layout)
        try:
            result = loads_unique(text)
        except (ValueError, DuplicateIdError) as error:
            result = type(error), str(error)
        assert result == hook_outcome(text)

    def test_loads_unique_nested_too_deeply(self):
        with pytest.raises(ValueError, match="nested too deeply") as excinfo:
            loads_unique("[" * 100_000)
        assert not isinstance(excinfo.value, DuplicateIdError)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_loads_unique_pauses_the_collector(self, monkeypatch, enabled):
        states = []
        hook = _unique_keys
        monkeypatch.setattr(
            ocel, "_unique_keys", lambda pairs: states.append(gc.isenabled()) or hook(pairs)
        )
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert loads_unique('{"a": {"b": 1}}') == {"a": {"b": 1}}
            assert states == [False, False] and gc.isenabled() is enabled
            with pytest.raises(DuplicateIdError):
                loads_unique('{"a": 1, "a": 2}')
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_lone_surrogate_in_text(self):
        assert loads_unique('{"\ud800": 1}') == {"\ud800": 1}
        with pytest.raises(DuplicateIdError, match="appears twice"):
            loads_unique('{"\ud800": 1, "\ud800": 2}')


MISSING = object()


def body(*members):
    """An object node of the members whose value is not ``MISSING``."""
    return Members((key, value) for key, value in members if value is not MISSING)


small_containers = st.one_of(
    st.lists(st.integers(0, 2), max_size=2),
    st.lists(st.tuples(st.sampled_from(["k", "j"]), st.integers(0, 2)), max_size=2).map(Members),
)
attribute_values = st.one_of(
    st.sampled_from([None, True, 2, 1.5, -0.0, "a", "b", ":", 1e308]), small_containers,
    st.just(math.nan),  # rendered as the NaN literal
)


@st.composite
def ocel_documents(draw):
    """OCEL documents as ``Members`` trees, maybe faulty, maybe with one key repeated.

    The repeat lands at one of eight levels: the top level, the global log,
    the objects, the first object, its ovmap, the events, the first event or
    its vmap. The repeated value may differ from the first.
    """
    faulty = draw(st.booleans())

    def pick(valid, invalid=()):
        """A valid choice, or in a faulty document now and then an invalid one."""
        broken = faulty and invalid and draw(st.sampled_from([False] * 7 + [True]))
        return draw(st.sampled_from(list(invalid if broken else valid)))

    object_ids = draw(st.lists(st.sampled_from(["o1", "o2", "o3"]), max_size=3, unique=True))
    objects = Members(
        (object_id, body(
            ("ocel:type", pick(["A", "B"], ["", 3, MISSING])),
            ("ocel:ovmap", draw(st.one_of(st.just(Members()), small_containers))),
        ))
        for object_id in object_ids
    )
    events = Members()
    for event_id in draw(st.lists(st.sampled_from(["e1", "e2", "e3"]), max_size=3, unique=True)):
        omap = draw(st.lists(st.sampled_from(object_ids), min_size=1, max_size=2, unique=True)) \
            if object_ids else ["o1"]
        names = draw(st.lists(st.sampled_from(["x", "y"]), max_size=2, unique=True))
        valid = {"x": [1.5, 2, -0.0, None], "y": ["a", ":", True, None]}
        vmap = Members(
            (name, draw(attribute_values) if pick([False], [True]) else pick(valid[name]))
            for name in names
        )
        events.append((event_id, body(
            ("ocel:activity", pick(["a", "b"], ["", 5, MISSING])),
            ("ocel:timestamp", pick(
                ["2023-01-01T00:00:00Z", "2023-01-01T01:00:00.5+01:00", "2023-01-01T00:00:00.1239Z"],
                ["bad", 7, "0001-01-01T00:30:00+01:00", MISSING],
            )),
            ("ocel:omap", pick([omap], [[], ["zz"], [1], [omap[0], omap[0]], "o1", MISSING])),
            ("ocel:vmap", pick([vmap, MISSING], ["v", None])),
            ("extra", draw(st.one_of(st.just(MISSING), small_containers))),
        )))
    global_log = body(
        ("ocel:object-types", pick([["A"], ["A", "B"], []], ["A", [1], MISSING])),
        ("ocel:attribute-names", pick([["x"], ["x", "y"]], [{"x": 1}, MISSING])),
    )
    top = body(
        ("ocel:global-log", pick([global_log], [[], global_log])),
        ("ocel:events", pick([events], [[events]])),
        ("ocel:objects", pick([objects], ["o", MISSING])),
        ("ocel:version", pick([MISSING, "1.0"], [Members([("k", [Members([("j", 1)])])])])),
        ("surprise", pick([MISSING], [Members([("k", 1)])])),
    )
    levels = [top, global_log, objects, objects[0][1] if objects else None]
    levels.append(dict(objects[0][1]).get("ocel:ovmap") if objects else None)
    levels.append(events)
    levels.append(events[0][1] if events else None)
    levels.append(dict(events[0][1]).get("ocel:vmap") if events else None)
    level = draw(st.one_of(st.none(), st.integers(0, 7)))
    node = levels[level] if level is not None else None
    if isinstance(node, Members):
        key = node[0][0] if node else "k"
        node.extend([(key, draw(attribute_values))] * (1 if node else 2))
    text = render(top, draw(json_layouts))
    if draw(st.sampled_from([False] * 3 + [True])):
        text = text[: draw(st.integers(0, len(text)))] + draw(st.sampled_from(["", "}", ",]"]))
    return text


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the log or the error's type and message; the warnings."""
    handler = _Messages()
    logger.addHandler(handler)
    try:
        result = parse(text)
    except Exception as error:  # compared with whatever the oracle raises
        result = type(error), str(error)
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


class TestHookFreeParse:
    @settings(deadline=None, max_examples=300)
    @given(ocel_documents())
    def test_matches_the_hook_checked_parser(self, text):
        assert outcome(parse_ocel_json, text) == outcome(reference_parse_ocel_json, text)

    def test_matches_on_a_benchmark_log(self):
        from ocelad.generator import benchmark_config, generate
        from ocelad.injection import inject_all, plan_injection

        clean = generate(benchmark_config(n_orders=40, seed=11))
        log, _ = inject_all(clean, plan_injection(len(clean.ids), 0.1, 12))
        data = write_ocel_json(log)
        assert parse_ocel_json(data) == reference_parse_ocel_json(data) == log

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"ocel:events": {"e1": {"a": 1, "a": 2}}, "x": NaN}', DuplicateIdError),
            ('{"a": 1, "a": 2, "b": NaN}', MalformedDocumentError),
            ('{"x": {"k": 1, "k": 1}, "y": [}', DuplicateIdError),
            (
                '{"ocel:objects": {"o1": {"ocel:type": "A", "x": {"k": [{"j": 1, "j": 2}]}}}}',
                DuplicateIdError,
            ),
        ],
    )
    def test_first_error_in_decode_order(self, text, error):
        with pytest.raises(error):
            parse_ocel_json(text)
        assert outcome(parse_ocel_json, text) == outcome(reference_parse_ocel_json, text)

    @pytest.mark.parametrize(
        "where",
        ["vmap value", "vmap list", "event key", "ovmap", "object key", "top key", "global-log"],
    )
    @pytest.mark.parametrize("repeat", [False, True])
    def test_objects_where_none_is_expected(self, where, repeat):
        # Their members count too: without a repeated key the document is
        # read as before, with one it is rejected.
        nested = '{"k": 1, "k": 2}' if repeat else '{"k": 1, "j": {"i": [2]}}'
        event = (
            '{"ocel:activity": "a", "ocel:timestamp": "2023-01-01T00:00:00Z", "ocel:omap": ["o1"]'
        )
        vmap = {"vmap value": nested, "vmap list": f"[{nested}]"}.get(where, "1.5")
        text = (
            '{"ocel:global-log": {"ocel:attribute-names": ["x"]'
            + (f', "g": {nested}' if where == "global-log" else "") + "}, "
            + '"ocel:events": {"e1": ' + event + f', "ocel:vmap": {{"x": {vmap}}}'
            + (f', "extra": {nested}' if where == "event key" else "") + "}}, "
            + '"ocel:objects": {"o1": {"ocel:type": "A", "ocel:ovmap": '
            + (nested if where == "ovmap" else "{}")
            + (f', "extra": [{nested}]' if where == "object key" else "") + "}}"
            + (f', "surprise": {nested}' if where == "top key" else "") + "}"
        )
        assert outcome(parse_ocel_json, text) == outcome(reference_parse_ocel_json, text)
        if repeat:
            with pytest.raises(DuplicateIdError):
                parse_ocel_json(text)

    def test_hook_runs_only_on_rejected_input(self, monkeypatch):
        calls = []
        hook = _unique_keys
        monkeypatch.setattr(ocel, "_unique_keys", lambda pairs: calls.append(pairs) or hook(pairs))
        parse_ocel_json(golden_log_bytes())
        assert calls == []
        with pytest.raises(DuplicateIdError):
            parse_ocel_json('{"ocel:objects": {"o1": {"ocel:type": "A"}, "o1": {}}}')
        assert calls

    def test_strict_decode_only_on_rejected_input(self, monkeypatch):
        calls = []
        strict = loads_unique
        monkeypatch.setattr(
            ocel, "loads_unique", lambda *args: calls.append(args) or strict(*args)
        )
        parse_ocel_json(golden_log_bytes())
        assert calls == []
        event = '"ocel:timestamp": "2023-01-01T00:00:00Z", "ocel:omap": ["o1"]'
        objects = '"ocel:objects": {"o1": {"ocel:type": "A"}}'
        for text, error in [
            ('{"ocel:objects": {"o1": {"ocel:type": "A"}, "o1": {}}}', DuplicateIdError),
            ('{"ocel:events": {"e1": {' + event + "}}, " + objects + "}", MissingFieldError),
            ('{"ocel:events": {"e1": {' + event + "}, " + objects + "}", MalformedDocumentError),
        ]:
            calls.clear()
            with pytest.raises(error):
                parse_ocel_json(text)
            assert calls == [(text, ocel._reject_constant)]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("data", [golden_log_bytes(), b'{"a": 1, "a": 2}', b"{"])
    def test_collector_state_unchanged(self, enabled, data):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                parse_ocel_json(data)
            except OcelError:
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_paused_over_the_decode_and_the_columns(self, monkeypatch):
        states = []
        build = ocel._build_log
        monkeypatch.setattr(
            ocel, "_build_log", lambda *args: states.append(gc.isenabled()) or build(*args)
        )
        was = gc.isenabled()
        gc.enable()
        try:
            parse_ocel_json(golden_log_bytes())
            assert states == [False] and gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()


class TestEventView:
    def test_len_builds_no_event(self, golden_log, monkeypatch):
        monkeypatch.setattr(ocel, "Event", lambda *args: pytest.fail("built an Event"))
        assert len(golden_log.events) == 8

    @settings(deadline=None)
    @given(logs(), st.data())
    def test_matches_the_rebuilt_tuple(self, log, data):
        events, expected = log.events, reference_events(log)
        assert tuple(events) == expected and events == expected
        assert [events[i] for i in range(len(expected))] == list(expected)
        n = len(expected)
        if n:
            i = data.draw(st.integers(-n, n - 1))
            assert events[i] == expected[i]
        bounds = st.one_of(st.none(), st.integers(-n - 2, n + 2))
        steps = st.sampled_from([None, 1, 2, -1, -3])
        window = slice(data.draw(bounds), data.draw(bounds), data.draw(steps))
        assert events[window] == expected[window]
        with pytest.raises(IndexError):
            events[n]
        with pytest.raises(IndexError):
            events[-n - 1]
