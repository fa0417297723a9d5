"""Parser, writer, and assembly checks for the log model."""

import json
import logging
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocelad.ocel import (
    AttributeKind,
    DanglingObjectRefError,
    DuplicateIdError,
    Event,
    InconsistentAttributeKindError,
    InvalidTimestampError,
    MalformedDocumentError,
    MissingFieldError,
    ObjectCentricLog,
    ObjectEntry,
    UnsupportedAttributeValueError,
    assemble_log,
    format_timestamps,
    parse_ocel_json,
    parse_timestamp,
    write_ocel_json,
)

from conftest import AWKWARD_CHARACTERS, assert_logs_equal, golden_log_bytes, make_log


FIRST_MILLIS = -62_135_596_800_000  # 0001-01-01T00:00:00.000
LAST_MILLIS = 253_402_300_799_999  # 9999-12-31T23:59:59.999


def reference_format_timestamp(millis):
    """Timestamp formatting through ``datetime``, one value at a time."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    return (epoch + timedelta(milliseconds=int(millis))).isoformat(timespec="milliseconds")


def reference_document(log):
    """The OCEL document ``write_ocel_json`` lays out, as ``json.dumps(indent=2)`` would."""
    return {
        "ocel:global-log": {
            "ocel:object-types": sorted(log.object_types),
            "ocel:attribute-names": sorted(log.schema),
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
        assert dict(log.schema) == {}

    def test_golden_counts(self, golden_log):
        assert len(golden_log.events) == 8
        assert len(golden_log.objects) == 6
        assert golden_log.object_types == frozenset({"A", "B"})
        assert golden_log.activities == frozenset({f"act{i}" for i in range(1, 6)})
        assert dict(golden_log.schema) == {
            "Attr1": AttributeKind.NUMERIC,
            "Attr2": AttributeKind.NUMERIC,
        }

    def test_events_retain_file_order(self, golden_log):
        assert [e.event_id for e in golden_log.events] == [f"e{i}" for i in range(1, 9)]

    def test_not_json(self):
        with pytest.raises(MalformedDocumentError):
            parse_ocel_json(b"this is not json")

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
        assert log.schema["flag"] is AttributeKind.CATEGORICAL

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
        assert log.schema["ghost"] is AttributeKind.CATEGORICAL

    def test_unknown_top_level_key_warns(self, caplog):
        doc = doc_with(objects={"o1": {"ocel:type": "A"}})
        doc["surprise"] = 1
        with caplog.at_level(logging.WARNING, logger="ocelad.ocel"):
            parse_ocel_json(json.dumps(doc).encode())
        assert any("surprise" in record.message for record in caplog.records)

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
        log = make_log([("e1", "a", millis, ["o1"], {})], {"o1": "T"})
        with pytest.raises(OverflowError):
            write_ocel_json(log)


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
        assert again.schema["price"] is AttributeKind.NUMERIC
        assert again.schema["color"] is AttributeKind.CATEGORICAL

    def test_write_deterministic(self, golden_log):
        assert write_ocel_json(golden_log) == write_ocel_json(golden_log)

    @pytest.mark.parametrize(
        "value", [True, None, [], {}, [1, "é", {"k": [None, -0.0]}], {"k": {"j": 2}}]
    )
    def test_write_matches_stdlib_layout_for_other_values(self, value):
        # The log model admits these, though the reader rejects them.
        log = make_log([("e1", "a", 0, ["o1"], {"v": value})], {"o1": "T"})
        expected = json.dumps(reference_document(log), indent=2, ensure_ascii=False)
        assert write_ocel_json(log) == expected.encode()

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
            assemble_log(golden_log.events + (golden_log.events[0],), golden_log.objects)

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
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

    def test_integer_values_coerced_to_float(self):
        log = assemble_log(
            [Event("e1", "a", 0, frozenset({"o1"}), {"x": 3})],
            [ObjectEntry("o1", "T")],
        )
        assert log.events[0].attributes["x"] == 3.0
        assert isinstance(log.events[0].attributes["x"], float)
        assert log.schema["x"] is AttributeKind.NUMERIC
