"""Injection planning, the three anomaly types, and the full harness."""

import hashlib
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocelad import injection
from ocelad.generator import benchmark_config, generate
from ocelad.injection import (
    ANOMALY_TYPES,
    ATTRIBUTE_SWAP,
    RANDOM_ACTIVITY,
    TIMESTAMP_SHIFT,
    GroundTruth,
    InjectionPlan,
    InsufficientCandidatesError,
    InvalidRateError,
    NoAttributesError,
    inject_all,
    plan_injection,
)
from ocelad.instances import build_instances, build_traces
from ocelad.ocel import DuplicateIdError, parse_ocel_json, write_ocel_json

from conftest import GOLDEN_ROWS, make_log


class TestPlan:
    def test_desk_scale_example(self):
        plan = plan_injection(2000, rate=0.10)
        assert plan.attr_swap == plan.timestamp_shift == plan.random_activity == 69
        assert plan.total == 207
        assert 2000 + plan.random_activity == 2069

    def test_order_management_benchmark_row(self):
        # 22 367 original events at 10%: one new event per random activity
        # puts the final log at ~23 137 with ~2 310 anomalies.
        plan = plan_injection(22_367, rate=0.10)
        final = 22_367 + plan.random_activity
        assert abs(final - 23_137) <= 5
        assert abs(plan.total - 2_310) <= 5

    def test_loan_application_benchmark_row(self):
        plan = plan_injection(393_931, rate=0.10)
        final = 393_931 + plan.random_activity
        assert abs(final - 407_499) / 407_499 <= 0.002
        assert abs(plan.total - 40_704) / 40_704 <= 0.002

    def test_rate_zero_plans_nothing(self):
        plan = plan_injection(1000, rate=0.0)
        assert plan.total == 0

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_invalid_rate(self, rate):
        with pytest.raises(InvalidRateError):
            plan_injection(1000, rate=rate)

    def test_too_small_log(self):
        with pytest.raises(InvalidRateError):
            plan_injection(29, rate=0.10)

    def test_contamination_lands_near_rate(self):
        for n in (500, 2000, 50_000):
            plan = plan_injection(n, rate=0.10)
            contamination = plan.total / (n + plan.random_activity)
            assert abs(contamination - 0.10) < 0.005


def reference_swap_source(attr_matrix, target, event_ids):
    """The farthest-peer scan the batched search replaced: one pass over all events per target."""
    deltas = attr_matrix - attr_matrix[target]
    distances = np.sqrt(np.sum(deltas * deltas, axis=1))
    distances[target] = -np.inf
    best = float(distances.max())
    tied = np.flatnonzero(distances == best)
    source = min(tied, key=lambda i: event_ids[i])
    return int(source), best


@st.composite
def attribute_matrices(draw):
    """Encoded-attribute matrices with repeated rows, as a column view like the real one.

    Nine or more columns make numpy's pairwise row sum differ from a
    sequential one; a pool of one row makes every row identical.
    """
    n = draw(st.integers(2, 30))
    k = draw(st.integers(9, 16))
    cells = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 1 / 3, 0.7]), st.floats(0.0, 1.0))
    pool = draw(st.lists(arrays(np.float64, k, elements=cells), min_size=1, max_size=n))
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    features = np.zeros((n, k + 3))
    features[:, 3:] = rows
    return features[:, 3:]


def swap_fixture_log():
    return make_log(
        [
            ("e1", "a", 0, ["o1"], {"x": 0.0, "y": 0.0}),
            ("e2", "a", 1, ["o1"], {"x": 1.0, "y": 0.0}),
            ("e3", "a", 2, ["o1"], {"x": 5.0, "y": 5.0}),
            ("e4", "a", 3, ["o1"], {"x": 2.0, "y": 1.0}),
            ("e5", "a", 4, ["o1"], {"x": 0.5, "y": 0.5}),
        ],
        {"o1": "T"},
    )


def single_type_plan(seed=0, attr_swap=0, timestamp_shift=0, random_activity=0):
    return InjectionPlan(
        rate=0.1,
        attr_swap=attr_swap,
        timestamp_shift=timestamp_shift,
        random_activity=random_activity,
        seed=seed,
    )


def swap_every_event(log):
    """Swap all events: each takes its farthest peer's attributes, whatever the order."""
    contaminated, _ = inject_all(log, single_type_plan(attr_swap=len(log.events)))
    return contaminated


def labelled(truth, label):
    return [event_id for event_id, value in truth.labels.items() if value == label]


class TestAttributeSwap:
    def test_golden_target_takes_farthest_attributes(self, golden_log):
        # Verify against an in-test oracle on the min-max scaled attributes.
        values1 = [row[4] for row in GOLDEN_ROWS]
        values2 = [row[5] for row in GOLDEN_ROWS]
        lo1, hi1 = min(values1), max(values1)
        lo2, hi2 = min(values2), max(values2)
        target = 0
        best_j, best_d = None, -1.0
        for j in range(1, 8):
            d1 = (values1[j] - values1[target]) / (hi1 - lo1)
            d2 = (values2[j] - values2[target]) / (hi2 - lo2)
            distance = (d1**2 + d2**2) ** 0.5
            if distance > best_d:
                best_j, best_d = j, distance
        assert best_j == 4  # e5 maximizes the scaled distance from e1
        mutated = swap_every_event(golden_log)
        assert mutated.events[0].attributes == golden_log.events[4].attributes

    def test_five_event_log_matches_scan_oracle(self):
        log = swap_fixture_log()
        mutated = swap_every_event(log)
        # Oracle: scaled coordinates x/5, y/5; distance from e1=(0,0) is
        # maximal for e3=(1,1).
        assert mutated.events[0].attributes == log.events[2].attributes

    def test_event_id_breaks_distance_ties(self):
        # "zz" and "aa" lie at the same scaled distance 1 from "t"; the
        # smaller id wins although "zz" comes first in the log.
        log = make_log(
            [
                ("t", "a", 0, ["o1"], {"x": 0.0, "y": 0.0}),
                ("zz", "a", 1, ["o1"], {"x": 1.0, "y": 0.0}),
                ("aa", "a", 2, ["o1"], {"x": 0.0, "y": 1.0}),
            ],
            {"o1": "T"},
        )
        mutated = swap_every_event(log)
        assert mutated.events[0].attributes == log.events[2].attributes

    def test_only_attributes_change(self):
        log = swap_fixture_log()
        for seed in range(10):
            mutated, truth = inject_all(log, single_type_plan(seed, attr_swap=1))
            (target_id,) = labelled(truth, ATTRIBUTE_SWAP)
            for original, swapped in zip(log.events, mutated.events):
                if swapped.event_id != target_id:
                    assert swapped == original
                    continue
                assert swapped.activity == original.activity
                assert swapped.timestamp == original.timestamp
                assert swapped.object_refs == original.object_refs
                assert swapped.attributes != original.attributes

    def test_identical_attributes_rejected(self):
        log = make_log(
            [
                ("e1", "a", 0, ["o1"], {"x": 1.0}),
                ("e2", "a", 1, ["o1"], {"x": 1.0}),
            ],
            {"o1": "T"},
        )
        with pytest.raises(InsufficientCandidatesError):
            inject_all(log, single_type_plan(attr_swap=1))

    def test_no_attributes(self):
        log = make_log(
            [("e1", "a", 0, ["o1"], {}), ("e2", "a", 1, ["o1"], {})], {"o1": "T"}
        )
        with pytest.raises(NoAttributesError):
            inject_all(log, single_type_plan(attr_swap=1))

    @settings(deadline=None)
    @given(attribute_matrices(), st.data())
    def test_batched_search_matches_full_scan(self, matrix, data):
        n = matrix.shape[0]
        event_ids = tuple(data.draw(st.permutations([f"id{i:02d}" for i in range(n)])))
        targets = np.array(data.draw(st.permutations(range(n))))
        # Blocks of one row, of a few rows, and the real size (one block here).
        block = data.draw(st.sampled_from([1, 3 * n, injection._GRAM_BLOCK_ELEMENTS]))
        with patch.object(injection, "_GRAM_BLOCK_ELEMENTS", block):
            found = list(injection._farthest_peers(matrix, targets, event_ids))
        expected = [(t, *reference_swap_source(matrix, t, event_ids)) for t in targets.tolist()]
        assert found == expected

    def test_all_identical_rows_rejected(self):
        attrs = {f"n{i}": 0.5 for i in range(5)} | {f"c{i}": "v" for i in range(4)}
        log = make_log(
            [(f"e{i:02d}", "a", i, ["o1"], attrs) for i in range(30)], {"o1": "T"}
        )
        with pytest.raises(InsufficientCandidatesError):
            inject_all(log, single_type_plan(attr_swap=1))


def shifted(log, seed):
    """(index, new timestamp) of the one event a single-shift plan moves."""
    mutated, truth = inject_all(log, single_type_plan(seed, timestamp_shift=1))
    (target_id,) = labelled(truth, TIMESTAMP_SHIFT)
    index = next(i for i, e in enumerate(mutated.events) if e.event_id == target_id)
    return index, mutated.events[index].timestamp


class TestTimestampShift:
    def shift_log(self):
        return make_log(
            [
                ("a", "act", 100, ["o1"], {}),
                ("target", "act", 200, ["o1"], {}),
                ("c", "act", 300, ["o1"], {}),
            ],
            {"o1": "T"},
        )

    def test_sample_within_extended_window(self):
        log = self.shift_log()
        outside = 0
        for seed in range(200):
            index, drawn = shifted(log, seed)
            related = [e.timestamp for i, e in enumerate(log.events) if i != index]
            low, high = min(related), max(related)
            margin = 0.05 * (high - low)
            assert low - margin <= drawn <= high + margin
            assert drawn != log.events[index].timestamp
            outside += drawn < low or drawn > high
        assert outside > 0

    def test_degenerate_span_single_related_event(self):
        # "a" and "c" each share an object with "b" only, so their related
        # events span no time; "b" is the only event that can be shifted.
        log = make_log(
            [
                ("a", "act", 100, ["o1"], {}),
                ("b", "act", 200, ["o1", "o2"], {}),
                ("c", "act", 300, ["o2"], {}),
            ],
            {"o1": "T", "o2": "T"},
        )
        assert {shifted(log, seed)[0] for seed in range(20)} == {1}

    def test_no_related_events(self):
        log = make_log(
            [("a", "act", 100, ["o1"], {}), ("target", "act", 200, ["o2"], {})],
            {"o1": "T", "o2": "T"},
        )
        with pytest.raises(InsufficientCandidatesError):
            inject_all(log, single_type_plan(timestamp_shift=1))

    def test_trace_order_changes_with_positive_probability(self):
        log = self.shift_log()
        original_order = build_traces(log)["o1"].event_indices
        changes = 0
        for seed in range(100):
            mutated, _ = inject_all(log, single_type_plan(seed, timestamp_shift=1))
            if build_traces(mutated)["o1"].event_indices != original_order:
                changes += 1
        assert changes >= 1


def with_random_activity(log, seed):
    """The log with one random-activity event appended, and that event."""
    mutated, truth = inject_all(log, single_type_plan(seed, random_activity=1))
    (new_id,) = labelled(truth, RANDOM_ACTIVITY)
    assert mutated.events[-1].event_id == new_id
    return mutated, mutated.events[-1]


class TestRandomActivity:
    def test_label_foreign_to_original_process(self, golden_log):
        _, new_event = with_random_activity(golden_log, 1)
        assert new_event.activity not in golden_log.activities
        assert new_event.activity == "anomalous_act_1"

    def test_lands_in_anchor_instance(self, golden_log):
        for seed in range(100):
            mutated, _ = with_random_activity(golden_log, seed)
            instances = build_instances(mutated)
            index = len(mutated.events) - 1
            home = next(
                inst for inst in instances.instances if index in inst.node_indices
            )
            assert len(home.node_indices) > 1
            shared = [
                i
                for i in home.node_indices
                if i != index
                and mutated.events[i].object_refs & mutated.events[index].object_refs
            ]
            assert shared

    def test_single_event_log(self):
        log = make_log([("only", "act", 50, ["o1"], {"x": 3.0})], {"o1": "T"})
        _, new_event = with_random_activity(log, 7)
        assert new_event.event_id == "injected_1"
        assert new_event.object_refs == log.events[0].object_refs
        assert dict(new_event.attributes) == {"x": 3.0}
        assert new_event.timestamp == 50

    def test_attributes_come_from_related_pool(self, golden_log):
        for seed in range(30):
            _, new_event = with_random_activity(golden_log, seed)
            pool_attrs = [
                dict(e.attributes)
                for e in golden_log.events
                if e.object_refs & new_event.object_refs
            ]
            assert dict(new_event.attributes) in pool_attrs


def thirty_event_log(distinct_attrs=True, shared_object=True):
    rows = []
    for i in range(34):
        attrs = {"x": float(i) if distinct_attrs else 1.0}
        refs = ["hub"] if shared_object else [f"o{i}"]
        rows.append((f"e{i:02d}", "act", i * 10, refs, attrs))
    objects = (
        {"hub": "T"} if shared_object else {f"o{i}": "T" for i in range(34)}
    )
    return make_log(rows, objects)


class TestInjectAll:
    def test_zero_plan_is_identity(self, golden_log):
        plan = InjectionPlan(rate=0.0, attr_swap=0, timestamp_shift=0, random_activity=0, seed=1)
        log, truth = inject_all(golden_log, plan)
        assert log == golden_log
        assert set(truth.labels.values()) == {"normal"}

    def test_counts_exact_and_disjoint(self):
        log = thirty_event_log()
        plan = InjectionPlan(rate=0.1, attr_swap=3, timestamp_shift=3, random_activity=3, seed=5)
        contaminated, truth = inject_all(log, plan)
        counts = truth.counts()
        assert counts == {ATTRIBUTE_SWAP: 3, TIMESTAMP_SHIFT: 3, RANDOM_ACTIVITY: 3}
        assert len(contaminated.events) == len(log.events) + 3
        assert len(truth.labels) == len(contaminated.events)

    def test_contaminated_log_valid(self):
        log = thirty_event_log()
        plan = InjectionPlan(rate=0.1, attr_swap=3, timestamp_shift=3, random_activity=3, seed=5)
        contaminated, _ = inject_all(log, plan)
        assert parse_ocel_json(write_ocel_json(contaminated)) == contaminated

    def test_deterministic(self):
        log = thirty_event_log()
        plan = InjectionPlan(rate=0.1, attr_swap=4, timestamp_shift=4, random_activity=4, seed=9)
        first = inject_all(log, plan)
        second = inject_all(log, plan)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_shared_fresh_label(self):
        log = thirty_event_log()
        plan = InjectionPlan(rate=0.1, attr_swap=0, timestamp_shift=0, random_activity=5, seed=2)
        contaminated, truth = inject_all(log, plan)
        injected = [
            e.activity
            for e in contaminated.events
            if truth.labels[e.event_id] == RANDOM_ACTIVITY
        ]
        assert len(injected) == 5
        assert set(injected) == {"anomalous_act_1"}

    def test_injected_ids_fresh(self):
        log = thirty_event_log()
        plan = InjectionPlan(rate=0.1, attr_swap=0, timestamp_shift=0, random_activity=4, seed=2)
        contaminated, truth = inject_all(log, plan)
        original_ids = {e.event_id for e in log.events}
        for event_id, label in truth.labels.items():
            if label == RANDOM_ACTIVITY:
                assert event_id not in original_ids

    def test_insufficient_swap_candidates(self):
        log = thirty_event_log(distinct_attrs=False)
        plan = InjectionPlan(rate=0.1, attr_swap=2, timestamp_shift=0, random_activity=0, seed=1)
        with pytest.raises(InsufficientCandidatesError):
            inject_all(log, plan)

    def test_insufficient_shift_candidates(self):
        log = thirty_event_log(shared_object=False)
        plan = InjectionPlan(rate=0.1, attr_swap=0, timestamp_shift=2, random_activity=0, seed=1)
        with pytest.raises(InsufficientCandidatesError):
            inject_all(log, plan)

    def test_original_event_count_preserved_by_mutating_types(self):
        log = thirty_event_log()
        plan = InjectionPlan(rate=0.1, attr_swap=5, timestamp_shift=5, random_activity=0, seed=3)
        contaminated, _ = inject_all(log, plan)
        assert len(contaminated.events) == len(log.events)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(6, 16), st.integers(0, 2**16), st.floats(0.01, 0.3))
    def test_invariants_on_generated_logs(self, n_orders, seed, rate):
        log = generate(benchmark_config(n_orders=n_orders, seed=seed))
        plan = plan_injection(len(log.events), rate, seed)
        contaminated, truth = inject_all(log, plan)
        count = plan.attr_swap
        assert truth.counts() == dict.fromkeys(ANOMALY_TYPES, count)
        assert len(contaminated.events) == len(log.events) + count
        assert sum(label != "normal" for label in truth.labels.values()) == 3 * count
        # Disjoint targets: each original event changed in at most the one
        # field its label names; only random activities are new events.
        originals = {event.event_id: event for event in log.events}
        for event in contaminated.events:
            label = truth.labels[event.event_id]
            original = originals.get(event.event_id)
            if label == RANDOM_ACTIVITY:
                assert original is None
                continue
            if label == ATTRIBUTE_SWAP:
                assert event.attributes != original.attributes
                assert event == replace(original, attributes=event.attributes)
            elif label == TIMESTAMP_SHIFT:
                assert event.timestamp != original.timestamp
                assert event == replace(original, timestamp=event.timestamp)
            else:
                assert event == original


class TestPinnedBytes:
    def test_detect_2k_seed_11_inputs(self):
        # The detect-2k benchmark inputs for --seed 11 (generate 11, inject
        # 12), pinned as "11-12" in bench/digests.json: any change to
        # generation, injection, the log writer or the truth CSV shows here.
        clean = generate(benchmark_config(n_orders=320, seed=11))
        log, truth = inject_all(clean, plan_injection(len(clean.events), 0.10, 12))
        log_digest = hashlib.sha256(write_ocel_json(log)).hexdigest()
        truth_digest = hashlib.sha256(truth.to_csv().encode("utf-8")).hexdigest()
        assert log_digest == "a3b111e04b606b7d05c06ff4b12ea82f4a8377b71437a0856ca414d79ba19e97"
        assert truth_digest == "34ee1dc5a686263bc6f3806df094c4997e614a271a3553695d06a30b6f60d7e9"


class TestGroundTruth:
    def test_csv_round_trip(self):
        truth = GroundTruth(
            labels={"a,b": ATTRIBUTE_SWAP, 'q"x': "normal", "c\rd": TIMESTAMP_SHIFT,
                    "e2": ATTRIBUTE_SWAP, "x9": RANDOM_ACTIVITY}
        )
        text = truth.to_csv()
        assert text.endswith("\ne2,attr_swap\nx9,random_activity\n")
        again = GroundTruth.from_csv(text)
        assert again == truth

    def test_csv_repeated_event_id_rejected(self):
        with pytest.raises(DuplicateIdError):
            GroundTruth.from_csv("event_id,label\na,normal\na,attr_swap\n")

    def test_csv_row_without_label_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth.from_csv("event_id,label\nlonely\n")

    def test_csv_header_required(self):
        with pytest.raises(ValueError):
            GroundTruth.from_csv("wrong,header\na,b\n")

    def test_counts(self):
        truth = GroundTruth(
            labels={"a": "normal", "b": ATTRIBUTE_SWAP, "c": ATTRIBUTE_SWAP, "d": TIMESTAMP_SHIFT}
        )
        assert truth.counts() == {
            ATTRIBUTE_SWAP: 2,
            TIMESTAMP_SHIFT: 1,
            RANDOM_ACTIVITY: 0,
        }
