"""Trace building, edge derivation, and process-instance reconstruction."""

import pytest

from ocelad.generator import GenConfig, generate
from ocelad.instances import (
    Trace,
    build_edges,
    build_instances,
    build_traces,
)
from ocelad.numerics import make_rng

from conftest import bfs_components, make_log, random_log

# Expected consecutive-pair edges of the worked example, as event-id pairs.
GOLDEN_EDGES = {
    ("e1", "e4"),
    ("e4", "e7"),
    ("e4", "e8"),
    ("e2", "e3"),
    ("e2", "e5"),
    ("e3", "e6"),
    ("e5", "e6"),
}


def id_edges(log, edges):
    return {(log.events[u].event_id, log.events[v].event_id) for u, v in edges}


def id_set(log, indices):
    return {log.events[i].event_id for i in indices}


class TestTraces:
    def test_golden_a1(self, golden_log):
        traces = build_traces(golden_log)
        assert [golden_log.events[i].event_id for i in traces["a1"].event_indices] == [
            "e1",
            "e4",
            "e7",
        ]

    def test_golden_b2(self, golden_log):
        traces = build_traces(golden_log)
        assert [golden_log.events[i].event_id for i in traces["b2"].event_indices] == [
            "e2",
            "e3",
            "e6",
        ]

    def test_singleton_trace(self):
        log = make_log(
            [("e1", "a", 0, ["o1"], {}), ("e2", "b", 1, ["o2"], {})],
            {"o1": "T", "o2": "T"},
        )
        traces = build_traces(log)
        assert traces["o2"].event_indices == (1,)

    def test_object_with_no_events_gets_empty_trace(self):
        log = make_log([("e1", "a", 0, ["o1"], {})], {"o1": "T", "lonely": "T"})
        assert build_traces(log)["lonely"].event_indices == ()

    def test_timestamp_tie_broken_by_event_id(self):
        log = make_log(
            [("b_event", "a", 5, ["o1"], {}), ("a_event", "a", 5, ["o1"], {})],
            {"o1": "T"},
        )
        traces = build_traces(log)
        ids = [log.events[i].event_id for i in traces["o1"].event_indices]
        assert ids == ["a_event", "b_event"]


class TestEdges:
    def test_golden_edge_set(self, golden_log):
        edges = build_edges(build_traces(golden_log))
        assert id_edges(golden_log, edges) == GOLDEN_EDGES

    def test_two_event_trace(self):
        log = make_log([("x", "a", 0, ["o1"], {}), ("y", "b", 1, ["o1"], {})], {"o1": "T"})
        assert id_edges(log, build_edges(build_traces(log))) == {("x", "y")}

    def test_shared_consecutive_pair_merged(self, golden_log):
        # a1 and a3 both contain the consecutive pair (e4, e7).
        traces = build_traces(golden_log)
        a1 = traces["a1"].event_indices
        a3 = traces["a3"].event_indices
        assert (a1[1], a1[2]) == (a3[0], a3[1])
        edges = build_edges(traces)
        assert sum(1 for e in id_edges(golden_log, edges) if e == ("e4", "e7")) == 1

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            build_edges({"o": Trace(object_id="o", event_indices=(1, 1))})


class TestInstances:
    def test_golden_partition(self, golden_log):
        result = build_instances(golden_log)
        parts = {frozenset(id_set(golden_log, inst.node_indices)) for inst in result.instances}
        assert parts == {
            frozenset({"e1", "e4", "e7", "e8"}),
            frozenset({"e2", "e3", "e5", "e6"}),
        }

    def test_instance_edges_stay_within_nodes(self, golden_log):
        for inst in build_instances(golden_log).instances:
            for u, v in inst.edges:
                assert u in inst.node_indices and v in inst.node_indices

    def test_single_shared_object(self):
        rows = [(f"e{i}", "a", i, ["hub"], {}) for i in range(6)]
        log = make_log(rows, {"hub": "T"})
        result = build_instances(log)
        assert len(result.instances) == 1
        assert len(result.instances[0].node_indices) == 6

    def test_temporal_soundness(self):
        rng = make_rng(77)
        for _ in range(50):
            log = random_log(rng)
            for inst in build_instances(log).instances:
                for u, v in inst.edges:
                    assert log.events[u].timestamp <= log.events[v].timestamp

    def test_union_find_matches_bfs_on_random_logs(self):
        rng = make_rng(123)
        for _ in range(1000):
            log = random_log(rng)
            edges = build_edges(build_traces(log))
            expected = bfs_components(len(log.events), edges)
            got = {inst.node_indices for inst in build_instances(log).instances}
            assert got == expected

    def test_partition_invariant_on_generated_log(self):
        log = generate(GenConfig(n_orders=40, seed=5))
        result = build_instances(log)
        sizes = [len(inst.node_indices) for inst in result.instances]
        assert sum(sizes) == len(log.events)
        union = set()
        for inst in result.instances:
            assert not (union & inst.node_indices)
            union |= inst.node_indices

    def test_deterministic(self, golden_log):
        assert build_instances(golden_log) == build_instances(golden_log)

