"""Trace edges and process-instance reconstruction."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocelad.generator import GenConfig, generate
from ocelad.instances import _component_roots, _sorted_unique, build_instances
from ocelad.numerics import make_rng

from conftest import bfs_components, make_log, oracle_edges, oracle_traces, random_log

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


def object_edges(log, object_id):
    """Event-id edges whose two events both reference ``object_id``."""
    refs = [object_id in event.object_refs for event in log.events]
    return id_edges(log, [(u, v) for u, v in build_instances(log).edges if refs[u] and refs[v]])


def reference_build_instances(log):
    """Edges and node sets from arrays gathered one event at a time, deduplicated by np.unique."""
    events = log.events
    n = len(events)
    ids = np.array([event.event_id for event in events], dtype=object)
    stamps = np.array([event.timestamp for event in events], dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((ids, stamps))] = np.arange(n)
    object_index = {entry.object_id: i for i, entry in enumerate(log.objects)}
    members = np.repeat(np.arange(n), [len(event.object_refs) for event in events])
    objects = np.fromiter(
        (object_index[ref] for event in events for ref in event.object_refs),
        dtype=np.int64,
        count=members.size,
    )
    order = np.lexsort((rank[members], objects))
    objects, members = objects[order], members[order]
    same = objects[1:] == objects[:-1]
    keys = np.unique(members[:-1][same] * n + members[1:][same])
    edges = np.stack(np.divmod(keys, n), axis=1)
    roots = _component_roots(n, edges)
    nodes = [frozenset(np.flatnonzero(roots == root).tolist()) for root in np.unique(roots)]
    return edges, nodes


@st.composite
def small_logs(draw):
    """Logs with timestamp ties, multi-object events, unused objects, awkward ids."""
    n_objects = draw(st.integers(1, 5))
    ids = draw(st.lists(st.text(max_size=3), max_size=10, unique=True))
    rows = []
    for event_id in ids:
        refs = draw(st.sets(st.integers(0, n_objects - 1), min_size=1, max_size=3))
        rows.append((event_id, "a", draw(st.integers(0, 3)), [f"o{r}" for r in refs], {}))
    return make_log(rows, {f"o{i}": "T" for i in range(n_objects)})


class TestTraces:
    def test_golden_a1(self, golden_log):
        assert object_edges(golden_log, "a1") == {("e1", "e4"), ("e4", "e7")}

    def test_golden_b2(self, golden_log):
        assert object_edges(golden_log, "b2") == {("e2", "e3"), ("e3", "e6")}

    def test_singleton_trace(self):
        log = make_log(
            [("e1", "a", 0, ["o1"], {}), ("e2", "b", 1, ["o2"], {})],
            {"o1": "T", "o2": "T"},
        )
        assert build_instances(log).edges.shape == (0, 2)

    def test_object_with_no_events_gets_empty_trace(self):
        log = make_log([("e1", "a", 0, ["o1"], {})], {"o1": "T", "lonely": "T"})
        result = build_instances(log)
        assert result.edges.shape == (0, 2)
        assert [inst.node_indices for inst in result.instances] == [frozenset({0})]

    def test_timestamp_tie_broken_by_event_id(self):
        log = make_log(
            [("b_event", "a", 5, ["o1"], {}), ("a_event", "a", 5, ["o1"], {})],
            {"o1": "T"},
        )
        assert id_edges(log, build_instances(log).edges) == {("a_event", "b_event")}


class TestEdges:
    def test_golden_edge_set(self, golden_log):
        edges = build_instances(golden_log).edges
        assert edges.dtype == np.int64 and edges.shape == (len(GOLDEN_EDGES), 2)
        assert edges.tolist() == sorted(edges.tolist())
        assert id_edges(golden_log, edges) == GOLDEN_EDGES

    def test_two_event_trace(self):
        log = make_log([("x", "a", 0, ["o1"], {}), ("y", "b", 1, ["o1"], {})], {"o1": "T"})
        assert id_edges(log, build_instances(log).edges) == {("x", "y")}

    def test_shared_consecutive_pair_merged(self, golden_log):
        # a1 and a3 both contain the consecutive pair (e4, e7).
        traces = oracle_traces(golden_log)
        a1, a3 = traces["a1"], traces["a3"]
        assert (a1[1], a1[2]) == (a3[0], a3[1])
        edges = build_instances(golden_log).edges.tolist()
        assert edges.count([a1[1], a1[2]]) == 1


class TestInstances:
    def test_golden_partition(self, golden_log):
        result = build_instances(golden_log)
        parts = {frozenset(id_set(golden_log, inst.node_indices)) for inst in result.instances}
        assert parts == {
            frozenset({"e1", "e4", "e7", "e8"}),
            frozenset({"e2", "e3", "e5", "e6"}),
        }

    def test_instance_edges_stay_within_nodes(self, golden_log):
        result = build_instances(golden_log)
        home = {i: inst for inst in result.instances for i in inst.node_indices}
        for u, v in result.edges.tolist():
            assert home[u] is home[v]

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
            for u, v in build_instances(log).edges.tolist():
                assert log.events[u].timestamp <= log.events[v].timestamp

    @settings(deadline=None, max_examples=300)
    @given(log=small_logs())
    @example(log=make_log([], {"o1": "T"}))
    @example(log=make_log([("a\x00", "a", 0, ["o1"], {}), ("a", "a", 0, ["o1"], {})], {"o1": "T"}))
    def test_matches_oracle_and_bfs(self, log):
        result = build_instances(log)
        assert result.edges.dtype == np.int64 and result.edges.shape[1] == 2
        assert result.edges.tolist() == [list(edge) for edge in sorted(oracle_edges(log))]
        expected = bfs_components(len(log.events), oracle_edges(log))
        assert [inst.node_indices for inst in result.instances] == sorted(expected, key=min)

    @settings(deadline=None, max_examples=200)
    @given(log=small_logs())
    @example(log=make_log([("a\x00", "a", 0, ["o1"], {}), ("a", "a", 0, ["o1", "o0"], {}),
                           ("\x00", "a", 0, ["o0"], {})], {"o1": "T", "o0": "T"}))
    def test_matches_per_event_gathers(self, log):
        edges, nodes = reference_build_instances(log)
        result = build_instances(log)
        assert result.edges.tobytes() == edges.tobytes() and result.edges.shape == edges.shape
        assert [inst.node_indices for inst in result.instances] == nodes

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
        first, second = build_instances(golden_log), build_instances(golden_log)
        np.testing.assert_array_equal(first.edges, second.edges)
        assert first.instances == second.instances


class TestSortedUnique:
    @settings(deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40), st.integers(0, 40))
    @example([], 0)
    @example([7], 5)
    def test_matches_np_unique(self, values, repeats):
        # Appending copies of one key makes all-equal and heavily repeated inputs.
        keys = np.array(values + values[:1] * repeats, dtype=np.int64)
        expected = np.unique(keys)
        found = _sorted_unique(keys)
        assert found.dtype == expected.dtype and found.tolist() == expected.tolist()

    def test_all_equal(self):
        assert _sorted_unique(np.full(5, 3, dtype=np.int64)).tolist() == [3]
