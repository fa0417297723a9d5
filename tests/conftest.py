"""Shared fixtures: the worked-example log, small random logs, oracles."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ocelad.autoencoder import GcnaeModel, forward, loss
from ocelad.encoding import (
    EncodedGraph,
    FeatureGroup,
    FeatureLayout,
    GroupKind,
    SparseAdjacency,
    normalize_adjacency,
)
from ocelad.ocel import (
    Event,
    ObjectCentricLog,
    ObjectEntry,
    assemble_log,
    parse_ocel_json,
    parse_timestamp,
)

# Worked example: eight events over two object types (A: a1-a3, B: b1-b3),
# five activities, two numeric attributes. Used as the golden case across
# the parser, reconstruction, and encoding tests.
GOLDEN_ROWS = [
    ("e1", "2023-04-01T09:01:00Z", ["a1"], "act1", 0.12, 0.75),
    ("e2", "2023-04-01T09:07:00Z", ["a2", "b1", "b2"], "act1", 0.33, 0.98),
    ("e3", "2023-04-01T09:14:00Z", ["b1", "b2"], "act2", 0.24, 0.39),
    ("e4", "2023-04-01T09:22:00Z", ["a1", "a3", "b3"], "act3", 0.15, 0.67),
    ("e5", "2023-04-01T09:37:00Z", ["a2"], "act3", 0.89, 0.21),
    ("e6", "2023-04-01T09:44:00Z", ["a2", "b2"], "act4", 0.58, 0.46),
    ("e7", "2023-04-01T10:02:00Z", ["a1", "a3"], "act5", 0.73, 0.81),
    ("e8", "2023-04-01T10:09:00Z", ["b3"], "act4", 0.42, 0.34),
]
GOLDEN_OBJECTS = {f"a{i}": "A" for i in (1, 2, 3)} | {f"b{i}": "B" for i in (1, 2, 3)}


# Characters that JSON string escaping and CSV quoting must handle: commas,
# quotes, backslashes, control characters, line separators, non-ASCII and
# non-BMP characters.
AWKWARD_CHARACTERS = [
    ",", '"', "\\", "\x00", "\x1f", "\n", "\r", "\x7f", "\u2028", "é", "\U0001f600"
]


def golden_log_bytes() -> bytes:
    doc = {
        "ocel:global-log": {
            "ocel:object-types": ["A", "B"],
            "ocel:attribute-names": ["Attr1", "Attr2"],
        },
        "ocel:events": {
            event_id: {
                "ocel:activity": activity,
                "ocel:timestamp": ts,
                "ocel:omap": omap,
                "ocel:vmap": {"Attr1": attr1, "Attr2": attr2},
            }
            for event_id, ts, omap, activity, attr1, attr2 in GOLDEN_ROWS
        },
        "ocel:objects": {
            object_id: {"ocel:type": object_type, "ocel:ovmap": {}}
            for object_id, object_type in GOLDEN_OBJECTS.items()
        },
    }
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="session")
def golden_log() -> ObjectCentricLog:
    return parse_ocel_json(golden_log_bytes())


def make_log(rows, objects) -> ObjectCentricLog:
    """Compact log builder for tests.

    ``rows``: (event_id, activity, timestamp_ms_or_iso, refs, attributes);
    ``objects``: mapping object_id -> object_type.
    """
    events = []
    for event_id, activity, ts, refs, attributes in rows:
        millis = parse_timestamp(ts) if isinstance(ts, str) else int(ts)
        events.append(
            Event(
                event_id=event_id,
                activity=activity,
                timestamp=millis,
                object_refs=frozenset(refs),
                attributes=dict(attributes),
            )
        )
    entries = [ObjectEntry(object_id=o, object_type=t) for o, t in objects.items()]
    return assemble_log(events, entries)


def random_log(rng: np.random.Generator, max_events: int = 12) -> ObjectCentricLog:
    """Small random valid log for oracle comparisons."""
    n_events = int(rng.integers(1, max_events + 1))
    n_objects = int(rng.integers(1, 7))
    objects = {f"o{i}": f"T{int(rng.integers(0, 2))}" for i in range(n_objects)}
    rows = []
    for i in range(n_events):
        n_refs = int(rng.integers(1, min(3, n_objects) + 1))
        refs = list(rng.choice(sorted(objects), size=n_refs, replace=False))
        attrs = {}
        if rng.random() < 0.7:
            attrs["x"] = float(np.round(rng.random(), 3))
        if rng.random() < 0.5:
            attrs["c"] = str(rng.choice(["p", "q", "r"]))
        rows.append(
            (f"e{i:03d}", f"act{int(rng.integers(0, 4))}", int(rng.integers(0, 10_000)), refs, attrs)
        )
    return make_log(rows, objects)


def oracle_traces(log: ObjectCentricLog) -> dict[str, tuple[int, ...]]:
    """Independent trace oracle: each object's event indices by (timestamp, event id)."""
    members: dict[str, list[int]] = {o.object_id: [] for o in log.objects}
    for index, event in enumerate(log.events):
        for object_id in event.object_refs:
            members[object_id].append(index)
    for indices in members.values():
        indices.sort(key=lambda i: (log.events[i].timestamp, log.events[i].event_id))
    return {object_id: tuple(indices) for object_id, indices in members.items()}


def oracle_edges(log: ObjectCentricLog) -> set[tuple[int, int]]:
    """Directed edges between consecutive trace events, merged across traces."""
    return {pair for seq in oracle_traces(log).values() for pair in zip(seq, seq[1:])}


def bfs_components(n: int, edges: set[tuple[int, int]]) -> set[frozenset[int]]:
    """Independent component oracle: breadth-first search on the undirected view."""
    neighbors: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen: set[int] = set()
    components: set[frozenset[int]] = set()
    for start in range(n):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        component = {start}
        while queue:
            node = queue.pop()
            for other in neighbors[node]:
                if other not in seen:
                    seen.add(other)
                    component.add(other)
                    queue.append(other)
        components.add(frozenset(component))
    return components


def toy_graph(rng: np.random.Generator, n: int, k: int) -> EncodedGraph:
    """Random small encoded graph with features in [0, 1] and a one-block layout."""
    pairs = set()
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            pairs.add((u, v))
    pairs = sorted(pairs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    counts = np.bincount([u for u, _ in pairs], minlength=n)
    np.cumsum(counts, out=indptr[1:])
    indices = np.array([v for _, v in pairs], dtype=np.int64)
    adjacency = SparseAdjacency(n=n, indptr=indptr, indices=indices)
    layout = FeatureLayout(
        groups=(
            FeatureGroup(
                name="block",
                kind=GroupKind.ACTIVITY,
                start=0,
                stop=k,
                vocabulary=tuple(f"v{i}" for i in range(k)),
            ),
        ),
        n_columns=k,
    )
    return EncodedGraph(
        normalized=normalize_adjacency(adjacency),
        features=rng.random((n, k)),
        layout=layout,
        event_ids=tuple(f"e{i}" for i in range(n)),
    )


def finite_difference_gradients(graph: EncodedGraph, model: GcnaeModel, h: float = 1e-5):
    """Central-difference gradient oracle, independent of the analytic path."""
    grads = []
    for name in ("w0", "w1", "w2"):
        weights = getattr(model, name)
        grad = np.zeros_like(weights)
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                original = weights[i, j]
                weights[i, j] = original + h
                _, xhat = forward(graph, model)
                upper = loss(graph.features, xhat)
                weights[i, j] = original - h
                _, xhat = forward(graph, model)
                lower = loss(graph.features, xhat)
                weights[i, j] = original
                grad[i, j] = (upper - lower) / (2.0 * h)
        grads.append(grad)
    return tuple(grads)


def assert_logs_equal(a: ObjectCentricLog, b: ObjectCentricLog) -> None:
    """Field-by-field structural equality, independent of dataclass __eq__."""
    assert len(a.events) == len(b.events)
    for left, right in zip(a.events, b.events):
        assert left.event_id == right.event_id
        assert left.activity == right.activity
        assert left.timestamp == right.timestamp
        assert left.object_refs == right.object_refs
        assert dict(left.attributes) == dict(right.attributes)
    assert [(o.object_id, o.object_type) for o in a.objects] == [
        (o.object_id, o.object_type) for o in b.objects
    ]
    assert a.object_types == b.object_types
    assert a.activities == b.activities
    assert list(a.columns) == list(b.columns)
    assert dict(a.vocabularies) == dict(b.vocabularies)
