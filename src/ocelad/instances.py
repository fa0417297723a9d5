"""Object traces and process-instance reconstruction.

Each object induces a trace: the temporally ordered sequence of events that
reference it. Consecutive trace events yield directed edges, and the
connected components of the resulting event graph are the object-centric
process instances. Events are addressed by their index in the log's event
list throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ocel import ObjectCentricLog


@dataclass(frozen=True)
class Trace:
    """Events referencing one object, ordered by (timestamp, event id)."""

    object_id: str
    event_indices: tuple[int, ...]


@dataclass(frozen=True)
class ProcessInstance:
    """A connected directed graph of events linked by temporal dependencies."""

    node_indices: frozenset[int]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class ProcessInstanceSet:
    """All process instances of a log; node sets partition the event indices."""

    instances: tuple[ProcessInstance, ...]


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]


def build_traces(log: ObjectCentricLog) -> dict[str, Trace]:
    """One trace per object: exactly the events referencing it, time-ordered.

    Timestamp ties are broken by lexicographic event id so the order is total.
    """
    members: dict[str, list[int]] = {o.object_id: [] for o in log.objects}
    for index, event in enumerate(log.events):
        for object_id in event.object_refs:
            members[object_id].append(index)
    traces: dict[str, Trace] = {}
    for object_id, indices in members.items():
        indices.sort(key=lambda i: (log.events[i].timestamp, log.events[i].event_id))
        traces[object_id] = Trace(object_id=object_id, event_indices=tuple(indices))
    return traces


def build_edges(traces: dict[str, Trace]) -> set[tuple[int, int]]:
    """Directed edges between consecutive trace events, merged across traces."""
    edges: set[tuple[int, int]] = set()
    for trace in traces.values():
        seq = trace.event_indices
        for u, v in zip(seq, seq[1:]):
            if u == v:
                raise ValueError(f"self-edge on event index {u}")
            edges.add((u, v))
    return edges


def build_instances(log: ObjectCentricLog) -> ProcessInstanceSet:
    """Partition the log's events into connected process-instance graphs.

    Components are computed with union-find over the undirected view of the
    edge set; events touching no edge form singleton instances. Instances are
    ordered by their smallest event index, so the result is deterministic.
    """
    n = len(log.events)
    edges = build_edges(build_traces(log))
    uf = UnionFind(n)
    for u, v in sorted(edges):
        uf.union(u, v)

    component_nodes: dict[int, list[int]] = {}
    for index in range(n):
        component_nodes.setdefault(uf.find(index), []).append(index)
    component_edges: dict[int, list[tuple[int, int]]] = {root: [] for root in component_nodes}
    for u, v in sorted(edges):
        component_edges[uf.find(u)].append((u, v))

    instances = tuple(
        ProcessInstance(node_indices=frozenset(nodes), edges=frozenset(component_edges[root]))
        for root, nodes in component_nodes.items()
    )
    return ProcessInstanceSet(instances=instances)

