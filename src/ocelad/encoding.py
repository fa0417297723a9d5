"""Input-graph encoding: sparse adjacency, normalization, feature matrix.

The edge array of ``build_instances`` already holds all process instances as
one disconnected graph. It is encoded as a sparse adjacency matrix (CSR,
implicit unit values), its symmetrically normalized self-looped variant used
by the graph convolutions, and a dense per-event feature matrix with a
deterministic column layout: activity one-hots first, then one block per
categorical attribute (sorted values plus a trailing missing-value column),
then one column per numeric attribute. Layout and features are read from the
log's columns: the vocabularies and codes of the activity and categorical
attributes, and the float columns of the numerics. A log is encoded only with
the layout built from it, so each code is its own column offset.

N links only events of one process instance, so it is block-diagonal over the
instances, and an encoded graph splits into row tiles of whole instances
(``EncodedGraph.tiles``) that the model can run one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .instances import ProcessInstanceSet, _component_roots, _sorted_unique, build_instances
from .ocel import ObjectCentricLog


class EncodingError(Exception):
    """Base class for encoding failures."""


class IndexOutOfRangeError(EncodingError):
    """An instance references an event index outside the node range."""


@dataclass(frozen=True, eq=False)
class SparseAdjacency:
    """An n x n matrix in CSR form; ``weights`` None means every entry is 1.

    No duplicate entries; ``indices`` are sorted within rows. The event
    adjacency is unweighted with no diagonal; its normalized variant carries
    weights and a fully populated diagonal.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @cached_property
    def csr(self):
        """The same matrix as a ``scipy.sparse.csr_array``, built on first use.

        scipy is imported here rather than at module level: the import costs
        ~0.15 s per process, which a run that never multiplies need not pay.
        """
        from scipy.sparse import csr_array

        data = np.ones(self.nnz) if self.weights is None else self.weights
        return csr_array((data, self.indices, self.indptr), shape=(self.n, self.n))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


class GroupKind(str, Enum):
    ACTIVITY = "activity"
    CATEGORICAL = "categorical_attr"
    NUMERIC = "numeric_attr"


@dataclass(frozen=True)
class FeatureGroup:
    """One contiguous column block of the feature matrix.

    Activity and categorical groups are one-hot over ``vocabulary``;
    categorical groups reserve their last column for missing values. Numeric
    groups are a single column with the scaling bounds observed at layout time.
    """

    name: str
    kind: GroupKind
    start: int
    stop: int
    vocabulary: tuple[str, ...] = ()
    min_value: float = 0.0
    max_value: float = 0.0

    @property
    def missing_column(self) -> int | None:
        if self.kind is GroupKind.CATEGORICAL:
            return self.stop - 1
        return None


@dataclass(frozen=True)
class FeatureLayout:
    groups: tuple[FeatureGroup, ...]
    n_columns: int


# Most rows per tile. A 4,096 x 64 float32 temporary is 1 MiB, so a tile's
# working set stays in a 2 MiB L2 cache.
TILE_ROWS = 4096


@dataclass(frozen=True, eq=False)
class EncodedGraph:
    """The model input: normalized adjacency, features, layout."""

    normalized: SparseAdjacency
    features: np.ndarray
    layout: FeatureLayout
    event_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.normalized.n

    @cached_property
    def tiles(self) -> tuple[tuple[np.ndarray, EncodedGraph], ...]:
        """The graph in tiles of whole instances, built on first read; see ``_tiles``."""
        return _tiles(self, TILE_ROWS)


def _tiles(graph: EncodedGraph, max_rows: int) -> tuple[tuple[np.ndarray, EncodedGraph], ...]:
    """``graph`` split into (rows, tile) pairs of at most ``max_rows`` rows.

    The instances are the connected components of N. Taken in order of
    their smallest row, they are packed into consecutive tiles; an instance
    above ``max_rows`` rows is a tile of its own. ``rows`` lists a tile's
    rows of ``graph`` in ascending (log) order, and the tile is the graph on
    them: N's entries among those rows in local indices and stored order,
    and the gathered features and event ids. So a tile's rows of N * H have
    the bytes of the same rows of the whole product. A graph of at most
    ``max_rows`` rows is one tile that shares the graph's arrays.
    """
    n = graph.n
    if n <= max_rows:
        return ((np.arange(n), replace(graph)),)
    norm = graph.normalized
    row_of = np.repeat(np.arange(n), np.diff(norm.indptr))
    upper = norm.indices > row_of
    roots = _component_roots(n, np.stack((row_of[upper], norm.indices[upper]), axis=1))
    by_instance = np.argsort(roots, kind="stable")
    sizes = np.bincount(roots)  # each instance counted at its smallest row
    ends = np.cumsum(sizes[sizes > 0])
    # Greedy packing: each tile takes every next instance that ends within
    # max_rows of its start, and at least one.
    cuts, first = [0], 0
    while first < ends.size:
        first = max(int(np.searchsorted(ends, cuts[-1] + max_rows, side="right")), first + 1)
        cuts.append(int(ends[first - 1]))

    local = np.empty(n, dtype=np.int64)
    tiles = []
    for start, stop in zip(cuts, cuts[1:]):
        rows = np.sort(by_instance[start:stop])
        local[rows] = np.arange(rows.size)
        counts = norm.indptr[rows + 1] - norm.indptr[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        entries = np.repeat(norm.indptr[rows] - indptr[:-1], counts) + np.arange(indptr[-1])
        tile = EncodedGraph(
            normalized=SparseAdjacency(
                rows.size, indptr, local[norm.indices[entries]], norm.weights[entries]
            ),
            features=graph.features[rows],
            layout=graph.layout,
            event_ids=tuple(map(graph.event_ids.__getitem__, rows.tolist())),
        )
        tiles.append((rows, tile))
    return tuple(tiles)


def _csr(
    n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray | None = None
) -> SparseAdjacency:
    """The n x n matrix of (row, col) entries sorted lexicographically, no duplicates."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SparseAdjacency(n=n, indptr=indptr, indices=cols, weights=weights)


def build_adjacency(instance_set: ProcessInstanceSet, n: int) -> SparseAdjacency:
    """The event graph's edge array as one n x n sparse matrix.

    Entries are sorted as flat keys ``row * n + col``, which orders them by
    (row, col) and merges duplicates in one 1-D sort.
    """
    edges = np.asarray(instance_set.edges, dtype=np.int64)
    outside = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
    if outside.size:
        u, v = edges[outside[0]]
        raise IndexOutOfRangeError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
    diagonal = np.flatnonzero(edges[:, 0] == edges[:, 1])
    if diagonal.size:
        u = edges[diagonal[0], 0]
        raise IndexOutOfRangeError(f"diagonal entry ({u}, {u}) not allowed")
    rows, cols = np.divmod(_sorted_unique(edges[:, 0] * n + edges[:, 1]), n)
    return _csr(n, rows, cols)


def normalize_adjacency(adjacency: SparseAdjacency) -> SparseAdjacency:
    """Symmetrize, add self-loops, and degree-normalize the adjacency.

    With S the symmetrized edge set, returns the matrix whose (u, v) entry is
    1/sqrt(d_u * d_v) for every entry of S + I, where d_u is the row count of
    S + I. Every node has degree >= 1 after the self-loop, so the result has
    a fully populated diagonal.
    """
    n = adjacency.n
    row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(adjacency.indptr))
    col_ids = adjacency.indices
    diag = np.arange(n, dtype=np.int64)
    keys = np.concatenate([row_ids * n + col_ids, col_ids * n + row_ids, diag * (n + 1)])
    rows, cols = np.divmod(_sorted_unique(keys), n)

    degrees = np.bincount(rows, minlength=n).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return _csr(n, rows, cols, weights=inv_sqrt[rows] * inv_sqrt[cols])


def build_layout(log: ObjectCentricLog) -> FeatureLayout:
    """Deterministic feature layout for a log.

    Activities (sorted) come first, then categorical attributes sorted by
    name with sorted vocabularies plus a missing column each, then numeric
    attributes sorted by name with their observed min/max recorded.
    """
    activities = log.activity_vocabulary
    groups = [FeatureGroup("activity", GroupKind.ACTIVITY, 0, len(activities), activities)]
    column = len(activities)
    for name, values in log.vocabularies.items():
        groups.append(
            FeatureGroup(name, GroupKind.CATEGORICAL, column, column + len(values) + 1, values)
        )
        column += len(values) + 1
    for name, values in log.columns.items():
        if name not in log.vocabularies:
            observed = values[~np.isnan(values)]
            # The first of equal extremes, as min() and max() pick: -0.0 or 0.0.
            low = float(observed[observed.argmin()]) if observed.size else 0.0
            high = float(observed[observed.argmax()]) if observed.size else 0.0
            groups.append(FeatureGroup(name, GroupKind.NUMERIC, column, column + 1, (), low, high))
            column += 1
    return FeatureLayout(groups=tuple(groups), n_columns=column)


def encode_features(
    log: ObjectCentricLog, layout: FeatureLayout, scale_numeric: bool = True
) -> np.ndarray:
    """Dense n x k feature matrix, one row per event in log order.

    Activity and categorical blocks are one-hot; a missing categorical value
    sets the group's missing column. Missing numeric values encode as 0.
    With ``scale_numeric`` the numeric columns are min-max scaled to [0, 1]
    using the layout's recorded bounds; otherwise raw values are written.
    ``layout`` must equal ``build_layout(log)``: any other raises ``EncodingError``.
    """
    if layout != build_layout(log):
        raise EncodingError("the layout was not built from this log")
    n = len(log.ids)
    matrix = np.zeros((n, layout.n_columns), dtype=np.float64)
    for group in layout.groups:
        if group.kind is not GroupKind.NUMERIC:
            activity = group.kind is GroupKind.ACTIVITY
            codes = log.activity_codes if activity else log.columns[group.name]
            # Code c goes to column start + c; code -1 to the missing column.
            matrix[np.arange(n), np.where(codes < 0, group.stop - 1, group.start + codes)] = 1.0
            continue
        values = log.columns[group.name]
        present = np.flatnonzero(~np.isnan(values))
        span = group.max_value - group.min_value
        if not present.size or (scale_numeric and span <= 0.0):
            continue
        values = values[present]
        if scale_numeric:
            # Clamp as min(1.0, max(0.0, x)) on Python floats does: an
            # overflowing span passes silently, and -0.0 and NaN become 0.0
            # (np.maximum keeps both, np.fmax may keep -0.0).
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = (values - group.min_value) / span
            scaled = np.where(scaled > 0.0, scaled, 0.0)
            values = np.where(scaled < 1.0, scaled, 1.0)
        matrix[present, group.start] = values
    return matrix


def encode_log(log: ObjectCentricLog) -> EncodedGraph:
    """Full encoding pipeline: instances -> adjacency -> normalization -> features."""
    instance_set = build_instances(log)
    normalized = normalize_adjacency(build_adjacency(instance_set, len(log.ids)))
    layout = build_layout(log)
    return EncodedGraph(
        normalized=normalized,
        features=encode_features(log, layout),
        layout=layout,
        event_ids=log.ids,
    )
