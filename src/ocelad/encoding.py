"""Input-graph encoding: sparse adjacency, normalization, feature matrix.

All process instances are combined into one disconnected graph. The graph is
encoded as a sparse adjacency matrix (CSR, implicit unit values), its
symmetrically normalized self-looped variant used by the graph convolutions,
and a dense per-event feature matrix with a deterministic column layout:
activity one-hots first, then one block per categorical attribute (sorted
values plus a trailing missing-value column), then one column per numeric
attribute (min-max scaled by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .instances import ProcessInstanceSet, build_instances
from .ocel import AttributeKind, ObjectCentricLog


class EncodingError(Exception):
    """Base class for encoding failures."""


class IndexOutOfRangeError(EncodingError):
    """An instance references an event index outside the node range."""


class UnknownCategoricalValueError(EncodingError):
    """An event carries a categorical value absent from the layout vocabulary."""


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
    def width(self) -> int:
        return self.stop - self.start

    @property
    def missing_column(self) -> int | None:
        if self.kind is GroupKind.CATEGORICAL:
            return self.stop - 1
        return None


@dataclass(frozen=True)
class FeatureLayout:
    groups: tuple[FeatureGroup, ...]
    n_columns: int


@dataclass(frozen=True, eq=False)
class EncodedGraph:
    """The model input: adjacency, normalized adjacency, features, layout."""

    adjacency: SparseAdjacency
    normalized: SparseAdjacency
    features: np.ndarray
    layout: FeatureLayout
    event_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.adjacency.n


def _csr_from_pairs(n: int, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) from (row, col) pairs sorted lexicographically."""
    if pairs:
        arr = np.array(pairs, dtype=np.int64)
        rows, cols = arr[:, 0], arr[:, 1]
    else:
        rows = np.zeros(0, dtype=np.int64)
        cols = np.zeros(0, dtype=np.int64)
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols


def build_adjacency(instance_set: ProcessInstanceSet, n: int) -> SparseAdjacency:
    """Union of all instance edge sets as one n x n sparse matrix."""
    pairs = sorted({edge for inst in instance_set.instances for edge in inst.edges})
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
        if u == v:
            raise IndexOutOfRangeError(f"diagonal entry ({u}, {u}) not allowed")
    indptr, indices = _csr_from_pairs(n, pairs)
    return SparseAdjacency(n=n, indptr=indptr, indices=indices)


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
    rows = np.concatenate([row_ids, col_ids, diag])
    cols = np.concatenate([col_ids, row_ids, diag])
    entries = np.unique(np.stack([rows, cols], axis=1), axis=0)
    rows, cols = entries[:, 0], entries[:, 1]

    degrees = np.bincount(rows, minlength=n).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    weights = inv_sqrt[rows] * inv_sqrt[cols]

    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SparseAdjacency(n=n, indptr=indptr, indices=cols, weights=weights)


def build_layout(log: ObjectCentricLog) -> FeatureLayout:
    """Deterministic feature layout for a log.

    Activities (sorted) come first, then categorical attributes sorted by
    name with sorted vocabularies plus a missing column each, then numeric
    attributes sorted by name with their observed min/max recorded.
    """
    groups: list[FeatureGroup] = []
    column = 0

    activities = tuple(sorted(log.activities))
    groups.append(
        FeatureGroup(
            name="activity",
            kind=GroupKind.ACTIVITY,
            start=column,
            stop=column + len(activities),
            vocabulary=activities,
        )
    )
    column += len(activities)

    categorical = sorted(
        name for name, kind in log.schema.items() if kind is AttributeKind.CATEGORICAL
    )
    for name in categorical:
        values = tuple(
            sorted(
                {
                    event.attributes[name]
                    for event in log.events
                    if isinstance(event.attributes.get(name), str)
                }
            )
        )
        groups.append(
            FeatureGroup(
                name=name,
                kind=GroupKind.CATEGORICAL,
                start=column,
                stop=column + len(values) + 1,
                vocabulary=values,
            )
        )
        column += len(values) + 1

    numeric = sorted(
        name for name, kind in log.schema.items() if kind is AttributeKind.NUMERIC
    )
    for name in numeric:
        observed = [
            event.attributes[name]
            for event in log.events
            if isinstance(event.attributes.get(name), float)
        ]
        low = min(observed) if observed else 0.0
        high = max(observed) if observed else 0.0
        groups.append(
            FeatureGroup(
                name=name,
                kind=GroupKind.NUMERIC,
                start=column,
                stop=column + 1,
                min_value=low,
                max_value=high,
            )
        )
        column += 1

    return FeatureLayout(groups=tuple(groups), n_columns=column)


def encode_features(
    log: ObjectCentricLog, layout: FeatureLayout, scale_numeric: bool = True
) -> np.ndarray:
    """Dense n x k feature matrix, one row per event in log order.

    Activity and categorical blocks are one-hot; a missing categorical value
    sets the group's missing column. Missing numeric values encode as 0.
    With ``scale_numeric`` the numeric columns are min-max scaled to [0, 1]
    using the layout's recorded bounds (out-of-range values are clamped);
    otherwise raw values are written.
    """
    matrix = np.zeros((len(log.events), layout.n_columns), dtype=np.float64)
    lookups = {
        group.name: {value: group.start + offset for offset, value in enumerate(group.vocabulary)}
        for group in layout.groups
        if group.kind is not GroupKind.NUMERIC
    }
    for row, event in enumerate(log.events):
        for group in layout.groups:
            if group.kind is GroupKind.ACTIVITY:
                column = lookups[group.name].get(event.activity)
                if column is None:
                    raise UnknownCategoricalValueError(
                        f"event {event.event_id!r}: activity {event.activity!r} "
                        "not in layout"
                    )
                matrix[row, column] = 1.0
            elif group.kind is GroupKind.CATEGORICAL:
                value = event.attributes.get(group.name)
                if value is None:
                    matrix[row, group.missing_column] = 1.0
                else:
                    column = lookups[group.name].get(value)
                    if column is None:
                        raise UnknownCategoricalValueError(
                            f"event {event.event_id!r}: value {value!r} of attribute "
                            f"{group.name!r} not in layout vocabulary"
                        )
                    matrix[row, column] = 1.0
            else:
                value = event.attributes.get(group.name)
                if value is None:
                    continue
                if scale_numeric:
                    span = group.max_value - group.min_value
                    if span <= 0.0:
                        scaled = 0.0
                    else:
                        scaled = (float(value) - group.min_value) / span
                    matrix[row, group.start] = min(1.0, max(0.0, scaled))
                else:
                    matrix[row, group.start] = float(value)
    return matrix


def encode_log(log: ObjectCentricLog, scale_numeric: bool = True) -> EncodedGraph:
    """Full encoding pipeline: instances -> adjacency -> normalization -> features."""
    instance_set = build_instances(log)
    adjacency = build_adjacency(instance_set, len(log.events))
    normalized = normalize_adjacency(adjacency)
    layout = build_layout(log)
    features = encode_features(log, layout, scale_numeric=scale_numeric)
    return EncodedGraph(
        adjacency=adjacency,
        normalized=normalized,
        features=features,
        layout=layout,
        event_ids=log.event_ids(),
    )

