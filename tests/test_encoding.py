"""Adjacency assembly, normalization, layout, and feature encoding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocelad.encoding import (
    GroupKind,
    IndexOutOfRangeError,
    UnknownCategoricalValueError,
    build_adjacency,
    build_layout,
    encode_features,
    encode_log,
    normalize_adjacency,
)
from ocelad.generator import GenConfig, generate
from ocelad.instances import ProcessInstance, ProcessInstanceSet, build_instances
from ocelad.numerics import make_rng
from ocelad.ocel import Event, ObjectEntry, assemble_log

from conftest import make_log, random_log

GOLDEN_ADJACENCY = np.array(
    [
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=np.float64,
)

GOLDEN_FEATURES = np.array(
    [
        [1, 0, 0, 0, 0, 0.12, 0.75],
        [1, 0, 0, 0, 0, 0.33, 0.98],
        [0, 1, 0, 0, 0, 0.24, 0.39],
        [0, 0, 1, 0, 0, 0.15, 0.67],
        [0, 0, 1, 0, 0, 0.89, 0.21],
        [0, 0, 0, 1, 0, 0.58, 0.46],
        [0, 0, 0, 0, 1, 0.73, 0.81],
        [0, 0, 0, 1, 0, 0.42, 0.34],
    ],
    dtype=np.float64,
)


def dense_normalize_oracle(a: np.ndarray) -> np.ndarray:
    """Independent dense implementation of the symmetric normalization."""
    n = a.shape[0]
    sym = ((a + a.T) > 0).astype(np.float64)
    looped = sym + np.eye(n)
    degrees = looped.sum(axis=1)
    inv_sqrt = np.diag(1.0 / np.sqrt(degrees))
    return inv_sqrt @ looped @ inv_sqrt


def reference_encode_features(log, layout, scale_numeric=True):
    """Feature encoding one event and one group at a time, with Python floats."""
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
                    raise UnknownCategoricalValueError(event.activity)
                matrix[row, column] = 1.0
            elif group.kind is GroupKind.CATEGORICAL:
                value = event.attributes.get(group.name)
                if value is None:
                    matrix[row, group.missing_column] = 1.0
                else:
                    column = lookups[group.name].get(value)
                    if column is None:
                        raise UnknownCategoricalValueError(value)
                    matrix[row, column] = 1.0
            else:
                value = event.attributes.get(group.name)
                if value is None:
                    continue
                if scale_numeric:
                    span = group.max_value - group.min_value
                    scaled = 0.0 if span <= 0.0 else (float(value) - group.min_value) / span
                    matrix[row, group.start] = min(1.0, max(0.0, scaled))
                else:
                    matrix[row, group.start] = float(value)
    return matrix


# Extremes whose difference overflows (a NaN after scaling), signed zeros and
# subnormals, next to ordinary values.
feature_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 0.5, 1.0]),
)


def numeric_log(values):
    events = [Event(f"e{i}", "a", i, frozenset({"o1"}), {"n1": v}) for i, v in enumerate(values)]
    return assemble_log(events, [ObjectEntry("o1", "T")])


@st.composite
def feature_cases(draw):
    """A log and the log its layout comes from: itself or a subset of its events.

    A subset leaves values unknown to the layout and numerics out of its bounds.
    """
    events = []
    for i in range(draw(st.integers(0, 8))):
        attributes = {}
        for name in ("c1", "c2"):
            if draw(st.booleans()):
                attributes[name] = draw(st.sampled_from(["p", "q", "r"]))
        for name in ("n1", "n2"):
            if draw(st.booleans()):
                attributes[name] = draw(feature_floats)
        activity = draw(st.sampled_from(["a", "b", "c"]))
        events.append(Event(f"e{i}", activity, i, frozenset({"o1"}), attributes))
    log = assemble_log(events, [ObjectEntry("o1", "T")])
    if draw(st.booleans()):
        return log, log
    kept = draw(st.sets(st.integers(0, len(events) - 1))) if events else set()
    return log, assemble_log([events[i] for i in sorted(kept)], log.objects)


class TestAdjacency:
    def test_golden_matrix(self, golden_log):
        instance_set = build_instances(golden_log)
        adjacency = build_adjacency(instance_set, len(golden_log.events))
        np.testing.assert_array_equal(adjacency.to_dense(), GOLDEN_ADJACENCY)

    def test_edgeless(self):
        log = make_log(
            [("e1", "a", 0, ["o1"], {}), ("e2", "a", 1, ["o2"], {})],
            {"o1": "T", "o2": "T"},
        )
        adjacency = build_adjacency(build_instances(log), 2)
        assert adjacency.nnz == 0

    def test_matches_naive_dense_oracle(self):
        rng = make_rng(9)
        for _ in range(100):
            log = random_log(rng)
            n = len(log.events)
            instance_set = build_instances(log)
            dense = np.zeros((n, n))
            for inst in instance_set.instances:
                for u, v in inst.edges:
                    dense[u, v] = 1.0
            adjacency = build_adjacency(instance_set, n)
            np.testing.assert_array_equal(adjacency.to_dense(), dense)

    def test_index_out_of_range(self):
        bad = ProcessInstanceSet(
            instances=(ProcessInstance(node_indices=frozenset({0, 9}), edges=frozenset({(0, 9)})),)
        )
        with pytest.raises(IndexOutOfRangeError):
            build_adjacency(bad, 2)

    def test_diagonal_rejected(self):
        bad = ProcessInstanceSet(
            instances=(ProcessInstance(node_indices=frozenset({1}), edges=frozenset({(1, 1)})),)
        )
        with pytest.raises(IndexOutOfRangeError):
            build_adjacency(bad, 2)


class TestNormalization:
    def test_isolated_node(self):
        log = make_log([("e1", "a", 0, ["o1"], {})], {"o1": "T"})
        normalized = normalize_adjacency(build_adjacency(build_instances(log), 1))
        np.testing.assert_array_equal(normalized.to_dense(), [[1.0]])

    def test_two_node_edge(self):
        log = make_log(
            [("e1", "a", 0, ["o1"], {}), ("e2", "b", 1, ["o1"], {})], {"o1": "T"}
        )
        normalized = normalize_adjacency(build_adjacency(build_instances(log), 2))
        np.testing.assert_allclose(normalized.to_dense(), [[0.5, 0.5], [0.5, 0.5]])

    def test_golden_against_dense_oracle(self, golden_log):
        adjacency = build_adjacency(build_instances(golden_log), 8)
        normalized = normalize_adjacency(adjacency)
        np.testing.assert_allclose(
            normalized.to_dense(), dense_normalize_oracle(GOLDEN_ADJACENCY), atol=1e-12
        )

    def test_random_against_dense_oracle(self):
        rng = make_rng(21)
        for _ in range(100):
            log = random_log(rng)
            n = len(log.events)
            adjacency = build_adjacency(build_instances(log), n)
            dense = normalize_adjacency(adjacency).to_dense()
            np.testing.assert_allclose(dense, dense_normalize_oracle(adjacency.to_dense()), atol=1e-12)

    def test_symmetry_exact(self):
        rng = make_rng(33)
        for _ in range(50):
            log = random_log(rng)
            dense = normalize_adjacency(
                build_adjacency(build_instances(log), len(log.events))
            ).to_dense()
            assert np.max(np.abs(dense - dense.T)) == 0.0

    def test_diagonal_populated_and_weights_positive(self):
        rng = make_rng(34)
        for _ in range(50):
            log = random_log(rng)
            normalized = normalize_adjacency(
                build_adjacency(build_instances(log), len(log.events))
            )
            dense = normalized.to_dense()
            assert (np.diag(dense) > 0).all()
            assert (normalized.weights > 0).all()

    def test_spectral_bound(self):
        # Largest eigenvalue of the normalized matrix is at most 1.
        rng = make_rng(35)
        for _ in range(30):
            log = random_log(rng)
            dense = normalize_adjacency(
                build_adjacency(build_instances(log), len(log.events))
            ).to_dense()
            top = np.linalg.eigvalsh(dense).max()
            assert top <= 1.0 + 1e-9
            x = rng.standard_normal(dense.shape[0])
            assert x @ dense @ x <= x @ x + 1e-9


class TestLayout:
    def test_golden_k(self, golden_log):
        layout = build_layout(golden_log)
        assert layout.n_columns == 7
        assert layout.groups[0].kind is GroupKind.ACTIVITY
        assert layout.groups[0].vocabulary == ("act1", "act2", "act3", "act4", "act5")
        assert [g.name for g in layout.groups[1:]] == ["Attr1", "Attr2"]

    def test_single_activity_no_attrs(self):
        log = make_log([("e1", "only", 0, ["o1"], {})], {"o1": "T"})
        assert build_layout(log).n_columns == 1

    def test_categorical_gets_missing_column(self):
        log = make_log(
            [
                ("e1", "a", 0, ["o1"], {"c": "x"}),
                ("e2", "a", 1, ["o1"], {"c": "y"}),
                ("e3", "a", 2, ["o1"], {"c": "z"}),
            ],
            {"o1": "T"},
        )
        layout = build_layout(log)
        group = next(g for g in layout.groups if g.name == "c")
        assert group.width == 4
        assert group.missing_column == group.stop - 1

    def test_numeric_bounds_recorded(self, golden_log):
        layout = build_layout(golden_log)
        attr1 = next(g for g in layout.groups if g.name == "Attr1")
        assert (attr1.min_value, attr1.max_value) == (0.12, 0.89)


class TestFeatures:
    def test_golden_matrix_unscaled(self, golden_log):
        layout = build_layout(golden_log)
        features = encode_features(golden_log, layout, scale_numeric=False)
        np.testing.assert_array_equal(features, GOLDEN_FEATURES)

    def test_constant_activity_column(self):
        log = make_log([(f"e{i}", "only", i, ["o1"], {}) for i in range(4)], {"o1": "T"})
        features = encode_features(log, build_layout(log))
        np.testing.assert_array_equal(features, np.ones((4, 1)))

    def test_degenerate_numeric_range_scales_to_zero(self):
        log = make_log(
            [("e1", "a", 0, ["o1"], {"x": 5.0}), ("e2", "a", 1, ["o1"], {"x": 5.0})],
            {"o1": "T"},
        )
        layout = build_layout(log)
        features = encode_features(log, layout, scale_numeric=True)
        group = next(g for g in layout.groups if g.name == "x")
        assert (features[:, group.start] == 0.0).all()

    def test_missing_values(self):
        log = make_log(
            [
                ("e1", "a", 0, ["o1"], {"c": "x", "n": 2.0}),
                ("e2", "a", 1, ["o1"], {}),
                ("e3", "a", 2, ["o1"], {"n": 4.0}),
            ],
            {"o1": "T"},
        )
        layout = build_layout(log)
        features = encode_features(log, layout)
        cat = next(g for g in layout.groups if g.name == "c")
        num = next(g for g in layout.groups if g.name == "n")
        assert features[1, cat.missing_column] == 1.0
        assert features[1, num.start] == 0.0
        assert features[0, cat.start] == 1.0

    def test_unknown_categorical_value(self):
        log1 = make_log([("e1", "a", 0, ["o1"], {"c": "x"})], {"o1": "T"})
        layout = build_layout(log1)
        log2 = make_log([("e1", "a", 0, ["o1"], {"c": "new"})], {"o1": "T"})
        with pytest.raises(UnknownCategoricalValueError):
            encode_features(log2, layout)

    def test_unknown_activity(self):
        log1 = make_log([("e1", "a", 0, ["o1"], {})], {"o1": "T"})
        layout = build_layout(log1)
        log2 = make_log([("e1", "b", 0, ["o1"], {})], {"o1": "T"})
        with pytest.raises(UnknownCategoricalValueError):
            encode_features(log2, layout)

    def test_scaled_values_clamped_to_unit_interval(self):
        log1 = make_log(
            [("e1", "a", 0, ["o1"], {"n": 10.0}), ("e2", "a", 1, ["o1"], {"n": 20.0})],
            {"o1": "T"},
        )
        layout = build_layout(log1)
        log2 = make_log([("e1", "a", 0, ["o1"], {"n": 30.0})], {"o1": "T"})
        features = encode_features(log2, layout)
        group = next(g for g in layout.groups if g.name == "n")
        assert features[0, group.start] == 1.0

    @settings(deadline=None)
    @given(feature_cases(), st.booleans())
    # -0.0 above a lower bound of 0.0 scales to -0.0 before clamping; a span
    # of 2e308 overflows to inf and scales the top value to NaN.
    @example((numeric_log([0.0, -0.0, 1.0]),) * 2, True)
    @example((numeric_log([1e308, -1e308, 0.0]),) * 2, True)
    def test_matches_row_loop(self, case, scale_numeric):
        log, layout_log = case
        layout = build_layout(layout_log)
        try:
            expected = reference_encode_features(log, layout, scale_numeric)
        except UnknownCategoricalValueError:
            with pytest.raises(UnknownCategoricalValueError):
                encode_features(log, layout, scale_numeric)
            return
        assert encode_features(log, layout, scale_numeric).tobytes() == expected.tobytes()

    def test_one_hot_row_sums(self):
        log = generate(GenConfig(n_orders=15, seed=2))
        graph = encode_log(log)
        for group in graph.layout.groups:
            if group.kind is GroupKind.NUMERIC:
                continue
            sums = graph.features[:, group.start : group.stop].sum(axis=1)
            np.testing.assert_array_equal(sums, np.ones(len(log.events)))

    def test_scaling_bounds(self):
        log = generate(GenConfig(n_orders=15, seed=2))
        graph = encode_log(log, scale_numeric=True)
        assert graph.features.min() >= 0.0
        assert graph.features.max() <= 1.0


class TestEncodeLog:
    def test_dimensions_agree(self, golden_log):
        graph = encode_log(golden_log)
        n = len(golden_log.events)
        assert graph.n == n
        assert graph.features.shape == (n, graph.layout.n_columns)
        assert graph.normalized.n == n
        assert graph.event_ids == golden_log.event_ids()

