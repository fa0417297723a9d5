"""Adjacency assembly, normalization, layout, and feature encoding."""

import numpy as np
import pytest

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

