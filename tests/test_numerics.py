"""Linear algebra kernels, activations, initialization, and Adam."""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ocelad
from ocelad.encoding import SparseAdjacency
from ocelad.numerics import (
    AdamState,
    DimensionMismatchError,
    adam_step,
    glorot_init,
    make_rng,
    matmul,
    relu,
    relu_backward,
    spmm,
)


def naive_matmul(a, b):
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for m in range(inner):
                acc += a[i, m] * b[m, j]
            out[i, j] = acc
    return out


def random_sparse(rng, n, weighted):
    pairs = set()
    for _ in range(int(rng.integers(0, 3 * n + 1))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            pairs.add((u, v))
    pairs = sorted(pairs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([u for u, _ in pairs], minlength=n), out=indptr[1:])
    indices = np.array([v for _, v in pairs], dtype=np.int64)
    weights = rng.random(len(pairs)) + 0.1 if weighted else None
    return SparseAdjacency(n=n, indptr=indptr, indices=indices, weights=weights)


def sparse_to_dense(sparse):
    dense = np.zeros((sparse.n, sparse.n))
    weights = sparse.weights
    for row in range(sparse.n):
        for pos in range(sparse.indptr[row], sparse.indptr[row + 1]):
            dense[row, sparse.indices[pos]] = 1.0 if weights is None else weights[pos]
    return dense


# NaN (quiet, negative, with a payload), both infinities, both zeros,
# subnormals of both signs and ordinary numbers: the values at which a bit
# mask and np.where could part ways.
SPECIAL_FLOATS = st.one_of(
    st.sampled_from(
        [np.nan, -np.nan, np.float64(np.int64(0x7FF0000000000001).view(np.float64)),
         np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]
    ),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)

# The same cases in single precision.
SPECIAL_FLOATS32 = st.one_of(
    st.sampled_from(
        [np.nan, -np.nan, np.float32(np.int32(0x7F800001).view(np.float32)),
         np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45, 1.2e-38, -1e-40]
    ),
    st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True),
)

SPECIAL = {np.float64: SPECIAL_FLOATS, np.float32: SPECIAL_FLOATS32}


@st.composite
def maybe_transposed(draw, rows, cols, elements, dtype=np.float64):
    """A rows x cols matrix of ``dtype``, C-ordered or the transposed view of one."""
    if draw(st.booleans()):
        return draw(arrays(dtype, (cols, rows), elements=elements)).T
    return draw(arrays(dtype, (rows, cols), elements=elements))


@st.composite
def relu_operands(draw, dtype=np.float64):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    upstream = draw(maybe_transposed(rows, cols, SPECIAL[dtype], dtype))
    activation = draw(maybe_transposed(rows, cols, SPECIAL[dtype], dtype))
    return upstream, activation


@st.composite
def matmul_operands(draw, dtype=np.float64):
    rows, inner, cols = (draw(st.integers(1, 12)) for _ in range(3))
    a = draw(maybe_transposed(rows, inner, SPECIAL[dtype], dtype))
    b = draw(maybe_transposed(inner, cols, SPECIAL[dtype], dtype))
    return a, b


@st.composite
def sparse_and_dense(draw):
    """A CSR matrix (empty rows and nnz == 0 included) and a dense operand.

    The dense operand is either C-contiguous or the transposed view of one.
    """
    n = draw(st.integers(0, 10))
    width = draw(st.integers(1, 5))
    columns = st.sets(st.integers(0, n - 1), max_size=n) if n else st.just(set())
    rows = [sorted(draw(columns)) for _ in range(n)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.array([column for row in rows for column in row], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = draw(arrays(np.float64, indices.size, elements=st.floats(-10.0, 10.0)))
    values = draw(arrays(np.float64, (width, n), elements=st.floats(-1e3, 1e3)))
    dense = values.T if draw(st.booleans()) else np.ascontiguousarray(values.T)
    return SparseAdjacency(n=n, indptr=indptr, indices=indices, weights=weights), dense


class TestMatmul:
    def test_identity(self):
        rng = make_rng(1)
        a = rng.random((4, 4))
        np.testing.assert_array_equal(matmul(a, np.eye(4)), a)

    def test_hand_example(self):
        result = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0], [1.0]]))
        np.testing.assert_array_equal(result, [[2.0], [4.0]])

    def test_random_shapes_against_naive_oracle(self):
        rng = make_rng(42)
        for _ in range(100):
            rows, inner, cols = (int(rng.integers(1, 12)) for _ in range(3))
            a = rng.standard_normal((rows, inner))
            b = rng.standard_normal((inner, cols))
            np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(DimensionMismatchError):
            matmul(np.zeros(3), np.zeros((3, 1)))

    @settings(deadline=None)
    @given(matmul_operands())
    def test_out_property_same_bytes_as_operator(self, operands):
        a, b = operands
        buffer = np.full((a.shape[0], b.shape[1]), 7.0)
        with np.errstate(all="ignore"):
            expected = (a @ b).tobytes()
            assert matmul(a, b, out=buffer) is buffer
        assert buffer.tobytes() == expected

    def test_out_same_bytes_at_training_shapes(self):
        rng = make_rng(12)
        a = rng.standard_normal((1986, 64))
        for b in (rng.standard_normal((64, 32)), rng.standard_normal((16, 64)).T):
            buffer = np.empty((1986, b.shape[1]))
            matmul(a, b, out=buffer)
            assert buffer.tobytes() == (a @ b).tobytes()
        gradient = np.empty((64, 16))
        c = rng.standard_normal((1986, 16))
        matmul(a.T, c, out=gradient)
        assert gradient.tobytes() == (a.T @ c).tobytes()

    def test_out_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.zeros((2, 3)), np.zeros((3, 4)), out=np.zeros((2, 3)))
        with pytest.raises(DimensionMismatchError):
            matmul(np.zeros((2, 3)), np.zeros((3, 4)), out=np.zeros((2, 4), dtype=np.float32))


class TestSpmm:
    def test_isolated_node_identity(self):
        sparse = SparseAdjacency(
            n=1,
            indptr=np.array([0, 1], dtype=np.int64),
            indices=np.array([0], dtype=np.int64),
            weights=np.array([1.0]),
        )
        d = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(spmm(sparse, d), d)

    def test_two_node_half_matrix(self):
        sparse = SparseAdjacency(
            n=2,
            indptr=np.array([0, 2, 4], dtype=np.int64),
            indices=np.array([0, 1, 0, 1], dtype=np.int64),
            weights=np.array([0.5, 0.5, 0.5, 0.5]),
        )
        np.testing.assert_allclose(spmm(sparse, np.eye(2)), [[0.5, 0.5], [0.5, 0.5]])

    def test_random_against_dense_oracle(self):
        rng = make_rng(7)
        for trial in range(100):
            n = int(rng.integers(1, 21))
            cols = int(rng.integers(1, 9))
            sparse = random_sparse(rng, n, weighted=trial % 2 == 0)
            dense = rng.standard_normal((n, cols))
            expected = naive_matmul(sparse_to_dense(sparse), dense)
            np.testing.assert_allclose(spmm(sparse, dense), expected, atol=1e-12)

    @settings(deadline=None)
    @given(sparse_and_dense())
    @example((SparseAdjacency(n=0, indptr=np.zeros(1, dtype=np.int64),
                              indices=np.zeros(0, dtype=np.int64)), np.zeros((0, 3))))
    def test_property_against_dense_oracle(self, operands):
        sparse, dense = operands
        result = spmm(sparse, dense)
        assert result.shape == (sparse.n, dense.shape[1])
        np.testing.assert_allclose(result, sparse_to_dense(sparse) @ dense, rtol=1e-12, atol=1e-9)

    def test_package_import_leaves_scipy_unloaded(self):
        # The benchmark's tracer reaches each layer's module as an attribute
        # of the package, so ``import ocelad`` must bind all of them.
        src = str(Path(ocelad.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, ocelad;"
            "names = 'ocel injection instances encoding autoencoder numerics scoring'.split();"
            "print('scipy' in sys.modules, 'ocelad.cli' in sys.modules,"
            " [name for name in names if not hasattr(ocelad, name)])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        )
        assert result.stdout.strip() == "False False []"

    def test_empty_matrix(self):
        sparse = SparseAdjacency(
            n=3, indptr=np.zeros(4, dtype=np.int64), indices=np.zeros(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(spmm(sparse, np.ones((3, 2))), np.zeros((3, 2)))

    def test_dimension_mismatch(self):
        sparse = random_sparse(make_rng(1), 4, weighted=False)
        with pytest.raises(DimensionMismatchError):
            spmm(sparse, np.zeros((5, 2)))


class TestRelu:
    def test_hand_example(self):
        np.testing.assert_array_equal(relu(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_all_negative(self):
        np.testing.assert_array_equal(relu(-np.ones((3, 3))), np.zeros((3, 3)))

    def test_backward_masks(self):
        upstream = np.array([[1.0, 2.0, 3.0]])
        pre = np.array([[-1.0, 0.0, 5.0]])
        np.testing.assert_array_equal(relu_backward(upstream, pre), [[0.0, 0.0, 3.0]])

    def test_backward_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            relu_backward(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_in_place(self):
        values = np.array([[-1.0, 2.0, -0.0, np.nan]])
        assert relu(values, out=values) is values
        assert values.tobytes() == np.maximum([[-1.0, 2.0, -0.0, np.nan]], 0.0).tobytes()
        with pytest.raises(DimensionMismatchError):
            relu(values, out=np.zeros((2, 4)))

    def test_backward_rejects_unfit_out(self):
        with pytest.raises(DimensionMismatchError):
            relu_backward(np.zeros((2, 2)), np.zeros((2, 2)), out=np.zeros((2, 3)))
        upstream = np.ones((2, 2))
        with pytest.raises(ValueError):
            relu_backward(upstream, np.ones((2, 2)), out=upstream)

    @settings(deadline=None, max_examples=300)
    @given(relu_operands())
    def test_backward_property_same_bytes_as_where(self, operands):
        upstream, activation = operands
        expected = np.where(activation > 0.0, upstream, 0.0).tobytes()
        assert relu_backward(upstream, activation).tobytes() == expected
        buffer = np.full(upstream.shape, 7.0)
        assert relu_backward(upstream, activation, out=buffer) is buffer
        assert buffer.tobytes() == expected
        # The activation's own buffer may take the masked gradient.
        own = activation.copy()
        relu_backward(upstream, own, out=own)
        assert own.tobytes() == expected


def single(sparse: SparseAdjacency) -> SparseAdjacency:
    """``sparse`` with float32 weights, 1 where it has none."""
    weights = np.ones(sparse.nnz) if sparse.weights is None else sparse.weights
    return SparseAdjacency(sparse.n, sparse.indptr, sparse.indices, weights.astype(np.float32))


class TestSinglePrecision:
    """float32 operands give float32 results with the bytes of plain numpy."""

    @settings(deadline=None)
    @given(matmul_operands(np.float32))
    def test_matmul_property(self, operands):
        a, b = operands
        with np.errstate(all="ignore"):
            expected = a @ b
            result = matmul(a, b)
            buffer = np.full(expected.shape, 7.0, dtype=np.float32)
            assert matmul(a, b, out=buffer) is buffer
        assert result.dtype == np.float32
        assert result.tobytes() == expected.tobytes() == buffer.tobytes()

    @settings(deadline=None)
    @given(sparse_and_dense())
    def test_spmm_property(self, operands):
        sparse, dense = operands
        dense = dense.astype(np.float32)
        result = spmm(single(sparse), dense)
        assert result.dtype == np.float32
        assert result.tobytes() == (sparse.csr.astype(np.float32) @ dense).tobytes()

    @settings(deadline=None, max_examples=300)
    @given(relu_operands(np.float32))
    def test_relu_property(self, operands):
        values, _ = operands
        expected = np.maximum(values, 0.0)
        assert expected.dtype == np.float32
        assert relu(values).tobytes() == expected.tobytes()
        own = values.copy()
        assert relu(own, out=own) is own
        assert own.tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(relu_operands(np.float32))
    def test_relu_backward_property(self, operands):
        upstream, activation = operands
        expected = np.where(activation > 0, upstream, 0)
        assert expected.dtype == np.float32
        result = relu_backward(upstream, activation)
        assert result.dtype == np.float32
        assert result.tobytes() == expected.tobytes()
        own = activation.copy()
        assert relu_backward(upstream, own, out=own) is own
        assert own.tobytes() == expected.tobytes()

    def test_relu_backward_special_values(self):
        upstream = np.array([[np.nan, np.inf, -np.inf, -0.0, 1.5, 2.5]], dtype=np.float32)
        activation = np.array([[1.0, 2.0, 3.0, 4.0, np.nan, -0.0]], dtype=np.float32)
        result = relu_backward(upstream, activation)
        assert result.tobytes() == np.where(activation > 0, upstream, 0).tobytes()
        assert np.signbit(result[0, 3]) and not np.signbit(result[0, 4])

    def test_mixed_operands_promote_to_float64(self):
        rng = make_rng(3)
        a = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal((4, 3))
        assert matmul(a, b).dtype == np.float64
        assert matmul(a, b).tobytes() == (a.astype(np.float64) @ b).tobytes()
        assert matmul(b.T, a.T).tobytes() == (b.T @ a.T.astype(np.float64)).tobytes()
        sparse = random_sparse(rng, 5, weighted=True)
        assert spmm(single(sparse), rng.standard_normal((5, 2))).dtype == np.float64
        assert spmm(sparse, a).dtype == np.float64
        gradient = relu_backward(a, rng.standard_normal((5, 4)))
        assert gradient.dtype == np.float64
        assert relu_backward(a.astype(np.float64), a).dtype == np.float64

    def test_other_inputs_become_float64(self):
        assert matmul([[1, 2]], np.ones((2, 1), dtype=np.int32)).dtype == np.float64
        assert relu(np.array([[-1, 2]])).dtype == np.float64
        assert relu_backward([[1, 2]], np.ones((1, 2), dtype=np.float16)).dtype == np.float64
        sparse = random_sparse(make_rng(4), 3, weighted=False)
        assert spmm(single(sparse), np.ones((3, 2), dtype=np.float16)).dtype == np.float64

    def test_out_of_the_other_dtype_rejected(self):
        a32, a64 = np.ones((2, 3), np.float32), np.ones((2, 3))
        b32 = np.ones((3, 4), np.float32)
        with pytest.raises(DimensionMismatchError):
            matmul(a32, b32, out=np.empty((2, 4)))
        with pytest.raises(DimensionMismatchError):
            matmul(a64, b32, out=np.empty((2, 4), np.float32))
        with pytest.raises(DimensionMismatchError):
            relu(a32, out=np.empty((2, 3)))
        with pytest.raises(DimensionMismatchError):
            relu(a64, out=np.empty((2, 3), np.float32))
        with pytest.raises(DimensionMismatchError):
            relu_backward(a32, a32, out=np.empty((2, 3)))
        with pytest.raises(DimensionMismatchError):
            relu_backward(a32, a64, out=np.empty((2, 3), np.float32))


class TestGlorot:
    def test_deterministic(self):
        a = glorot_init(5, 7, make_rng(3))
        b = glorot_init(5, 7, make_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_range_bound(self):
        rows, cols = 20, 50
        limit = math.sqrt(6.0 / (rows + cols))
        sample = glorot_init(rows, cols, make_rng(4))
        assert np.abs(sample).max() <= limit

    def test_mean_near_zero(self):
        sample = glorot_init(100, 100, make_rng(5))
        assert abs(sample.mean()) < 0.02

    def test_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            glorot_init(0, 3, make_rng(0))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([[1.0, -2.0]])
        state = AdamState()
        updated = adam_step(params, np.zeros_like(params), state, 0.1)
        np.testing.assert_array_equal(updated, params)
        assert state.t == 1

    def test_single_step_hand_value(self):
        # With g=1 and fresh state, bias correction gives a step of
        # lr * 1 / (1 + eps), which is 0.1 to within 1e-8.
        state = AdamState()
        updated = adam_step(np.array([[1.0]]), np.array([[1.0]]), state, 0.1)
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert abs(updated[0, 0] - expected) < 1e-15
        assert abs(updated[0, 0] - 0.9) < 1e-6

    def test_deterministic(self):
        rng = make_rng(6)
        params = rng.random((3, 4))
        grads = rng.standard_normal((3, 4))
        s1 = AdamState()
        s2 = AdamState()
        first = adam_step(params.copy(), grads, s1, 0.01)
        second = adam_step(params.copy(), grads, s2, 0.01)
        np.testing.assert_array_equal(first, second)
        third = adam_step(first, grads, copy.deepcopy(s1), 0.01)
        fourth = adam_step(second, grads, copy.deepcopy(s2), 0.01)
        np.testing.assert_array_equal(third, fourth)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            adam_step(np.zeros((2, 2)), np.zeros((2, 3)), AdamState(), 0.1)
        state = AdamState()
        adam_step(np.zeros((2, 2)), np.zeros((2, 2)), state, 0.1)
        with pytest.raises(DimensionMismatchError):
            adam_step(np.zeros((3, 3)), np.zeros((3, 3)), state, 0.1)

    def test_finite_inputs_stay_finite(self):
        rng = make_rng(8)
        state = AdamState()
        params = rng.standard_normal((4, 4)) * 100
        for _ in range(50):
            grads = rng.standard_normal((4, 4)) * 100
            params = adam_step(params, grads, state, 0.5)
            assert np.isfinite(params).all()


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(11).random(10)
        b = make_rng(11).random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(10), make_rng(2).random(10))
