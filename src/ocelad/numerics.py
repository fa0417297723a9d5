"""Numerical substrate: dense/sparse products, ReLU, init, Adam, RNG.

The kernels keep the precision of their operands: float32 operands give a
float32 result and float64 operands a float64 one, a float32 operand next
to a float64 one is promoted to float64, and any other input is read as
float64. So float64 operands give the bytes of plain float64 numpy.
Initialization and Adam run in float64; ``adam_step`` takes gradients of
either precision. The sparse product is one scipy CSR kernel, reached
through ``SparseAdjacency.csr``, which imports ``scipy.sparse`` on first use
so that importing the package stays cheap. Identical inputs (including
generator state) produce bitwise-identical outputs at a fixed BLAS thread
count.

``matmul``, ``relu`` and ``relu_backward`` write into an optional ``out``
buffer instead of allocating, with the same bytes as without it, so a
training loop can reuse one workspace across epochs; ``out`` must have the
result's dtype, and ``relu`` may run in place. ``relu_backward`` masks
bit-wise: ``activation > 0`` becomes an integer word of the result's width,
all ones or all zeros, which is ANDed onto the upstream gradient's bits.
That is exactly ``np.where(activation > 0, upstream, 0.0)``: +0.0 wherever
the test fails (NaN activations included), and every kept upstream value,
NaN and infinities too, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import SparseAdjacency


class DimensionMismatchError(Exception):
    """Operand shapes are incompatible."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic 64-bit generator (PCG64); same seed, same stream everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def _operand(values: np.ndarray) -> np.ndarray:
    """``values`` as an array, float32 or float64 as given and float64 otherwise."""
    values = np.asarray(values)
    return values if values.dtype in _FLOATS else values.astype(np.float64)


def _check_out(out: np.ndarray, shape: tuple[int, ...], dtype: np.dtype) -> None:
    if out.shape != shape or out.dtype != dtype:
        raise DimensionMismatchError(
            f"out buffer {out.shape} {out.dtype} does not hold a {dtype} result of shape {shape}"
        )


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix product with explicit shape checking, into ``out`` when given."""
    a, b = _operand(a), _operand(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    if out is not None:
        _check_out(out, (a.shape[0], b.shape[1]), np.result_type(a, b))
    return np.matmul(a, b, out=out)


def spmm(sparse: SparseAdjacency, dense: np.ndarray) -> np.ndarray:
    """Sparse (CSR) times dense product through the adjacency's scipy matrix.

    scipy's kernel walks each row's entries in stored order, single-threaded,
    so the result is deterministic across processes. Its dtype is the wider
    of the matrix's weights and the dense operand's.
    """
    dense = _operand(dense)
    if dense.ndim != 2:
        raise DimensionMismatchError("dense operand must be 2-D")
    if sparse.n != dense.shape[0]:
        raise DimensionMismatchError(
            f"sparse has {sparse.n} columns, dense has {dense.shape[0]} rows"
        )
    return sparse.csr @ dense


def relu(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x), into ``out`` when given (``out=values`` runs in place)."""
    values = _operand(values)
    if out is not None:
        _check_out(out, values.shape, values.dtype)
    return np.maximum(values, 0.0, out=out)


def relu_backward(
    upstream: np.ndarray, activation: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Zero the upstream gradient wherever the activation is not > 0.

    ``activation`` may be the pre-activation or the ReLU output: relu(p) > 0
    exactly when p > 0, so both give the same mask. The derivative at
    exactly 0 is taken as 0. The mask is built in ``out``, so ``out`` may be
    the activation itself (its buffer then holds the masked gradient), but
    it must not overlap ``upstream``.
    """
    upstream, activation = _operand(upstream), _operand(activation)
    if upstream.shape != activation.shape:
        raise DimensionMismatchError(
            f"upstream {upstream.shape} does not match activation {activation.shape}"
        )
    dtype = np.result_type(upstream, activation)
    if out is None:
        out = np.empty(upstream.shape, dtype)
    else:
        _check_out(out, upstream.shape, dtype)
        if np.may_share_memory(out, upstream):
            raise ValueError("relu_backward cannot write over its upstream gradient")
    word = np.dtype(f"i{dtype.itemsize}")
    bits = out.view(word)
    np.greater(activation, 0.0, out=bits)
    np.negative(bits, out=bits)
    np.bitwise_and(upstream.astype(dtype, copy=False).view(word), bits, out=bits)
    return out


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in +/- sqrt(6 / (rows + cols))."""
    if rows <= 0 or cols <= 0:
        raise DimensionMismatchError("matrix dimensions must be positive")
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


# Adam's moment decay rates and denominator offset, the values of Kingma & Ba.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam accumulators.

    Moment buffers are allocated lazily on the first step so one constructor
    covers any parameter shape.
    """

    t: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, learning_rate: float
) -> np.ndarray:
    """One bias-corrected Adam update; mutates ``state``, returns new parameters.

    Parameters, moments and the update are float64 whatever the gradients'
    precision.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise DimensionMismatchError(
            f"parameter shape {params.shape} does not match gradient shape {grads.shape}"
        )
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    elif state.m.shape != params.shape:
        raise DimensionMismatchError(
            f"optimizer state shape {state.m.shape} does not match parameters {params.shape}"
        )
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    return params - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
