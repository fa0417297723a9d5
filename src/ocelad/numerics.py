"""Numerical substrate: dense/sparse products, ReLU, init, Adam, RNG.

Everything runs in 64-bit floats on numpy arrays. The sparse product is one
scipy CSR kernel, reached through ``SparseAdjacency.csr``, which imports
``scipy.sparse`` on first use so that importing the package stays cheap.
Identical inputs (including generator state) produce bitwise-identical
outputs at a fixed BLAS thread count.

``matmul``, ``relu`` and ``relu_backward`` write into an optional ``out``
buffer instead of allocating, with the same bytes as without it, so a
training loop can reuse one workspace across epochs; ``relu`` may run in
place. ``relu_backward`` masks bit-wise: ``activation > 0`` becomes an int64
word of all ones or all zeros, which is ANDed onto the upstream gradient's
bits. That is exactly ``np.where(activation > 0, upstream, 0.0)``: +0.0
wherever the test fails (NaN activations included), and every kept upstream
value, NaN and infinities too, bit for bit.
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


def _check_out(out: np.ndarray, shape: tuple[int, ...]) -> None:
    if out.shape != shape or out.dtype != np.float64:
        raise DimensionMismatchError(
            f"out buffer {out.shape} {out.dtype} does not hold a float64 result of shape {shape}"
        )


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix product with explicit shape checking, into ``out`` when given."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    if out is not None:
        _check_out(out, (a.shape[0], b.shape[1]))
    return np.matmul(a, b, out=out)


def spmm(sparse: SparseAdjacency, dense: np.ndarray) -> np.ndarray:
    """Sparse (CSR) times dense product through the adjacency's scipy matrix.

    scipy's kernel walks each row's entries in stored order, single-threaded,
    so the result is deterministic across processes.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise DimensionMismatchError("dense operand must be 2-D")
    if sparse.n != dense.shape[0]:
        raise DimensionMismatchError(
            f"sparse has {sparse.n} columns, dense has {dense.shape[0]} rows"
        )
    return sparse.csr @ dense


def relu(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x), into ``out`` when given (``out=values`` runs in place)."""
    values = np.asarray(values, dtype=np.float64)
    if out is not None:
        _check_out(out, values.shape)
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
    upstream = np.asarray(upstream, dtype=np.float64)
    activation = np.asarray(activation, dtype=np.float64)
    if upstream.shape != activation.shape:
        raise DimensionMismatchError(
            f"upstream {upstream.shape} does not match activation {activation.shape}"
        )
    if out is None:
        out = np.empty(upstream.shape)
    else:
        _check_out(out, upstream.shape)
        if np.may_share_memory(out, upstream):
            raise ValueError("relu_backward cannot write over its upstream gradient")
    bits = out.view(np.int64)
    np.greater(activation, 0.0, out=bits)
    np.negative(bits, out=bits)
    np.bitwise_and(upstream.view(np.int64), bits, out=bits)
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
    """One bias-corrected Adam update; mutates ``state``, returns new parameters."""
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
