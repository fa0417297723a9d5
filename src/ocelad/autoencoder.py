"""Graph convolutional autoencoder: forward, analytic backward, training, scoring.

``run_detection`` is the end-to-end entry point, from a parsed log to a
``DetectionReport``.

The encoder is two graph-convolution layers and the decoder one more, all
sharing the normalized adjacency N:

    H0   = ReLU((N * X) * W0)
    Z    = ReLU(N * (H0 * W1))
    Xhat = ReLU(N * (Z * W2))

Layers 2 and 3 multiply by their weights before propagating, which narrows
the dense operand of the sparse product (the propagation order of Kipf &
Welling, ICLR 2017): layer 2 propagates hidden2 columns instead of hidden1,
the decoder k instead of hidden2. N * X does not change across epochs, so
``train`` computes it once.

Training minimizes the mean squared reconstruction error over all entries
(full batch, Adam). Gradients are derived by hand; N is symmetric, so its
transpose never needs materializing, and each weight gradient reuses the
propagated gradient that the layer below needs anyway. Per-event anomaly
scores average the squared reconstruction error within each feature group
first and across groups second, so wide one-hot blocks do not drown out
single numeric columns.

Training runs in single precision with double-precision master weights
(the mixed-precision scheme of Micikevicius et al., ICLR 2018): ``train``
builds a float32 twin of N and X once, copies the float64 weights into three
float32 buffers before each epoch, and hands the float32 gradients to Adam,
which updates the float64 weights and moments. The float32 epoch moves half
the bytes of a float64 one. The other functions keep their operands'
precision, so the final reconstruction, the scores and the threshold of
``run_detection`` are float64.

Training reuses one ``Workspace``, sized before the first epoch: H0's buffer
and one flat scratch of n * max(h1, h2, k) floats, which holds each
short-lived product in turn (H0 * W1, Z * W2, the squared error, and the
upstream gradients of Xhat, Z and H0); the ``ForwardCache`` carries it. ReLU
runs in place on H0's buffer and on the fresh arrays that the sparse products
return, and ``backward`` masks each upstream gradient into the buffer of the
activation it is masked by, so it consumes its cache. An epoch then allocates
only the four sparse products' outputs and the weight-sized gradients and
Adam arrays. Every result has the same bytes as with freshly allocated
temporaries: ``out=`` never changes the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .encoding import EncodedGraph, FeatureLayout, SparseAdjacency, encode_log
from .numerics import (
    AdamState,
    DimensionMismatchError,
    _check_out,
    _operand,
    adam_step,
    glorot_init,
    make_rng,
    matmul,
    relu,
    relu_backward,
    spmm,
)
from .ocel import ObjectCentricLog
from .scoring import DetectionReport, iqr_threshold, label_events, validate_k_factor


class NonFiniteLossError(Exception):
    """Training loss became NaN or infinite."""

    def __init__(self, epoch: int, value: float) -> None:
        super().__init__(f"loss is not finite at epoch {epoch}: {value!r}")
        self.epoch = epoch
        self.value = value


@dataclass
class GcnaeModel:
    """The three learnable weight matrices, chained k -> h1 -> h2 -> k."""

    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    hidden1: int = 64
    hidden2: int = 32
    learning_rate: float = 0.02
    epochs: int = 800
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden1 < 1 or self.hidden2 < 1:
            raise ValueError("hidden widths must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    """Loss per epoch (recorded before each update) and the final model."""

    losses: list[float]
    model: GcnaeModel


class Workspace:
    """The buffers an epoch writes into, sized once from ``x``'s shape and the hidden widths.

    ``h0`` holds the first layer's activation and, after the backward pass,
    its masked gradient; the flat scratch is viewed through ``scratch``. It
    exists to spare the epoch page faults: glibc hands n-row temporaries
    allocated afresh each epoch back to the kernel, and each is faulted in
    again. On a 2-vCPU x86 box, with detect-2k read from a file in a fresh
    process, epochs 200-400 took 257-284 minor faults each without it and
    0.08-0.14 with it; ``bench/run.py`` read a ``wall_s`` of 1.83-2.05 s
    without it against 1.10-1.34 s with it.
    """

    def __init__(self, x: np.ndarray, model: GcnaeModel) -> None:
        n, k = x.shape
        self.h0 = np.empty((n, model.w0.shape[1]), x.dtype)
        self._flat = np.empty(n * max(*model.w1.shape, k), x.dtype)

    def scratch(self, width: int) -> np.ndarray:
        """The scratch as a C-ordered n x ``width`` matrix."""
        n = self.h0.shape[0]
        if n * width > self._flat.size:
            raise DimensionMismatchError(f"workspace holds no n x {width} scratch")
        return self._flat[: n * width].reshape(n, width)


@dataclass
class ForwardCache:
    """Intermediates of one forward pass and the workspace they live in.

    The post-activations double as the ReLU masks: relu(p) > 0 exactly when
    p > 0. ``h0`` is the workspace's buffer. ``backward`` consumes the cache:
    it overwrites ``h0``, ``z`` and ``xhat`` with masked gradients.
    """

    ax: np.ndarray
    h0: np.ndarray
    z: np.ndarray
    xhat: np.ndarray
    workspace: Workspace


def init_model(n_features: int, config: TrainConfig) -> GcnaeModel:
    """Glorot-initialized weights, deterministic in the config seed.

    The decoder matrix takes the absolute value of its Glorot sample: the
    latent is ReLU-nonnegative, so a signed init can leave an output column
    with a nonpositive pre-activation at every node, where the final ReLU
    pins it to zero with no gradient to recover. Nonnegative decoder weights
    start every output column alive.
    """
    rng = make_rng(config.seed)
    return GcnaeModel(
        w0=glorot_init(n_features, config.hidden1, rng),
        w1=glorot_init(config.hidden1, config.hidden2, rng),
        w2=np.abs(glorot_init(config.hidden2, n_features, rng)),
    )


def forward_cached(
    graph: EncodedGraph,
    model: GcnaeModel,
    ax: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> ForwardCache:
    """One forward pass; ``ax`` is N * X if known; a fresh workspace is built if none is given."""
    x = graph.features
    if x.shape[1] != model.w0.shape[0]:
        raise DimensionMismatchError(
            f"features have {x.shape[1]} columns, model expects {model.w0.shape[0]}"
        )
    norm = graph.normalized
    if ax is None:
        ax = spmm(norm, x)
    if workspace is None:
        workspace = Workspace(x, model)
    h0 = relu(matmul(ax, model.w0, out=workspace.h0), out=workspace.h0)
    z = spmm(norm, matmul(h0, model.w1, out=workspace.scratch(model.w1.shape[1])))
    relu(z, out=z)
    xhat = spmm(norm, matmul(z, model.w2, out=workspace.scratch(model.w2.shape[1])))
    relu(xhat, out=xhat)
    return ForwardCache(ax=ax, h0=h0, z=z, xhat=xhat, workspace=workspace)


def forward(graph: EncodedGraph, model: GcnaeModel) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and reconstruction: (Z: n x h2, Xhat: n x k)."""
    cache = forward_cached(graph, model)
    return cache.z, cache.xhat


def loss(x: np.ndarray, xhat: np.ndarray, out: np.ndarray | None = None) -> float:
    """Average row-wise mean squared error between input and reconstruction.

    Computed in the operands' precision, as the numerics kernels are: float32
    for float32 operands, float64 otherwise. ``out``, when given, is an
    x-shaped buffer of that dtype for the squared error.
    """
    x, xhat = _operand(x), _operand(xhat)
    if x.shape != xhat.shape:
        raise DimensionMismatchError(f"shape {x.shape} does not match {xhat.shape}")
    if out is not None:
        _check_out(out, x.shape, np.result_type(x, xhat))
    diff = np.subtract(x, xhat, out=out)
    # Overflow to inf is the signal the training loop turns into
    # NonFiniteLossError; no point warning about it here.
    with np.errstate(over="ignore"):
        return float(np.mean(np.multiply(diff, diff, out=diff)))


def backward(
    graph: EncodedGraph, model: GcnaeModel, cache: ForwardCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of the loss with respect to W0, W1, W2.

    Relies on the normalized adjacency being symmetric: left-multiplying an
    upstream gradient by N plays the role of N-transpose, so with
    P = N * d_pre both the weight gradient, input^T * P, and the gradient
    of the layer input, P * W^T, come from one sparse product.

    Each upstream gradient is built in the cache's workspace scratch and
    masked into the buffer of its activation, once that activation's last
    other use is past; so the pass consumes ``cache``.
    """
    x = graph.features
    n, k = x.shape
    norm = graph.normalized
    workspace = cache.workspace

    d_xhat = np.subtract(cache.xhat, x, out=workspace.scratch(k))
    d_xhat *= 2.0 / (n * k)
    n_d_h2 = spmm(norm, relu_backward(d_xhat, cache.xhat, out=cache.xhat))
    grad_w2 = matmul(cache.z.T, n_d_h2)

    d_z = matmul(n_d_h2, model.w2.T, out=workspace.scratch(model.w2.shape[0]))
    n_d_h1 = spmm(norm, relu_backward(d_z, cache.z, out=cache.z))
    grad_w1 = matmul(cache.h0.T, n_d_h1)

    d_h0 = matmul(n_d_h1, model.w1.T, out=workspace.scratch(model.w1.shape[0]))
    grad_w0 = matmul(cache.ax.T, relu_backward(d_h0, cache.h0, out=cache.h0))

    return grad_w0, grad_w1, grad_w2


def _float32_twin(graph: EncodedGraph) -> EncodedGraph:
    """``graph`` with its features and normalized adjacency rounded to float32.

    A value beyond float32's range becomes an infinity, which the training
    loop reports as a non-finite loss.
    """
    norm = graph.normalized
    with np.errstate(over="ignore"):
        return replace(
            graph,
            normalized=SparseAdjacency(
                norm.n, norm.indptr, norm.indices, norm.weights.astype(np.float32)
            ),
            features=graph.features.astype(np.float32),
        )


def train(graph: EncodedGraph, config: TrainConfig) -> TrainReport:
    """Full-batch Adam training for the configured number of epochs.

    Every epoch runs in float32 on a float32 copy of the graph and of the
    weights; the returned model holds the float64 master weights that Adam
    updates. Deterministic given the config seed. Aborts with
    ``NonFiniteLossError`` if the loss leaves float32's finite range.
    """
    model = init_model(graph.features.shape[1], config)
    states = {name: AdamState() for name in ("w0", "w1", "w2")}
    losses: list[float] = []
    graph = _float32_twin(graph)
    x = graph.features
    weights = GcnaeModel(
        *(np.empty(w.shape, np.float32) for w in (model.w0, model.w1, model.w2))
    )
    workspace = Workspace(x, weights)
    ax = spmm(graph.normalized, x)
    # A diverging run overflows in the products (and in the weight casts)
    # before its loss turns non-finite; NonFiniteLossError reports it, so
    # numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            np.copyto(weights.w0, model.w0)
            np.copyto(weights.w1, model.w1)
            np.copyto(weights.w2, model.w2)
            cache = forward_cached(graph, weights, ax, workspace)
            value = loss(x, cache.xhat, out=workspace.scratch(x.shape[1]))
            if not math.isfinite(value):
                raise NonFiniteLossError(epoch, value)
            losses.append(value)
            grad_w0, grad_w1, grad_w2 = backward(graph, weights, cache)
            model.w0 = adam_step(model.w0, grad_w0, states["w0"], config.learning_rate)
            model.w1 = adam_step(model.w1, grad_w1, states["w1"], config.learning_rate)
            model.w2 = adam_step(model.w2, grad_w2, states["w2"], config.learning_rate)
    return TrainReport(losses=losses, model=model)


def score_events(x: np.ndarray, xhat: np.ndarray, layout: FeatureLayout) -> np.ndarray:
    """Per-event anomaly scores: group-wise MSE averaged across feature groups."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise DimensionMismatchError(f"shape {x.shape} does not match {xhat.shape}")
    if x.shape[1] != layout.n_columns:
        raise DimensionMismatchError(
            f"matrix has {x.shape[1]} columns, layout expects {layout.n_columns}"
        )
    squared = (x - xhat) ** 2
    group_means = [
        squared[:, group.start : group.stop].mean(axis=1) for group in layout.groups
    ]
    return np.mean(group_means, axis=0)


def run_detection(
    log: ObjectCentricLog, config: TrainConfig, k_factor: float = 1.5
) -> DetectionReport:
    """Encode ``log``, train, score every event and label it against the IQR threshold.

    A bad ``k_factor`` or an empty log is rejected before any work starts.
    ``train`` checks the loss before each update only, so the final model's
    is checked here.
    """
    validate_k_factor(k_factor)
    if not log.ids:
        raise ValueError("cannot run detection on an empty log")
    graph = encode_log(log)
    report = train(graph, config)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model raises below
        _, xhat = forward(graph, report.model)
        value = loss(graph.features, xhat)
    if not math.isfinite(value):
        raise NonFiniteLossError(config.epochs, value)
    scores = score_events(graph.features, xhat, graph.layout)
    threshold = iqr_threshold(scores, k_factor=k_factor)
    return DetectionReport(graph.event_ids, scores, label_events(scores, threshold), threshold)
