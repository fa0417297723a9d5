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

Training reuses one ``Workspace``, sized before the first epoch: H0's buffer
and one flat scratch of n * max(h1, h2, k) doubles, which holds each
short-lived product in turn (H0 * W1, Z * W2, the squared error, and the
upstream gradients of Xhat, Z and H0). ReLU runs in place on H0's buffer and
on the fresh arrays that the sparse products return, and the backward pass
masks each upstream gradient into the buffer of the activation it is masked
by. So an epoch allocates only the four sparse products' outputs and the
weight-sized gradients and Adam arrays. Every result has the same bytes as
with freshly allocated temporaries: ``out=`` never changes the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import EncodedGraph, FeatureLayout, encode_log
from .numerics import (
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


@dataclass
class TrainReport:
    """Loss per epoch (recorded before each update) and the final model."""

    losses: list[float]
    model: GcnaeModel


class Workspace:
    """The buffers an epoch writes into, sized once from n, k and the hidden widths.

    ``h0`` holds the first layer's activation and, after the backward pass,
    its masked gradient. The flat scratch is viewed through ``scratch``.
    """

    def __init__(self, n: int, k: int, hidden1: int, hidden2: int) -> None:
        self.h0 = np.empty((n, hidden1))
        self._flat = np.empty(n * max(hidden1, hidden2, k))

    def scratch(self, width: int) -> np.ndarray:
        """The scratch as a C-ordered n x ``width`` matrix."""
        n = self.h0.shape[0]
        if n * width > self._flat.size:
            raise DimensionMismatchError(f"workspace holds no n x {width} scratch")
        return self._flat[: n * width].reshape(n, width)


def _workspace(x: np.ndarray, model: GcnaeModel) -> Workspace:
    return Workspace(x.shape[0], x.shape[1], model.w0.shape[1], model.w1.shape[1])


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, reused by the backward pass.

    The post-activations double as the ReLU masks: relu(p) > 0 exactly when
    p > 0. With a workspace, ``h0`` is the workspace's buffer, and a
    backward pass given the same workspace overwrites ``h0``, ``z`` and
    ``xhat`` with masked gradients.
    """

    ax: np.ndarray
    h0: np.ndarray
    z: np.ndarray
    xhat: np.ndarray


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
    """One forward pass; ``ax`` is N * X when the caller already has it.

    Without a workspace the pass allocates a fresh one.
    """
    x = graph.features
    if x.shape[1] != model.w0.shape[0]:
        raise DimensionMismatchError(
            f"features have {x.shape[1]} columns, model expects {model.w0.shape[0]}"
        )
    norm = graph.normalized
    if ax is None:
        ax = spmm(norm, x)
    if workspace is None:
        workspace = _workspace(x, model)
    h0 = relu(matmul(ax, model.w0, out=workspace.h0), out=workspace.h0)
    z = spmm(norm, matmul(h0, model.w1, out=workspace.scratch(model.w1.shape[1])))
    relu(z, out=z)
    xhat = spmm(norm, matmul(z, model.w2, out=workspace.scratch(model.w2.shape[1])))
    relu(xhat, out=xhat)
    return ForwardCache(ax=ax, h0=h0, z=z, xhat=xhat)


def forward(graph: EncodedGraph, model: GcnaeModel) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and reconstruction: (Z: n x h2, Xhat: n x k)."""
    cache = forward_cached(graph, model)
    return cache.z, cache.xhat


def loss(x: np.ndarray, xhat: np.ndarray, out: np.ndarray | None = None) -> float:
    """Average row-wise mean squared error between input and reconstruction.

    ``out``, when given, is an x-shaped float64 buffer for the squared error.
    """
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise DimensionMismatchError(f"shape {x.shape} does not match {xhat.shape}")
    if out is not None and (out.shape != x.shape or out.dtype != np.float64):
        raise DimensionMismatchError(f"out buffer {out.shape} does not match {x.shape}")
    diff = np.subtract(x, xhat, out=out)
    # Overflow to inf is the signal the training loop turns into
    # NonFiniteLossError; no point warning about it here.
    with np.errstate(over="ignore"):
        return float(np.mean(np.multiply(diff, diff, out=diff)))


def backward(
    graph: EncodedGraph,
    model: GcnaeModel,
    cache: ForwardCache,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of the loss with respect to W0, W1, W2.

    Relies on the normalized adjacency being symmetric: left-multiplying an
    upstream gradient by N plays the role of N-transpose, so with
    P = N * d_pre both the weight gradient, input^T * P, and the gradient
    of the layer input, P * W^T, come from one sparse product.

    Each upstream gradient is built in the workspace's scratch and masked
    into the buffer of its activation, once that activation's last other
    use is past; so with a workspace the pass consumes ``cache``. Without
    one it works on copies and leaves ``cache`` intact.
    """
    x = graph.features
    n, k = x.shape
    norm = graph.normalized
    if workspace is None:
        workspace = _workspace(x, model)
        cache = ForwardCache(
            ax=cache.ax, h0=cache.h0.copy(), z=cache.z.copy(), xhat=cache.xhat.copy()
        )

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


def train(graph: EncodedGraph, config: TrainConfig) -> TrainReport:
    """Full-batch Adam training for the configured number of epochs.

    Deterministic given the config seed. Aborts with ``NonFiniteLossError``
    if the loss leaves the finite range.
    """
    model = init_model(graph.features.shape[1], config)
    states = {name: AdamState() for name in ("w0", "w1", "w2")}
    losses: list[float] = []
    x = graph.features
    workspace = _workspace(x, model)
    ax = spmm(graph.normalized, x)
    for epoch in range(config.epochs):
        cache = forward_cached(graph, model, ax, workspace)
        value = loss(x, cache.xhat, out=workspace.scratch(x.shape[1]))
        if not math.isfinite(value):
            raise NonFiniteLossError(epoch, value)
        losses.append(value)
        grad_w0, grad_w1, grad_w2 = backward(graph, model, cache, workspace)
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
    log: ObjectCentricLog, config: TrainConfig, k_factor: float = 1.5, scale_numeric: bool = True
) -> DetectionReport:
    """Encode ``log``, train, score every event and label it against the IQR threshold.

    A bad ``k_factor`` is rejected before any work starts. ``train`` checks
    the loss before each update only, so the final model's is checked here.
    """
    validate_k_factor(k_factor)
    graph = encode_log(log, scale_numeric=scale_numeric)
    report = train(graph, config)
    _, xhat = forward(graph, report.model)
    value = loss(graph.features, xhat)
    if not math.isfinite(value):
        raise NonFiniteLossError(config.epochs, value)
    scores = score_events(graph.features, xhat, graph.layout)
    threshold = iqr_threshold(scores, k_factor=k_factor)
    return DetectionReport(graph.event_ids, scores, label_events(scores, threshold), threshold)
