"""Forward pass, analytic gradients, training loop, and anomaly scoring."""

import math
import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ocelad
from ocelad import autoencoder
from ocelad.autoencoder import (
    GcnaeModel,
    NonFiniteLossError,
    TrainConfig,
    TrainReport,
    backward,
    forward,
    forward_cached,
    init_model,
    loss,
    score_events,
    train,
)
from ocelad.encoding import (
    EncodedGraph,
    FeatureGroup,
    FeatureLayout,
    GroupKind,
    SparseAdjacency,
    encode_log,
    normalize_adjacency,
)
from ocelad.generator import GenConfig, generate
from ocelad.instances import build_instances
from ocelad.numerics import AdamState, DimensionMismatchError, adam_step, make_rng, relu
from ocelad.ocel import assemble_log

from conftest import finite_difference_gradients, toy_graph


def single_node_graph(x: float) -> EncodedGraph:
    adjacency = SparseAdjacency(
        n=1, indptr=np.zeros(2, dtype=np.int64), indices=np.zeros(0, dtype=np.int64)
    )
    layout = FeatureLayout(
        groups=(FeatureGroup(name="v", kind=GroupKind.NUMERIC, start=0, stop=1),),
        n_columns=1,
    )
    return EncodedGraph(
        normalized=normalize_adjacency(adjacency),
        features=np.array([[x]]),
        layout=layout,
        event_ids=("e0",),
    )


def reference_train(
    graph: EncodedGraph, config: TrainConfig, dtype: type = np.float32
) -> TrainReport:
    """The training loop in plain numpy, every epoch allocating its temporaries.

    Kept as the byte-identity oracle for ``train``: it rounds the features
    and the normalized adjacency to ``dtype`` once, casts the float64 master
    weights to ``dtype`` every epoch, spells out the kernels (``a @ b``,
    ``np.maximum`` and ``np.where``) inline and updates the master weights
    with the float64 ``adam_step``. With ``dtype=np.float64`` it is the loop
    before single precision, kept as a second oracle.
    """
    with np.errstate(over="ignore"):
        x = graph.features.astype(dtype)
        csr = graph.normalized.csr.astype(dtype)
    n, k = x.shape
    model = init_model(k, config)
    states = {name: AdamState() for name in ("w0", "w1", "w2")}
    losses = []
    ax = csr @ x
    for epoch in range(config.epochs):
        with np.errstate(over="ignore"):
            w0, w1, w2 = (w.astype(dtype) for w in (model.w0, model.w1, model.w2))
        h0 = np.maximum(ax @ w0, 0.0)
        z = np.maximum(csr @ (h0 @ w1), 0.0)
        xhat = np.maximum(csr @ (z @ w2), 0.0)
        diff = x - xhat
        with np.errstate(over="ignore"):
            value = float(np.mean(diff * diff))
        if not math.isfinite(value):
            raise NonFiniteLossError(epoch, value)
        losses.append(value)
        d_xhat = (2.0 / (n * k)) * (xhat - x)
        n_d_h2 = csr @ np.where(xhat > 0.0, d_xhat, 0.0)
        grad_w2 = z.T @ n_d_h2
        d_z = n_d_h2 @ w2.T
        n_d_h1 = csr @ np.where(z > 0.0, d_z, 0.0)
        grad_w1 = h0.T @ n_d_h1
        d_h0 = n_d_h1 @ w1.T
        grad_w0 = ax.T @ np.where(h0 > 0.0, d_h0, 0.0)
        model.w0 = adam_step(model.w0, grad_w0, states["w0"], config.learning_rate)
        model.w1 = adam_step(model.w1, grad_w1, states["w1"], config.learning_rate)
        model.w2 = adam_step(model.w2, grad_w2, states["w2"], config.learning_rate)
    return TrainReport(losses=losses, model=model)


def tiled_reference_train(log, graph: EncodedGraph, config: TrainConfig) -> TrainReport:
    """``reference_train`` run tile by tile, on tiles built from the log's instances.

    Kept as the byte-identity oracle for ``train`` on a log of more than one
    tile. It packs ``build_instances(log).instances``, in order of their
    smallest event, into runs of at most 4,096 events, cuts each tile's
    matrix out of the whole one with scipy's indexing, and runs every tile's
    forward and backward pass with the loss scaled to the whole graph. The
    epoch's loss is the sum of the tiles' means weighted by their shares of
    the rows, and each weight gradient the sum of the tiles' partials in
    tile order.
    """
    packed = [[]]
    for nodes in sorted((inst.node_indices for inst in build_instances(log).instances), key=min):
        if packed[-1] and len(packed[-1]) + len(nodes) > 4096:
            packed.append([])
        packed[-1].extend(nodes)
    csr = graph.normalized.csr.astype(np.float32)
    n, k = graph.features.shape
    tiles = []
    for rows in map(sorted, packed):
        sub = csr[rows][:, rows]
        sub.sort_indices()
        tiles.append((sub, graph.features[rows].astype(np.float32)))
    model = init_model(k, config)
    states = {name: AdamState() for name in ("w0", "w1", "w2")}
    losses = []
    axs = [sub @ x for sub, x in tiles]
    for epoch in range(config.epochs):
        w0, w1, w2 = (w.astype(np.float32) for w in (model.w0, model.w1, model.w2))
        value, grads = 0.0, None
        for (sub, x), ax in zip(tiles, axs):
            h0 = np.maximum(ax @ w0, 0.0)
            z = np.maximum(sub @ (h0 @ w1), 0.0)
            xhat = np.maximum(sub @ (z @ w2), 0.0)
            diff = x - xhat
            value += float(np.mean(diff * diff)) * (x.shape[0] / n)
            d_xhat = (2.0 / (n * k)) * (xhat - x)
            n_d_h2 = sub @ np.where(xhat > 0.0, d_xhat, 0.0)
            n_d_h1 = sub @ np.where(z > 0.0, n_d_h2 @ w2.T, 0.0)
            d_h0 = np.where(h0 > 0.0, n_d_h1 @ w1.T, 0.0)
            partials = (ax.T @ d_h0, h0.T @ n_d_h1, z.T @ n_d_h2)
            grads = partials if grads is None else tuple(g + p for g, p in zip(grads, partials))
        if not math.isfinite(value):
            raise NonFiniteLossError(epoch, value)
        losses.append(value)
        model.w0 = adam_step(model.w0, grads[0], states["w0"], config.learning_rate)
        model.w1 = adam_step(model.w1, grads[1], states["w1"], config.learning_rate)
        model.w2 = adam_step(model.w2, grads[2], states["w2"], config.learning_rate)
    return TrainReport(losses=losses, model=model)


def training_outcome(trainer, graph: EncodedGraph, config: TrainConfig) -> tuple:
    """The bytes of a run's losses and weights, or the epoch and value it failed at."""
    with np.errstate(all="ignore"):
        try:
            report = trainer(graph, config)
        except NonFiniteLossError as error:
            return ("non-finite", error.epoch, np.float64(error.value).tobytes())
    weights = (report.model.w0, report.model.w1, report.model.w2)
    return ("report", np.array(report.losses).tobytes(), *(w.tobytes() for w in weights))


@pytest.fixture(scope="module")
def detect_2k_log():
    """The benchmark's detect-2k log at its seed 11 (generate 11, inject 12)."""
    clean = ocelad.generate(ocelad.benchmark_config(n_orders=320, seed=11))
    contaminated, _ = ocelad.inject_all(clean, ocelad.plan_injection(len(clean.ids), 0.10, 12))
    return contaminated


@pytest.fixture(scope="module")
def detect_2k_graph(detect_2k_log) -> EncodedGraph:
    """The detect-2k log, encoded."""
    return encode_log(detect_2k_log)


# Epochs 200-400 of one run: the faults of a 400-epoch run less those of a
# 200-epoch run, after a 5-epoch warm-up. The graph is read from the file
# named by the first argument, as the benchmark's timed runs read theirs.
FRESH_PROCESS_FAULTS = textwrap.dedent(
    """
    import resource, sys
    from pathlib import Path
    from ocelad.autoencoder import TrainConfig, train
    from ocelad.encoding import encode_log
    from ocelad.ocel import parse_ocel_json

    graph = encode_log(parse_ocel_json(Path(sys.argv[1]).read_bytes()))
    train(graph, TrainConfig(epochs=5, seed=100))

    def faults(epochs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(graph, TrainConfig(epochs=epochs, seed=100))
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    print((faults(400) - faults(200)) / 200)
    """
)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    # Entry-wise relative error with a floor that keeps finite-difference
    # noise on true-zero entries from registering as disagreement.
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5)
    return float((np.abs(a - b) / denom).max())


class TestForward:
    def test_zero_weights_give_zero_outputs(self):
        graph = toy_graph(make_rng(0), n=6, k=4)
        model = GcnaeModel(w0=np.zeros((4, 3)), w1=np.zeros((3, 2)), w2=np.zeros((2, 4)))
        z, xhat = forward(graph, model)
        np.testing.assert_array_equal(z, np.zeros((6, 2)))
        np.testing.assert_array_equal(xhat, np.zeros((6, 4)))

    def test_single_node_unit_weights(self):
        graph = single_node_graph(0.5)
        model = GcnaeModel(w0=np.ones((1, 1)), w1=np.ones((1, 1)), w2=np.ones((1, 1)))
        z, xhat = forward(graph, model)
        assert z[0, 0] == 0.5
        assert xhat[0, 0] == 0.5

    def test_matches_dense_straight_line_oracle(self):
        rng = make_rng(17)
        for _ in range(20):
            n, k = int(rng.integers(2, 13)), int(rng.integers(1, 7))
            graph = toy_graph(rng, n=n, k=k)
            model = init_model(k, TrainConfig(hidden1=5, hidden2=3, seed=int(rng.integers(1000))))
            dense = graph.normalized.to_dense()
            h0 = relu(dense @ graph.features @ model.w0)
            z_expected = relu(dense @ h0 @ model.w1)
            xhat_expected = relu(dense @ z_expected @ model.w2)
            z, xhat = forward(graph, model)
            np.testing.assert_allclose(z, z_expected, atol=1e-12)
            np.testing.assert_allclose(xhat, xhat_expected, atol=1e-12)

    def test_shape_mismatch(self):
        graph = toy_graph(make_rng(1), n=4, k=3)
        model = init_model(5, TrainConfig())
        with pytest.raises(DimensionMismatchError):
            forward(graph, model)

    def test_outputs_non_negative(self):
        graph = toy_graph(make_rng(2), n=8, k=5)
        model = init_model(5, TrainConfig(hidden1=4, hidden2=3, seed=9))
        z, xhat = forward(graph, model)
        assert z.min() >= 0.0
        assert xhat.min() >= 0.0


class TestLoss:
    def test_perfect_reconstruction(self):
        x = make_rng(3).random((4, 5))
        assert loss(x, x.copy()) == 0.0

    def test_hand_example(self):
        assert loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])) == 0.5

    def test_matches_double_loop_oracle(self):
        rng = make_rng(4)
        for _ in range(50):
            n, k = int(rng.integers(1, 10)), int(rng.integers(1, 8))
            x = rng.standard_normal((n, k))
            xhat = rng.standard_normal((n, k))
            expected = 0.0
            for u in range(n):
                row = 0.0
                for j in range(k):
                    row += (x[u, j] - xhat[u, j]) ** 2
                expected += row / k
            expected /= n
            assert abs(loss(x, xhat) - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loss(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_single_precision(self):
        rng = make_rng(6)
        x = rng.standard_normal((9, 4)).astype(np.float32)
        xhat = rng.standard_normal((9, 4)).astype(np.float32)
        diff = x - xhat
        assert loss(x, xhat) == float(np.mean(diff * diff))
        assert loss(x, xhat, out=np.empty((9, 4), np.float32)) == loss(x, xhat)
        with pytest.raises(DimensionMismatchError):
            loss(x, xhat, out=np.empty((9, 4)))
        assert loss(x, xhat.astype(np.float64)) == loss(x.astype(np.float64), xhat)

    def test_out_buffer_gives_same_value(self):
        rng = make_rng(5)
        x, xhat = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        assert loss(x, xhat, out=np.empty((9, 4))) == loss(x, xhat)
        with pytest.raises(DimensionMismatchError):
            loss(x, xhat, out=np.zeros((9, 5)))


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = make_rng(55)
        for _ in range(5):
            n, k = int(rng.integers(3, 11)), int(rng.integers(2, 7))
            graph = toy_graph(rng, n=n, k=k)
            model = init_model(k, TrainConfig(hidden1=5, hidden2=3, seed=int(rng.integers(1000))))
            cache = forward_cached(graph, model)
            analytic = backward(graph, model, cache)
            numeric = finite_difference_gradients(graph, model)
            for a, f in zip(analytic, numeric):
                assert relative_error(a, f) < 1e-4

    def test_perfect_reconstruction_gives_zero_gradients(self):
        graph = single_node_graph(0.5)
        model = GcnaeModel(w0=np.ones((1, 1)), w1=np.ones((1, 1)), w2=np.ones((1, 1)))
        cache = forward_cached(graph, model)
        assert loss(graph.features, cache.xhat) == 0.0
        for grad in backward(graph, model, cache):
            np.testing.assert_array_equal(grad, np.zeros((1, 1)))

    def test_zero_features_zero_weights(self):
        graph = toy_graph(make_rng(5), n=5, k=3)
        graph.features[:] = 0.0
        model = GcnaeModel(w0=np.zeros((3, 4)), w1=np.zeros((4, 2)), w2=np.zeros((2, 3)))
        cache = forward_cached(graph, model)
        for grad in backward(graph, model, cache):
            np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_backward_consumes_its_cache(self):
        # Each upstream gradient is masked into its activation's buffer, so
        # afterwards xhat, z and h0 hold the masked gradients and only a
        # fresh forward pass gives the gradients again.
        graph = toy_graph(make_rng(9), n=7, k=4)
        model = init_model(4, TrainConfig(hidden1=5, hidden2=3, seed=2))
        x, dense = graph.features, graph.normalized.to_dense()
        cache = forward_cached(graph, model)
        ax, h0, z, xhat = (a.copy() for a in (cache.ax, cache.h0, cache.z, cache.xhat))
        first = backward(graph, model, cache)
        assert cache.ax.tobytes() == ax.tobytes()
        assert np.shares_memory(cache.h0, cache.workspace.h0)
        d_xhat = np.where(xhat > 0.0, (xhat - x) * (2.0 / x.size), 0.0)
        d_z = np.where(z > 0.0, dense @ d_xhat @ model.w2.T, 0.0)
        d_h0 = np.where(h0 > 0.0, dense @ d_z @ model.w1.T, 0.0)
        np.testing.assert_array_equal(cache.xhat, d_xhat)
        np.testing.assert_allclose(cache.z, d_z, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(cache.h0, d_h0, rtol=1e-12, atol=1e-15)
        second = backward(graph, model, forward_cached(graph, model))
        assert [g.tobytes() for g in first] == [g.tobytes() for g in second]


class TestTrain:
    def test_single_epoch(self):
        graph = toy_graph(make_rng(6), n=6, k=4)
        report = train(graph, TrainConfig(hidden1=4, hidden2=2, epochs=1, seed=0))
        assert len(report.losses) == 1
        fresh = init_model(4, TrainConfig(hidden1=4, hidden2=2, epochs=1, seed=0))
        assert not np.array_equal(report.model.w0, fresh.w0)

    def test_same_seed_identical_runs(self):
        graph = toy_graph(make_rng(7), n=8, k=4)
        config = TrainConfig(hidden1=5, hidden2=3, epochs=20, seed=42)
        first = train(graph, config)
        second = train(graph, config)
        assert first.losses == second.losses
        np.testing.assert_array_equal(first.model.w0, second.model.w0)
        np.testing.assert_array_equal(first.model.w1, second.model.w1)
        np.testing.assert_array_equal(first.model.w2, second.model.w2)

    def test_loss_decreases_on_small_log(self):
        log = generate(GenConfig(n_orders=10, seed=3))
        graph = encode_log(log)
        report = train(graph, TrainConfig(epochs=150, seed=1))
        assert report.losses[-1] < report.losses[0]

    def test_non_finite_loss_aborts_with_epoch(self):
        graph = toy_graph(make_rng(8), n=4, k=3)
        graph.features[:] = 1e200
        with pytest.raises(NonFiniteLossError) as excinfo:
            train(graph, TrainConfig(hidden1=3, hidden2=2, epochs=10, seed=0))
        assert excinfo.value.epoch >= 0

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        k=st.integers(1, 8),
        hidden1=st.integers(1, 12),
        hidden2=st.integers(1, 12),
        epochs=st.integers(1, 5),
        learning_rate=st.sampled_from([0.02, 0.5, 1e150, 1e300]),
    )
    @example(seed=0, n=1, k=1, hidden1=12, hidden2=12, epochs=5, learning_rate=0.02)
    @example(seed=1, n=40, k=8, hidden1=1, hidden2=1, epochs=5, learning_rate=0.02)
    def test_property_same_bytes_as_reference(
        self, seed, n, k, hidden1, hidden2, epochs, learning_rate
    ):
        graph = toy_graph(make_rng(seed), n=n, k=k)
        config = TrainConfig(
            hidden1=hidden1, hidden2=hidden2, epochs=epochs, seed=seed,
            learning_rate=learning_rate,
        )
        assert training_outcome(train, graph, config) == training_outcome(
            reference_train, graph, config
        )

    def test_detect_2k_graph_same_bytes_as_reference(self, detect_2k_graph):
        graph = detect_2k_graph
        assert graph.features.shape[0] == 1986
        config = TrainConfig(epochs=50, seed=100)
        outcome = training_outcome(train, graph, config)
        assert outcome[0] == "report"
        assert outcome == training_outcome(reference_train, graph, config)

    def test_detect_2k_graph_losses_near_float64_loop(self, detect_2k_graph):
        # Single precision follows the float64 loop closely at first; later
        # the curves drift apart, as float64 runs at different BLAS thread
        # counts already do.
        graph = detect_2k_graph
        config = TrainConfig(epochs=50, seed=100)
        single = np.array(train(graph, config).losses)
        double = np.array(reference_train(graph, config, np.float64).losses)
        assert float(np.max(np.abs(single - double) / double)) < 1e-6

    def test_detect_2k_epochs_take_no_page_faults(self, detect_2k_graph):
        # Epochs 200-400 of one run: the faults of a 400-epoch run less
        # those of a 200-epoch run. An epoch that hands its buffers back to
        # the kernel and faults them in again takes hundreds of faults.
        graph = detect_2k_graph
        train(graph, TrainConfig(epochs=5, seed=100))

        def faults(epochs: int) -> int:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(graph, TrainConfig(epochs=epochs, seed=100))
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        per_epoch = (faults(400) - faults(200)) / 200
        assert per_epoch < 10

    def test_fresh_process_epochs_take_no_page_faults(self, detect_2k_log, tmp_path):
        # The in-process test above runs after generate and inject, whose
        # allocations hide the churn of an epoch that allocates its n-row
        # temporaries afresh. A fresh process that reads the log from a file
        # shows it; one that generated its own log would hide it again.
        path = tmp_path / "detect-2k.jsonocel"
        path.write_bytes(ocelad.write_ocel_json(detect_2k_log))
        src = str(Path(autoencoder.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", FRESH_PROCESS_FAULTS, str(path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            check=True, timeout=600,
        )
        assert float(completed.stdout) < 10

    def test_non_finite_loss_at_reference_epoch(self):
        # A huge step sends the weights past float range after the first
        # update, so both loops stop at epoch 1; overflowing features stop
        # them at epoch 0.
        graph = toy_graph(make_rng(10), n=12, k=4)
        config = TrainConfig(hidden1=6, hidden2=3, epochs=10, seed=3, learning_rate=1e300)
        diverged = training_outcome(train, graph, config)
        assert diverged[:2] == ("non-finite", 1)
        assert diverged == training_outcome(reference_train, graph, config)
        graph.features[:] = 1e200
        overflowed = training_outcome(train, graph, config)
        assert overflowed[:2] == ("non-finite", 0)
        assert overflowed == training_outcome(reference_train, graph, config)

    def test_epochs_reuse_one_workspace(self, monkeypatch):
        # Every n-row dense product of every epoch lands in one of two
        # buffers, H0's and the flat scratch, so no epoch after the first
        # allocates an n x hidden temporary.
        graph = toy_graph(make_rng(11), n=30, k=4)
        h0_buffers, products = [], []
        original_forward, original_matmul = autoencoder.forward_cached, autoencoder.matmul

        def recording_forward(*args, **kwargs):
            cache = original_forward(*args, **kwargs)
            h0_buffers.append(cache.h0)
            return cache

        def recording_matmul(*args, **kwargs):
            result = original_matmul(*args, **kwargs)
            if result.shape[0] == 30:
                products.append(result)
            return result

        monkeypatch.setattr(autoencoder, "forward_cached", recording_forward)
        monkeypatch.setattr(autoencoder, "matmul", recording_matmul)
        train(graph, TrainConfig(hidden1=8, hidden2=5, epochs=3, seed=0))
        assert len(h0_buffers) == 3 and len(products) == 15
        assert all(np.shares_memory(h0_buffers[0], h0) for h0 in h0_buffers[1:])
        owners = {id(p if p.base is None else p.base) for p in products}
        assert len(owners) == 2

    def test_tiled_log_same_bytes_as_tiled_reference(self, tiled_log):
        graph = encode_log(tiled_log)
        assert len(graph.tiles) == 2
        config = TrainConfig(epochs=20, seed=100)
        outcome = training_outcome(train, graph, config)
        assert outcome[0] == "report"
        assert outcome == training_outcome(
            lambda graph, config: tiled_reference_train(tiled_log, graph, config), graph, config
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(hidden1=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    def test_empty_log_rejected_before_encoding(self, monkeypatch):
        monkeypatch.setattr(autoencoder, "encode_log", lambda *args, **kw: pytest.fail("encoded"))
        with pytest.raises(ValueError, match="cannot run detection on an empty log"):
            autoencoder.run_detection(assemble_log([], []), TrainConfig(epochs=1))


class TestTiledDetection:
    def test_scores_match_the_whole_graph(self, tiled_log, monkeypatch):
        trained = []

        def recording_train(graph, config):
            trained.append(train(graph, config))
            return trained[-1]

        monkeypatch.setattr(autoencoder, "train", recording_train)
        report = autoencoder.run_detection(tiled_log, TrainConfig(epochs=10, seed=100))
        graph = encode_log(tiled_log)
        _, xhat = forward(graph, trained[0].model)
        expected = score_events(graph.features, xhat, graph.layout)
        assert report.event_ids == graph.event_ids
        np.testing.assert_allclose(report.scores, expected, rtol=1e-12, atol=0.0)

    def test_no_pass_sees_more_than_one_tile(self, tiled_log, monkeypatch):
        sizes = {"forward": [], "forward_cached": [], "backward": []}
        for name, rows in sizes.items():
            original = getattr(autoencoder, name)

            def recording(graph, *args, _original=original, _rows=rows, **kwargs):
                _rows.append(graph.n)
                return _original(graph, *args, **kwargs)

            monkeypatch.setattr(autoencoder, name, recording)
        autoencoder.run_detection(tiled_log, TrainConfig(epochs=3, seed=100))
        assert sizes["forward"] == [4092, 253]
        assert sizes["forward_cached"][:2] == sizes["backward"][:2] == [4092, 253]
        assert max(max(rows) for rows in sizes.values()) <= 4096


class TestScores:
    def test_perfect_reconstruction_scores_zero(self):
        graph = toy_graph(make_rng(9), n=5, k=4)
        scores = score_events(graph.features, graph.features.copy(), graph.layout)
        np.testing.assert_array_equal(scores, np.zeros(5))

    def test_group_averaged_hand_example(self):
        # Two-column activity group with squared errors (0.2, 0.0) and a
        # single numeric column with squared error 0.3: the group means are
        # 0.1 and 0.3, so the score is 0.2 while the plain row mean is ~0.167.
        layout = FeatureLayout(
            groups=(
                FeatureGroup(name="activity", kind=GroupKind.ACTIVITY, start=0, stop=2,
                             vocabulary=("a", "b")),
                FeatureGroup(name="n", kind=GroupKind.NUMERIC, start=2, stop=3),
            ),
            n_columns=3,
        )
        x = np.array([[1.0, 0.0, 1.0]])
        xhat = x - np.sqrt([[0.2, 0.0, 0.3]])
        scores = score_events(x, xhat, layout)
        assert abs(scores[0] - 0.2) < 1e-12
        plain = ((x - xhat) ** 2).mean()
        assert abs(plain - 0.2) > 0.03

    def test_scores_non_negative(self):
        rng = make_rng(10)
        graph = toy_graph(rng, n=7, k=5)
        scores = score_events(graph.features, rng.random((7, 5)), graph.layout)
        assert scores.min() >= 0.0

    def test_layout_mismatch(self):
        graph = toy_graph(make_rng(11), n=4, k=3)
        with pytest.raises(DimensionMismatchError):
            score_events(np.zeros((4, 5)), np.zeros((4, 5)), graph.layout)


def edge_matrix(graph: EncodedGraph) -> np.ndarray:
    """The graph's symmetrized edges as a 0/1 matrix: its normalized adjacency off the diagonal."""
    dense = (graph.normalized.to_dense() != 0).astype(np.float64)
    np.fill_diagonal(dense, 0.0)
    return dense


class TestEquivariance:
    def build_permuted(self, graph, perm):
        permuted = edge_matrix(graph)[np.ix_(perm, perm)]
        pairs = sorted(zip(*np.nonzero(permuted)))
        indptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(np.bincount([u for u, _ in pairs], minlength=graph.n), out=indptr[1:])
        adjacency = SparseAdjacency(
            n=graph.n,
            indptr=indptr,
            indices=np.array([v for _, v in pairs], dtype=np.int64),
        )
        return EncodedGraph(
            normalized=normalize_adjacency(adjacency),
            features=graph.features[perm],
            layout=graph.layout,
            event_ids=tuple(graph.event_ids[i] for i in perm),
        )

    def test_permuting_nodes_permutes_outputs(self):
        rng = make_rng(12)
        graph = toy_graph(rng, n=9, k=4)
        model = init_model(4, TrainConfig(hidden1=5, hidden2=3, seed=3))
        perm = list(rng.permutation(9))
        permuted_graph = self.build_permuted(graph, perm)
        z, xhat = forward(graph, model)
        pz, pxhat = forward(permuted_graph, model)
        np.testing.assert_allclose(pz, z[perm], atol=1e-12)
        np.testing.assert_allclose(pxhat, xhat[perm], atol=1e-12)
        scores = score_events(graph.features, xhat, graph.layout)
        pscores = score_events(permuted_graph.features, pxhat, graph.layout)
        np.testing.assert_allclose(pscores, scores[perm], atol=1e-12)


class TestDisconnectedIndependence:
    def test_adding_disjoint_component_leaves_scores_unchanged(self):
        rng = make_rng(13)
        k = 4
        base = toy_graph(rng, n=6, k=k)
        extra = toy_graph(rng, n=4, k=k)
        combined_pairs = sorted(
            [(u, v) for u, v in zip(*np.nonzero(edge_matrix(base)))]
            + [(u + 6, v + 6) for u, v in zip(*np.nonzero(edge_matrix(extra)))]
        )
        indptr = np.zeros(11, dtype=np.int64)
        np.cumsum(np.bincount([u for u, _ in combined_pairs], minlength=10), out=indptr[1:])
        adjacency = SparseAdjacency(
            n=10,
            indptr=indptr,
            indices=np.array([v for _, v in combined_pairs], dtype=np.int64),
        )
        combined = EncodedGraph(
            normalized=normalize_adjacency(adjacency),
            features=np.vstack([base.features, extra.features]),
            layout=base.layout,
            event_ids=base.event_ids + tuple(f"x{i}" for i in range(4)),
        )
        model = init_model(k, TrainConfig(hidden1=5, hidden2=3, seed=21))
        _, xhat_base = forward(base, model)
        _, xhat_combined = forward(combined, model)
        scores_base = score_events(base.features, xhat_base, base.layout)
        scores_combined = score_events(combined.features, xhat_combined, combined.layout)
        np.testing.assert_allclose(scores_combined[:6], scores_base, atol=1e-12)

