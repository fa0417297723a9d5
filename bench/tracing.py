"""Timing wrappers around the package's public functions, and the layer metrics.

The benchmark traces from the outside: it replaces every module-level binding
of a layer function (``ocelad.autoencoder.spmm``, ``ocelad.cli.train``,
``ocelad.parse_ocel_json``, ...) with a wrapper that records a span, and puts
the originals back afterwards. Nothing under ``src/`` knows about it. Python
looks a module global up at call time, so the pipeline's own calls go through
the wrappers.

Kernel counts (flops, bytes) are computed from the operand shapes of each
wrapped call, not measured: bytes are the minimum traffic of the operation
(indices, weights, gathered rows and output for ``spmm``; both operands and
the output for ``matmul``), ignoring cache misses and temporaries.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

# Public functions wrapped per module. A run in which one of them is missing or
# never called is marked incorrect, so a layer metric cannot silently read 0.
LAYER_FUNCTIONS = {
    "ocel": ("parse_ocel_json", "write_ocel_json"),
    "injection": ("plan_injection", "inject_all"),
    "instances": ("build_instances",),
    "encoding": (
        "encode_log", "build_adjacency", "normalize_adjacency", "build_layout",
        "encode_features",
    ),
    "autoencoder": ("train", "forward", "forward_cached", "backward", "loss", "score_events"),
    "numerics": ("spmm", "matmul", "relu", "relu_backward", "adam_step"),
    "scoring": (
        "iqr_threshold", "label_events", "compute_metrics", "report_to_json", "report_to_csv",
    ),
}


def _spmm_counts(args, result):
    sparse, dense = args[0], args[1]
    nnz = int(sparse.nnz)
    width = int(dense.shape[1])
    item = dense.dtype.itemsize
    index_bytes = sparse.indptr.nbytes + sparse.indices.nbytes
    weights = getattr(sparse, "weights", None)
    weight_bytes = 0 if weights is None else weights.nbytes
    return {
        "flops": 2 * nnz * width,
        "bytes": index_bytes + weight_bytes + nnz * width * item + result.shape[0] * width * item,
    }


def _matmul_counts(args, result):
    a, b = args[0], args[1]
    m, k = a.shape
    n = b.shape[1]
    return {"flops": 2 * m * k * n, "bytes": (m * k + k * n + m * n) * result.dtype.itemsize}


def _parse_counts(args, result):
    return {"bytes": len(args[0])}


def _inject_counts(args, result):
    _, truth = result
    return {"anomalies": sum(label != "normal" for label in truth.labels.values())}


def _instance_counts(args, result):
    sizes = [len(instance.node_indices) for instance in result.instances]
    return {"count": len(sizes), "max_events": max(sizes, default=0)}


def _normalize_counts(args, result):
    return {"nnz": int(result.nnz)}


def _feature_counts(args, result):
    return {"columns": int(result.shape[1])}


COUNTERS = {
    "numerics.spmm": _spmm_counts,
    "numerics.matmul": _matmul_counts,
    "ocel.parse_ocel_json": _parse_counts,
    "injection.inject_all": _inject_counts,
    "instances.build_instances": _instance_counts,
    "encoding.normalize_adjacency": _normalize_counts,
    "encoding.encode_features": _feature_counts,
}


@contextmanager
def patched(replacements):
    """Swap functions for wrappers in every ``ocelad`` module that binds them.

    ``replacements`` maps an original function to its wrapper. All bindings
    are restored on exit, also when the body raises.
    """
    by_id = {id(original): (original, wrapper) for original, wrapper in replacements.items()}
    restore = []
    try:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "ocelad" or name.startswith("ocelad.")):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = by_id.get(id(value), (None, None))
                if original is value:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in reversed(restore):
            setattr(module, attr, value)


@contextmanager
def loss_capture(ocelad, sink):
    """Append each ``train`` call's loss history to ``sink``; adds one call per op."""
    original = ocelad.autoencoder.train

    def train(*args, **kwargs):
        report = original(*args, **kwargs)
        sink.append(list(report.losses))
        return report

    with patched({original: train}):
        yield


class Tracer:
    """In-memory spans: (name, start, end, parent index, phase, counts).

    ``overhead_s`` sums, per phase, the time the wrappers spent outside the
    functions they wrap (span bookkeeping and counters): the amount by which
    tracing lengthens that phase.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.overhead_s = {"setup": 0.0, "operation": 0.0}
        self.missing: list[str] = []

    def _wrap(self, name, function):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.phase, None)
            # A counter that no longer fits the operands raises, and the
            # operation fails, rather than reporting 0.
            if counter is not None:
                spans[index] = (name, start, end, parent, self.phase, counter(args, result))
            self.overhead_s[self.phase] += (start - entered) + (clock() - end)
            return result

        return wrapper

    @contextmanager
    def installed(self, ocelad):
        replacements = {}
        self.missing = []
        for module_name, functions in LAYER_FUNCTIONS.items():
            module = getattr(ocelad, module_name)
            for function_name in functions:
                name = f"{module_name}.{function_name}"
                function = getattr(module, function_name, None)
                if function is None:
                    self.missing.append(name)
                else:
                    replacements[function] = self._wrap(name, function)
        with patched(replacements):
            yield

    def problems(self) -> list[str]:
        """Why this tracer's layer metrics cannot be trusted; empty when they can."""
        called = {span[0] for span in self.spans}
        problems = [f"layer function {name} not found" for name in self.missing]
        for module_name, functions in LAYER_FUNCTIONS.items():
            for function_name in functions:
                name = f"{module_name}.{function_name}"
                if name not in called and name not in self.missing:
                    problems.append(f"layer function {name} was never called")
        return problems


def summary(values):
    """Median and the highest listed percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    result = {"samples": n, "median": statistics.median(values) if values else None, "tail": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            position = (n - 1) * p / 100.0
            lower = int(position)
            upper = min(lower + 1, n - 1)
            value = values[lower] + (position - lower) * (values[upper] - values[lower])
            result["tail"] = {"percentile": p, "value": value}
            break
    return result


class SpanIndex:
    """Queries over a tracer's finished spans."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self._ancestors: list[frozenset] = []
        for name, _, _, parent, _, _ in spans:
            above = frozenset() if parent < 0 else self._ancestors[parent] | {spans[parent][0]}
            self._ancestors.append(above)

    def select(self, names, within=None, outside=None):
        """Spans with a name in ``names``, optionally under or not under an ancestor."""
        names = {names} if isinstance(names, str) else set(names)
        for span, above in zip(self.spans, self._ancestors):
            if span[0] not in names:
                continue
            if within is not None and within not in above:
                continue
            if outside is not None and outside in above:
                continue
            yield span

    def seconds(self, names, **where) -> float:
        return sum(end - start for _, start, end, _, _, _ in self.select(names, **where))

    def calls(self, names, **where) -> int:
        return sum(1 for _ in self.select(names, **where))

    def count(self, names, key, reduce=sum, **where):
        values = [counts[key] for *_, counts in self.select(names, **where) if counts]
        return reduce(values) if values else 0


def layer_metrics(spans, epochs):
    """Per-layer metrics of one traced setup plus operation.

    ``numerics.*`` and the per-epoch ``autoencoder.*`` figures cover only the
    calls made inside ``train``; stage seconds sum the inclusive time of each
    layer function over the traced setup and operation.
    """
    index = SpanIndex(spans)
    train = "autoencoder.train"
    ms_per_epoch = 1000.0 / epochs
    kernels = {
        "spmm": ("numerics.spmm",),
        "matmul": ("numerics.matmul",),
        "relu": ("numerics.relu", "numerics.relu_backward"),
        "adam": ("numerics.adam_step",),
    }
    kernel_ms = {key: index.seconds(names, within=train) * ms_per_epoch
                 for key, names in kernels.items()}
    train_s = index.seconds(train)
    spmm_s = index.seconds("numerics.spmm", within=train)
    spmm_flops = index.count("numerics.spmm", "flops", within=train)

    epoch_starts = [start for _, start, *_ in index.select("autoencoder.forward_cached", within=train)]
    train_end = max((end for _, _, end, *_ in index.select(train)), default=0.0)
    epoch_ms = [1000.0 * (b - a) for a, b in zip(epoch_starts, epoch_starts[1:] + [train_end])]

    metrics = {
        "numerics.spmm_ms_per_epoch": (kernel_ms["spmm"], "ms"),
        "numerics.spmm_calls_per_epoch": (index.calls("numerics.spmm", within=train) / epochs, "count"),
        "numerics.spmm_flops_per_epoch": (spmm_flops / epochs, "flop"),
        "numerics.spmm_bytes_per_epoch": (
            index.count("numerics.spmm", "bytes", within=train) / epochs, "byte"),
        "numerics.spmm_gflops": (spmm_flops / spmm_s / 1e9 if spmm_s else 0.0, "GFLOP/s"),
        "numerics.matmul_ms_per_epoch": (kernel_ms["matmul"], "ms"),
        "numerics.matmul_calls_per_epoch": (
            index.calls("numerics.matmul", within=train) / epochs, "count"),
        "numerics.matmul_flops_per_epoch": (
            index.count("numerics.matmul", "flops", within=train) / epochs, "flop"),
        "numerics.relu_ms_per_epoch": (kernel_ms["relu"], "ms"),
        "numerics.adam_ms_per_epoch": (kernel_ms["adam"], "ms"),
        "numerics.other_ms_per_epoch": (
            train_s * ms_per_epoch - sum(kernel_ms.values()), "ms"),
        "autoencoder.train_s": (train_s, "s"),
        "autoencoder.epoch_ms": (statistics.median(epoch_ms) if epoch_ms else 0.0, "ms"),
        "autoencoder.forward_ms_per_epoch": (
            index.seconds("autoencoder.forward_cached", within=train) * ms_per_epoch, "ms"),
        "autoencoder.backward_ms_per_epoch": (
            index.seconds("autoencoder.backward", within=train) * ms_per_epoch, "ms"),
        "autoencoder.score_s": (
            index.seconds(("autoencoder.forward", "autoencoder.score_events"), outside=train), "s"),
        "injection.inject_s": (index.seconds("injection.inject_all"), "s"),
        "injection.anomalies": (index.count("injection.inject_all", "anomalies"), "count"),
        "ocel.parse_s": (index.seconds("ocel.parse_ocel_json"), "s"),
        "ocel.write_s": (index.seconds("ocel.write_ocel_json"), "s"),
        "ocel.input_bytes": (index.count("ocel.parse_ocel_json", "bytes"), "byte"),
        "instances.build_s": (index.seconds("instances.build_instances"), "s"),
        "instances.count": (index.count("instances.build_instances", "count"), "count"),
        "instances.max_events": (
            index.count("instances.build_instances", "max_events", reduce=max), "count"),
        "encoding.adjacency_s": (
            index.seconds("encoding.build_adjacency", within="encoding.encode_log"), "s"),
        "encoding.normalize_s": (
            index.seconds("encoding.normalize_adjacency", within="encoding.encode_log"), "s"),
        "encoding.features_s": (
            index.seconds(("encoding.build_layout", "encoding.encode_features"),
                          within="encoding.encode_log"), "s"),
        "encoding.nnz": (
            index.count("encoding.normalize_adjacency", "nnz", reduce=max,
                        within="encoding.encode_log"), "count"),
        "encoding.n_features": (
            index.count("encoding.encode_features", "columns", reduce=max,
                        within="encoding.encode_log"), "count"),
        "scoring.threshold_s": (
            index.seconds(("scoring.iqr_threshold", "scoring.label_events")), "s"),
        "scoring.serialize_s": (
            index.seconds(("scoring.report_to_json", "scoring.report_to_csv")), "s"),
        "scoring.metrics_s": (index.seconds("scoring.compute_metrics"), "s"),
    }
    details = {"epoch_ms": summary(epoch_ms), "spans": len(spans)}
    return metrics, details
