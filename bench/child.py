"""Child processes of the benchmark; run.py starts them.

    python3 bench/child.py setup <workload> <generate,inject,train> <dir>
        Imports ocelad, makes the workload's input bytes, writes them into
        <dir> and prints the seconds from process start to the finished bytes.
    python3 bench/child.py traced-op <workload> <generate,inject,train> <dir>
        Runs one traced operation on the inputs in <dir> and prints its layer
        metrics and check results (the single-threaded BLAS reference).
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from environment import blas_info  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Seeds, make_inputs, timed_operation  # noqa: E402


def setup(ocelad, workload, seeds, directory):
    inputs = make_inputs(ocelad, workload, seeds)
    seconds = time.perf_counter() - START
    for name, data in inputs.items():
        (directory / name).write_bytes(data)
    return {"seconds": seconds, "digests": {name: checks.sha256(data) for name, data in inputs.items()}}


def traced_op(ocelad, workload, seeds, directory):
    inputs = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    tracer = Tracer()
    tracer.phase = "operation"
    result, seconds, _ = timed_operation(ocelad, workload, seeds, inputs, tracer=tracer)
    metrics, details = layer_metrics(tracer.spans, workload.epochs)
    failures, _ = checks.check_operation(
        workload.name, seeds.key(), result, checks.log_event_ids(result.log_bytes)
    )
    return {
        "seconds": seconds,
        "metrics": metrics,
        "epoch_ms": details["epoch_ms"],
        "failures": failures,
        "report_sha256": checks.report_digest(result),
        "blas": blas_info(),
    }


def main(argv):
    command, workload_name, seed_text, directory = argv
    import ocelad

    if Path(ocelad.__file__).resolve().parent != SRC / "ocelad":
        raise SystemExit(f"imported ocelad from {ocelad.__file__}, not from {SRC}")
    workload = WORKLOADS[workload_name]
    seeds = Seeds.parse(seed_text)
    run = {"setup": setup, "traced-op": traced_op}[command]
    print(json.dumps(run(ocelad, workload, seeds, Path(directory))))


if __name__ == "__main__":
    main(sys.argv[1:])
