"""Closed-loop benchmark of the ocelad detector, run from the repository root.

    python3 bench/run.py --workload detect-2k --seed 11 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 11 --seconds 10

``--trace 0`` runs the operation untraced, at least twice and until the
operations have taken ``--seconds``, and reports the end-to-end metrics. The
workload's inputs are made in fresh processes, in a batch of at least one
second before the first operation and after every operation, so that the
setup samples (setup_s is their median) span the whole run. ``--trace 1``
makes the inputs once in-process under the tracer, runs the operation
untraced, traced and untraced again, then once more traced in a child with
one BLAS thread, and reports the per-layer metrics. ``--workload all`` runs
every workload both ways.

Every operation's output is checked (see checks.py); a failed check, an
exception or a non-finite loss counts the operation as failed and makes the
exit code 1. The last line of standard output is the result as JSON; the full
details (environment, samples, failures) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from environment import environment
from tracing import Tracer, layer_metrics, summary
from workloads import WORKLOADS, Seeds, make_inputs, timed_operation

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_MIN_PROCESSES = 6
SETUP_BATCH_SECONDS = 1.0
MIN_OPERATIONS = 2
CHILD_TIMEOUT_S = 170
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SINGLE_THREAD_METRICS = (
    "numerics.spmm_ms_per_epoch", "numerics.matmul_ms_per_epoch", "autoencoder.epoch_ms",
)


class ChildError(Exception):
    """A child process exited with an error."""


class Run:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self, workload, seeds) -> None:
        self.workload = workload
        self.seeds = seeds
        self.inputs: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.problems: list[str] = []
        self.pinned = None
        self._event_ids: dict[str, list[str]] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, label: str, reason: str) -> None:
        self.failures.append({"operation": label, "reason": reason})

    def event_ids(self, log_bytes: bytes) -> list[str]:
        key = checks.sha256(log_bytes)
        if key not in self._event_ids:
            self._event_ids[key] = checks.log_event_ids(log_bytes)
        return self._event_ids[key]

    def attempt(self, ocelad, label: str, tracer=None):
        """(result, seconds, losses) of one operation, or None when it raised."""
        self.attempted += 1
        try:
            return timed_operation(ocelad, self.workload, self.seeds, self.inputs, tracer)
        except Exception:  # every failure of the code under test is counted, not fatal
            self.fail(label, traceback.format_exc(limit=4))
            return None

    def check(self, label: str, result, same_as: str | None = None) -> str:
        """Check one operation's outputs; returns the digest of its reports."""
        failures, self.pinned = checks.check_operation(
            self.workload.name, self.seeds.key(), result, self.event_ids(result.log_bytes)
        )
        digest = checks.report_digest(result)
        if same_as is not None and digest != same_as:
            failures.append("report bytes differ from those of the reference operation")
        if failures:
            self.fail(label, "; ".join(failures))
        return digest


def child(command: str, run: Run, work: Path, extra_env: dict | None = None) -> dict:
    env = dict(os.environ, **(extra_env or {}))
    completed = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), command, run.workload.name,
         run.seeds.text(), str(work)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT,
    )
    if completed.returncode != 0:
        raise ChildError(f"child {command} failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.splitlines()[-1])


def quality(result, losses) -> dict:
    """Detection quality of one operation; deterministic in the seeds."""
    block = result.metrics
    return {
        "auc_roc": block.auc_roc,
        "auc_pr": block.auc_pr,
        "f1": block.f1,
        "loss_ratio": losses[-1] / losses[0],
    }


def setup_batch(run: Run, work: Path, setups: list) -> None:
    """Fresh setup processes, one after another, for at least SETUP_BATCH_SECONDS."""
    started = time.perf_counter()
    setups.append(child("setup", run, work))
    while time.perf_counter() - started < SETUP_BATCH_SECONDS:
        setups.append(child("setup", run, work))


def timed_run(ocelad, run: Run, seconds: float, work: Path):
    setups: list[dict] = []
    setup_batch(run, work, setups)
    run.inputs = {name: (work / name).read_bytes() for name in setups[0]["digests"]}

    walls: list[float] = []
    first = None
    scores = {"auc_roc": 0.0}
    measured = 0.0
    while run.attempted < MIN_OPERATIONS or measured < seconds:
        label = f"operation {run.attempted}"
        started = time.perf_counter()
        outcome = run.attempt(ocelad, label)
        measured += time.perf_counter() - started
        setup_batch(run, work, setups)
        if outcome is None:
            continue
        result, wall, losses = outcome
        walls.append(wall)
        digest = run.check(label, result, same_as=first)
        if first is None:
            first = digest
            run.problems += checks.self_test(
                result.report_json, result.report_csv, run.event_ids(result.log_bytes)
            )
            scores = quality(result, losses)
        # Drop this operation's outputs before the next one starts, so they do
        # not add to its peak resident memory.
        del result, outcome
    while len(setups) < SETUP_MIN_PROCESSES:
        setups.append(child("setup", run, work))
    if any(setup["digests"] != setups[0]["digests"] for setup in setups):
        run.problems.append("setup processes wrote different input bytes")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "wall_s": (statistics.median(walls) if walls else 0.0, "s"),
        "setup_s": (statistics.median(setup["seconds"] for setup in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "auc_roc": (scores["auc_roc"], "ratio"),
        "ok_rate": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }
    details = {
        "wall_s": summary(walls),
        "wall_s_samples": walls,
        "setup_s_samples": [setup["seconds"] for setup in setups],
        "input_sha256": setups[0]["digests"],
        "quality": scores,
    }
    return metrics, details


def traced_run(ocelad, run: Run, work: Path):
    tracer = Tracer()
    with tracer.installed(ocelad):
        run.inputs = make_inputs(ocelad, run.workload, run.seeds)
    tracer.phase = "operation"
    for name, data in run.inputs.items():
        (work / name).write_bytes(data)

    # The repeated untraced operation follows the traced one, so that the
    # wall-time difference in the details compares two operations neither of
    # which is the first of the process.
    untraced = run.attempt(ocelad, "untraced operation")
    traced = run.attempt(ocelad, "traced operation", tracer)
    repeat = run.attempt(ocelad, "repeated untraced operation")
    reference = run.check("untraced operation", untraced[0]) if untraced else None
    for label, outcome in (("traced operation", traced), ("repeated untraced operation", repeat)):
        if outcome:
            run.check(label, outcome[0], same_as=reference)
    if traced:
        run.problems += checks.self_test(
            traced[0].report_json, traced[0].report_csv, run.event_ids(traced[0].log_bytes)
        )

    run.attempted += 1
    try:
        single = child("traced-op", run, work, SINGLE_THREAD_ENV)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        run.fail("single-thread operation", str(exc))
        single = None
    if single and single["failures"]:
        run.fail("single-thread operation", "; ".join(single["failures"]))

    run.problems += tracer.problems()

    metrics, details = layer_metrics(tracer.spans, run.workload.epochs)
    metrics["trace.overhead_s"] = (tracer.overhead_s["operation"], "s")
    for name in SINGLE_THREAD_METRICS:
        value, unit = single["metrics"][name] if single else (0.0, "ms")
        metrics[f"{name}_1thread"] = (value, unit)
    scores = quality(traced[0], traced[2]) if traced else dict.fromkeys(
        ("auc_pr", "f1", "loss_ratio"), 0.0)
    metrics["scoring.auc_pr"] = (scores["auc_pr"], "ratio")
    metrics["scoring.f1"] = (scores["f1"], "ratio")
    metrics["autoencoder.loss_ratio"] = (scores["loss_ratio"], "ratio")

    kernel_ms = {name: metrics[f"numerics.{name}_ms_per_epoch"][0]
                 for name in ("spmm", "matmul", "relu", "adam")}
    details.update({
        "untraced_wall_s": [outcome[1] for outcome in (untraced, repeat) if outcome],
        "traced_wall_s": traced[1] if traced else None,
        "traced_minus_untraced_s": traced[1] - repeat[1] if traced and repeat else None,
        "dominant_kernel": max(kernel_ms, key=kernel_ms.get),
        "single_thread": single and {
            key: single[key] for key in ("seconds", "epoch_ms", "report_sha256", "blas")
        },
        "single_thread_report_identical": bool(
            single and reference and single["report_sha256"] == reference
        ),
    })
    spans = [
        {"name": name, "start": start, "end": end, "parent": parent, "phase": phase,
         "counts": counts}
        for name, start, end, parent, phase, counts in tracer.spans
    ]
    return metrics, details, spans


def run_one(args) -> int:
    import ocelad

    if Path(ocelad.__file__).resolve().parent != SRC / "ocelad":
        print(f"imported ocelad from {ocelad.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = Seeds.from_seed(args.seed)
    run = Run(workload, seeds)
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = None
    try:
        if args.trace:
            metrics, details, spans = traced_run(ocelad, run, work)
        else:
            metrics, details = timed_run(ocelad, run, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = run.failed == 0 and not run.problems
    details.update({
        "workload": workload.name,
        "seeds": {"generate": seeds.generate, "inject": seeds.inject, "train": seeds.train},
        "epochs": workload.epochs,
        "trace": args.trace,
        "digests_pinned": run.pinned,
        "failures": run.failures,
        "problems": run.problems,
        "environment": environment(),
    })
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"metrics": metrics, **details}, indent=2))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>18.6f} {unit}")
    for failure in run.failures:
        print(f"FAILED {failure['operation']}: {failure['reason']}")
    for problem in run.problems:
        print(f"PROBLEM {problem}")
    print("environment " + json.dumps(details["environment"]))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            print(f"== {name} trace {trace}", flush=True)
            completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
            lines = completed.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if completed.returncode not in (0, 1) or not lines:
                print(completed.stderr[-2000:], file=sys.stderr)
                total["correct"] = False
                continue
            result = json.loads(lines[-1])
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="seed n gives the generate/inject/train triple n, n+1, n+89")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ocelad" / "__init__.py").is_file():
        print(f"no ocelad sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
