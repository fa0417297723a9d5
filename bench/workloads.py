"""The workloads: how each one makes its input bytes and what one operation does.

Every call into the package goes through a module attribute looked up at
call time (``ocelad.parse_ocel_json``, ``ocelad.scoring.report_to_json``),
so the tracer's wrappers see it. NOTES.md says why each workload was chosen
and BENCHMARK.json lists them.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from tracing import loss_capture

CONTAMINATION_RATE = 0.10


@dataclass(frozen=True)
class Seeds:
    """Seeds of the synthetic generator, the injection plan and training."""

    generate: int
    inject: int
    train: int

    @classmethod
    def from_seed(cls, seed: int) -> "Seeds":
        """``--seed 11`` gives the paper's triple 11 / 12 / 100."""
        return cls(generate=seed, inject=seed + 1, train=seed + 89)

    @classmethod
    def parse(cls, text: str) -> "Seeds":
        generate, inject, train = (int(part) for part in text.split(","))
        return cls(generate=generate, inject=inject, train=train)

    def text(self) -> str:
        return f"{self.generate},{self.inject},{self.train}"

    def key(self) -> str:
        """Digest key: the inputs depend on the generate and inject seeds only."""
        return f"{self.generate}-{self.inject}"


@dataclass(frozen=True)
class Workload:
    name: str
    gen_config: Callable  # (ocelad, seed) -> GenConfig
    epochs: int
    inject_in_operation: bool


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="detect-2k",
            gen_config=lambda ocelad, seed: ocelad.benchmark_config(n_orders=320, seed=seed),
            epochs=800,
            inject_in_operation=False,
        ),
        Workload(
            name="detect-skewed-9k",
            gen_config=lambda ocelad, seed: ocelad.GenConfig(
                n_orders=1600, items_per_order=(1, 8), orders_per_package=(1, 64), seed=seed
            ),
            epochs=12,
            inject_in_operation=False,
        ),
        Workload(
            name="ingest-14k",
            gen_config=lambda ocelad, seed: ocelad.benchmark_config(n_orders=2400, seed=seed),
            epochs=1,
            inject_in_operation=True,
        ),
    )
}


def contaminate(ocelad, clean, seed):
    """The clean log with anomalies injected at the benchmark rate, and its truth."""
    plan = ocelad.plan_injection(len(clean.events), CONTAMINATION_RATE, seed)
    return ocelad.inject_all(clean, plan)


def make_inputs(ocelad, workload: Workload, seeds: Seeds) -> dict[str, bytes]:
    """The input files of one operation, by name.

    Detect workloads get the contaminated log and its truth CSV; the ingest
    workload gets the clean log and contaminates it inside the operation.
    """
    clean = ocelad.generate(workload.gen_config(ocelad, seeds.generate))
    if workload.inject_in_operation:
        return {"clean.jsonocel": ocelad.write_ocel_json(clean)}
    contaminated, truth = contaminate(ocelad, clean, seeds.inject)
    return {
        "log.jsonocel": ocelad.write_ocel_json(contaminated),
        "truth.csv": truth.to_csv().encode("utf-8"),
    }


@dataclass
class OpResult:
    """What one operation produced; the checks read all of it."""

    report_json: str
    report_csv: str
    metrics: object  # ocelad.scoring.MetricsBlock
    log_bytes: bytes  # the contaminated log the detector read
    truth_csv: bytes


def run_operation(ocelad, workload: Workload, seeds: Seeds, inputs: dict[str, bytes]) -> OpResult:
    """One operation of the workload, from input bytes to report and metrics."""
    if workload.inject_in_operation:
        clean = ocelad.parse_ocel_json(inputs["clean.jsonocel"])
        contaminated, truth = contaminate(ocelad, clean, seeds.inject)
        log_bytes = ocelad.write_ocel_json(contaminated)
        truth_csv = truth.to_csv().encode("utf-8")
    else:
        log_bytes = inputs["log.jsonocel"]
        truth_csv = inputs["truth.csv"]
        truth = ocelad.GroundTruth.from_csv(truth_csv.decode("utf-8"))
    log = ocelad.parse_ocel_json(log_bytes)
    report = ocelad.run_detection(log, ocelad.TrainConfig(seed=seeds.train, epochs=workload.epochs))
    report_json = ocelad.scoring.report_to_json(report)
    report_csv = ocelad.scoring.report_to_csv(report)
    metrics = ocelad.compute_metrics(
        report.scores, report.labels, [truth.labels[event_id] for event_id in report.event_ids]
    )
    return OpResult(report_json, report_csv, metrics, log_bytes, truth_csv)


def timed_operation(ocelad, workload: Workload, seeds: Seeds, inputs: dict[str, bytes], tracer=None):
    """One operation, timed: (result, seconds, loss history of its training).

    With a tracer, every layer function is wrapped while it runs.
    """
    losses: list[list[float]] = []
    tracing = tracer.installed(ocelad) if tracer is not None else nullcontext()
    with loss_capture(ocelad, losses), tracing:
        start = time.perf_counter()
        result = run_operation(ocelad, workload, seeds, inputs)
        seconds = time.perf_counter() - start
    return result, seconds, losses[-1]
