"""Command-line entry point: generate, inject, detect, evaluate, pipeline.

Every command is reproducible: the same flags and seed produce identical
output files. Settings resolve as flags > config file (--config, JSON)
> built-in defaults; the pipeline echoes its effective settings into a
manifest next to the artifacts.

Exit codes: 0 success, 2 configuration, input or I/O error, 3 injection
infeasible, 4 numeric failure during training, 5 evaluation join failure or
a metric undefined on the ground truth.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .autoencoder import NonFiniteLossError, TrainConfig, forward, score_events, train
from .encoding import encode_log
from .generator import GenConfig, generate
from .injection import (
    GroundTruth,
    InjectionError,
    InsufficientCandidatesError,
    inject_all,
    plan_injection,
)
from .ocel import ObjectCentricLog, OcelError, parse_ocel_json, write_ocel_json
from .scoring import (
    DetectionReport,
    MetricsBlock,
    NoPositivesError,
    SingleClassError,
    _metrics_to_dict,
    compute_metrics,
    format_metrics_table,
    iqr_threshold,
    label_events,
    report_from_json,
    report_to_csv,
    report_to_json,
    validate_k_factor,
)

GENERATE_DEFAULTS = {
    "orders": 500,
    "seed": 0,
    "mean_step_minutes": 15.0,
    "items_min": 1,
    "items_max": 3,
    "group_min": 1,
    "group_max": 2,
}
INJECT_DEFAULTS = {"rate": 0.10, "seed": 0}
DETECT_DEFAULTS = {
    "seed": 0,
    "epochs": 800,
    "hidden1": 64,
    "hidden2": 32,
    "lr": 0.02,
    "k_factor": 1.5,
    "no_scale_numeric": False,
}
PIPELINE_DEFAULTS = {
    **GENERATE_DEFAULTS,
    **INJECT_DEFAULTS,
    **DETECT_DEFAULTS,
    "repeat": 1,
}


class EvaluationJoinError(Exception):
    """Report and ground truth do not describe the same events."""


def run_detection(
    log: ObjectCentricLog,
    config: TrainConfig,
    k_factor: float = 1.5,
    scale_numeric: bool = True,
) -> DetectionReport:
    """The end-to-end detection pipeline on an in-memory log.

    Reconstructs instances, encodes the graph, trains the autoencoder,
    scores every event, and labels the events against the IQR threshold.
    A bad ``k_factor`` is rejected before any of that work starts.
    """
    validate_k_factor(k_factor)
    graph = encode_log(log, scale_numeric=scale_numeric)
    report = train(graph, config)
    _, xhat = forward(graph, report.model)
    scores = score_events(graph.features, xhat, graph.layout)
    threshold = iqr_threshold(scores, k_factor=k_factor)
    labels = label_events(scores, threshold)
    return DetectionReport(
        event_ids=graph.event_ids,
        scores=scores,
        labels=labels,
        threshold=threshold,
    )


def _effective(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve settings: explicit flags > config file > defaults.

    A config file may hold any pipeline setting, so one file serves every
    command; a key no command knows is an error, not silently ignored.
    """
    settings = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path}: settings must be a JSON object")
        unknown = sorted(set(loaded) - set(PIPELINE_DEFAULTS))
        if unknown:
            raise ValueError(f"{config_path}: unknown setting(s) {unknown}")
        for key, value in loaded.items():
            if not isinstance(value, (int, float, str)):
                raise ValueError(f"{config_path}: setting {key!r} is {value!r}, not a scalar")
            if key in settings:
                settings[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _train_config(settings: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        hidden1=int(settings["hidden1"]),
        hidden2=int(settings["hidden2"]),
        learning_rate=float(settings["lr"]),
        epochs=int(settings["epochs"]),
        seed=seed,
    )


def _gen_config(settings: dict) -> GenConfig:
    return GenConfig(
        n_orders=int(settings["orders"]),
        items_per_order=(int(settings["items_min"]), int(settings["items_max"])),
        orders_per_package=(int(settings["group_min"]), int(settings["group_max"])),
        seed=int(settings["seed"]),
        mean_step_minutes=float(settings["mean_step_minutes"]),
    )


def _detect_into(path: Path, log: ObjectCentricLog, settings: dict, seed: int) -> DetectionReport:
    """Detection with the effective settings; the report goes to ``path`` and a CSV beside it."""
    report = run_detection(
        log,
        _train_config(settings, seed),
        k_factor=float(settings["k_factor"]),
        scale_numeric=not settings["no_scale_numeric"],
    )
    path.write_text(report_to_json(report), encoding="utf-8")
    path.with_suffix(".csv").write_text(report_to_csv(report), encoding="utf-8")
    return report


def _cmd_generate(args: argparse.Namespace) -> int:
    settings = _effective(args, GENERATE_DEFAULTS)
    log = generate(_gen_config(settings))
    Path(args.output).write_bytes(write_ocel_json(log))
    print(f"wrote {len(log.ids)} events to {args.output}")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    settings = _effective(args, INJECT_DEFAULTS)
    log = parse_ocel_json(Path(args.input).read_bytes())
    plan = plan_injection(len(log.ids), float(settings["rate"]), int(settings["seed"]))
    contaminated, truth = inject_all(log, plan)
    Path(args.output).write_bytes(write_ocel_json(contaminated))
    truth_path = args.truth or str(Path(args.output).with_suffix(".truth.csv"))
    Path(truth_path).write_text(truth.to_csv(), encoding="utf-8")
    print(
        f"injected {plan.total} anomalies "
        f"({plan.attr_swap}/{plan.timestamp_shift}/{plan.random_activity}); "
        f"final log has {len(contaminated.ids)} events"
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    settings = _effective(args, DETECT_DEFAULTS)
    log = parse_ocel_json(Path(args.input).read_bytes())
    if not log.ids:
        raise ValueError("cannot run detection on an empty log")
    report = _detect_into(Path(args.output), log, settings, int(settings["seed"]))
    n_anomalous = int(report.labels.sum())
    print(
        f"scored {len(report.event_ids)} events; tau={report.threshold.tau:.6g}; "
        f"{n_anomalous} labeled anomalous"
    )
    return 0


def _join_metrics(report: DetectionReport, truth: GroundTruth) -> MetricsBlock:
    if set(report.event_ids) != set(truth.labels):
        raise EvaluationJoinError("report and ground truth cover different event ids")
    types = tuple(truth.labels[event_id] for event_id in report.event_ids)
    return compute_metrics(report.scores, report.labels, types)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    truth = GroundTruth.from_csv(Path(args.truth).read_text(encoding="utf-8"))
    named: list[tuple[str, MetricsBlock]] = []
    for report_path in args.report:
        report = report_from_json(Path(report_path).read_text(encoding="utf-8"))
        named.append((Path(report_path).name, _join_metrics(report, truth)))
    print(format_metrics_table(named))
    if args.output:
        Path(args.output).write_text(_metrics_json(named), encoding="utf-8")
    return 0


def _metrics_json(named: list[tuple[str, MetricsBlock]]) -> str:
    runs = [{"report": name, **_metrics_to_dict(metrics)} for name, metrics in named]
    doc: dict = {"runs": runs}
    if len(runs) > 1:
        keys = ["f1", "auc_roc", "auc_pr", "recall_at_k"]
        type_names = sorted({t for _, m in named for t in m.per_type_recall})
        for stat, reduce in (("mean", np.mean), ("std", partial(np.std, ddof=1))):
            doc[stat] = {key: float(reduce([r[key] for r in runs])) for key in keys}
            doc[stat]["per_type_recall"] = {
                t: float(reduce([r["per_type_recall"][t] for r in runs])) for t in type_names
            }
    return json.dumps(doc, indent=2)


def _cmd_pipeline(args: argparse.Namespace) -> int:
    settings = _effective(args, PIPELINE_DEFAULTS)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base_seed = int(settings["seed"])
    repeat = int(settings["repeat"])
    if repeat < 1:
        raise ValueError("repeat must be >= 1")

    clean = generate(_gen_config({**settings, "seed": base_seed}))
    clean_path = out_dir / "clean.jsonocel"
    clean_path.write_bytes(write_ocel_json(clean))

    inject_seed = base_seed + 1
    plan = plan_injection(len(clean.ids), float(settings["rate"]), inject_seed)
    contaminated, truth = inject_all(clean, plan)
    contaminated_path = out_dir / "contaminated.jsonocel"
    contaminated_path.write_bytes(write_ocel_json(contaminated))
    truth_path = out_dir / "truth.csv"
    truth_path.write_text(truth.to_csv(), encoding="utf-8")

    detect_seeds = [base_seed + 2 + i for i in range(repeat)]
    named: list[tuple[str, MetricsBlock]] = []
    report_files: list[str] = []
    for seed in detect_seeds:
        report_path = out_dir / f"report_seed{seed}.json"
        report = _detect_into(report_path, contaminated, settings, seed)
        report_files.append(report_path.name)
        named.append((report_path.name, _join_metrics(report, truth)))

    print(format_metrics_table(named))
    (out_dir / "metrics.json").write_text(_metrics_json(named), encoding="utf-8")

    manifest = {
        "command": "pipeline",
        "settings": {key: settings[key] for key in sorted(settings)},
        "seeds": {"generate": base_seed, "inject": inject_seed, "detect": detect_seeds},
        "plan": {
            "attr_swap": plan.attr_swap,
            "timestamp_shift": plan.timestamp_shift,
            "random_activity": plan.random_activity,
        },
        "artifacts": {
            "clean_log": clean_path.name,
            "contaminated_log": contaminated_path.name,
            "truth": truth_path.name,
            "reports": report_files,
            "metrics": "metrics.json",
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocelad",
        description="Anomaly detection for object-centric event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--orders", type=int, default=None, help="number of orders")
        p.add_argument("--mean-step-minutes", dest="mean_step_minutes", type=float, default=None)
        p.add_argument("--items-min", dest="items_min", type=int, default=None)
        p.add_argument("--items-max", dest="items_max", type=int, default=None)
        p.add_argument("--group-min", dest="group_min", type=int, default=None,
                       help="min orders per package")
        p.add_argument("--group-max", dest="group_max", type=int, default=None,
                       help="max orders per package")

    def add_detect_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--hidden1", type=int, default=None)
        p.add_argument("--hidden2", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--k-factor", dest="k_factor", type=float, default=None)
        p.add_argument("--no-scale-numeric", dest="no_scale_numeric", action="store_const",
                       const=True, default=None,
                       help="encode numeric attributes raw instead of min-max scaled")
        p.add_argument("--config", default=None, help="JSON settings file")

    gen = sub.add_parser("generate", help="generate a synthetic order/item/package log")
    gen.add_argument("--seed", type=int, default=None)
    add_shape_flags(gen)
    gen.add_argument("--config", default=None, help="JSON settings file")
    gen.add_argument("--output", "-o", required=True, help="OCEL JSON output path")
    gen.set_defaults(func=_cmd_generate)

    inj = sub.add_parser("inject", help="inject anomalies into a log")
    inj.add_argument("--input", "-i", required=True, help="clean OCEL JSON")
    inj.add_argument("--output", "-o", required=True, help="contaminated OCEL JSON")
    inj.add_argument("--truth", default=None, help="ground-truth CSV path")
    inj.add_argument("--rate", type=float, default=None, help="target contamination rate")
    inj.add_argument("--seed", type=int, default=None)
    inj.add_argument("--config", default=None, help="JSON settings file")
    inj.set_defaults(func=_cmd_inject)

    det = sub.add_parser("detect", help="train the autoencoder and label anomalies")
    det.add_argument("--input", "-i", required=True, help="OCEL JSON to analyze")
    det.add_argument("--output", "-o", required=True, help="report JSON path (CSV written alongside)")
    add_detect_flags(det)
    det.set_defaults(func=_cmd_detect)

    ev = sub.add_parser("evaluate", help="join reports with ground truth and print metrics")
    ev.add_argument("--report", nargs="+", required=True, help="one or more report JSON files")
    ev.add_argument("--truth", required=True, help="ground-truth CSV")
    ev.add_argument("--output", "-o", default=None, help="optional metrics JSON path")
    ev.set_defaults(func=_cmd_evaluate)

    pipe = sub.add_parser("pipeline", help="generate, inject, detect and evaluate in one run")
    pipe.add_argument("--output-dir", "-o", required=True)
    add_shape_flags(pipe)
    pipe.add_argument("--rate", type=float, default=None)
    pipe.add_argument("--repeat", type=int, default=None, help="number of detection seeds")
    add_detect_flags(pipe)
    pipe.set_defaults(func=_cmd_pipeline)

    return parser


# Exit code per error, the first match wins: an infeasible injection is an
# InjectionError too, and a malformed JSON file a ValueError.
_EXIT_CODES = {
    InsufficientCandidatesError: 3,
    NonFiniteLossError: 4,
    **dict.fromkeys((EvaluationJoinError, SingleClassError, NoPositivesError), 5),
    **dict.fromkeys((OcelError, InjectionError, OSError, ValueError), 2),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
