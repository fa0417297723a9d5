"""Command-line entry point: generate, inject, detect, evaluate, pipeline.

Each setting is declared once, in ``SETTINGS``, which derives every command's
flags and the keys and JSON types a config file may hold. Settings resolve
as flags > config file (--config, a JSON object, no key repeated) > defaults.
Same flags and seed, same files: ``detect`` writes a report JSON and a CSV;
``pipeline`` writes logs, truth, reports, metrics JSON and a settings manifest.

Exit codes: 0 success, 2 configuration, input or I/O error (a non-finite
setting, two outputs on one path, and a log too large to encode in memory
too), 3 injection infeasible, 4 a training loss or the final
reconstruction not finite, 5 evaluation join failure or a metric undefined
on the ground truth, which the pipeline checks before training.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .autoencoder import NonFiniteLossError, TrainConfig, run_detection
from .generator import GenConfig, generate
from .injection import (
    GroundTruth,
    InjectionError,
    InjectionPlan,
    InsufficientCandidatesError,
    inject_all,
    plan_injection,
    validate_plan,
)
from .ocel import ObjectCentricLog, OcelError, loads_unique, parse_ocel_json, write_ocel_json
from .scoring import (
    DetectionReport,
    MetricsBlock,
    NoPositivesError,
    SingleClassError,
    compute_metrics,
    format_metrics_table,
    metrics_document,
    report_from_json,
    report_to_csv,
    report_to_json,
    validate_k_factor,
)


class Setting(NamedTuple):
    """A setting: the flag ``--`` plus its name with dashes, and the config key ``name``."""

    type: type
    default: int | float
    help: str
    commands: tuple[str, ...]


_GEN, _TRAIN = GenConfig(), TrainConfig()
_SHAPE, _INJECT, _DETECT = ("generate", "pipeline"), ("inject", "pipeline"), ("detect", "pipeline")
SETTINGS = {
    "seed": Setting(int, _GEN.seed, "random seed", ("generate", "inject", "detect", "pipeline")),
    "orders": Setting(int, _GEN.n_orders, "number of orders", _SHAPE),
    "items_min": Setting(int, _GEN.items_per_order[0], "min items per order", _SHAPE),
    "items_max": Setting(int, _GEN.items_per_order[1], "max items per order", _SHAPE),
    "group_min": Setting(int, _GEN.orders_per_package[0], "min orders per package", _SHAPE),
    "group_max": Setting(int, _GEN.orders_per_package[1], "max orders per package", _SHAPE),
    "rate": Setting(float, 0.10, "target contamination rate", _INJECT),
    "repeat": Setting(int, 1, "number of detection seeds", ("pipeline",)),
    "epochs": Setting(int, _TRAIN.epochs, "training epochs", _DETECT),
    "hidden1": Setting(int, _TRAIN.hidden1, "first hidden width", _DETECT),
    "hidden2": Setting(int, _TRAIN.hidden2, "latent width", _DETECT),
    "lr": Setting(float, _TRAIN.learning_rate, "Adam learning rate", _DETECT),
    "k_factor": Setting(float, 1.5, "IQR multiplier, finite and >= 0", _DETECT),
}
# The JSON value types a config file may give a setting of each type. They are
# matched exactly, so true and false are not integers.
_JSON_TYPES = {int: (int,), float: (int, float)}


class EvaluationJoinError(Exception):
    """Report and ground truth do not describe the same events."""


def _effective(args: argparse.Namespace) -> dict:
    """The command's settings: explicit flags > config file > defaults.

    A config file may hold any setting, so one file serves every command; a
    key no command knows, or a value of another JSON type than its setting's,
    is an error, not silently ignored or cast.
    """
    settings = {name: s.default for name, s in SETTINGS.items() if args.command in s.commands}
    if args.config:
        loaded = loads_unique(Path(args.config).read_text("utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: settings must be a JSON object")
        unknown = sorted(set(loaded) - set(SETTINGS))
        if unknown:
            raise ValueError(f"{args.config}: unknown setting(s) {unknown}")
        for key, value in loaded.items():
            kind = SETTINGS[key].type
            if type(value) not in _JSON_TYPES[kind]:
                raise ValueError(f"{args.config}: setting {key!r} is {value!r}, not {kind.__name__}")
            if key in settings:
                settings[key] = kind(value)
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    return settings


def _gen_config(settings: dict) -> GenConfig:
    """The generator settings; built before any work, so a bad one stops the command early."""
    return GenConfig(
        n_orders=settings["orders"],
        items_per_order=(settings["items_min"], settings["items_max"]),
        orders_per_package=(settings["group_min"], settings["group_max"]),
        seed=settings["seed"],
    )


def _distinct_outputs(*paths: Path) -> None:
    """Raise unless ``paths`` name different files, so that no output overwrites another."""
    if len({path.resolve() for path in paths}) < len(paths):
        raise ValueError(f"outputs {', '.join(map(str, paths))} are one file")


def _generate_into(path: Path, config: GenConfig) -> ObjectCentricLog:
    """The generated log, also written to ``path``."""
    log = generate(config)
    path.write_bytes(write_ocel_json(log))
    return log


def _inject_into(
    path: Path, truth_path: Path, log: ObjectCentricLog, rate: float, seed: int
) -> tuple[InjectionPlan, ObjectCentricLog, GroundTruth]:
    """Inject into ``log``; the result goes to ``path`` and its truth to ``truth_path``."""
    plan = plan_injection(len(log.ids), rate, seed)
    contaminated, truth = inject_all(log, plan)
    path.write_bytes(write_ocel_json(contaminated))
    truth_path.write_text(truth.to_csv(), encoding="utf-8")
    return plan, contaminated, truth


def _train_config(settings: dict, seed: int) -> TrainConfig:
    """The training settings; built before any work, so a bad one stops the command early."""
    return TrainConfig(
        hidden1=settings["hidden1"],
        hidden2=settings["hidden2"],
        learning_rate=settings["lr"],
        epochs=settings["epochs"],
        seed=seed,
    )


def _detect_into(
    path: Path, log: ObjectCentricLog, config: TrainConfig, settings: dict
) -> DetectionReport:
    """Detection with the effective settings; the report goes to ``path`` and a CSV beside it."""
    report = run_detection(log, config, settings["k_factor"])
    path.write_text(report_to_json(report), encoding="utf-8")
    path.with_suffix(".csv").write_text(report_to_csv(report), encoding="utf-8")
    return report


def _cmd_generate(args: argparse.Namespace) -> int:
    log = _generate_into(Path(args.output), _gen_config(_effective(args)))
    print(f"wrote {len(log.ids)} events to {args.output}")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    settings = _effective(args)
    rate, seed = settings["rate"], settings["seed"]
    validate_plan(rate, seed)
    output = Path(args.output)
    truth_path = Path(args.truth) if args.truth else output.with_suffix(".truth.csv")
    _distinct_outputs(output, truth_path)
    log = parse_ocel_json(Path(args.input).read_bytes())
    plan, contaminated, _ = _inject_into(output, truth_path, log, rate, seed)
    print(
        f"injected {plan.total} anomalies "
        f"({plan.attr_swap}/{plan.timestamp_shift}/{plan.random_activity}); "
        f"final log has {len(contaminated.ids)} events"
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    settings = _effective(args)
    config = _train_config(settings, settings["seed"])
    validate_k_factor(settings["k_factor"])
    output = Path(args.output)
    _distinct_outputs(output, output.with_suffix(".csv"))
    log = parse_ocel_json(Path(args.input).read_bytes())
    report = _detect_into(output, log, config, settings)
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


def _write_metrics(named: list[tuple[str, MetricsBlock]], output: Path | None) -> None:
    """Print the metrics table of the named runs, and write their JSON to ``output`` if given."""
    document = metrics_document(named)
    print(format_metrics_table(document))
    if output is not None:
        output.write_text(json.dumps(document, indent=2), encoding="utf-8")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    truth = GroundTruth.from_csv(Path(args.truth).read_text(encoding="utf-8"))
    named: list[tuple[str, MetricsBlock]] = []
    for report_path in args.report:
        report = report_from_json(Path(report_path).read_text(encoding="utf-8"))
        named.append((Path(report_path).name, _join_metrics(report, truth)))
    _write_metrics(named, Path(args.output) if args.output else None)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    settings = _effective(args)
    base_seed = settings["seed"]
    if settings["repeat"] < 1:
        raise ValueError("repeat must be >= 1")
    detect_seeds = [base_seed + 2 + i for i in range(settings["repeat"])]
    configs = [_train_config(settings, seed) for seed in detect_seeds]
    gen_config = _gen_config(settings)
    validate_k_factor(settings["k_factor"])
    inject_seed = base_seed + 1
    validate_plan(settings["rate"], inject_seed)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    clean_path = out_dir / "clean.jsonocel"
    clean = _generate_into(clean_path, gen_config)

    contaminated_path = out_dir / "contaminated.jsonocel"
    truth_path = out_dir / "truth.csv"
    plan, contaminated, truth = _inject_into(
        contaminated_path, truth_path, clean, settings["rate"], inject_seed
    )
    if sum(truth.counts().values()) in (0, len(truth.labels)):
        raise SingleClassError("AUC-ROC needs both classes present")

    named: list[tuple[str, MetricsBlock]] = []
    for config in configs:
        report_path = out_dir / f"report_seed{config.seed}.json"
        report = _detect_into(report_path, contaminated, config, settings)
        named.append((report_path.name, _join_metrics(report, truth)))
    _write_metrics(named, out_dir / "metrics.json")

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
            "reports": [name for name, _ in named],
            "metrics": "metrics.json",
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return 0


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags of every setting that ``command`` takes, and ``--config``."""
    for name, setting in SETTINGS.items():
        if command not in setting.commands:
            continue
        parser.add_argument("--" + name.replace("_", "-"), type=setting.type, help=setting.help)
    parser.add_argument("--config", help="JSON settings file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocelad",
        description="Anomaly detection for object-centric event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic order/item/package log")
    gen.add_argument("--output", "-o", required=True, help="OCEL JSON output path")
    gen.set_defaults(func=_cmd_generate)

    inj = sub.add_parser("inject", help="inject anomalies into a log")
    inj.add_argument("--input", "-i", required=True, help="clean OCEL JSON")
    inj.add_argument("--output", "-o", required=True, help="contaminated OCEL JSON")
    inj.add_argument("--truth", default=None, help="ground-truth CSV path")
    inj.set_defaults(func=_cmd_inject)

    det = sub.add_parser("detect", help="train the autoencoder and label anomalies")
    det.add_argument("--input", "-i", required=True, help="OCEL JSON to analyze")
    det.add_argument("--output", "-o", required=True, help="report JSON path (CSV written alongside)")
    det.set_defaults(func=_cmd_detect)

    ev = sub.add_parser("evaluate", help="join reports with ground truth and print metrics")
    ev.add_argument("--report", nargs="+", required=True, help="one or more report JSON files")
    ev.add_argument("--truth", required=True, help="ground-truth CSV")
    ev.add_argument("--output", "-o", default=None, help="optional metrics JSON path")
    ev.set_defaults(func=_cmd_evaluate)

    pipe = sub.add_parser("pipeline", help="generate, inject, detect and evaluate in one run")
    pipe.add_argument("--output-dir", "-o", required=True)
    pipe.set_defaults(func=_cmd_pipeline)

    for name, command in sub.choices.items():
        if name != "evaluate":
            _add_settings(command, name)
    return parser


# Exit code per error, the first match wins: an infeasible injection is an
# InjectionError too, and a malformed JSON file a ValueError.
_EXIT_CODES = {
    InsufficientCandidatesError: 3,
    NonFiniteLossError: 4,
    **dict.fromkeys((EvaluationJoinError, SingleClassError, NoPositivesError), 5),
    **dict.fromkeys(
        (OcelError, InjectionError, OSError, ValueError, OverflowError, MemoryError), 2
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
