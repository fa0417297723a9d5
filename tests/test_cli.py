"""Command-line interface: artifacts, exit codes, reproducibility."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ocelad
import ocelad.autoencoder as autoencoder
import ocelad.cli as cli
from ocelad.autoencoder import NonFiniteLossError, train
from ocelad.cli import main
from ocelad.injection import GroundTruth
from ocelad.ocel import parse_ocel_json, write_ocel_json
from ocelad.scoring import (
    DetectionReport,
    iqr_threshold,
    label_events,
    report_from_json,
    report_to_json,
)

from conftest import make_log


def run(args):
    return main(args)


@pytest.fixture()
def small_log_path(tmp_path):
    path = tmp_path / "small.jsonocel"
    assert run(["generate", "--orders", "20", "--seed", "3", "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_parseable_log(self, tmp_path):
        path = tmp_path / "log.jsonocel"
        assert run(["generate", "--orders", "5", "--seed", "7", "-o", str(path)]) == 0
        log = parse_ocel_json(path.read_bytes())
        assert len(log.events) > 0

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.jsonocel"
        b = tmp_path / "b.jsonocel"
        run(["generate", "--orders", "8", "--seed", "1", "-o", str(a)])
        run(["generate", "--orders", "8", "--seed", "1", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_shape_flags(self, tmp_path):
        path = tmp_path / "log.jsonocel"
        run(
            [
                "generate", "--orders", "4", "--seed", "0",
                "--items-min", "2", "--items-max", "2",
                "--group-min", "2", "--group-max", "2",
                "-o", str(path),
            ]
        )
        log = parse_ocel_json(path.read_bytes())
        assert len(log.events) == 4 * 3 + 2 * 2

    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"orders": 2, "seed": 5}))
        from_config = tmp_path / "from_config.jsonocel"
        run(["generate", "--config", str(config), "-o", str(from_config)])
        flag_wins = tmp_path / "flag_wins.jsonocel"
        run(["generate", "--config", str(config), "--orders", "4", "-o", str(flag_wins)])
        n_config = len(parse_ocel_json(from_config.read_bytes()).events)
        n_flag = len(parse_ocel_json(flag_wins.read_bytes()).events)
        assert n_flag > n_config

    def test_config_may_hold_other_commands_settings(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"orders": 2, "epochs": 3, "rate": 0.2}))
        assert run(["generate", "--config", str(config), "-o", str(tmp_path / "l.jsonocel")]) == 0


class TestInject:
    def test_contaminates_with_truth(self, tmp_path, small_log_path):
        out = tmp_path / "dirty.jsonocel"
        truth_path = tmp_path / "truth.csv"
        code = run(
            ["inject", "-i", str(small_log_path), "-o", str(out), "--truth",
             str(truth_path), "--rate", "0.1", "--seed", "4"]
        )
        assert code == 0
        original = parse_ocel_json(small_log_path.read_bytes())
        contaminated = parse_ocel_json(out.read_bytes())
        truth = GroundTruth.from_csv(truth_path.read_text())
        n = len(original.events)
        per_type = round(0.1 * n / 2.9)
        assert len(contaminated.events) == n + per_type
        assert sum(1 for v in truth.labels.values() if v != "normal") == 3 * per_type

    def test_rate_zero_identity(self, tmp_path, small_log_path):
        out = tmp_path / "same.jsonocel"
        run(["inject", "-i", str(small_log_path), "-o", str(out), "--rate", "0"])
        assert parse_ocel_json(out.read_bytes()) == parse_ocel_json(small_log_path.read_bytes())

    def test_default_truth_path(self, tmp_path, small_log_path):
        out = tmp_path / "dirty.jsonocel"
        run(["inject", "-i", str(small_log_path), "-o", str(out), "--rate", "0.1"])
        assert (tmp_path / "dirty.truth.csv").exists()

    def test_missing_input_is_config_error(self, tmp_path):
        code = run(["inject", "-i", str(tmp_path / "nope.jsonocel"), "-o", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [(["--rate", "2"], "rate must be in [0, 1)"), (["--seed", "-1"], "seed must be >= 0")],
        ids=["rate", "seed"],
    )
    def test_invalid_plan_setting_exits_before_reading_the_log(
        self, tmp_path, small_log_path, monkeypatch, capsys, flags, message
    ):
        monkeypatch.setattr(cli, "parse_ocel_json", lambda data: pytest.fail("parsed"))
        out = tmp_path / "dirty.jsonocel"
        assert run(["inject", "-i", str(small_log_path), "-o", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_truth_on_the_output_path_exits_before_reading_the_log(
        self, tmp_path, small_log_path, monkeypatch, capsys
    ):
        # The truth CSV would replace the contaminated log.
        monkeypatch.setattr(cli, "parse_ocel_json", lambda data: pytest.fail("parsed"))
        out = tmp_path / "dirty.jsonocel"
        args = ["inject", "-i", str(small_log_path), "-o", str(out), "--truth", str(out)]
        assert run(args) == 2
        assert "are one file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["-o", "--truth"])
    def test_output_on_the_input_path_exits_before_reading_the_log(
        self, tmp_path, small_log_path, monkeypatch, capsys, target
    ):
        monkeypatch.setattr(cli, "parse_ocel_json", lambda data: pytest.fail("parsed"))
        clean = small_log_path.read_bytes()
        outputs = {"-o": str(tmp_path / "dirty.jsonocel"), "--truth": str(tmp_path / "t.csv")}
        outputs[target] = str(small_log_path)
        args = ["inject", "-i", str(small_log_path)]
        assert run(args + [arg for pair in outputs.items() for arg in pair]) == 2
        assert "are one file" in capsys.readouterr().err
        assert small_log_path.read_bytes() == clean
        assert list(tmp_path.iterdir()) == [small_log_path]

    def test_infeasible_injection_exit_code(self, tmp_path):
        rows = [(f"e{i:02d}", "act", i, ["hub"], {"x": 1.0}) for i in range(34)]
        log = make_log(rows, {"hub": "T"})
        path = tmp_path / "flat.jsonocel"
        path.write_bytes(write_ocel_json(log))
        code = run(["inject", "-i", str(path), "-o", str(tmp_path / "out.jsonocel")])
        assert code == 3


class TestDetect:
    def detect_args(self, log_path, out_path, seed="5"):
        return [
            "detect", "-i", str(log_path), "-o", str(out_path),
            "--epochs", "40", "--hidden1", "8", "--hidden2", "4", "--seed", seed,
        ]

    def test_writes_report_json_and_csv(self, tmp_path, small_log_path):
        out = tmp_path / "report.json"
        assert run(self.detect_args(small_log_path, out)) == 0
        report = report_from_json(out.read_text())
        log = parse_ocel_json(small_log_path.read_bytes())
        assert len(report.event_ids) == len(log.events)
        assert (tmp_path / "report.csv").exists()
        labels_from_scores = report.scores > report.threshold.tau
        np.testing.assert_array_equal(report.labels, labels_from_scores)

    def test_same_seed_byte_identical(self, tmp_path, small_log_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(self.detect_args(small_log_path, a))
        run(self.detect_args(small_log_path, b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input(self, tmp_path):
        assert run(self.detect_args(tmp_path / "ghost.jsonocel", tmp_path / "r.json")) == 2

    def test_unknown_config_key_exits_before_training(
        self, tmp_path, small_log_path, monkeypatch, capsys
    ):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"epoch": 3}))
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        args = ["detect", "-i", str(small_log_path), "-o", str(tmp_path / "r.json"),
                "--config", str(config)]
        assert run(args) == 2
        assert "epoch" in capsys.readouterr().err

    def test_non_finite_k_factor_is_config_error(self, tmp_path, small_log_path, monkeypatch):
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        monkeypatch.setattr(cli, "parse_ocel_json", lambda data: pytest.fail("parsed"))
        args = self.detect_args(small_log_path, tmp_path / "r.json") + ["--k-factor", "nan"]
        assert run(args) == 2
        assert not (tmp_path / "r.json").exists()

    def test_report_named_like_its_csv_exits_before_reading_the_log(
        self, tmp_path, small_log_path, monkeypatch, capsys
    ):
        # The CSV beside report.csv is report.csv itself: it would overwrite the JSON.
        monkeypatch.setattr(cli, "parse_ocel_json", lambda data: pytest.fail("parsed"))
        out = tmp_path / "report.csv"
        assert run(self.detect_args(small_log_path, out)) == 2
        assert "are one file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "log_name, report_name",
        # The report itself, or the CSV written beside it, would replace the log.
        [("log.jsonocel", "log.jsonocel"), ("x.csv", "x.json")],
    )
    def test_output_on_the_input_path_exits_before_reading_the_log(
        self, tmp_path, small_log_path, monkeypatch, capsys, log_name, report_name
    ):
        monkeypatch.setattr(cli, "parse_ocel_json", lambda data: pytest.fail("parsed"))
        log_path = small_log_path.rename(tmp_path / log_name)
        clean = log_path.read_bytes()
        assert run(self.detect_args(log_path, tmp_path / report_name)) == 2
        assert "are one file" in capsys.readouterr().err
        assert log_path.read_bytes() == clean
        assert list(tmp_path.iterdir()) == [log_path]

    def test_out_of_memory_is_one_error_line(self, tmp_path, small_log_path, monkeypatch, capsys):
        def exhaust(log):
            raise MemoryError("Unable to allocate 61.6 GiB for an array")

        monkeypatch.setattr(autoencoder, "encode_log", exhaust)
        assert run(self.detect_args(small_log_path, tmp_path / "r.json")) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 61.6 GiB for an array\n"
        assert not (tmp_path / "r.json").exists()

    def test_negative_seed_exits_before_reading_the_log(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        monkeypatch.setattr(cli, "parse_ocel_json", lambda data: pytest.fail("parsed"))
        args = self.detect_args(tmp_path / "ghost.jsonocel", tmp_path / "r.json", seed="-1")
        assert run(args) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_empty_log_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        log_path = tmp_path / "empty.jsonocel"
        log_path.write_bytes(write_ocel_json(parse_ocel_json("{}")))
        assert run(self.detect_args(log_path, tmp_path / "r.json")) == 2
        assert "cannot run detection on an empty log" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_null_config_setting_is_config_error(self, tmp_path, small_log_path, monkeypatch):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"epochs": None}))
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        args = ["detect", "-i", str(small_log_path), "-o", str(tmp_path / "r.json"),
                "--config", str(config)]
        assert run(args) == 2

    def test_non_finite_loss_exit_code(self, tmp_path, small_log_path, monkeypatch):
        def explode(graph, config):
            raise NonFiniteLossError(3, float("inf"))

        monkeypatch.setattr(autoencoder, "train", explode)
        code = run(self.detect_args(small_log_path, tmp_path / "r.json"))
        assert code == 4

    def test_non_finite_final_reconstruction_exit_code(self, tmp_path, small_log_path):
        # The one epoch's loss is checked before its update; the update
        # itself blows the weights up, so only the final model shows it. In a
        # child process, so that stderr is what a user sees: the typed error
        # and no numpy RuntimeWarning.
        out = tmp_path / "r.json"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "ocelad.cli", "detect", "-i", str(small_log_path),
             "-o", str(out), "--epochs", "1", "--lr", "1e300"],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 4
        assert done.stderr.splitlines() == ["error: loss is not finite at epoch 1: inf"]
        assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_repeated_config_key_is_config_error(
        self, tmp_path, small_log_path, monkeypatch, capsys
    ):
        config = tmp_path / "settings.json"
        config.write_text('{"epochs": 5, "epochs": 3}')
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        args = ["detect", "-i", str(small_log_path), "-o", str(tmp_path / "r.json"),
                "--config", str(config)]
        assert run(args) == 2
        assert "'epochs' appears twice" in capsys.readouterr().err

    def test_deeply_nested_log_exit_code(self, tmp_path, capsys):
        log_path = tmp_path / "deep.jsonocel"
        log_path.write_text("[" * 100_000)
        assert run(self.detect_args(log_path, tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err
        assert err.count("\n") == 1

    def test_deeply_nested_config_exit_code(self, tmp_path, small_log_path, capsys):
        config = tmp_path / "settings.json"
        config.write_text('{"epochs": ' * 100_000)
        args = ["detect", "-i", str(small_log_path), "-o", str(tmp_path / "r.json"),
                "--config", str(config)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err
        assert err.count("\n") == 1


def write_perfect_run(tmp_path):
    """Report + truth where the two anomalies separate cleanly from eight normals."""
    scores = np.array([9.0, 8.0, 0.3, 0.28, 0.26, 0.24, 0.22, 0.2, 0.15, 0.1])
    threshold = iqr_threshold(scores)
    event_ids = tuple(f"e{i}" for i in range(1, 11))
    report = DetectionReport(
        event_ids=event_ids,
        scores=scores,
        labels=label_events(scores, threshold),
        threshold=threshold,
    )
    report_path = tmp_path / "report.json"
    report_path.write_text(report_to_json(report))
    truth_path = tmp_path / "truth.csv"
    labels = {"e1": "attr_swap", "e2": "random_activity"}
    labels.update({f"e{i}": "normal" for i in range(3, 11)})
    truth_path.write_text(GroundTruth(labels=labels).to_csv())
    return report_path, truth_path


class TestEvaluate:
    def test_perfect_run_metrics(self, tmp_path, capsys):
        report_path, truth_path = write_perfect_run(tmp_path)
        metrics_path = tmp_path / "metrics.json"
        code = run(
            ["evaluate", "--report", str(report_path), "--truth", str(truth_path),
             "-o", str(metrics_path)]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "100.0" in table
        doc = json.loads(metrics_path.read_text())
        run0 = doc["runs"][0]
        assert run0["f1"] == 1.0
        assert run0["auc_roc"] == 1.0
        assert run0["auc_pr"] == 1.0
        assert run0["recall_at_k"] == 1.0
        assert run0["per_type_recall"] == {"attr_swap": 1.0, "random_activity": 1.0}

    def test_multiple_reports_aggregate(self, tmp_path, capsys):
        report_path, truth_path = write_perfect_run(tmp_path)
        code = run(
            ["evaluate", "--report", str(report_path), str(report_path),
             "--truth", str(truth_path), "-o", str(tmp_path / "m.json")]
        )
        assert code == 0
        assert "mean +/- std" in capsys.readouterr().out
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["mean"]["f1"] == 1.0
        assert doc["std"]["f1"] == 0.0

    @pytest.mark.parametrize("target", ["truth", "report"])
    def test_metrics_on_an_input_path_exits_before_reading(self, tmp_path, capsys, target):
        report_path, truth_path = write_perfect_run(tmp_path)
        inputs = {"truth": truth_path, "report": report_path}
        before = {path: path.read_bytes() for path in inputs.values()}
        args = ["evaluate", "--report", str(report_path), "--truth", str(truth_path)]
        assert run(args + ["-o", str(inputs[target])]) == 2
        assert "are one file" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in inputs.values()} == before

    def test_repeated_event_id_exit_code(self, tmp_path, capsys):
        # "e1" listed twice in place of "e2" covers the same id set as the
        # truth, so without the check the join succeeds and scores silently.
        report_path, truth_path = write_perfect_run(tmp_path)
        doc = json.loads(report_path.read_text())
        doc["events"][1]["event_id"] = "e1"
        report_path.write_text(json.dumps(doc))
        labels = {"e1": "attr_swap"} | {f"e{i}": "normal" for i in range(3, 11)}
        truth_path.write_text(GroundTruth(labels=labels).to_csv())
        code = run(["evaluate", "--report", str(report_path), "--truth", str(truth_path)])
        assert code == 2
        assert "listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, field, value",
        [
            ({"threshold": {}}, None, None),
            ([{"events": []}], None, None),
            (None, "label", "Anomalous"),
            (None, "label", None),
            (None, "score", True),
            (None, "score", None),
            (None, "score", "0.5"),
            (None, "event_id", 1),
        ],
        ids=["no-events", "list", "label-case", "label-null", "score-true", "score-null",
             "score-text", "id-integer"],
    )
    def test_malformed_report_exit_code(self, tmp_path, capsys, document, field, value):
        report_path, truth_path = write_perfect_run(tmp_path)
        if document is None:
            document = json.loads(report_path.read_text())
            document["events"][0][field] = value
        report_path.write_text(json.dumps(document))
        code = run(["evaluate", "--report", str(report_path), "--truth", str(truth_path)])
        assert code == 2
        assert "not a detection report" in capsys.readouterr().err

    def test_deeply_nested_report_exit_code(self, tmp_path, capsys):
        report_path, truth_path = write_perfect_run(tmp_path)
        report_path.write_text("[" * 100_000)
        code = run(["evaluate", "--report", str(report_path), "--truth", str(truth_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err
        assert err.count("\n") == 1

    def test_truth_without_anomaly_exit_code(self, tmp_path, capsys):
        # AUC-ROC is undefined without an anomalous event.
        report_path, truth_path = write_perfect_run(tmp_path)
        labels = {f"e{i}": "normal" for i in range(1, 11)}
        truth_path.write_text(GroundTruth(labels=labels).to_csv())
        code = run(["evaluate", "--report", str(report_path), "--truth", str(truth_path)])
        assert code == 5
        assert "both classes" in capsys.readouterr().err

    def test_id_mismatch_exit_code(self, tmp_path):
        report_path, truth_path = write_perfect_run(tmp_path)
        truth_path.write_text("event_id,label\nother,normal\n")
        code = run(["evaluate", "--report", str(report_path), "--truth", str(truth_path)])
        assert code == 5


class TestPipeline:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = run(
            [
                "pipeline", "-o", str(out_dir), "--orders", "30", "--seed", "5",
                "--repeat", "2", "--epochs", "40", "--hidden1", "8", "--hidden2", "4",
            ]
        )
        assert code == 0
        for name in ("clean.jsonocel", "contaminated.jsonocel", "truth.csv",
                     "metrics.json", "manifest.json"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"]["detect"] == [7, 8]
        assert len(manifest["artifacts"]["reports"]) == 2
        for report_name in manifest["artifacts"]["reports"]:
            assert (out_dir / report_name).exists()
        assert "mean +/- std" in capsys.readouterr().out

    def test_byte_identical_across_processes(self, tmp_path):
        # String hashing differs between the two processes; the BLAS thread
        # count is pinned because it changes the summation order of matmul.
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            out_dir = tmp_path / f"hash{hash_seed}"
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "OPENBLAS_NUM_THREADS": "1",
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            }
            subprocess.run(
                [sys.executable, "-m", "ocelad.cli", "pipeline", "-o", str(out_dir),
                 "--orders", "60", "--seed", "5", "--repeat", "1", "--epochs", "120"],
                env=env, check=True, capture_output=True,
            )
            outputs.append(
                [(out_dir / name).read_bytes() for name in
                 ("contaminated.jsonocel", "truth.csv", "report_seed7.json",
                  "report_seed7.csv", "metrics.json")]
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "document",
        [{"seed": "false"}, {"epochs": True}, {"epochs": 3.9}, {"rate": "0.1"}],
        ids=["bool-as-string", "bool-as-int", "float-as-int", "string-as-float"],
    )
    def test_config_value_of_wrong_type_is_config_error(
        self, tmp_path, monkeypatch, capsys, document
    ):
        # Each of these used to be cast or ignored: true trained one epoch,
        # 3.9 trained three.
        config = tmp_path / "settings.json"
        config.write_text(json.dumps(document))
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        args = ["pipeline", "-o", str(tmp_path / "run"), "--orders", "30", "--config", str(config)]
        assert run(args) == 2
        assert repr(next(iter(document))) in capsys.readouterr().err
        assert not (tmp_path / "run" / "clean.jsonocel").exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
         ("--k-factor", "nan", "k_factor")],
    )
    def test_non_finite_detection_setting_exits_before_any_work(
        self, tmp_path, capsys, flag, value, name
    ):
        out_dir = tmp_path / "run"
        assert run(["pipeline", "-o", str(out_dir), "--orders", "30", flag, value]) == 2
        assert name in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("rate", ["nan", "2"])
    def test_invalid_rate_exits_before_any_work(self, tmp_path, capsys, rate):
        out_dir = tmp_path / "run"
        assert run(["pipeline", "-o", str(out_dir), "--orders", "10", "--rate", rate]) == 2
        assert "rate must be in [0, 1)" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--orders", "0"], "n_orders must be >= 1"),
            (["--items-min", "3", "--items-max", "2"], "ranges must be non-empty"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["orders-zero", "items-range", "seed-negative"],
    )
    def test_invalid_generator_setting_exits_before_any_work(
        self, tmp_path, capsys, flags, message
    ):
        out_dir = tmp_path / "run"
        assert run(["pipeline", "-o", str(out_dir), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_integer_beyond_float_range_is_config_error(self, tmp_path, monkeypatch):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"lr": 10**400}))
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        args = ["pipeline", "-o", str(tmp_path / "run"), "--orders", "30", "--config", str(config)]
        assert run(args) == 2

    def test_config_values_take_their_setting_type(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"k_factor": 2, "epochs": 2}))
        out_dir = tmp_path / "run"
        args = ["pipeline", "-o", str(out_dir), "--orders", "30", "--hidden1", "4",
                "--hidden2", "2", "--config", str(config)]
        assert run(args) == 0
        settings = json.loads((out_dir / "manifest.json").read_text())["settings"]
        assert (settings["k_factor"], settings["epochs"]) == (2.0, 2)
        assert (type(settings["k_factor"]), type(settings["epochs"])) == (float, int)

    def test_truth_without_anomaly_exits_before_training(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(autoencoder, "train", lambda graph, config: pytest.fail("trained"))
        out_dir = tmp_path / "run"
        args = ["pipeline", "-o", str(out_dir), "--orders", "60", "--rate", "0", "--repeat", "3"]
        assert run(args) == 5
        assert "both classes" in capsys.readouterr().err
        assert not list(out_dir.glob("report_seed*"))

    def test_repeat_must_be_positive(self, tmp_path):
        code = run(["pipeline", "-o", str(tmp_path / "x"), "--orders", "30", "--repeat", "0"])
        assert code == 2


class TestSurface:
    """Each command's flags and the defaults it runs with, as literal values."""

    OPTIONS = {
        "generate": [
            "--config", "--group-max", "--group-min", "--help", "--items-max", "--items-min",
            "--orders", "--output", "--seed", "-h", "-o",
        ],
        "inject": [
            "--config", "--help", "--input", "--output", "--rate", "--seed", "--truth",
            "-h", "-i", "-o",
        ],
        "detect": [
            "--config", "--epochs", "--help", "--hidden1", "--hidden2", "--input",
            "--k-factor", "--lr", "--output", "--seed", "-h", "-i", "-o",
        ],
        "evaluate": ["--help", "--output", "--report", "--truth", "-h", "-o"],
        "pipeline": [
            "--config", "--epochs", "--group-max", "--group-min", "--help", "--hidden1",
            "--hidden2", "--items-max", "--items-min", "--k-factor", "--lr",
            "--orders", "--output-dir", "--rate", "--repeat", "--seed", "-h", "-o",
        ],
    }
    DEFAULTS = {
        "epochs": 800,
        "group_max": 2,
        "group_min": 1,
        "hidden1": 64,
        "hidden2": 32,
        "items_max": 3,
        "items_min": 1,
        "k_factor": 1.5,
        "lr": 0.02,
        "orders": 500,
        "rate": 0.1,
        "repeat": 1,
        "seed": 0,
    }

    def test_package_does_not_import_cli(self):
        # Were the package to import its CLI, `python -m ocelad.cli` would
        # execute cli.py twice and print runpy's RuntimeWarning.
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import sys, ocelad, ocelad.autoencoder;"
            "assert 'ocelad.cli' not in sys.modules and 'argparse' not in sys.modules;"
            "assert ocelad.run_detection is ocelad.autoencoder.run_detection"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_package_root_exports(self):
        root = sorted(ocelad.__all__)
        assert root == [
            "GenConfig", "GroundTruth", "TrainConfig", "benchmark_config", "compute_metrics",
            "generate", "inject_all", "parse_ocel_json", "plan_injection", "run_detection",
            "write_ocel_json",
        ]
        assert all(getattr(ocelad, name, None) is not None for name in root)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        block = re.search(r"from ocelad import \(([^)]*)\)", readme)
        imported = [name.strip() for name in block.group(1).split(",") if name.strip()]
        assert imported and set(imported) <= set(root)

    def test_readme_settings_table(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = [
            [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in readme.read_text("utf-8").splitlines()
            if line.startswith("| `--")
        ]
        expected = [
            ["--" + name.replace("_", "-"), s.type.__name__, str(s.default), ", ".join(s.commands)]
            for name, s in cli.SETTINGS.items()
        ]
        assert rows == expected

    def test_option_strings(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: sorted(option for action in command._actions for option in action.option_strings)
            for name, command in sub.choices.items()
        }
        assert options == self.OPTIONS

    def test_pipeline_manifest_defaults(self, tmp_path, monkeypatch):
        # One epoch instead of the recorded 800 keeps the run short; the
        # manifest echoes the settings, not what the stub did with them.
        monkeypatch.setattr(
            autoencoder, "train", lambda graph, config: train(graph, dataclasses.replace(config, epochs=1))
        )
        assert run(["pipeline", "-o", str(tmp_path)]) == 0
        settings = json.loads((tmp_path / "manifest.json").read_text())["settings"]
        # Dumped, so that 15 and 15.0 differ.
        assert json.dumps(settings) == json.dumps(self.DEFAULTS)
