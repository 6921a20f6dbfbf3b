import csv
import gc
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import weakbounds
from weakbounds import bounds, cli, domain, metrics, solver
from weakbounds.cli import build_parser, main
from weakbounds.diagnostics import conditional_entropy_y, empirical_z_weights
from weakbounds.fileio import read_dataset_csv, read_label_model_json


def run(*argv):
    return main(list(argv))


def spy_on_solves(monkeypatch):
    """The list of the stacked solves run from now on: the spy replaces
    ``bounds.solve_bounds`` in every module that holds it."""
    solves = []
    solve_bounds = bounds.solve_bounds
    spy = lambda *args: solves.append(args) or solve_bounds(*args)
    for info in pkgutil.iter_modules(weakbounds.__path__):
        module = importlib.import_module(f"weakbounds.{info.name}")
        if getattr(module, "solve_bounds", None) is solve_bounds:
            monkeypatch.setattr(module, "solve_bounds", spy)
    return solves


@pytest.fixture
def synth_files(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    rc = run(
        "synth", "--n", "80", "--seed", "4",
        "--out", str(data), "--model-out", str(model),
    )
    assert rc == 0
    return data, model


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        # every required option is given, so the parser reaches the unknown flag
        argv = ["--data", "missing.csv", "--label-model", "missing.json", "--no-such-flag"]
        assert run("estimate", *argv) == 1
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert run() == 1

    def test_missing_file_is_data_error(self, tmp_path):
        rc = run(
            "estimate", "--data", str(tmp_path / "nope.csv"),
            "--label-model", str(tmp_path / "nope.json"),
        )
        assert rc == 2

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("score,pred\n0.5,1\n")
        model = tmp_path / "m.json"
        model.write_text("{}")
        rc = run("estimate", "--data", str(bad), "--label-model", str(model))
        assert rc == 2

    def test_uncovered_signature_is_data_error(self, tmp_path, synth_files):
        data, _ = synth_files
        model = tmp_path / "empty_model.json"
        model.write_text(json.dumps({"num_classes": 2, "entries": []}))
        rc = run("estimate", "--data", str(data), "--label-model", str(model))
        assert rc == 2

    @pytest.mark.parametrize("pred", ["-1", "5"])
    def test_prediction_outside_classes_is_data_error(self, tmp_path, synth_files, capsys, pred):
        data, model = synth_files
        rows = list(csv.reader(data.open()))
        rows[1][rows[0].index("pred")] = pred
        bad = tmp_path / "bad_pred.csv"
        with bad.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        rc = run("estimate", "--data", str(bad), "--label-model", str(model))
        assert rc == 2
        assert f"prediction {pred} outside the classes 0..1" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["missing", None])
    def test_label_model_entry_without_p_is_data_error(self, tmp_path, synth_files, p):
        data, model = synth_files
        payload = json.loads(model.read_text())
        if p == "missing":
            del payload["entries"][0]["p"]
        else:
            payload["entries"][0]["p"] = p
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(payload))
        assert run("estimate", "--data", str(data), "--label-model", str(bad)) == 2

    @pytest.mark.parametrize("p", [[True, False], ["0.5", "0.5"]])
    def test_non_numeric_p_is_data_error(self, tmp_path, synth_files, capsys, p):
        # float() read these as probabilities and the bounds came out with exit 0
        data, model = synth_files
        payload = json.loads(model.read_text())
        payload["entries"][0]["p"] = p
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(payload))
        assert run("estimate", "--data", str(data), "--label-model", str(bad)) == 2
        assert "is not a number" in capsys.readouterr().err

    def test_loss_table_that_is_not_a_list_is_data_error(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        loss = tmp_path / "loss.json"
        loss.write_text('{"a": 1}')
        rc = run(
            "estimate", "--data", str(data), "--label-model", str(model),
            "--metric", "risk", "--loss-table", str(loss),
        )
        assert rc == 2
        assert f"{loss}: bad loss table" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "oracle"])
    @pytest.mark.parametrize("table", ["[[0,1,1],[1,0,1],[1,1,0]]", "[0,1]"], ids=["3x3", "flat"])
    def test_loss_table_of_wrong_shape_is_data_error(
        self, tmp_path, synth_files, capsys, command, table
    ):
        # a well-formed table of the wrong shape exited 1, a ragged one 2
        data, model = synth_files
        loss = tmp_path / "loss.json"
        loss.write_text(table)
        rc = run(
            command, "--data", str(data), "--label-model", str(model),
            "--metric", "risk", "--loss-table", str(loss),
        )
        assert rc == 2
        assert f"{loss}: loss table must be |Y|-by-|Y|" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table",
        ['[["0", "1"], [true, 0]]', "[[0, NaN], [1, 0]]", "[[0, 1], [-Infinity, 0]]"],
        ids=["strings-and-boolean", "nan", "minus-infinity"],
    )
    def test_loss_table_of_non_numbers_is_data_error(self, tmp_path, synth_files, capsys, table):
        # strings and booleans read as numbers (exit 0); NaN and infinities reached
        # the cost table, whose message named neither the file nor the loss table
        data, model = synth_files
        loss = tmp_path / "loss.json"
        loss.write_text(table)
        rc = run(
            "oracle", "--data", str(data), "--label-model", str(model),
            "--metric", "risk", "--loss-table", str(loss),
        )
        assert rc == 2
        assert f"error: {loss}: " in capsys.readouterr().err

    def test_label_model_z_of_wrong_length_is_data_error(self, tmp_path, synth_files, capsys):
        # with the uniform fallback, entries of 2 votes against 3 vote columns
        # matched no row, and the bounds came out of a uniform model with exit 0
        data, model = synth_files
        payload = json.loads(model.read_text())
        payload["fallback"] = "uniform"
        for entry in payload["entries"]:
            entry["z"] = entry["z"][:2]
        bad = tmp_path / "short_model.json"
        bad.write_text(json.dumps(payload))
        assert run("estimate", "--data", str(data), "--label-model", str(bad)) == 2
        assert f"error: {bad}: entry 0 has 2 votes, the dataset 3" in capsys.readouterr().err

    def test_error_of_a_bug_is_not_a_usage_error(self, monkeypatch):
        # a KeyError raised by a fault in a command is not the user's: it propagates
        # with its traceback, and Python exits 1, rather than printing "usage error"
        def fault(args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "cmd_oracle", fault)
        with pytest.raises(KeyError):
            run("oracle", "--data", "d.csv", "--label-model", "m.json")

    def test_duplicate_column_is_data_error(self, tmp_path, synth_files, capsys):
        _, model = synth_files
        data = tmp_path / "dup.csv"
        data.write_text("score,pred,pred,wl_0,wl_1,wl_2\n0.5,1,0,1,1,1\n")
        assert run("estimate", "--data", str(data), "--label-model", str(model)) == 2
        assert "duplicate column name 'pred'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--thresholds", "0.5", "--metric", "f1", "--prior-y1", "0"),
            ("sweep", "--thresholds", "0.5", "--metric", "f1", "--prior-y1", "-1"),
            ("sweep", "--thresholds", "0.5", "--metric", "f1", "--prior-y1", "nan"),
            ("estimate", "--metric", "joint-positive", "--threshold", "0.5", "--prior-y1", "1.5"),
            ("sweep", "--thresholds", "nan"),
            ("sweep", "--thresholds", "0.5,inf"),
            ("estimate", "--metric", "joint-positive", "--threshold", "nan"),
            ("oracle", "--threshold=-inf"),
            ("estimate", "--epsilon", "nan"),
            ("estimate", "--epsilon", "inf"),
            ("estimate", "--gamma", "1e-300"),
        ],
        ids=["prior-0", "prior-negative", "prior-nan", "prior-above-1", "thresholds-nan",
             "thresholds-inf", "threshold-nan", "oracle-threshold-inf", "epsilon-nan",
             "epsilon-inf", "gamma-below-rounding"],
    )
    def test_out_of_range_prior_or_threshold_is_usage_error(
        self, tmp_path, synth_files, capsys, argv
    ):
        data, model = synth_files
        out = tmp_path / "o"
        rc = run(*argv, "--data", str(data), "--label-model", str(model), "--out", str(out))
        assert rc == 1
        assert "must" in capsys.readouterr().err
        assert not out.exists()

    UNKNOWN = "unrecognized arguments"
    UNREAD = "is read only with --metric"
    CHOICES = "; choose from "
    RISK = "--metric risk needs --loss-table"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("estimate", "--n", "40"), UNKNOWN),
            (("sweep", "--thresholds", "0.5", "--threshold", "0.9"), UNKNOWN),
            (("sweep", "--thresholds", "0.5", "--loss-table", "x.json"), UNKNOWN),
            (("oracle", "--gamma", "0.1"), UNKNOWN),
            (("oracle", "--epsilon", "0.01"), UNKNOWN),
            (("diagnose", "--gamma", "0.1"), UNKNOWN),
            (("diagnose", "--n", "40"), UNKNOWN),
            # only estimate reads a --seed, which it records
            (("sweep", "--thresholds", "0.5", "--seed", "3"), UNKNOWN),
            (("oracle", "--seed", "3"), UNKNOWN),
            (("diagnose", "--seed", "3"), UNKNOWN),
            # a valid loss table or prior beside a metric that does not read it
            (("estimate", "--loss-table", "LOSS"), UNREAD),
            (("estimate", "--metric", "joint-positive", "--loss-table", "LOSS"), UNREAD),
            (("estimate", "--prior-y1", "0.3"), UNREAD),
            (("estimate", "--metric", "risk", "--loss-table", "LOSS", "--prior-y1", "0.3"),
             UNREAD),
            (("oracle", "--loss-table", "LOSS"), UNREAD),
            (("diagnose", "--loss-table", "LOSS"), UNREAD),
            (("diagnose", "--epsilon", "0.5"), "--epsilon is read only with --label-model-alt"),
            # a risk metric without the loss table it reads
            (("estimate", "--metric", "risk"), RISK),
            (("oracle", "--metric", "risk"), RISK),
            (("diagnose", "--metric", "risk"), RISK),
            # a prior beside sweep metrics that do not read it
            (("sweep", "--thresholds", "0.5", "--prior-y1", "0.3"), UNREAD),
            (("sweep", "--thresholds", "0.5", "--metric", "joint-positive,accuracy",
              "--prior-y1", "0.3"), UNREAD),
            # precision divides by P(h=1), never by P(Y=1)
            (("sweep", "--thresholds", "0.5", "--metric", "precision", "--prior-y1", "0.3"),
             UNREAD),
            # a metric the command does not know, or none
            (("estimate", "--metric", "foo"), CHOICES),
            (("estimate", "--metric", "f1"), CHOICES),
            (("oracle", "--metric", "precision"), CHOICES),
            (("diagnose", "--metric", "foo"), CHOICES),
            (("sweep", "--thresholds", "0.5", "--metric", "foo"), CHOICES),
            (("sweep", "--thresholds", "0.5", "--metric", "accuracy,risk"), CHOICES),
            (("sweep", "--thresholds", "0.5", "--metric", ","), CHOICES),
            (("sweep", "--thresholds", ","), "no threshold named"),
            (("select", "--candidates", ".", "--metric", "foo"), CHOICES),
        ],
        ids=["estimate-n", "sweep-threshold", "sweep-loss-table", "oracle-gamma",
             "oracle-epsilon", "diagnose-gamma", "diagnose-n", "sweep-seed", "oracle-seed",
             "diagnose-seed", "estimate-loss-table",
             "estimate-joint-loss-table", "estimate-prior-y1", "estimate-risk-prior-y1",
             "oracle-loss-table", "diagnose-loss-table", "diagnose-epsilon",
             "estimate-risk-no-loss-table", "oracle-risk-no-loss-table",
             "diagnose-risk-no-loss-table", "sweep-accuracy-prior-y1",
             "sweep-joint-prior-y1", "sweep-precision-prior-y1", "estimate-metric-foo", "estimate-metric-f1",
             "oracle-metric-precision", "diagnose-metric-foo", "sweep-metric-foo",
             "sweep-metric-risk", "sweep-no-metric", "sweep-no-threshold",
             "select-metric-foo"],
    )
    def test_option_the_command_does_not_read_is_usage_error(
        self, tmp_path, synth_files, capsys, monkeypatch, argv, message
    ):
        # each was accepted and ignored, or failed only after reading the files;
        # sweep's --threshold replaced --thresholds
        reads = []
        for reader in ("read_dataset_csv", "read_label_model_json", "read_candidates"):
            monkeypatch.setattr(cli, reader, lambda *args: reads.append(args))
        data, model = synth_files
        loss = tmp_path / "loss.json"
        loss.write_text("[[0, 5], [5, 0]]")
        argv = [str(loss) if a == "LOSS" else a for a in argv]
        out = tmp_path / "o"
        rc = run(*argv, "--data", str(data), "--label-model", str(model), "--out", str(out))
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()
        assert reads == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--gamma", "1e-300"),
            ("sweep", "--thresholds", "0.3,0.7", "--gamma", "2"),
            ("coverage", "--n", "100", "--replications", "100", "--gamma", "1e-300"),
        ],
        ids=["estimate", "sweep", "coverage"],
    )
    def test_bad_gamma_stops_before_any_solve(
        self, tmp_path, synth_files, capsys, monkeypatch, argv
    ):
        solves = spy_on_solves(monkeypatch)
        data, model = synth_files
        inputs = [] if argv[0] == "coverage" else ["--data", str(data), "--label-model", str(model)]
        out = tmp_path / "o"
        assert run(*argv, *inputs, "--out", str(out)) == 1
        assert "argument --gamma: gamma must" in capsys.readouterr().err
        assert solves == []
        assert not out.exists()

    @pytest.mark.parametrize("num_classes", [2.9, 1e15])
    def test_bad_num_classes_is_data_error(self, tmp_path, synth_files, capsys, num_classes):
        # 2.9 read as 2 classes; 1e15 died allocating the uniform fallback table
        data, _ = synth_files
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(
            {"num_classes": num_classes, "fallback": "uniform", "entries": []}
        ))
        assert run("estimate", "--data", str(data), "--label-model", str(bad)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_coverage_of_more_than_ten_labelers_is_usage_error(self, capsys, monkeypatch):
        # all 3^K vote tuples are enumerated, so the check comes before any solve
        solves = spy_on_solves(monkeypatch)
        many = ",".join(["0.7"] * 11)
        assert run("coverage", "--n", "100", "--num-labelers", "11", "--accuracies", many,
                   "--abstain-rates", many) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: coverage takes at most 10 labelers")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert solves == []

    @pytest.mark.parametrize("command", ["synth", "coverage"])
    def test_nan_separation_is_usage_error(self, tmp_path, capsys, command):
        # synth wrote a file of NaN scores, which every command then refused to
        # read; coverage failed on those scores as if the data were bad
        out = tmp_path / "o"
        rc = run(command, "--n", "100", "--separation", "nan", "--out", str(out))
        assert rc == 1
        assert "score_separation must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestUnconvergedWarning:
    """A side short of the gradient tolerance warns on stderr and leaves the exit
    code at 0. With no budget, every side stops at its start; a tolerance no
    norm meets leaves unconverged also a binary side, which starts at its
    closed-form optimizer."""

    @pytest.fixture(autouse=True)
    def no_budget(self, monkeypatch):
        # no Newton iterations, and a tolerance no gradient norm meets
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
        monkeypatch.setattr(solver, "GRADIENT_TOLERANCE", -1.0)

    def warnings(self, capsys):
        return [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]

    def test_estimate_warns_per_side(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        out = tmp_path / "r.json"
        assert run("estimate", "--data", str(data), "--label-model", str(model),
                   "--out", str(out)) == 0
        lines = self.warnings(capsys)
        assert len(lines) == 2
        assert "accuracy, lower bound" in lines[0] and "accuracy, upper bound" in lines[1]
        assert "0 iterations" in lines[0] and "gradient sup-norm" in lines[0]
        payload = json.loads(out.read_text())
        assert not payload["metrics"]["accuracy"]["solver"]["lower"]["converged"]

    def test_estimate_warns_under_the_result_name(self, tmp_path, synth_files, capsys):
        # the warning spelled the option (joint-positive), the sweep's the result name
        data, model = synth_files
        assert run("estimate", "--data", str(data), "--label-model", str(model),
                   "--metric", "joint-positive", "--out", str(tmp_path / "r.json")) == 0
        lines = self.warnings(capsys)
        assert len(lines) == 2
        assert "warning: joint_positive, lower bound" in lines[0]

    def test_sweep_warns_per_solve(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        assert run("sweep", "--data", str(data), "--label-model", str(model),
                   "--thresholds", "0.4,0.6", "--metric", "accuracy,f1",
                   "--out", str(tmp_path / "s.csv")) == 0
        lines = self.warnings(capsys)
        # two thresholds, an accuracy and a joint solve each, two sides per solve
        assert len(lines) == 8
        assert "joint_positive at threshold 0.6, upper bound" in lines[-1]

    def test_diagnose_warns_per_model(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        assert run("diagnose", "--data", str(data), "--label-model", str(model),
                   "--label-model-alt", str(model), "--out", str(tmp_path / "d.json")) == 0
        lines = self.warnings(capsys)
        assert len(lines) == 4
        assert "accuracy under the alternative label model, upper bound" in lines[-1]

    def test_coverage_warns_per_sample(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run("coverage", "--n", "40", "--replications", "100", "--out", str(out)) == 0
        lines = self.warnings(capsys)
        # the population and 100 replications, two sides each
        assert len(lines) == 202
        assert "accuracy on the population, lower bound" in lines[0]
        assert "accuracy in replication 100, upper bound" in lines[-1]
        assert sorted(json.loads(out.read_text())) == [
            "coverage_lower", "coverage_upper", "gamma", "replications",
            "se_lower", "se_upper", "truth_lower", "truth_upper",
        ]


class TestEstimate:
    def test_accuracy_result_structure(self, tmp_path, synth_files):
        data, model = synth_files
        out = tmp_path / "r.json"
        rc = run(
            "estimate", "--data", str(data), "--label-model", str(model),
            "--metric", "accuracy", "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        entry = payload["metrics"]["accuracy"]
        assert entry["lower"] <= entry["upper"]
        assert entry["ci_lower"][0] <= entry["lower"] <= entry["ci_lower"][1]
        assert entry["solver"]["lower"]["converged"]
        assert entry["n"] == 80

    def test_joint_positive_emits_prf(self, tmp_path, synth_files):
        data, model = synth_files
        out = tmp_path / "r.json"
        rc = run(
            "estimate", "--data", str(data), "--label-model", str(model),
            "--metric", "joint-positive", "--threshold", "0.5", "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        for name in ("joint_positive", "precision", "recall", "f1"):
            assert name in payload["metrics"]
        prec = payload["metrics"]["precision"]
        assert 0.0 <= prec["lower"] <= prec["upper"] <= 1.0

    def test_no_positive_prediction_still_emits_recall_and_f1(self, tmp_path, synth_files):
        # above every score P(h=1) = 0: precision is undefined, but recall and
        # F1 are (both 0); the file held joint_positive alone
        data, model = synth_files
        out = tmp_path / "r.json"
        rc = run(
            "estimate", "--data", str(data), "--label-model", str(model),
            "--metric", "joint-positive", "--threshold", "2", "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert sorted(payload["metrics"]) == ["f1", "joint_positive", "recall"]
        assert payload["metadata"]["p_h1"] == 0.0
        metrics, p_y1 = payload["metrics"], payload["metadata"]["p_y1"]
        joint = metrics["joint_positive"]["lower"]
        assert 0.0 <= joint <= 0.01  # exactly 0, up to the smoothing slack eps * ln 2
        assert metrics["recall"]["lower"] == pytest.approx(joint / p_y1)
        assert metrics["f1"]["lower"] == pytest.approx(2 * joint / p_y1)

    def test_risk_with_loss_table(self, tmp_path, synth_files):
        data, model = synth_files
        loss = tmp_path / "loss.json"
        loss.write_text("[[0.0, 1.0], [1.0, 0.0]]")
        out = tmp_path / "r.json"
        rc = run(
            "estimate", "--data", str(data), "--label-model", str(model),
            "--metric", "risk", "--loss-table", str(loss), "--out", str(out),
        )
        assert rc == 0
        entry = json.loads(out.read_text())["metrics"]["risk"]
        assert entry["lower"] <= entry["upper"]

    def test_risk_of_huge_losses_has_finite_stds(self, tmp_path, recwarn, capsys):
        # squared deviations of ~1e200 overflow a float; the stds and CIs stay
        # finite, and the file is JSON without Infinity
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        assert run("synth", "--n", "2000", "--seed", "1", "--out", str(data),
                   "--model-out", str(model)) == 0
        loss = tmp_path / "loss.json"
        loss.write_text("[[0, 1e200], [1e200, 0]]")
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run("estimate", "--data", str(data), "--label-model", str(model),
                   "--metric", "risk", "--loss-table", str(loss), "--out", str(out)) == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        entry = json.loads(out.read_text(), parse_constant=pytest.fail)["metrics"]["risk"]
        assert 1e198 < entry["lower_std"] < 1e201 and 1e198 < entry["upper_std"] < 1e201
        assert entry["ci_lower"][0] < entry["lower"] < entry["ci_lower"][1]
        assert entry["ci_upper"][0] < entry["upper"] < entry["ci_upper"][1]
        # no column meets the gradient test at these costs, and no Newton step
        # changes a share past its rounding or shrinks a gradient: both sides
        # stall at their closed-form start, not after the whole budget, and warn
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 2
        for side, line in zip(("lower", "upper"), warnings):
            assert line.startswith(f"warning: risk, {side} bound: ")
            assert "did not converge (0 iterations" in line
            assert entry["solver"][side]["iterations"] == 0


class TestSweep:
    def test_sweep_csv_shape(self, tmp_path, synth_files):
        data, model = synth_files
        out = tmp_path / "s.csv"
        rc = run(
            "sweep", "--data", str(data), "--label-model", str(model),
            "--thresholds", "0.3,0.5,0.7", "--metric", "accuracy,f1",
            "--out", str(out),
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("threshold,metric,lower,upper")
        assert len(lines) == 1 + 3 * 2

    def test_without_out_writes_the_csv_to_stdout(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        out = tmp_path / "s.csv"
        args = [
            "sweep", "--data", str(data), "--label-model", str(model),
            "--thresholds", "0.3,0.7", "--metric", "accuracy,f1",
        ]
        assert run(*args, "--out", str(out)) == 0
        capsys.readouterr()
        assert run(*args) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_precision_alone_reads_no_class_prior(self, tmp_path, synth_files, capsys):
        # only recall and F1 divide by P(Y=1); precision rows are the same either way
        data, model = synth_files
        args = ["sweep", "--data", str(data), "--label-model", str(model),
                "--thresholds", "0.3,0.5,0.7"]
        assert run(*args, "--metric", "precision,recall") == 0
        both = capsys.readouterr().out.splitlines()
        assert run(*args, "--metric", "precision") == 0
        precision = [both[0]] + [line for line in both[1:] if ",precision," in line]
        assert capsys.readouterr().out.splitlines() == precision
        assert len(precision) == 4

    @pytest.mark.parametrize("prior", ["1", "0.25"])
    def test_prior_inside_the_unit_interval_accepted(self, tmp_path, synth_files, prior):
        data, model = synth_files
        out = tmp_path / "s.csv"
        rc = run(
            "sweep", "--data", str(data), "--label-model", str(model),
            "--thresholds", "0.5", "--metric", "f1", "--prior-y1", prior, "--out", str(out),
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("metric", ["f1", "joint-positive"])
    def test_three_class_sweep_of_joint_positive_is_usage_error(self, tmp_path, capsys, metric):
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        data.write_text("score,wl_0\n0.5,1\n0.2,0\n0.7,2\n0.9,0\n")
        model.write_text(json.dumps({"num_classes": 3, "fallback": "uniform", "entries": []}))
        rc = run("sweep", "--data", str(data), "--label-model", str(model),
                 "--thresholds", "0.3,0.6", "--metric", metric)
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert "joint_positive is defined for binary tasks only" in err


class TestEstimateMatchesSweep:
    """`estimate` and `sweep` report the same numbers for the same threshold."""

    FIELDS = ("lower", "upper", "lower_std", "upper_std")

    @pytest.mark.parametrize("gamma", ["0.05", "0.32"])
    @pytest.mark.parametrize("prior", [None, "0.3"])
    def test_every_shared_field_agrees(self, tmp_path, synth_files, gamma, prior):
        data, model = synth_files
        # drop the pred column so that both commands classify by --threshold
        rows = list(csv.reader(data.open()))
        keep = [i for i, name in enumerate(rows[0]) if name != "pred"]
        scores = tmp_path / "scores.csv"
        with scores.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([[r[i] for i in keep] for r in rows])
        common = ["--data", str(scores), "--label-model", str(model), "--gamma", gamma]
        # estimate reads --prior-y1 only with joint-positive, and rejects it otherwise
        prior_y1 = ["--prior-y1", prior] if prior else []

        out = tmp_path / "s.csv"
        assert run("sweep", *common, *prior_y1, "--thresholds", "0.6", "--out", str(out),
                   "--metric", "accuracy,joint_positive,precision,recall,f1") == 0
        swept = {r["metric"]: r for r in csv.DictReader(out.open())}
        estimated = {}
        for metric in ("accuracy", "joint-positive"):
            res = tmp_path / f"{metric}.json"
            extra = prior_y1 if metric == "joint-positive" else []
            assert run("estimate", *common, *extra, "--metric", metric, "--threshold", "0.6",
                       "--out", str(res)) == 0
            estimated.update(json.loads(res.read_text())["metrics"])

        assert set(estimated) == set(swept) == {
            "accuracy", "joint_positive", "precision", "recall", "f1"
        }
        for name, entry in estimated.items():
            row = {k: float(v) for k, v in swept[name].items() if k != "metric"}
            for key in self.FIELDS:
                assert entry[key] == row[key], (name, key)
            assert entry["ci_lower"] == [row["ci_lower_lo"], row["ci_lower_hi"]], name
            assert entry["ci_upper"] == [row["ci_upper_lo"], row["ci_upper_hi"]], name


class TestThresholdBesidePred:
    """A given --threshold classifies by score even when the CSV has a pred column."""

    def test_estimate_follows_the_threshold_as_sweep_does(self, tmp_path, synth_files):
        data, model = synth_files
        assert "pred" in data.read_text().splitlines()[0].split(",")
        inputs = ["--data", str(data), "--label-model", str(model)]
        out = tmp_path / "s.csv"
        assert run("sweep", *inputs, "--thresholds", "0.3,0.7", "--metric", "accuracy",
                   "--out", str(out)) == 0
        swept = {row["threshold"]: row for row in csv.DictReader(out.open())}
        estimated = {}
        for t in ("0.3", "0.7"):
            res = tmp_path / f"{t}.json"
            assert run("estimate", *inputs, "--threshold", t, "--out", str(res)) == 0
            entry = json.loads(res.read_text())["metrics"]["accuracy"]
            estimated[t] = (entry["lower"], entry["upper"])
            assert estimated[t] == (float(swept[t]["lower"]), float(swept[t]["upper"]))
        assert estimated["0.3"] != estimated["0.7"]

    def test_oracle_follows_the_threshold(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        printed = []
        for t in ("0.3", "0.7"):
            assert run("oracle", "--data", str(data), "--label-model", str(model),
                       "--threshold", t) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] != printed[1]

    @pytest.mark.parametrize("command", ["estimate", "oracle", "diagnose"])
    def test_threshold_without_scores_is_data_error(self, tmp_path, synth_files, capsys, command):
        data, model = synth_files
        rows = list(csv.reader(data.open()))
        keep = [i for i, name in enumerate(rows[0]) if name != "score"]
        no_scores = tmp_path / "no_scores.csv"
        with no_scores.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([[r[i] for i in keep] for r in rows])
        rc = run(command, "--data", str(no_scores), "--label-model", str(model),
                 "--threshold", "0.5")
        assert rc == 2
        assert "a threshold needs a score column" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [("estimate", "--metric", "accuracy", "--threshold", "0.5"),
         ("sweep", "--thresholds", "0.5")],
        ids=["estimate", "sweep"],
    )
    def test_nan_score_is_data_error(self, tmp_path, capsys, argv):
        # a NaN score fails every score >= t, so it would count as a negative
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        data.write_text("score,wl_0\n0.5,1\n0.2,0\nnan,1\n0.9,0\n")
        model.write_text(json.dumps({"num_classes": 2, "fallback": "uniform", "entries": []}))
        rc = run(argv[0], "--data", str(data), "--label-model", str(model), *argv[1:])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert f"{data}:4: column score: NaN is not a score" in err


class TestOracleCommand:
    def test_two_point_fixture(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("pred,wl_0\n1,0\n0,0\n")
        model = tmp_path / "m.json"
        model.write_text(
            json.dumps(
                {"num_classes": 2, "entries": [{"z": [0], "p": [0.25, 0.75]}]}
            )
        )
        rc = run(
            "oracle", "--data", str(data), "--label-model", str(model),
            "--metric", "accuracy",
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "L=0.25" in out and "U=0.75" in out

    def test_zero_upper_bound_is_written_positive(self, tmp_path, synth_files):
        # above every score each signature's upper bound is exactly zero; it was
        # written as -0.0
        data, model = synth_files
        out = tmp_path / "o.json"
        assert run("oracle", "--data", str(data), "--label-model", str(model),
                   "--metric", "joint-positive", "--threshold", "2", "--out", str(out)) == 0
        text = out.read_text()
        assert "-0.0" not in text
        per_signature = json.loads(text)["per_signature"]
        assert per_signature and all(s["upper"] == 0.0 for s in per_signature)


class TestWrittenSignatures:
    def test_commands_write_the_csv_vote_tuples(self, tmp_path, synth_files):
        # estimate counts the distinct wl_* tuples of the CSV, and oracle writes
        # them in first-observed order, which is not their sorted order here
        data, model = synth_files
        with open(data, newline="") as fh:
            rows = list(csv.DictReader(fh))
        tuples = list(dict.fromkeys(
            tuple(int(row[name]) for name in row if name.startswith("wl_")) for row in rows
        ))
        assert 1 < len(tuples) < len(rows) and tuples != sorted(tuples)
        inputs = ("--data", str(data), "--label-model", str(model))
        estimate, oracle = tmp_path / "e.json", tmp_path / "o.json"
        assert run("estimate", *inputs, "--out", str(estimate)) == 0
        assert run("oracle", *inputs, "--out", str(oracle)) == 0
        assert json.loads(estimate.read_text())["metadata"]["num_signatures"] == len(tuples)
        per_signature = json.loads(oracle.read_text())["per_signature"]
        assert [tuple(s["z"]) for s in per_signature] == tuples


class TestSelect:
    def test_select_from_directory(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        cand = tmp_path / "cands"
        cand.mkdir()
        for i, threshold in enumerate(("0.3", "0.7")):
            run(
                "estimate", "--data", str(data), "--label-model", str(model),
                "--threshold", threshold, "--out", str(cand / f"c{i}.json"),
            )
        out = tmp_path / "sel.json"
        rc = run(
            "select", "--candidates", str(cand), "--strategy", "lower",
            "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["chosen_index"] in (0, 1)
        assert payload["chosen_file"] == f"c{payload['chosen_index']}.json"

    def test_label_model_strategy_rejects_a_candidate_without_a_score(
        self, tmp_path, synth_files, capsys
    ):
        # read as NaN, the missing score was the one np.argmax chose
        data, model = synth_files
        cand = tmp_path / "cands"
        cand.mkdir()
        for i, threshold in enumerate(("0.3", "0.7")):
            run(
                "estimate", "--data", str(data), "--label-model", str(model),
                "--threshold", threshold, "--out", str(cand / f"c{i}.json"),
            )
        payload = json.loads((cand / "c1.json").read_text())
        del payload["metadata"]["label_model_score"]
        (cand / "c1.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("select", "--candidates", str(cand), "--strategy", "label_model") == 2
        err = capsys.readouterr().err
        assert f"{cand / 'c1.json'}: no metadata.label_model_score" in err
        # the other strategies do not read the score
        assert run("select", "--candidates", str(cand), "--strategy", "lower") == 0

    def test_empty_directory_is_data_error(self, tmp_path):
        cand = tmp_path / "empty"
        cand.mkdir()
        assert run("select", "--candidates", str(cand)) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"metrics": {"accuracy": {"lower": 0.1, "upper": 0.9}}, "metadata": [1]}',
            "{not json",
            '{"metrics": {"accuracy": {"lower": 0.1}}}',
            '{"metrics": {"accuracy": {"lower": "low", "upper": 0.9}}}',
            '{"metrics": {"accuracy": {"lower": NaN, "upper": 0.9}}}',
            '{"metrics": {"accuracy": {"lower": 0.1, "upper": Infinity}}}',
            '{"metrics": {"accuracy": {"lower": 0.1, "upper": 1e999}}}',
            '{"metrics": {"accuracy": {"lower": "0.99", "upper": 0.9}}}',
            '{"metrics": {"accuracy": {"lower": 0.1, "upper": true}}}',
            '{"metrics": {"accuracy": {"lower": 0.1, "upper": 0.9}},'
            ' "metadata": {"label_model_score": NaN}}',
            '{"metrics": {"accuracy": {"lower": 0.1, "upper": 0.9}},'
            ' "metadata": {"label_model_score": "0.5"}}',
        ],
        ids=["list", "metadata-list", "invalid-json", "missing-upper", "non-numeric",
             "nan", "infinity", "overflow", "string", "boolean", "nan-score", "string-score"],
    )
    def test_malformed_candidate_is_data_error(self, tmp_path, capsys, text):
        cand = tmp_path / "cands"
        cand.mkdir()
        (cand / "bad.json").write_text(text)
        assert run("select", "--candidates", str(cand)) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "Traceback" not in err


class TestDiagnose:
    def test_entropy_and_misspec(self, tmp_path, synth_files):
        data, model = synth_files
        alt = tmp_path / "alt.json"
        alt.write_text(
            json.dumps(
                {
                    "num_classes": 2,
                    "fallback": "uniform",
                    "entries": [],
                }
            )
        )
        out = tmp_path / "diag.json"
        rc = run(
            "diagnose", "--data", str(data), "--label-model", str(model),
            "--label-model-alt", str(alt), "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["conditional_entropy_y_nats"] >= 0.0
        assert payload["informativeness_bound"] >= 0.0
        mis = payload["misspecification"]
        assert mis["bound_gap_lower"] <= mis["certificate"] + 1e-5
        assert mis["within_certificate"]


class TestLossesBeyondTheFloatRange:
    """Losses whose square, cost gap or bound leaves the float range: a finite
    result where one exists, else exit 3 with one stderr line and no file."""

    @pytest.fixture
    def risk_args(self, tmp_path):
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        assert run("synth", "--n", "2000", "--seed", "1", "--out", str(data),
                   "--model-out", str(model)) == 0
        return "--data", str(data), "--label-model", str(model), "--metric", "risk"

    def test_diagnose_of_huge_losses_caps_the_width(self, tmp_path, risk_args, capsys):
        # sup|g|^2 = 1e400 overflowed a float into a traceback
        loss, out = tmp_path / "loss.json", tmp_path / "diag.json"
        loss.write_text("[[0, 1e200], [1e200, 0]]")
        capsys.readouterr()
        assert run("diagnose", *risk_args, "--loss-table", str(loss), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text(), parse_constant=pytest.fail)
        data, table = read_dataset_csv(risk_args[1])
        model = read_label_model_json(risk_args[3], table)
        h = conditional_entropy_y(model, empirical_z_weights(data, len(table)))
        want = float(f"{1e200 * math.sqrt(8.0 * h):.9g}")
        assert payload["informativeness_bound"] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize(
        "command, loss, what",
        [
            ("oracle", [[-1e308, 1e308], [1e308, -1e308]], "exact bounds beyond the float range"),
            ("estimate", [[0, 1e308], [1e308, 0]], "start not finite"),
            ("estimate", [[0, 2e306], [2e306, 0]], "non-finite objective value"),
            ("diagnose", [[0, 1e308], [1e308, 0]], "informativeness bound beyond the float range"),
        ],
    )
    def test_bound_beyond_the_float_range_is_a_numerical_failure(
        self, tmp_path, risk_args, capsys, recwarn, command, loss, what
    ):
        # the oracle wrote NaN and Infinity and exited 0; the estimate's
        # overflowing start was reported as a usage error, after numpy warnings,
        # and a finite start whose first evaluation overflows also warned
        path, out = tmp_path / "loss.json", tmp_path / "r.json"
        path.write_text(json.dumps(loss))
        capsys.readouterr()
        assert run(command, *risk_args, "--loss-table", str(path), "--out", str(out)) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"numerical failure: {what}")
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_alternative_model_start_beyond_the_float_range(
        self, tmp_path, risk_args, capsys, recwarn
    ):
        # a cap within the float range, but the gap over epsilon is not
        loss, alt = tmp_path / "loss.json", tmp_path / "alt.json"
        loss.write_text("[[0, 5e307], [5e307, 0]]")
        alt.write_text(json.dumps({"num_classes": 2, "fallback": "uniform", "entries": []}))
        capsys.readouterr()
        assert run("diagnose", *risk_args, "--loss-table", str(loss),
                   "--label-model-alt", str(alt)) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure: start not finite")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestStdoutResult:
    @pytest.mark.parametrize("command", ["estimate", "diagnose", "coverage"])
    def test_stdout_is_the_out_file(self, tmp_path, synth_files, capsys, command):
        data, model = synth_files
        inputs = ["--data", str(data), "--label-model", str(model)]
        argv = {
            "estimate": ["estimate", *inputs, "--metric", "joint-positive", "--threshold", "0.5"],
            "diagnose": ["diagnose", *inputs, "--label-model-alt", str(model)],
            "coverage": ["coverage", "--n", "40", "--replications", "100"],
        }[command]
        out = tmp_path / "r.json"
        capsys.readouterr()
        if command == "estimate":  # prints its result only without --out
            assert run(*argv) == 0
            printed = capsys.readouterr().out
            assert run(*argv, "--out", str(out)) == 0
        else:
            assert run(*argv, "--out", str(out)) == 0
            printed = capsys.readouterr().out
        assert printed.encode() == out.read_bytes()


SRC = str(Path(weakbounds.__file__).resolve().parents[1])


def cli_process(*argv, cwd, code=None):
    """Run the CLI in a fresh interpreter: ``python -m weakbounds.cli``, or with
    ``code`` given, ``python -c code`` with ``argv`` as its arguments."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    entry = ["-m", "weakbounds.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *entry, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


class TestProcessEntry:
    """``python -m weakbounds.cli`` exits through ``cli.run``, which freezes the
    collector before exit; the bytes written and the exit code are ``main``'s."""

    def test_estimate_stdout_is_the_in_process_result(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        argv = ("estimate", "--data", data, "--label-model", model, "--metric", "joint-positive")
        capsys.readouterr()
        assert run(*map(str, argv)) == 0
        proc = cli_process(*argv, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_sweep_larger_than_a_pipe_buffer_reaches_stdout_whole(
        self, tmp_path, synth_files, capsys
    ):
        data, model = synth_files
        thresholds = ",".join(f"{t / 400:.4f}" for t in range(400))
        argv = ("sweep", "--data", data, "--label-model", model, "--thresholds", thresholds,
                "--metric", "accuracy,precision,recall,f1")
        capsys.readouterr()
        assert run(*map(str, argv)) == 0
        expected = capsys.readouterr().out.encode()
        assert len(expected) > 1 << 16
        proc = cli_process(*argv, cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == expected

    def test_usage_error_exits_1(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("estimate", "--no-such-flag") == 1
        proc = cli_process("estimate", "--no-such-flag", cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == capsys.readouterr().err.encode()
        assert b"error: the following arguments are required" in proc.stderr

    def test_malformed_csv_exits_2_naming_its_line(self, tmp_path, synth_files):
        _, model = synth_files
        bad = tmp_path / "bad.csv"
        bad.write_text("score,pred,wl_0,wl_1,wl_2\n0.5,1,0,1,1\n\n0.5,1,0,1,1\n")
        proc = cli_process("estimate", "--data", bad, "--label-model", model, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode().splitlines() == [f"error: {bad}:3: blank line"]

    def test_unconverged_warning_reaches_stderr(self, tmp_path, synth_files):
        # no Newton iterations and a tolerance that no gradient norm meets, so
        # both sides warn; the atexit handler shows that handlers still run,
        # after the collector was frozen
        data, model = synth_files
        code = (
            "import atexit, gc, sys\n"
            "from weakbounds import cli, solver\n"
            "solver.MAX_ITERATIONS = 0\n"
            "solver.GRADIENT_TOLERANCE = -1.0\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "cli.run()\n"
        )
        out = tmp_path / "r.json"
        proc = cli_process("estimate", "--data", data, "--label-model", model, "--out", out,
                           cwd=tmp_path, code=code)
        assert proc.returncode == 0
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("warning: accuracy, lower bound: the solver did not converge")
        assert lines[1].startswith("warning: accuracy, upper bound")
        assert lines[2] == "frozen True"
        assert json.loads(out.read_text())["metrics"]["accuracy"]["lower"] is not None

    def test_in_process_main_never_freezes_the_collector(self, tmp_path, synth_files):
        data, model = synth_files
        assert run("estimate", "--data", str(data), "--label-model", str(model),
                   "--out", str(tmp_path / "r.json")) == 0
        assert run("estimate", "--no-such-flag") == 1
        assert gc.get_freeze_count() == 0


class TestDeterminism:
    def test_estimate_byte_identical(self, tmp_path, synth_files):
        data, model = synth_files
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "estimate", "--data", str(data), "--label-model", str(model),
            "--metric", "joint-positive", "--threshold", "0.5", "--seed", "7",
        ]
        assert run(*args, "--out", str(o1)) == 0
        assert run(*args, "--out", str(o2)) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_synth_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            d = tmp_path / f"d{tag}.csv"
            m = tmp_path / f"m{tag}.json"
            t = tmp_path / f"t{tag}.json"
            assert run(
                "synth", "--n", "60", "--seed", "9", "--out", str(d),
                "--model-out", str(m), "--metrics-out", str(t),
            ) == 0
            outs.append((d.read_bytes(), m.read_bytes(), t.read_bytes()))
        assert outs[0] == outs[1]

    def test_sweep_byte_identical(self, tmp_path, synth_files):
        data, model = synth_files
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = [
            "sweep", "--data", str(data), "--label-model", str(model),
            "--thresholds", "0.4,0.6", "--metric", "accuracy",
        ]
        assert run(*args, "--out", str(o1)) == 0
        assert run(*args, "--out", str(o2)) == 0
        assert o1.read_bytes() == o2.read_bytes()


# one run of each command, on the synth_files dataset or a directory of one result file
COMMANDS = {
    "estimate": ("estimate", "--data", "DATA", "--label-model", "MODEL",
                 "--metric", "joint-positive", "--threshold", "0.5"),
    "sweep": ("sweep", "--data", "DATA", "--label-model", "MODEL", "--thresholds", "0.3,0.5,0.7",
              "--metric", "accuracy,joint-positive,f1"),
    "diagnose-alt": ("diagnose", "--data", "DATA", "--label-model", "MODEL",
                     "--label-model-alt", "MODEL"),
    "diagnose": ("diagnose", "--data", "DATA", "--label-model", "MODEL"),
    "oracle": ("oracle", "--data", "DATA", "--label-model", "MODEL"),
    "select": ("select", "--candidates", "CANDIDATES"),
    "synth": ("synth", "--n", "50"),
    "coverage": ("coverage", "--n", "40"),
}


def run_command(name, tmp_path, synth_files, spy):
    """Run ``COMMANDS[name]``; return the list that ``spy()`` makes once the inputs exist."""
    data, model = synth_files
    candidates = tmp_path / "candidates"
    candidates.mkdir()
    assert run("estimate", "--data", str(data), "--label-model", str(model),
               "--out", str(candidates / "c.json")) == 0
    paths = {"DATA": data, "MODEL": model, "CANDIDATES": candidates}
    seen = spy()
    assert run(*[str(paths.get(a, a)) for a in COMMANDS[name]], "--out", str(tmp_path / "o")) == 0
    return seen


def spy_on_counts(monkeypatch):
    """The list of the samples counted into cell tables from now on: the spy
    replaces ``domain.cell_table`` in every module that holds it."""
    counted = []
    cell_table = domain.cell_table
    spy = lambda *args: counted.append(args) or cell_table(*args)
    for info in pkgutil.iter_modules(weakbounds.__path__):
        module = importlib.import_module(f"weakbounds.{info.name}")
        if getattr(module, "cell_table", None) is cell_table:
            monkeypatch.setattr(module, "cell_table", spy)
    return counted


# coverage solves the population and its 500 replications in one stacked solve;
# these binary solves take the closed form, so none of them is a Newton solve
SOLVES = {"estimate": 1, "sweep": 1, "diagnose-alt": 1, "diagnose": 0, "oracle": 0, "select": 0,
          "synth": 0, "coverage": 1}


@pytest.mark.parametrize("command,solves", SOLVES.items(), ids=SOLVES)
def test_one_newton_solve_per_command(tmp_path, synth_files, capsys, monkeypatch, command, solves):
    seen = run_command(command, tmp_path, synth_files, lambda: spy_on_solves(monkeypatch))
    assert len(seen) == solves
    assert "Traceback" not in capsys.readouterr().err


# a sweep counts every threshold from one pass over the scores, not through cell_table
COUNTS = {"estimate": 1, "diagnose": 1, "diagnose-alt": 1, "oracle": 1, "sweep": 0}


@pytest.mark.parametrize("command,counts", COUNTS.items(), ids=COUNTS)
def test_one_count_per_command(tmp_path, synth_files, capsys, monkeypatch, command, counts):
    seen = run_command(command, tmp_path, synth_files, lambda: spy_on_counts(monkeypatch))
    assert len(seen) == counts
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("classify", [("--threshold", "0.5"), ()], ids=["threshold", "pred"])
def test_estimate_classifies_once(tmp_path, synth_files, monkeypatch, classify):
    # P(h=1) comes from the counted cells, not from classifying the sample again
    data, model = synth_files
    calls = []
    predictions = metrics._predictions
    monkeypatch.setattr(
        metrics, "_predictions", lambda *args: calls.append(args) or predictions(*args)
    )
    assert run("estimate", "--data", str(data), "--label-model", str(model),
               "--metric", "joint-positive", *classify, "--out", str(tmp_path / "o")) == 0
    assert len(calls) == 1


def test_each_command_has_exactly_its_options():
    """A new option is a deliberate edit here, not one more that a command ignores."""
    common = {"--data", "--label-model", "--metric", "--out"}
    cost = {"--loss-table", "--threshold"}
    generator = {
        "--n", "--num-labelers", "--accuracies", "--abstain-rates", "--prior-y1",
        "--separation", "--threshold", "--seed",
    }
    expected = {
        "estimate": common | cost | {"--epsilon", "--gamma", "--prior-y1", "--seed"},
        "sweep": common | {"--epsilon", "--gamma", "--thresholds", "--prior-y1"},
        "oracle": common | cost,
        "select": {"--candidates", "--strategy", "--metric", "--out"},
        "diagnose": common | cost | {"--epsilon", "--label-model-alt"},
        "synth": generator | {"--out", "--model-out", "--metrics-out"},
        "coverage": generator | {"--replications", "--gamma", "--out"},
    }
    (subcommands,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    found = {
        name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.choices.items()
    }
    assert found == expected
    assert sum(len(found[c]) for c in ("estimate", "sweep", "oracle", "diagnose")) == 32


def _subcommand(name):
    (subcommands,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    return subcommands.choices[name]


def test_select_strategies_are_the_selection_strategies():
    # a literal tuple in the parser, so that building it loads no diagnostics
    from weakbounds.diagnostics import SelectionStrategy

    (strategy,) = [a for a in _subcommand("select")._actions if a.dest == "strategy"]
    assert tuple(strategy.choices) == tuple(s.value for s in SelectionStrategy)


def test_sweep_help_names_its_own_metric_kinds():
    (metric,) = [a for a in _subcommand("sweep")._actions if a.dest == "metric"]
    assert "risk" not in metric.help
    for kind in ("comma-separated", "accuracy", "joint-positive", "precision", "recall", "f1"):
        assert kind in metric.help
