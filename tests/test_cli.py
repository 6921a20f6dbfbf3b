import csv
import json

import pytest

from weakbounds import SolverConfig
from weakbounds import cli
from weakbounds.cli import main


def run(*argv):
    return main(list(argv))


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
        assert run("estimate", "--no-such-flag") == 1
        assert "usage" in capsys.readouterr().err

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


class TestUnconvergedWarning:
    """A solve stopped by its budget warns on stderr and leaves the exit code at 0."""

    @pytest.fixture(autouse=True)
    def no_budget(self, monkeypatch):
        monkeypatch.setattr(cli, "SolverConfig", lambda: SolverConfig(max_iterations=0))

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

    def test_subsample_flag(self, tmp_path, synth_files):
        data, model = synth_files
        out = tmp_path / "r.json"
        rc = run(
            "estimate", "--data", str(data), "--label-model", str(model),
            "--n", "40", "--seed", "1", "--out", str(out),
        )
        assert rc == 0
        assert json.loads(out.read_text())["metrics"]["accuracy"]["n"] == 40


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


class TestSelect:
    def test_select_from_directory(self, tmp_path, synth_files, capsys):
        data, model = synth_files
        cand = tmp_path / "cands"
        cand.mkdir()
        for i, n_sub in enumerate((40, 80)):
            run(
                "estimate", "--data", str(data), "--label-model", str(model),
                "--n", str(n_sub), "--out", str(cand / f"c{i}.json"),
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

    def test_empty_directory_is_data_error(self, tmp_path):
        cand = tmp_path / "empty"
        cand.mkdir()
        assert run("select", "--candidates", str(cand)) == 2


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
            "--thresholds", "0.4,0.6", "--metric", "accuracy", "--seed", "3",
        ]
        assert run(*args, "--out", str(o1)) == 0
        assert run(*args, "--out", str(o2)) == 0
        assert o1.read_bytes() == o2.read_bytes()
