"""Start-up import diet: importing the CLI loads only its parser, which parses
every option without numpy, each command loads only the weakbounds modules it
runs, no command loads scipy, and no module imports scipy, statistics or
dataclasses, whose generated methods are compiled again in every process.

The command tests run a fresh interpreter, since the test process itself has
scipy loaded by other tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakbounds

SRC = str(Path(weakbounds.__file__).resolve().parents[1])

# prints the sorted modules of one top-level package loaded after running the
# given CLI commands
SCRIPT = """
import json, sys
from weakbounds.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    assert rc == 0, (argv, rc)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == sys.argv[2])))
"""


def fresh(script, args, cwd):
    """The JSON that ``script`` prints last, run on ``args`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(commands, cwd, package):
    return fresh(SCRIPT, [json.dumps(commands), package], cwd)


def test_import_cli_loads_no_scipy(tmp_path):
    assert modules_after([], tmp_path, "scipy") == []


def test_import_cli_loads_no_dataclasses(tmp_path):
    # numpy, argparse, json, csv and statistics do not import it either
    assert modules_after([], tmp_path, "dataclasses") == []


def test_binary_commands_load_no_scipy(tmp_path):
    common = ["--data", "d.csv", "--label-model", "m.json"]
    commands = [
        ["synth", "--n", "120", "--seed", "2", "--out", "d.csv", "--model-out", "m.json"],
        ["estimate", *common, "--out", "acc.json"],
        ["estimate", *common, "--metric", "joint-positive", "--threshold", "0.5",
         "--out", "jp.json"],
        ["sweep", *common, "--thresholds", "0.4,0.6", "--metric", "accuracy,f1",
         "--out", "s.csv"],
        ["diagnose", *common, "--label-model-alt", "m.json", "--out", "diag.json"],
        ["oracle", *common, "--out", "o.json"],
    ]
    assert modules_after(commands, tmp_path, "scipy") == []
    for name in ("acc.json", "jp.json", "s.csv", "diag.json", "o.json"):
        assert (tmp_path / name).stat().st_size > 0


def test_multiclass_oracle_loads_no_scipy(tmp_path):
    # one signature, predictions 0, 1, 2 and a uniform label model: the
    # accuracy coupling can put all mass off (L=0) or on (U=1) the diagonal
    (tmp_path / "d.csv").write_text("pred,wl_0\n0,0\n1,0\n2,0\n")
    (tmp_path / "m.json").write_text(
        json.dumps({"num_classes": 3, "entries": [{"z": [0], "p": [1 / 3, 1 / 3, 1 / 3]}]})
    )
    commands = [["oracle", "--data", "d.csv", "--label-model", "m.json", "--out", "o.json"]]
    assert modules_after(commands, tmp_path, "scipy") == []
    result = json.loads((tmp_path / "o.json").read_text())
    assert abs(result["lower"]) < 1e-9
    assert abs(result["upper"] - 1.0) < 1e-9


# ``import weakbounds.cli`` loads only the package, the parser and the
# vocabulary its option types check with
CLI = {"weakbounds", "weakbounds.cli", "weakbounds.errors", "weakbounds.vocab"}
# every command that reads or writes a file loads these
FILES = {"domain", "fileio"}
# and every command that solves a smoothed bound these
SOLVE = {"bounds", "objective", "solver"}


def test_import_cli_loads_only_what_every_command_runs(tmp_path):
    assert set(modules_after([], tmp_path, "weakbounds")) == CLI


def test_each_command_loads_only_its_modules(tmp_path):
    common = ["--data", "d.csv", "--label-model", "m.json"]
    synth = ["synth", "--n", "120", "--seed", "2", "--out", "d.csv", "--model-out", "m.json"]
    commands = {
        "synth": (synth, FILES | {"synth"}),
        "estimate": (["estimate", *common, "--out", "c/acc.json"],
                     FILES | SOLVE | {"metrics", "diagnostics"}),
        "sweep": (["sweep", *common, "--thresholds", "0.4,0.6", "--metric", "accuracy,f1"],
                  FILES | SOLVE | {"metrics"}),
        "oracle": (["oracle", *common], FILES | {"metrics", "oracle"}),
        "diagnose": (["diagnose", *common], FILES | {"metrics", "diagnostics"}),
        "diagnose-alt": (["diagnose", *common, "--label-model-alt", "m.json"],
                         FILES | SOLVE | {"metrics", "diagnostics"}),
        "select": (["select", "--candidates", "c"], FILES | {"diagnostics"}),
        "coverage": (["coverage", "--n", "100", "--replications", "100"],
                     FILES | SOLVE | {"synth"}),
    }
    (tmp_path / "c").mkdir()
    for name, (argv, own) in commands.items():
        loaded = set(modules_after([argv], tmp_path, "weakbounds"))
        assert loaded == CLI | {f"weakbounds.{m}" for m in own}, name


# runs one CLI command in a fresh interpreter: its exit code, and whether numpy loaded
NUMPY_SCRIPT = """
import json, sys
from weakbounds.cli import main
rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], 0),
        (["estimate", "--help"], 0),
        (["estimate", "--label-model", "m.json"], 1),  # no --data
        (["sweep", "--data", "d.csv", "--label-model", "m.json", "--thresholds", "0.5",
          "--metric", "accuracy,auc"], 1),
        (["estimate", "--data", "d.csv", "--label-model", "m.json", "--gamma", "2"], 1),
    ],
    ids=["help", "estimate-help", "no-data", "unknown-metric", "bad-gamma"],
)
def test_help_and_usage_errors_load_no_numpy(tmp_path, argv, code):
    assert fresh(NUMPY_SCRIPT, [json.dumps(argv)], tmp_path) == [code, False]


def import_sites(package):
    """file:line of every import of ``package`` in the weakbounds sources."""
    found = []
    for path in sorted(Path(weakbounds.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == package]
    return found


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    assert import_sites("scipy") == []


def test_no_module_imports_dataclasses():
    # the records are NamedTuples; a dataclass would compile its methods with
    # exec at every start-up, since generated code is never cached in a .pyc
    assert import_sites("dataclasses") == []


def test_no_module_imports_statistics():
    # statistics loads fractions and decimal in every process; the CI quantile
    # is bounds.normal_quantile
    assert import_sites("statistics") == []
