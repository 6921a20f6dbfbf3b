"""Start-up import diet: each command loads only the weakbounds modules it runs,
no command loads scipy, and no module imports scipy, statistics or
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


def modules_after(commands, cwd, package):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands), package],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


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


# every command's process loads these, with the package and the cli
BASE = {f"weakbounds.{m}" for m in
        ("cli", "bounds", "domain", "errors", "fileio", "metrics", "objective", "solver")}


def test_import_cli_loads_only_what_every_command_runs(tmp_path):
    assert set(modules_after([], tmp_path, "weakbounds")) == BASE | {"weakbounds"}


def test_each_command_loads_only_its_modules(tmp_path):
    common = ["--data", "d.csv", "--label-model", "m.json"]
    synth = ["synth", "--n", "120", "--seed", "2", "--out", "d.csv", "--model-out", "m.json"]
    commands = {
        "synth": (synth, {"synth"}),
        "estimate": (["estimate", *common, "--out", "c/acc.json"], {"diagnostics"}),
        "sweep": (["sweep", *common, "--thresholds", "0.4,0.6", "--metric", "accuracy,f1"],
                  set()),
        "oracle": (["oracle", *common], {"oracle"}),
        "diagnose": (["diagnose", *common], {"diagnostics"}),
        "select": (["select", "--candidates", "c"], {"diagnostics"}),
        "coverage": (["coverage", "--n", "100", "--replications", "100"], {"synth"}),
    }
    (tmp_path / "c").mkdir()
    for name, (argv, own) in commands.items():
        loaded = set(modules_after([argv], tmp_path, "weakbounds"))
        assert loaded == BASE | {"weakbounds"} | {f"weakbounds.{m}" for m in own}, name


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
