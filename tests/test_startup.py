"""Start-up import diet: no command loads scipy, and no module imports it.

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

# prints the sorted scipy modules loaded after running the given CLI commands
SCRIPT = """
import json, sys
from weakbounds.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    assert rc == 0, (argv, rc)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(commands, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_loads_no_scipy(tmp_path):
    assert scipy_modules_after([], tmp_path) == []


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
    assert scipy_modules_after(commands, tmp_path) == []
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
    assert scipy_modules_after(commands, tmp_path) == []
    result = json.loads((tmp_path / "o.json").read_text())
    assert abs(result["lower"]) < 1e-9
    assert abs(result["upper"] - 1.0) < 1e-9


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    package = Path(weakbounds.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []
