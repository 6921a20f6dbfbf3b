"""Run the CLI of a parent revision and of the working tree on the same inputs
and compare every output: exit code, stdout, stderr and each file written.

    python tools/compare_cli.py <parent-rev>

The parent's ``src`` is exported with ``git archive``. Both versions run each
command set in the same directory, restored to the same inputs before each
version runs, so paths in messages agree too. Everything is written under one
temporary directory, which is removed at the end. Prints ``N of N identical``
and exits 1 if any output differs.

The command sets:
- every command of the benchmark's ``smoothed`` and ``exact-io`` workloads, at
  seeds 0 and 7919, on the inputs ``perfbench/workloads.py`` generates;
- on a ``synth --n 5000 --seed 3`` dataset: ``estimate`` for accuracy,
  joint-positive (at a ``--threshold`` and from the ``pred`` column, each
  also with a known ``--prior-y1``) and risk, a 6-threshold
  sweep of all five kinds, a precision-only sweep, ``diagnose`` with and
  without an alternative label model (also for risk at a threshold and a given
  ``--epsilon``), and ``oracle``;
- ``coverage --n 2000 --replications 500 --seed 42``;
- ``estimate``, ``oracle`` and ``diagnose`` on one 3000-row dataset written in
  each layout the reader accepts: plain; vote columns reordered and split by
  other columns (with a label model in that vote order) plus a joint-positive
  ``estimate`` and a sweep; CRLF line ends; and every field quoted, some
  padded with spaces or spanning lines;
- ``estimate``, ``oracle`` and ``diagnose`` on datasets that each hold one line
  the reader rejects: a blank line with LF, CRLF and lone-CR line ends, a
  ``\\x1f`` in a field, a blank line after a quoted field spanning lines, a
  blank line across the 64 KiB edge of the reader's byte-scan chunks, and a
  bad value before a blank line. Both versions must exit 2 and name the same
  file line.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7919)


def _export_src(rev: str, dest: Path) -> Path:
    """The ``src`` directory of ``rev``, extracted under ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def _workload_commands(name: str, seed: int):
    """A setup that writes one benchmark workload's inputs, and its commands."""

    def setup(case: Path):
        sys.dont_write_bytecode = True  # keep perfbench/ free of caches
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        inputs = workload.make(case, seed)
        for inp in inputs:
            (inp.dir / "out").mkdir()
        return [(op.name, op.argv) for op in workload.job(inputs)]

    return setup


def _cli_commands(case: Path):
    (case / "loss.json").write_text(json.dumps([[0.0, 1.0], [3.0, 0.0]]))
    data = ["--data", "data.csv", "--label-model", "model.json"]
    return [
        ("synth", ["synth", "--n", "5000", "--seed", "3", "--out", "data.csv",
                   "--model-out", "model.json", "--metrics-out", "truth.json"]),
        ("synth-alt", ["synth", "--n", "5000", "--seed", "4", "--accuracies", "0.75,0.7,0.7",
                       "--out", "alt.csv", "--model-out", "alt.json"]),
        ("estimate-accuracy", ["estimate", *data, "--out", "accuracy.json"]),
        ("estimate-joint", ["estimate", *data, "--metric", "joint-positive", "--threshold", "0.5",
                            "--epsilon", "0.001", "--gamma", "0.1", "--out", "joint.json"]),
        ("estimate-risk", ["estimate", *data, "--metric", "risk", "--loss-table", "loss.json"]),
        ("estimate-prior", ["estimate", *data, "--metric", "joint-positive", "--threshold", "0.4",
                            "--prior-y1", "0.45"]),
        ("estimate-pred", ["estimate", *data, "--metric", "joint-positive", "--out", "pred.json"]),
        ("estimate-pred-prior", ["estimate", *data, "--metric", "joint-positive",
                                 "--prior-y1", "0.55"]),
        ("sweep", ["sweep", *data, "--thresholds", "0.2,0.35,0.5,0.5,0.65,0.8",
                   "--metric", "accuracy,joint-positive,precision,recall,f1",
                   "--out", "sweep.csv"]),
        ("sweep-precision", ["sweep", *data, "--thresholds", "0.35,0.65", "--metric", "precision"]),
        ("diagnose", ["diagnose", *data, "--out", "diagnose.json"]),
        ("diagnose-alt", ["diagnose", *data, "--label-model-alt", "alt.json"]),
        ("diagnose-risk-alt", ["diagnose", *data, "--metric", "risk", "--loss-table", "loss.json",
                               "--threshold", "0.5", "--label-model-alt", "alt.json",
                               "--epsilon", "0.002"]),
        ("oracle", ["oracle", *data, "--out", "oracle.json"]),
    ]


def _layout_commands(case: Path):
    rng = np.random.default_rng(5)
    n, accuracies = 3000, np.array([0.8, 0.7, 0.65])
    y = rng.integers(0, 2, n)
    right = rng.random((n, 3)) < accuracies
    votes = np.where(rng.random((n, 3)) < 0.15, -1, np.where(right, y[:, None], 1 - y[:, None]))
    scores = np.clip(0.5 + 0.4 * (y - 0.5) + 0.2 * rng.standard_normal(n), 0.0, 1.0)
    text = {
        "score": [f"{s:.6f}" for s in scores],
        "pred": (scores >= 0.5).astype(int).astype(str),
        "label": y.astype(str),
        **{f"wl_{k}": votes[:, k].astype(str) for k in range(3)},
        "note": [f'"row {i},\n{i % 5}"' if i % 7 == 0 else f'"row {i}, ok"' for i in range(n)],
    }

    def write(name, columns, newline="\n", quote=lambda v: v):
        rows = [columns] + [[quote(text[c][i]) for c in columns] for i in range(n)]
        (case / name).write_bytes(newline.join(",".join(r) for r in rows).encode() + newline.encode())

    def model(name, order):
        signatures = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
        like = np.ones((len(signatures), 2))
        for k, acc in enumerate(accuracies):
            vote = signatures[:, k][:, None]
            like *= np.where(vote == -1, 1.0, np.where(vote == np.arange(2), acc, 1.0 - acc))
        like /= like.sum(axis=1, keepdims=True)
        entries = [{"z": s[list(order)].tolist(), "p": p.tolist()} for s, p in zip(signatures, like)]
        (case / name).write_text(json.dumps({"num_classes": 2, "entries": entries}))

    plain = ["score", "pred", "label", "wl_0", "wl_1", "wl_2"]
    write("plain.csv", plain)
    write("split.csv", ["wl_1", "score", "wl_0", "pred", "note", "wl_2", "label"])
    write("crlf.csv", plain, newline="\r\n")
    quote = lambda v: v if v.startswith('"') else f'" {v}"' if v.startswith("-") else f'"{v}"'
    write("quoted.csv", ["score", "pred", "note", "wl_0", "wl_1", "wl_2"], quote=quote)
    model("model.json", (0, 1, 2))
    model("split.json", (1, 0, 2))
    commands = []
    for layout, labels in (("plain", "model"), ("split", "split"), ("crlf", "model"),
                           ("quoted", "model")):
        data = ["--data", f"{layout}.csv", "--label-model", f"{labels}.json"]
        commands += [
            (f"{layout}-estimate", ["estimate", *data, "--out", f"{layout}-estimate.json"]),
            (f"{layout}-oracle", ["oracle", *data, "--out", f"{layout}-oracle.json"]),
            (f"{layout}-diagnose", ["diagnose", *data, "--out", f"{layout}-diagnose.json"]),
        ]
    split = ["--data", "split.csv", "--label-model", "split.json"]
    commands += [
        ("split-estimate-joint", ["estimate", *split, "--metric", "joint-positive",
                                  "--out", "split-estimate-joint.json"]),
        ("split-sweep", ["sweep", *split, "--thresholds", "0.3,0.5,0.7",
                         "--metric", "accuracy,precision,recall,f1"]),
    ]
    return commands


def _malformed_commands(case: Path):
    """Datasets that each hold a line the reader must reject, with its file line."""
    header = "score,pred,label,wl_0,wl_1"
    rows = [f"0.{i % 97:02d},{i % 2},{i // 2 % 2},{i % 3 - 1},{i // 3 % 3 - 1}"
            for i in range(3000)]
    blank = [header, *rows[:100], "", *rows[100:]]
    head = "\n".join([header, *rows])
    # padded so that the blank line's two line ends sit at bytes 65535 and 65536,
    # across the edge of the reader's 64 KiB scan chunks
    edge = [head, "0.5,1,0,1," + " " * (65534 - len(head) - len("0.5,1,0,1,0")) + "0", "",
            *rows[:10]]
    note = [f'{r},"row {i}"' for i, r in enumerate(rows)]
    files = {
        "blank-lf": ("\n", blank),
        "blank-crlf": ("\r\n", blank),
        "blank-cr": ("\r", blank),
        "separator": ("\n", [header, *rows[:100], "0.5,1,0,\x1f1,0", *rows[100:]]),
        "quoted-blank": ("\n", [header + ",note", *note[:50], '0.5,1,0,1,0,"two\nlines"',
                                *note[50:60], "", *note[60:]]),
        "chunk-edge": ("\n", edge),
        "bad-before-blank": ("\n", [header, *rows[:50], "0.5,x,0,1,0", *rows[50:100], "",
                                    *rows[100:]]),
    }
    entries = [{"z": [a, b], "p": [0.3 + 0.1 * a, 0.7 - 0.1 * a]}
               for a in (-1, 0, 1) for b in (-1, 0, 1)]
    (case / "model.json").write_text(json.dumps({"num_classes": 2, "entries": entries}))
    commands = []
    for name, (end, lines) in files.items():
        (case / f"{name}.csv").write_bytes((end.join(lines) + end).encode())
        data = ["--data", f"{name}.csv", "--label-model", "model.json"]
        commands += [(f"{name}-{command}", [command, *data, "--out", f"{name}-{command}.json"])
                     for command in ("estimate", "oracle", "diagnose")]
    return commands


def _coverage_commands(case: Path):
    return [("coverage", ["coverage", "--n", "2000", "--replications", "500", "--seed", "42",
                          "--out", "coverage.json"])]


CASES = {
    **{f"{w}-seed-{s}": _workload_commands(w, s) for w in ("smoothed", "exact-io") for s in SEEDS},
    "cli": _cli_commands,
    "layouts": _layout_commands,
    "malformed": _malformed_commands,
    "coverage": _coverage_commands,
}


def _run(src: Path, pycache: Path, case: Path, commands):
    """Each command's (exit code, stdout, stderr), then a digest of every file in ``case``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": str(pycache)}
    results = {}
    for name, argv in commands:
        proc = subprocess.run([sys.executable, "-m", "weakbounds.cli", *argv],
                              cwd=case, env=env, capture_output=True)
        results[name] = (proc.returncode, proc.stdout, proc.stderr)
    files = {
        str(path.relative_to(case)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(case.rglob("*")) if path.is_file()
    }
    return results, files


def _differences(case_name, parent, change):
    (runs_p, files_p), (runs_c, files_c) = parent, change
    items = []  # (label, identical)
    for name in runs_p:
        (rc_p, out_p, err_p), (rc_c, out_c, err_c) = runs_p[name], runs_c[name]
        what = [f"exit {rc_p} != {rc_c}"] if rc_p != rc_c else []
        what += ["stdout"] if out_p != out_c else []
        what += ["stderr"] if err_p != err_c else []
        items.append((f"{case_name} {name}: {', '.join(what)}", not what))
    for path in sorted(files_p.keys() | files_c.keys()):
        same = files_p.get(path) == files_c.get(path)
        missing = "missing in parent" if path not in files_p else "missing in change"
        detail = "content" if path in files_p and path in files_c else missing
        items.append((f"{case_name} file {path}: {detail}", same))
    return items


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/compare_cli.py <parent-rev>", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="compare-cli-") as tmp:
        tmp = Path(tmp)
        versions = {"parent": _export_src(argv[0], tmp / "parent"), "change": ROOT / "src"}
        items = []
        for case_name, setup in CASES.items():
            case, pristine = tmp / "work" / case_name, tmp / "pristine" / case_name
            case.mkdir(parents=True)
            commands = setup(case)
            shutil.copytree(case, pristine)
            outputs = []
            for version, src in versions.items():
                shutil.rmtree(case)
                shutil.copytree(pristine, case)
                outputs.append(_run(src, tmp / f"pycache-{version}", case, commands))
            case_items = _differences(case_name, *outputs)
            for label, same in case_items:
                if not same:
                    print(f"DIFF {label}")
            print(f"{case_name}: {sum(same for _, same in case_items)} of {len(case_items)} identical",
                  flush=True)
            items += case_items
    same = sum(same for _, same in items)
    print(f"{same} of {len(items)} identical")
    return 0 if same == len(items) else 1


if __name__ == "__main__":
    sys.exit(main())
