"""Run the CLI of a parent revision and of the working tree on the same inputs
and compare every output: exit code, stdout, stderr and each file written.

    python tools/compare_cli.py <parent-rev>

The parent's ``src`` is exported with ``git archive``. Both versions run each
command set in the same directory, restored to the same inputs before each
version runs, so paths in messages agree too. Everything is written under one
temporary directory, which is removed at the end. Prints ``N of N identical``
and exits 1 if any output differs. Under each differing stdout or file that
parses as JSON or CSV it prints up to 10 differing fields, each as its path
(``metrics.accuracy.solver.upper.iterations``, or ``row 3 upper_std`` in a CSV)
with the parent's and the change's value. Under each differing stderr it prints
up to 10 lines that only one version wrote, ``- <line>`` for the parent's and
``+ <line>`` for the change's.

The command sets:
- every command of the benchmark's ``smoothed`` and ``exact-io`` workloads, at
  seeds 0 and 7919, on the inputs ``perfbench/workloads.py`` generates;
- on a ``synth --n 5000 --seed 3`` dataset: ``estimate`` for accuracy,
  joint-positive (at a ``--threshold`` and from the ``pred`` column, each
  also with a known ``--prior-y1``) and risk, a 6-threshold
  sweep of all five kinds, a precision-only sweep, ``diagnose`` with and
  without an alternative label model (also for risk at a threshold and a given
  ``--epsilon``), and ``oracle`` for accuracy, joint-positive at a
  ``--threshold`` and risk; ``oracle`` for accuracy and joint-positive at
  ``--threshold 0.5`` on a ``synth --n 20000`` dataset of 8 labelers
  (accuracies ``0.8,0.7,0.65,0.75,0.6,0.7,0.68,0.72``, each abstaining at 0.1),
  whose per-signature values sit on 9-digit rounding ties, so a one-ulp change
  shows there first (``oracle-k8``, ``oracle-k8-joint``); and, on a ``synth
  --n 2000 --seed 1`` dataset, ``estimate --metric risk`` with loss
  ``[[0, 1e200], [1e200, 0]]``, where no column meets the gradient test and
  both sides warn that the solver did not converge,
  ``diagnose`` with that loss, whose squared sup-norm is beyond the float range
  (``diagnose-risk-huge``), ``estimate`` with loss ``[[0, 1e308], [1e308, 0]]``,
  whose closed-form start is not finite (``estimate-risk-overflow``), and
  ``oracle`` with loss ``[[-1e308, 1e308], [1e308, -1e308]]``, whose cost gaps
  and bounds are not finite (``oracle-risk-overflow``); the last two must exit 3;
- ``coverage --n 2000 --replications 500 --seed 42``, and at 6 labelers
  (accuracies ``0.8,0.7,0.65,0.75,0.6,0.7``, each abstaining at 0.1) with 200
  replications, where each replication holds only the signatures it drew;
- ``estimate``, ``oracle`` and ``diagnose`` on one 3000-row dataset written in
  each layout the reader accepts: plain; vote columns reordered and split by
  other columns (with a label model in that vote order) plus a joint-positive
  ``estimate`` and a sweep; CRLF line ends; and every field quoted, some
  padded with spaces or spanning lines;
- ``estimate``, ``oracle`` and ``diagnose`` on datasets that each hold one line
  the reader rejects: a blank line with LF, CRLF and lone-CR line ends, a
  ``\\x1f`` in a field, a blank line after a quoted field spanning lines, a
  blank line across the 64 KiB edge of the reader's byte-scan chunks, a
  bad value before a blank line, and a ``\\xff`` byte that UTF-8 cannot decode;
  and on two datasets whose ``\\xff`` byte follows another fault: a bad value 500
  rows before it, both past the first 8 KiB that the text readers decode at
  once (``bad-before-undecodable``), and duplicate header names, with the byte
  in the first 8 KiB (``duplicate-undecodable``); and on one whose blank line 10
  follows a quoted field spanning three lines, so that loadtxt reads on to a
  NaN score on line 12 (``quoted-nan``); and on one whose line 102 opens a
  quoted field that no quote closes (``open-quote``). Both versions must exit 2
  and name the first faulty line; a reader that reports the byte as its text
  reader meets it names the byte's line in the two ``undecodable`` cases, one
  that checks the scores apart from the misread line names line 12 in
  ``quoted-nan``, and one that reads the open field as a value exits 0 on
  ``open-quote``.
"""

from __future__ import annotations

import csv
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
SHOWN_FIELDS = 10


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
    (case / "huge-loss.json").write_text(json.dumps([[0.0, 1e200], [1e200, 0.0]]))
    (case / "overflow-loss.json").write_text(json.dumps([[0.0, 1e308], [1e308, 0.0]]))
    (case / "signed-overflow-loss.json").write_text(
        json.dumps([[-1e308, 1e308], [1e308, -1e308]])
    )
    data = ["--data", "data.csv", "--label-model", "model.json"]
    small = ["--data", "small.csv", "--label-model", "small.json", "--metric", "risk"]
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
        ("oracle-joint", ["oracle", *data, "--metric", "joint-positive", "--threshold", "0.5",
                          "--out", "oracle-joint.json"]),
        ("oracle-risk", ["oracle", *data, "--metric", "risk", "--loss-table", "loss.json",
                         "--out", "oracle-risk.json"]),
        ("synth-k8", ["synth", "--n", "20000", "--seed", "5", "--num-labelers", "8",
                      "--accuracies", "0.8,0.7,0.65,0.75,0.6,0.7,0.68,0.72",
                      "--abstain-rates", ",".join(["0.1"] * 8),
                      "--out", "k8.csv", "--model-out", "k8.json"]),
        ("oracle-k8", ["oracle", "--data", "k8.csv", "--label-model", "k8.json",
                       "--out", "oracle-k8.json"]),
        ("oracle-k8-joint", ["oracle", "--data", "k8.csv", "--label-model", "k8.json",
                             "--metric", "joint-positive", "--threshold", "0.5",
                             "--out", "oracle-k8-joint.json"]),
        ("synth-2000", ["synth", "--n", "2000", "--seed", "1", "--out", "small.csv",
                        "--model-out", "small.json"]),
        ("estimate-risk-huge", ["estimate", *small, "--loss-table", "huge-loss.json",
                                "--out", "risk-huge.json"]),
        ("diagnose-risk-huge", ["diagnose", *small, "--loss-table", "huge-loss.json",
                                "--out", "diagnose-risk-huge.json"]),
        ("estimate-risk-overflow", ["estimate", *small, "--loss-table", "overflow-loss.json",
                                    "--out", "risk-overflow.json"]),
        ("oracle-risk-overflow", ["oracle", *small, "--loss-table", "signed-overflow-loss.json",
                                  "--out", "oracle-risk-overflow.json"]),
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
        "undecodable": ("\n", [header, *rows[:2500], "0.5,1,0,\xff1,0", *rows[2500:]]),
        # both in the text readers' second 8 KiB, which they decode before parsing
        "bad-before-undecodable": ("\n", [header, *rows[:600], "0.5,x,0,1,0", *rows[600:1100],
                                          "0.5,1,0,\xff1,0", *rows[1100:]]),
        "duplicate-undecodable": ("\n", ["score,pred,wl_0,wl_0,wl_1", *rows[:100],
                                         "0.5,1,0,\xff1,0", *rows[100:]]),
        # the rows before the blank line 10, counted one line each, reach line 12
        "quoted-nan": ("\n", ["score,wl_0,note", '0.5,1,"a\nb\nc"', *["0.5,1,x"] * 5, "",
                              "0.5,1,x", "nan,1,x", *["0.5,1,x"] * 3]),
        # loadtxt reads the rest of the file into the field the quote opens
        "open-quote": ("\n", [header + ",note", *note[:100], '0.5,1,0,1,0,"open',
                               *[f"{r},x" for r in rows[100:]]]),
    }
    entries = [{"z": [a, b], "p": [0.3 + 0.1 * a, 0.7 - 0.1 * a]}
               for a in (-1, 0, 1) for b in (-1, 0, 1)]
    (case / "model.json").write_text(json.dumps({"num_classes": 2, "entries": entries}))
    commands = []
    for name, (end, lines) in files.items():
        # latin-1 writes each character below 256 as that one byte, as \xff
        (case / f"{name}.csv").write_bytes((end.join(lines) + end).encode("latin-1"))
        data = ["--data", f"{name}.csv", "--label-model", "model.json"]
        commands += [(f"{name}-{command}", [command, *data, "--out", f"{name}-{command}.json"])
                     for command in ("estimate", "oracle", "diagnose")]
    return commands


def _coverage_commands(case: Path):
    six = ["--num-labelers", "6", "--accuracies", "0.8,0.7,0.65,0.75,0.6,0.7",
           "--abstain-rates", "0.1,0.1,0.1,0.1,0.1,0.1"]
    return [
        ("coverage", ["coverage", "--n", "2000", "--replications", "500", "--seed", "42",
                      "--out", "coverage.json"]),
        ("coverage-k6", ["coverage", "--n", "2000", "--replications", "200", "--seed", "42",
                         *six, "--out", "coverage-k6.json"]),
    ]


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


def _leaves(node, path=""):
    """Each (path, JSON text) of a parsed JSON document's scalars and empty containers."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            step = f"[{key}]" if isinstance(node, list) else f".{key}" if path else key
            yield from _leaves(value, path + step)
    else:
        yield path, json.dumps(node)


def _fields(data: bytes):
    """The fields of a JSON document or of a CSV table with a header, by path;
    None for any other output."""
    try:
        return dict(_leaves(json.loads(data)))
    except ValueError:  # also a UnicodeDecodeError
        pass
    try:
        header, *rows = csv.reader(io.StringIO(data.decode()))
    except (ValueError, csv.Error):
        return None
    if len(header) < 2:
        return None
    name = lambda j: header[j] if j < len(header) else f"column {j + 1}"
    return {f"row {i} {name(j)}": value
            for i, row in enumerate(rows, 1) for j, value in enumerate(row)}


def _field_changes(parent: bytes, change: bytes) -> list[str]:
    """Up to SHOWN_FIELDS lines ``path: parent -> change``, one per differing field."""
    old, new = _fields(parent), _fields(change)
    if old is None or new is None:
        return []
    paths = [path for path in {**old, **new} if old.get(path) != new.get(path)]
    lines = [f"    {path}: {old.get(path, '(absent)')} -> {new.get(path, '(absent)')}"
             for path in paths]
    return _shown(lines, "fields")


def _line_changes(parent: bytes, change: bytes) -> list[str]:
    """Up to SHOWN_FIELDS lines ``- <line>`` or ``+ <line>``, one per line that
    only the parent or only the change wrote."""
    old, new = (data.decode(errors="replace").splitlines() for data in (parent, change))
    only = [f"    - {line}" for line in old if line not in new]
    only += [f"    + {line}" for line in new if line not in old]
    return _shown(only, "lines")


def _shown(lines: list[str], unit: str) -> list[str]:
    """The first SHOWN_FIELDS of ``lines``, then ``... and N more <unit>``."""
    if len(lines) > SHOWN_FIELDS:
        return lines[:SHOWN_FIELDS] + [f"    ... and {len(lines) - SHOWN_FIELDS} more {unit}"]
    return lines


def _differences(case_name, parent, change):
    """Each output's (label, identical, lines naming its changed fields and
    the stderr lines only one version wrote)."""
    (runs_p, files_p, dir_p), (runs_c, files_c, dir_c) = parent, change
    items = []
    for name in runs_p:
        (rc_p, out_p, err_p), (rc_c, out_c, err_c) = runs_p[name], runs_c[name]
        what = [f"exit {rc_p} != {rc_c}"] if rc_p != rc_c else []
        what += ["stdout"] if out_p != out_c else []
        what += ["stderr"] if err_p != err_c else []
        fields = _field_changes(out_p, out_c) if out_p != out_c else []
        fields += _line_changes(err_p, err_c) if err_p != err_c else []
        items.append((f"{case_name} {name}: {', '.join(what)}", not what, fields))
    for path in sorted(files_p.keys() | files_c.keys()):
        same = files_p.get(path) == files_c.get(path)
        missing = "missing in parent" if path not in files_p else "missing in change"
        both = path in files_p and path in files_c
        fields = []
        if both and not same:
            fields = _field_changes((dir_p / path).read_bytes(), (dir_c / path).read_bytes())
        items.append((f"{case_name} file {path}: {'content' if both else missing}", same, fields))
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
            pristine.parent.mkdir(exist_ok=True)
            shutil.move(case, pristine)
            outputs = []
            for version, src in versions.items():
                shutil.copytree(pristine, case)
                runs, files = _run(src, tmp / f"pycache-{version}", case, commands)
                # kept until compared, so that a changed file can be read
                kept = tmp / "runs" / version / case_name
                kept.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(case, kept)
                outputs.append((runs, files, kept))
            case_items = _differences(case_name, *outputs)
            for label, same, fields in case_items:
                if not same:
                    print(f"DIFF {label}", *fields, sep="\n")
            print(f"{case_name}: {sum(same for _, same, _ in case_items)} of {len(case_items)} "
                  "identical", flush=True)
            items += case_items
            for _, _, kept in outputs:
                shutil.rmtree(kept)
    same = sum(same for _, same, _ in items)
    print(f"{same} of {len(items)} identical")
    return 0 if same == len(items) else 1


if __name__ == "__main__":
    sys.exit(main())
