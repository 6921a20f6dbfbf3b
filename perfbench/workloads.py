"""The benchmark's workloads: seeded inputs, the CLI commands of one job, and
the checks on every output those commands write.

Inputs come from the benchmark's own generator, never from the program under
test, so a change to ``weakbounds.synth`` cannot change what the other parts
measure. Only the ``data-io`` part runs the program's ``synth``, because writing
the dataset is the work it measures.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from reference import cell_masses, conditional_entropy, exact_interval, posterior

EPS_WIDTH = 0.01  # eps * ln|Y| under the CLI's default smoothing temperature
SLACK = 1e-6  # allowance for a solve stopped before its gradient test passed
ORACLE_TOL = 1e-9
SIG_DIGITS = 9  # result files round to 9 significant digits
JOINT_POSITIVE = np.array([[0.0, 0.0], [0.0, 1.0]])
MULTICLASS_LOSS = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
SCORE_SD = 0.15


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    reports: int = 0  # solver reports found in the output
    unconverged: int = 0  # of which "converged": false


@dataclass
class Op:
    """One CLI command: argv after ``python -m weakbounds.cli``."""

    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[], Verdict]


@dataclass
class Inputs:
    """One generated dataset and everything the checks derive from it."""

    dir: Path
    seed: int
    refs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Part:
    """One dataset and the CLI commands a job runs on it."""

    name: str
    make: Callable[[Inputs], None]  # writes the inputs, fills refs; untimed
    job: Callable[[Inputs], list[Op]]
    required_spans: tuple[str, ...]  # the traced run must reach each of these


@dataclass(frozen=True)
class Workload:
    """A job made of parts, run in order, each on its own dataset."""

    name: str
    parts: tuple[Part, ...]

    @property
    def required_spans(self):
        return tuple(dict.fromkeys(s for part in self.parts for s in part.required_spans))

    def make(self, root, seed):
        """Write every part's inputs in its own directory under ``root``; untimed."""
        inputs = []
        for part in self.parts:
            inp = Inputs(dir=root / part.name, seed=seed)
            inp.dir.mkdir(parents=True)
            part.make(inp)
            inputs.append(inp)
        return inputs

    def job(self, inputs):
        return [op for part, inp in zip(self.parts, inputs) for op in part.job(inp)]


# ------------------------------------------------------------------ generator
#
# Each dataset is a stratified sample: the count of every (class, votes, extra)
# cell is n times its population probability, rounded by largest remainder, and
# the seed draws the order of the rows and the scores inside each score bin.
# So every seed poses the same bound problem, and the spread across seeds shows
# the host and the summation order, not the draw. Independent draws of the same
# population changed the solver's iteration count by up to 2x (estimate-binary,
# n = 5e3 to 1.5e4), which no bound on the 10-seed spread could absorb.


def _vote_table(num_classes, accuracies, abstain_rates):
    """P(votes | Y) for every vote combination; votes are in {-1, 0, .., C-1}."""
    combos = np.array(list(itertools.product(range(-1, num_classes), repeat=len(accuracies))))
    table = np.ones((num_classes, len(combos)))
    for k, (acc, abstain) in enumerate(zip(accuracies, abstain_rates)):
        vote = combos[:, k][None, :]
        y = np.arange(num_classes)[:, None]
        right = np.where(vote == y, acc, (1.0 - acc) / (num_classes - 1))
        table *= np.where(vote == -1, abstain, (1.0 - abstain) * right)
    return combos, table


def _stratified(rng, n, num_classes, accuracies, abstain_rates, p_extra):
    """Rows (y, votes, extra) with exact cell counts, in seeded order.

    ``p_extra`` is |Y| x |E|: P(extra | Y), where extra is a score bin or a
    prediction and is independent of the votes given Y.
    """
    combos, p_votes = _vote_table(num_classes, accuracies, abstain_rates)
    probs = (p_votes[:, :, None] * p_extra[:, None, :] / num_classes).ravel()
    counts = np.floor(n * probs).astype(np.int64)
    remainder = n * probs - counts
    counts[np.argsort(-remainder, kind="stable")[: n - counts.sum()]] += 1
    cells = rng.permutation(np.repeat(np.arange(probs.size), counts))
    y, v, extra = np.unravel_index(cells, (num_classes, len(combos), p_extra.shape[1]))
    return y, combos[v], extra


def _write_inputs(inp, columns, votes, accuracies, num_classes):
    """Write the dataset CSV and its exact label model; return (z_ids, q)."""
    sigs, z_ids = np.unique(votes, axis=0, return_inverse=True)
    q = posterior(sigs, accuracies, np.full(num_classes, 1.0 / num_classes))
    header = list(columns) + [f"wl_{k}" for k in range(votes.shape[1])]
    cols = list(columns.values()) + [votes[:, k].astype(str) for k in range(votes.shape[1])]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cols)]
    (inp.dir / "data.csv").write_text("\n".join(lines) + "\n")
    entries = [{"z": [int(v) for v in s], "p": [float(p) for p in row]} for s, row in zip(sigs, q)]
    model = {"num_classes": num_classes, "fallback": "error", "entries": entries}
    (inp.dir / "model.json").write_text(json.dumps(model))
    return z_ids.ravel(), q


def _binary_inputs(inp, n, accuracies, abstain_rates, thresholds):
    """Scores ~ N(0.25 | 0.75, 0.15) by class, clipped to [0, 1]; pred = score >= 0.5.

    The score bins between ``thresholds`` are strata, so every threshold the
    workload uses splits the rows the same way on every seed.
    """
    edges = np.array([-np.inf, *sorted(thresholds), np.inf])
    means = np.array([0.25, 0.75])[:, None]
    cdf = ndtr((edges[None, :] - means) / SCORE_SD)  # |Y| x (bins + 1)
    rng = np.random.default_rng(inp.seed)
    y, votes, b = _stratified(rng, n, 2, accuracies, abstain_rates, np.diff(cdf, axis=1))
    u = cdf[y, b] + rng.random(n) * (cdf[y, b + 1] - cdf[y, b])
    raw = np.clip(means[y, 0] + SCORE_SD * ndtri(u), 0.0, 1.0)
    text = np.array([f"{s:.{SIG_DIGITS}g}" for s in raw])
    scores = text.astype(np.float64)  # what the program reads back
    preds = (scores >= 0.5).astype(np.int64)
    z_ids, q = _write_inputs(
        inp, {"score": text, "pred": preds.astype(str)}, votes, accuracies, 2
    )
    return z_ids, q, scores, preds


# --------------------------------------------------------------- output checks


def _close(value, target, tol):
    # result files keep 9 significant digits, so allow half a unit in the last
    last_digit = 10.0 ** (np.floor(np.log10(abs(target) + 1e-300)) - SIG_DIGITS + 1)
    return abs(value - target) <= tol + 0.5 * last_digit


def _check_smoothed(problems, label, lower, upper, ref, factor=None):
    """Smoothed bounds sit inside the exact ones, within eps*ln|Y|.

    With a ``factor`` the bounds are precision/recall/F1 scaled from the
    joint-positive ones and clamped to [0, 1], as the CLI reports them.
    """
    if factor is None:
        factor, clip = 1.0, lambda x: x
    else:
        clip = lambda x: min(max(x, 0.0), 1.0)
    lo_ref, hi_ref = ref
    lo_ok = clip(factor * lo_ref) - SLACK <= lower <= clip(factor * (lo_ref + EPS_WIDTH)) + SLACK
    hi_top = max(clip(factor * hi_ref), lower)
    hi_ok = clip(factor * (hi_ref - EPS_WIDTH)) - SLACK <= upper <= hi_top + SLACK
    if not (lo_ok and hi_ok):
        problems.append(
            f"{label}: smoothed [{lower:.9g}, {upper:.9g}] outside exact "
            f"[{lo_ref:.9g}, {hi_ref:.9g}] (x{factor:.6g}) +/- eps*ln|Y|"
        )


def _solver_counts(verdict, entry):
    for side in ("lower", "upper"):
        verdict.reports += 1
        verdict.unconverged += not entry["solver"][side]["converged"]


def _load_json(path, problems):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def _estimate_check(path, inp, metric, scaled=()):
    def check():
        v = Verdict()
        payload = _load_json(path, v.problems)
        if payload is None:
            return v
        try:
            entry = payload["metrics"][metric]
            _solver_counts(v, entry)
            _check_smoothed(v.problems, metric, entry["lower"], entry["upper"], inp.refs[metric])
            for name, factor in scaled:
                e = payload["metrics"][name]
                _check_smoothed(v.problems, name, e["lower"], e["upper"], inp.refs[metric], factor)
            if payload["metadata"]["n"] != inp.refs["n"]:
                v.problems.append(f"{path.name}: n is {payload['metadata']['n']}")
        except (KeyError, TypeError) as exc:
            v.problems.append(f"{path.name}: missing field {exc}")
        return v

    return check


def _sweep_check(path, inp):
    def check():
        v = Verdict()
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            v.problems.append(f"{path.name}: unreadable ({exc})")
            return v
        seen = set()
        try:
            for row in rows:
                t, metric = float(row["threshold"]), row["metric"]
                seen.add((t, metric))
                if t not in inp.refs["sweep"]:
                    continue  # reported below as an unexpected row
                lower, upper = float(row["lower"]), float(row["upper"])
                acc, joint, p_h1 = inp.refs["sweep"][t]
                if metric == "accuracy":
                    _check_smoothed(v.problems, f"t={t} accuracy", lower, upper, acc)
                elif metric == "f1":
                    factor = 2.0 / (p_h1 + inp.refs["p_y1"])
                    _check_smoothed(v.problems, f"t={t} f1", lower, upper, joint, factor)
        except (KeyError, TypeError, ValueError) as exc:
            v.problems.append(f"{path.name}: bad row ({exc})")
        expected = {(t, m) for t in inp.refs["sweep"] for m in ("accuracy", "f1")}
        if seen != expected:
            v.problems.append(f"{path.name}: rows {sorted(seen)} != {sorted(expected)}")
        return v

    return check


# -------------------------------------------------------------- estimate-binary

BINARY_N = 9000
BINARY_ACCURACIES = (0.8, 0.7, 0.65)


def _make_estimate_binary(inp):
    z_ids, q, _, preds = _binary_inputs(inp, BINARY_N, BINARY_ACCURACIES, (0.1,) * 3, (0.5,))
    cells = cell_masses(z_ids, preds, len(q), 2)
    inp.refs.update(
        n=BINARY_N,
        accuracy=exact_interval(cells, q, np.eye(2)),
        joint_positive=exact_interval(cells, q, JOINT_POSITIVE),
        p_h1=float(np.mean(preds == 1)),
        p_y1=float(np.mean(q[z_ids, 1])),
    )


def _job_estimate_binary(inp):
    data = ["--data", str(inp.dir / "data.csv"), "--label-model", str(inp.dir / "model.json")]
    acc, jp = inp.dir / "out" / "accuracy.json", inp.dir / "out" / "joint.json"
    p_h1, p_y1 = inp.refs["p_h1"], inp.refs["p_y1"]
    prf = (("precision", 1.0 / p_h1), ("recall", 1.0 / p_y1), ("f1", 2.0 / (p_h1 + p_y1)))
    return [
        Op("estimate-accuracy", ["estimate", *data, "--metric", "accuracy", "--out", str(acc)],
           [acc], _estimate_check(acc, inp, "accuracy")),
        Op("estimate-joint", ["estimate", *data, "--metric", "joint-positive",
                              "--threshold", "0.5", "--out", str(jp)],
           [jp], _estimate_check(jp, inp, "joint_positive", prf)),
    ]


# ------------------------------------------------------------------- sweep-wide

SWEEP_N = 1000
SWEEP_THRESHOLDS = (0.4, 0.5, 0.6)


def _make_sweep_wide(inp):
    z_ids, q, scores, _ = _binary_inputs(inp, SWEEP_N, (0.75,) * 6, (0.3,) * 6,
                                         SWEEP_THRESHOLDS)
    sweep = {}
    for t in SWEEP_THRESHOLDS:
        preds = (scores >= t).astype(np.int64)
        cells = cell_masses(z_ids, preds, len(q), 2)
        sweep[t] = (
            exact_interval(cells, q, np.eye(2)),
            exact_interval(cells, q, JOINT_POSITIVE),
            float(np.mean(preds == 1)),
        )
    inp.refs.update(n=SWEEP_N, sweep=sweep, p_y1=float(np.mean(q[z_ids, 1])))


def _job_sweep_wide(inp):
    out = inp.dir / "out" / "sweep.csv"
    argv = ["sweep", "--data", str(inp.dir / "data.csv"),
            "--label-model", str(inp.dir / "model.json"),
            "--thresholds", ",".join(str(t) for t in SWEEP_THRESHOLDS),
            "--metric", "accuracy,f1", "--out", str(out)]
    return [Op("sweep", argv, [out], _sweep_check(out, inp))]


# ------------------------------------------------------------- exact-multiclass

MULTI_N = 11000
MULTI_ACCURACIES = (0.85, 0.85)
MULTI_ABSTAIN = (0.1, 0.1)
MULTI_PRED_ACCURACY = 0.7  # P(pred = Y)


def _make_exact_multiclass(inp):
    p_pred = np.where(np.eye(3, dtype=bool), MULTI_PRED_ACCURACY, (1.0 - MULTI_PRED_ACCURACY) / 2)
    rng = np.random.default_rng(inp.seed)
    _, votes, preds = _stratified(rng, MULTI_N, 3, MULTI_ACCURACIES, MULTI_ABSTAIN, p_pred)
    z_ids, q = _write_inputs(inp, {"pred": preds.astype(str)}, votes, MULTI_ACCURACIES, 3)
    (inp.dir / "loss.json").write_text(json.dumps(MULTICLASS_LOSS))
    cells = cell_masses(z_ids, preds, len(q), 3)
    inp.refs.update(n=MULTI_N, risk=exact_interval(cells, q, np.array(MULTICLASS_LOSS, float)))


def _oracle_check(path, inp):
    def check():
        v = Verdict()
        payload = _load_json(path, v.problems)
        if payload is None:
            return v
        lower, upper = inp.refs["risk"]
        try:
            if not (_close(payload["lower"], lower, ORACLE_TOL)
                    and _close(payload["upper"], upper, ORACLE_TOL)):
                v.problems.append(
                    f"oracle [{payload['lower']:.12g}, {payload['upper']:.12g}] != "
                    f"reference [{lower:.12g}, {upper:.12g}]"
                )
        except (KeyError, TypeError) as exc:
            v.problems.append(f"{path.name}: missing field {exc}")
        return v

    return check


def _multiclass_common(inp):
    return ["--data", str(inp.dir / "data.csv"), "--label-model", str(inp.dir / "model.json"),
            "--metric", "risk", "--loss-table", str(inp.dir / "loss.json")]


def _job_multiclass_oracle(inp):
    oracle = inp.dir / "out" / "oracle.json"
    return [Op("oracle", ["oracle", *_multiclass_common(inp), "--out", str(oracle)], [oracle],
               _oracle_check(oracle, inp))]


def _job_multiclass_estimate(inp):
    est = inp.dir / "out" / "risk.json"
    return [Op("estimate-risk", ["estimate", *_multiclass_common(inp), "--out", str(est)], [est],
               _estimate_check(est, inp, "risk"))]


# ---------------------------------------------------------------------- data-io

DATAIO_N = 400_000
DATAIO_ACCURACIES = (0.8, 0.75, 0.7, 0.65)


def _make_data_io(inp):
    """Nothing to prepare: the job itself writes the inputs."""


def _synth_check(data_csv, model_json, inp):
    def check():
        v = Verdict()
        try:
            with open(data_csv) as fh:
                header = fh.readline().strip().split(",")
            table = np.loadtxt(data_csv, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            v.problems.append(f"{data_csv.name}: unreadable ({exc})")
            return v
        model = _load_json(model_json, v.problems)
        if model is None:
            return v
        if table.shape[0] != DATAIO_N:
            v.problems.append(f"{data_csv.name}: {table.shape[0]} rows, expected {DATAIO_N}")
        wl = [i for i, name in enumerate(header) if name.startswith("wl_")]
        sigs, z_ids = np.unique(table[:, wl].astype(np.int64), axis=0, return_inverse=True)
        rows = {tuple(e["z"]): e["p"] for e in model["entries"]}
        try:
            q = np.array([rows[tuple(int(x) for x in s)] for s in sigs], dtype=np.float64)
        except KeyError as exc:
            v.problems.append(f"{model_json.name}: no entry for signature {exc}")
            return v
        exact = posterior(sigs, DATAIO_ACCURACIES, np.array([0.5, 0.5]))
        if np.max(np.abs(q - exact)) > 1e-8:
            v.problems.append(f"{model_json.name}: label model differs from the closed form")
        q /= q.sum(axis=1, keepdims=True)  # as the program normalizes on load
        preds = table[:, header.index("pred")].astype(np.int64)
        cells = cell_masses(z_ids.ravel(), preds, len(q), 2)
        inp.refs.update(entropy=conditional_entropy(cells, q), accuracy=exact_interval(cells, q, np.eye(2)))
        return v

    return check


def _diagnose_check(path, inp):
    def check():
        v = Verdict()
        payload = _load_json(path, v.problems)
        if payload is None:
            return v
        if "entropy" not in inp.refs:
            v.problems.append("diagnose: no verified synth output to compare against")
            return v
        lower, upper = inp.refs["accuracy"]
        try:
            h = payload["conditional_entropy_y_nats"]
            if not _close(h, inp.refs["entropy"], 1e-9):
                v.problems.append(f"entropy {h:.12g} != reference {inp.refs['entropy']:.12g}")
            if payload["informativeness_bound"] < upper - lower - 1e-9:
                v.problems.append(
                    f"informativeness bound {payload['informativeness_bound']:.9g} < U-L {upper - lower:.9g}"
                )
        except (KeyError, TypeError) as exc:
            v.problems.append(f"{path.name}: missing field {exc}")
        return v

    return check


def _job_data_io(inp):
    data_csv, model_json = inp.dir / "out" / "data.csv", inp.dir / "out" / "model.json"
    diag = inp.dir / "out" / "diagnose.json"
    synth = ["synth", "--n", str(DATAIO_N), "--num-labelers", "4",
             "--accuracies", ",".join(map(str, DATAIO_ACCURACIES)),
             "--abstain-rates", "0.1,0.1,0.1,0.1", "--seed", str(inp.seed),
             "--out", str(data_csv), "--model-out", str(model_json)]
    diagnose = ["diagnose", "--data", str(data_csv), "--label-model", str(model_json),
                "--out", str(diag)]
    return [
        Op("synth", synth, [data_csv, model_json], _synth_check(data_csv, model_json, inp)),
        Op("diagnose", diagnose, [diag], _diagnose_check(diag, inp)),
    ]


# --------------------------------------------------------------------- registry

_READ = ("cli.main", "fileio.read_dataset_csv", "domain.encode_signatures")
_SOLVE = ("bounds.estimate_bounds", "solver.minimize", "objective.minimized_value",
          "objective.gradient", "bounds.plugin_std", "metrics.build_g")

PARTS = {
    p.name: p
    for p in (
        Part("estimate-binary", _make_estimate_binary, _job_estimate_binary,
             _READ + _SOLVE + ("diagnostics.label_model_score", "fileio.dump_result_json")),
        Part("sweep-wide", _make_sweep_wide, _job_sweep_wide,
             _READ + _SOLVE + ("metrics.threshold_sweep", "fileio.write_sweep_csv")),
        Part("multiclass-estimate", _make_exact_multiclass, _job_multiclass_estimate,
             _READ + _SOLVE + ("fileio.dump_result_json",)),
        Part("multiclass-oracle", _make_exact_multiclass, _job_multiclass_oracle,
             _READ + ("oracle.exact_bounds", "oracle.transport_general",
                      "fileio.dump_result_json")),
        Part("data-io", _make_data_io, _job_data_io,
             _READ + ("synth.generate_synthetic", "fileio.write_dataset_csv",
                      "metrics.build_g", "diagnostics.conditional_entropy_y",
                      "diagnostics.label_model_score", "fileio.dump_result_json")),
    )
}

# Two workloads, so that within the time allowed for all runs each run is long
# enough for two or more jobs with a reference probe after every command (see
# run.py).
# Every smoothed solve is on one workload and none on the other.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("smoothed", (PARTS["estimate-binary"], PARTS["sweep-wide"],
                              PARTS["multiclass-estimate"])),
        Workload("exact-io", (PARTS["multiclass-oracle"], PARTS["data-io"])),
    )
}
