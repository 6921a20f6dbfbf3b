"""Acceptance suite: ten end-to-end checks, one test (and one pass/fail line) each.

Each test prints a single summary line; run with -v for per-criterion status.
"""

import json
import math
import time

import numpy as np
import pytest

from weakbounds import (
    BoundEstimate,
    LabelModel,
    LabelSpace,
    MetricKind,
    MetricSpec,
    Side,
    SolveReport,
    SynthSpec,
    bound_rows,
    build_g,
    cell_table,
    conditional_entropy_y,
    coverage_experiment,
    default_epsilon,
    empirical_z_weights,
    estimate_bounds,
    exact_bounds,
    generate_synthetic,
    gradient,
    informativeness_bound,
    label_model_score,
    minimized_value,
    misspecification_report,
)
from weakbounds.cli import main as cli_main
from conftest import g_values, negated, random_instance, two_point_instance


def report(line):
    print(f"\n{line}")


def test_criterion_01_oracle_sandwich_500_instances():
    # smoothed bounds sit inside the exact bounds, off by at most eps*ln|Y|
    rng = np.random.default_rng(101)
    t0 = time.time()
    for _ in range(500):
        k = int(rng.integers(2, 4))
        data, model, G = random_instance(rng, n_max=60, num_classes=k, num_sig_max=5)
        epsilon = 1e-3 / math.log(k)
        lo, hi = estimate_bounds(cell_table(data, model, G), epsilon)
        res = exact_bounds(data, model, G)
        cap = epsilon * math.log(k)
        assert res.lower - 1e-5 <= lo.value <= res.lower + cap + 1e-5
        assert res.upper - cap - 1e-5 <= hi.value <= res.upper + 1e-5
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(f"PASS criterion 1: oracle sandwich on 500 instances ({elapsed:.1f}s)")


def test_criterion_02_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 4))
        data, model, G = random_instance(rng, n_max=40, num_classes=k)
        a = rng.normal(scale=0.5, size=(k, model.num_signatures))
        epsilon = default_epsilon(k)
        cells = cell_table(data, model, G)
        # odd trials check the lower side: the upper form on negated costs and iterate
        cells, x = negated(cells, a) if trial % 2 else (cells, a)
        analytic = gradient(cells, minimized_value(cells, x, epsilon)[1])
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            fd[idx] = (
                minimized_value(cells, xp, epsilon)[0].sum()
                - minimized_value(cells, xm, epsilon)[0].sum()
            ) / (2 * h)
        err = float(np.abs(analytic - fd).max() / max(1.0, np.abs(fd).max()))
        worst = max(worst, err)
    assert worst <= 1e-5
    report(f"PASS criterion 2: gradient vs central differences (max rel err {worst:.2e})")


def test_criterion_03_smoothing_gap_shrinks_with_epsilon():
    data, model, G = two_point_instance(0.75)
    deviations = []
    for eps in (1e-1, 1e-2, 1e-3):
        lo, _ = estimate_bounds(cell_table(data, model, G), eps)
        dev = abs(lo.value - 0.25)
        assert dev <= eps * math.log(2) + 1e-5
        deviations.append(dev)
    assert deviations[0] >= deviations[1] >= deviations[2]
    report(
        "PASS criterion 3: smoothing bias capped by eps*ln2 and monotone "
        f"({', '.join(f'{d:.2e}' for d in deviations)})"
    )


def test_criterion_04_ci_coverage_of_lower_bound():
    t0 = time.time()
    spec = SynthSpec(
        n=2000,
        num_labelers=2,
        labeler_accuracies=(0.8, 0.7),
        abstain_rates=(0.1, 0.1),
        seed=42,
    )
    rep = coverage_experiment(spec, replications=500, gamma=0.05)
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    assert 0.92 <= rep.coverage_lower <= 0.98
    report(
        f"PASS criterion 4: lower-bound CI coverage {rep.coverage_lower:.3f} "
        f"(upper side {rep.coverage_upper:.3f}, {elapsed:.0f}s)"
    )


def test_criterion_05_joint_to_prf_arithmetic():
    rng = np.random.default_rng(505)
    solver_rep = SolveReport(iterations=0, final_gradient_norm=0.0, converged=True)

    def fake(side, v, s):
        return BoundEstimate(
            side=side, value=v, optimizer=np.zeros((2, 1)), plugin_std=s, n=100,
            report=solver_rep, epsilon=0.01,
        )

    for _ in range(50):
        p_h1 = float(rng.uniform(0.1, 1.0))
        p_y1 = float(rng.uniform(0.1, 1.0))
        l_val = float(rng.uniform(0.0, min(p_h1, p_y1)))
        u_val = float(rng.uniform(l_val, 1.0))
        s_l, s_u = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5))
        rows = bound_rows(fake(Side.LOWER, l_val, s_l), fake(Side.UPPER, u_val, s_u),
                          "joint_positive", ("precision", "recall", "f1"), 0.05, p_h1, p_y1)
        prf = {row.metric: row for row in rows}
        for interval, factor in (
            (prf["precision"], 1.0 / p_h1),
            (prf["recall"], 1.0 / p_y1),
            (prf["f1"], 2.0 / (p_h1 + p_y1)),
        ):
            assert abs(interval.lower - min(max(factor * l_val, 0.0), 1.0)) <= 1e-12
            raw_hi = min(max(factor * u_val, 0.0), 1.0)
            assert abs(interval.upper - max(raw_hi, interval.lower)) <= 1e-12
            assert interval.lower_std == factor * s_l
            assert interval.upper_std == factor * s_u
    report("PASS criterion 5: precision/recall/F1 arithmetic and std scaling exact")


def test_criterion_06_misspecification_certificate():
    rng = np.random.default_rng(606)
    for _ in range(100):
        data, model_p, G = random_instance(rng, n_max=40)
        t = float(rng.uniform(0, 0.6))
        model_q = LabelModel(table=(1 - t) * model_p.table + t * 0.5)
        rep = misspecification_report(cell_table(data, model_p, G), model_q)
        cert = rep.certificate + 1e-5
        assert rep.bound_gap_lower <= cert and rep.bound_gap_upper <= cert
    for _ in range(10):
        data, model, G = random_instance(rng, n_max=40)
        rep = misspecification_report(cell_table(data, model, G), model)
        assert rep.bound_gap_lower <= 1e-6 and rep.bound_gap_upper <= 1e-6
    report("PASS criterion 6: bound shifts within the 2*delta*max-norm certificate")


def test_criterion_07_entropy_bound_dominates_width():
    rng = np.random.default_rng(707)
    for _ in range(200):
        k = int(rng.integers(2, 4))
        data, model, G = random_instance(rng, n_max=30, num_classes=k)
        res = exact_bounds(data, model, G)
        h = conditional_entropy_y(model, empirical_z_weights(data, model.num_signatures))
        cap = informativeness_bound(float(np.abs(g_values(G)).max()), h)
        assert res.upper - res.lower <= cap + 1e-9
    for _ in range(20):
        data, _, G = random_instance(rng, n_max=30)
        num_z = int(data.z_ids.max()) + 1
        hot = rng.integers(0, 2, num_z)
        table = np.zeros((num_z, 2))
        table[np.arange(num_z), hot] = 1.0
        res = exact_bounds(data, LabelModel(table=table), G)
        assert res.upper - res.lower <= 1e-9
    report("PASS criterion 7: entropy bound dominates exact width; one-hot collapses")


def test_criterion_08_feasible_couplings_contained():
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 100:
        data, model, G = random_instance(rng, n_max=20, num_classes=3)
        res = exact_bounds(data, model, G)
        total = 0.0
        for z in range(model.num_signatures):
            idx = np.flatnonzero(data.z_ids == z)
            if idx.size == 0:
                continue
            costs = g_values(G)[idx]
            row_mass = np.full(idx.size, 1.0 / data.n)
            col_mass = (idx.size / data.n) * model.table[z]
            pi = rng.uniform(0.5, 1.5, costs.shape)
            for _ in range(2000):
                pi *= (row_mass / pi.sum(axis=1))[:, None]
                pi *= col_mass / pi.sum(axis=0)
            pi *= (row_mass / pi.sum(axis=1))[:, None]
            assert np.abs(pi.sum(axis=0) - col_mass).max() < 1e-12
            total += float((pi * costs).sum())
        assert res.lower - 1e-9 <= total <= res.upper + 1e-9
        score = label_model_score(cell_table(data, model, G))
        assert res.lower - 1e-9 <= score <= res.upper + 1e-9
        checked += 1
    report("PASS criterion 8: 100 random feasible couplings and model scores contained")


def test_criterion_09_true_metric_in_widened_interval():
    failures = 0
    trials = 200
    for trial in range(trials):
        spec = SynthSpec(n=500, seed=1000 + trial, score_separation=0.3)
        result = generate_synthetic(spec)
        g = build_g(
            result.data,
            MetricSpec(MetricKind.ACCURACY, threshold=0.5),
            LabelSpace(num_classes=2),
        )
        lo, hi = estimate_bounds(cell_table(result.data, result.model, g))
        cap = lo.epsilon * math.log(2)
        low = lo.value - cap - 3 * lo.plugin_std / math.sqrt(lo.n)
        high = hi.value + cap + 3 * hi.plugin_std / math.sqrt(hi.n)
        if not (low <= result.true_metrics["accuracy"] <= high):
            failures += 1
    assert failures <= trials * 0.01
    report(f"PASS criterion 9: true accuracy contained in {trials - failures}/{trials} trials")


def test_criterion_10_cli_byte_determinism(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    assert cli_main(
        ["synth", "--n", "60", "--seed", "5", "--num-labelers", "2",
         "--accuracies", "0.8,0.7", "--abstain-rates", "0.1,0.1",
         "--out", str(data), "--model-out", str(model)]
    ) == 0
    cand = tmp_path / "cands"
    cand.mkdir()
    assert cli_main(
        ["estimate", "--data", str(data), "--label-model", str(model),
         "--out", str(cand / "c0.json")]
    ) == 0
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps({"num_classes": 2, "fallback": "uniform", "entries": []}))

    commands = {
        "synth": ["synth", "--n", "60", "--seed", "5", "--num-labelers", "2",
                  "--accuracies", "0.8,0.7", "--abstain-rates", "0.1,0.1"],
        "estimate": ["estimate", "--data", str(data), "--label-model", str(model),
                     "--metric", "joint-positive", "--threshold", "0.5", "--seed", "3"],
        "sweep": ["sweep", "--data", str(data), "--label-model", str(model),
                  "--thresholds", "0.4,0.6", "--metric", "accuracy,f1"],
        "oracle": ["oracle", "--data", str(data), "--label-model", str(model)],
        "diagnose": ["diagnose", "--data", str(data), "--label-model", str(model),
                     "--label-model-alt", str(alt)],
        "select": ["select", "--candidates", str(cand), "--strategy", "lower"],
        "coverage": ["coverage", "--n", "40", "--seed", "5", "--num-labelers", "2",
                     "--accuracies", "0.8,0.7", "--abstain-rates", "0.1,0.1",
                     "--replications", "100"],
    }
    for name, argv in commands.items():
        outputs = []
        for run in ("x", "y"):
            out = tmp_path / f"{name}_{run}.out"
            full = list(argv)
            if name == "synth":
                full += ["--out", str(tmp_path / f"{name}_{run}.csv"),
                         "--model-out", str(out)]
            else:
                full += ["--out", str(out)]
            assert cli_main(full) == 0, name
            blob = out.read_bytes()
            if name == "synth":
                blob += (tmp_path / f"{name}_{run}.csv").read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"{name} output not byte-identical"
    report("PASS criterion 10: all 7 CLI commands byte-identical across reruns")
