import decimal
import functools
import math
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest

from weakbounds import (
    DatasetView,
    GMatrix,
    InsufficientSampleError,
    LabelModel,
    LabelSpace,
    MetricKind,
    MetricSpec,
    Side,
    SynthSpec,
    bound_rows,
    build_g,
    cell_table,
    cells_from_counts,
    count_label_model,
    default_epsilon,
    estimate_bounds,
    exact_bounds,
    generate_synthetic,
    gradient,
    minimized_value,
    plugin_std,
    positive_margins,
    threshold_sweep,
)
from weakbounds import bounds, objective, solver
from weakbounds.oracle import exact_cell_bounds
from weakbounds.synth import population
from conftest import (
    cell_values,
    g_values,
    negated,
    objective_value,
    per_sample_g,
    random_instance,
    soft_max,
    two_point_instance,
)

TIGHT = 1e-3 / math.log(2)


def std_at(cells, a, epsilon):
    """The plug-in std of the per-cell dual values at ``a``."""
    return plugin_std(cells, cell_values(cells, a, epsilon))


class TestEstimateBounds:
    def test_two_point_half(self):
        data, model, G = two_point_instance(0.5)
        lo, hi = estimate_bounds(cell_table(data, model, G), TIGHT)
        cap = TIGHT * math.log(2)
        assert 0.0 - 1e-5 <= lo.value <= 0.0 + cap + 1e-5
        assert 1.0 - cap - 1e-5 <= hi.value <= 1.0 + 1e-5

    def test_two_point_three_quarters(self):
        data, model, G = two_point_instance(0.75)
        lo, hi = estimate_bounds(cell_table(data, model, G), TIGHT)
        cap = TIGHT * math.log(2)
        assert 0.25 - 1e-5 <= lo.value <= 0.25 + cap + 1e-5
        assert 0.75 - cap - 1e-5 <= hi.value <= 0.75 + 1e-5

    def test_constant_g_collapses(self, rng):
        data, model, _ = random_instance(rng)
        G = per_sample_g(np.full((data.n, 2), 0.4))
        epsilon = default_epsilon(2)
        lo, hi = estimate_bounds(cell_table(data, model, G), epsilon)
        # the exact bounds collapse to the constant; the smoothed estimates sit
        # inside them by at most the epsilon * ln|Y| smoothing slack
        from weakbounds import exact_bounds

        res = exact_bounds(data, model, G)
        assert res.lower == pytest.approx(0.4, abs=1e-12)
        assert res.upper == pytest.approx(0.4, abs=1e-12)
        cap = epsilon * math.log(2) + 1e-6
        assert 0.4 - 1e-6 <= lo.value <= 0.4 + cap
        assert 0.4 - cap <= hi.value <= 0.4 + 1e-6

    def test_optimizer_columns_sum_to_zero(self, rng):
        # both starts have zero column sums and the ridge keeps each Newton
        # step orthogonal to the all-ones vector, so only rounding moves them
        tables = {k: [] for k in (2, 3, 4)}
        for _ in range(60):
            k = int(rng.integers(2, 5))
            tables[k].append(cell_table(*random_instance(rng, num_classes=k, num_sig_max=8)))
        for k, group in tables.items():
            for epsilon in (default_epsilon(k), 1e-3 / math.log(k)):
                for pair in bounds.solve_bounds(group, epsilon):
                    for est in pair:
                        a = est.optimizer
                        scale = max(1.0, np.abs(a).max(initial=0.0))
                        assert np.abs(a.sum(axis=0)).max(initial=0.0) <= 1e-12 * scale

    def test_reported_value_reproducible_from_optimizer(self, rng):
        data, model, G = random_instance(rng)
        epsilon = default_epsilon(2)
        lo, hi = estimate_bounds(cell_table(data, model, G), epsilon)
        cells = cell_table(data, model, G)
        assert lo.value == pytest.approx(
            -objective_value(*negated(cells, lo.optimizer), epsilon), abs=1e-12
        )
        assert hi.value == pytest.approx(objective_value(cells, hi.optimizer, epsilon), abs=1e-12)

    def test_invariant_to_sample_permutation(self, rng):
        data, model, G = random_instance(rng, n_max=40)
        perm = rng.permutation(data.n)
        data_p = DatasetView(n=data.n, z_ids=data.z_ids[perm])
        G_p = per_sample_g(g_values(G)[perm])
        lo, hi = estimate_bounds(cell_table(data, model, G))
        lo_p, hi_p = estimate_bounds(cell_table(data_p, model, G_p))
        assert lo_p.value == pytest.approx(lo.value, abs=1e-8)
        assert hi_p.value == pytest.approx(hi.value, abs=1e-8)

    def test_invariant_to_z_relabeling(self, rng):
        data, model, G = random_instance(rng, num_sig_max=4)
        num_z = model.num_signatures
        perm = rng.permutation(num_z)
        inv = np.argsort(perm)
        data_r = DatasetView(n=data.n, z_ids=inv[data.z_ids])
        model_r = LabelModel(table=model.table[perm])
        lo, hi = estimate_bounds(cell_table(data, model, G))
        lo_r, hi_r = estimate_bounds(cell_table(data_r, model_r, G))
        assert lo_r.value == pytest.approx(lo.value, abs=1e-8)
        assert hi_r.value == pytest.approx(hi.value, abs=1e-8)


class TestPluginStd:
    def test_equal_values_give_zero(self):
        data, model, G = two_point_instance(0.5)
        cells = cell_table(data, model, per_sample_g(np.full((2, 2), 0.3)))
        a = np.zeros((2, 1))
        assert std_at(*negated(cells, a), default_epsilon(2)) == 0.0
        assert std_at(cells, a, default_epsilon(2)) == 0.0

    def test_two_point_sample_std(self, rng):
        # per-sample values {0, 1} with divisor n-1 give 1/sqrt(2)
        vals = np.array([0.0, 1.0])
        assert vals.std(ddof=1) == pytest.approx(0.7071068, abs=1e-7)

    def test_matches_direct_recomputation(self, rng):
        data, model, G = random_instance(rng)
        epsilon = default_epsilon(2)
        a = rng.normal(size=(2, model.num_signatures))
        per_sample = [
            soft_max(g_values(G)[i] + a[:, z], epsilon) - model.table[z] @ a[:, z]
            for i, z in enumerate(data.z_ids)
        ]
        direct = float(np.std(per_sample, ddof=1))
        cells = cell_table(data, model, G)
        assert std_at(cells, a, epsilon) == pytest.approx(direct)

    def test_shift_invariance(self, rng):
        data, model, G = random_instance(rng)
        epsilon = default_epsilon(2)
        a = rng.normal(size=(2, model.num_signatures))
        shift = rng.normal(size=(1, model.num_signatures))
        cells = cell_table(data, model, G)
        for side in (lambda cells, a: (cells, a), negated):
            assert std_at(*side(cells, a + shift), epsilon) == pytest.approx(
                std_at(*side(cells, a), epsilon), abs=1e-10
            )

    def test_scales_exactly_past_overflow(self, rng):
        # the squares of these deviations overflow a float
        data, model, G = random_instance(rng)
        cells = cell_table(data, model, G)
        values = rng.normal(size=len(cells.z))
        std = plugin_std(cells, values)
        assert plugin_std(cells, values * 2.0**600) == 2.0**600 * std
        assert plugin_std(cells, values * 2.0**-600) == 2.0**-600 * std

    def test_needs_two_samples(self):
        data = DatasetView(n=1, z_ids=np.array([0]))
        model = LabelModel(table=np.array([[0.5, 0.5]]))
        cells = cell_table(data, model, per_sample_g(np.array([[0.0, 1.0]])))
        with pytest.raises(InsufficientSampleError):
            std_at(cells, np.zeros((2, 1)), default_epsilon(2))
        # a side of a stacked solve with n < 2 raises there too
        with pytest.raises(InsufficientSampleError):
            bounds.solve_bounds([cell_table(*two_point_instance(0.75)), cells])


class TestConfidenceInterval:
    def test_frozen_quantile_example(self):
        # standard-normal quantile at 0.975 is 1.959964
        ci = bounds.normal_interval(0.5, 0.1, 100, 0.05)
        assert ci.low == pytest.approx(0.48040, abs=1e-5)
        assert ci.high == pytest.approx(0.51960, abs=1e-5)
        assert ci.level == pytest.approx(0.95)

    def test_zero_std_degenerate(self):
        ci = bounds.normal_interval(0.3, 0.0, 50, 0.05)
        assert ci.low == ci.high == 0.3

    def test_gamma_032_half_width(self):
        # quantile at 0.84 is about 0.994458, so half-width is near std/sqrt(n)
        ci = bounds.normal_interval(0.0, 1.0, 100, 0.32)
        assert ci.high == pytest.approx(0.0994458, abs=1e-6)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            bounds.normal_interval(0.0, 1.0, 10, 0.0)


class TestCiHalfWidth:
    """The half-width of ``normal_interval``, z_{1-gamma/2} * std / sqrt(n)."""

    @staticmethod
    def half_width(std, n, gamma):
        return bounds.normal_interval(0.0, std, n, gamma).high

    def test_quantile_matches_scipy(self):
        from scipy.stats import norm

        gammas = np.concatenate([np.geomspace(1e-6, 0.999, 300), np.linspace(0.001, 0.998, 300)])
        for gamma in gammas:
            # std 2 over sqrt(4) scales the quantile by exactly 1
            z = self.half_width(2.0, 4, float(gamma))
            assert z == pytest.approx(norm.ppf(1.0 - gamma / 2.0), rel=2e-15, abs=0.0)

    def test_rejects_bad_gamma_and_n(self):
        with pytest.raises(ValueError):
            self.half_width(1.0, 10, 1.0)
        with pytest.raises(InsufficientSampleError):
            self.half_width(1.0, 1, 0.05)

    @pytest.mark.parametrize("gamma", [1e-300, 2.0**-53])
    def test_rejects_gamma_whose_level_rounds_to_one(self, gamma):
        with pytest.raises(ValueError, match="1 - gamma/2 < 1"):
            self.half_width(1.0, 10, gamma)
        # the next gamma up still has a quantile
        assert math.isfinite(self.half_width(1.0, 10, float(np.nextafter(2.0**-53, 1.0))))


class TestEstimateClassPrior:
    """P(Y=1) read from a joint_positive cell table."""

    @staticmethod
    def _prior(z_ids, model):
        data = DatasetView(n=len(z_ids), z_ids=np.array(z_ids), predictions=np.zeros(len(z_ids)))
        g = build_g(data, MetricSpec(MetricKind.JOINT_POSITIVE), LabelSpace(num_classes=2))
        return positive_margins(cell_table(data, model, g))[1]

    def test_weighted_mean_over_samples(self):
        # P(1|A)=2/3, P(1|B)=1, sequence [A,A,B,B] -> (2/3+2/3+1+1)/4 = 5/6
        model = LabelModel(table=np.array([[1 / 3, 2 / 3], [0.0, 1.0]]))
        assert self._prior([0, 0, 1, 1], model) == pytest.approx(5 / 6)

    def test_one_hot_model_counts_positives(self):
        model = LabelModel(table=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert self._prior([0, 1, 1], model) == pytest.approx(2 / 3)

    def test_single_sample(self):
        model = LabelModel(table=np.array([[0.2, 0.8]]))
        assert self._prior([0], model) == pytest.approx(0.8)


class TestSolverConvergence:
    def test_wide_sweep_converges_on_every_solve(self):
        # six labelers with frequent abstains: ~500 observed signatures at n = 1000
        spec = SynthSpec(
            n=1000, num_labelers=6, labeler_accuracies=(0.75,) * 6, abstain_rates=(0.3,) * 6
        )
        result = generate_synthetic(spec)
        assert len(result.table) > 300
        sweep = threshold_sweep(result.data, result.model, [0.4, 0.5, 0.6], ["accuracy", "f1"])
        assert len(sweep.solves) == 12
        for label, est in sweep.solves:
            assert est.report.converged, (label, est.side, est.report)

    def test_counted_model_with_zero_entries_stays_in_sandwich(self):
        spec = SynthSpec(n=300, seed=5)
        result = generate_synthetic(spec)
        model = count_label_model(result.data, result.table, 2)
        assert np.any(model.table == 0.0)
        g = build_g(result.data, MetricSpec(MetricKind.ACCURACY), LabelSpace(num_classes=2))
        exact = exact_bounds(result.data, model, g)
        for epsilon in (default_epsilon(2), TIGHT):
            lo, hi = estimate_bounds(cell_table(result.data, model, g), epsilon)
            assert lo.report.converged and hi.report.converged
            cap = epsilon * math.log(2)
            assert exact.lower - 1e-6 <= lo.value <= exact.lower + cap + 1e-6
            assert exact.upper - cap - 1e-6 <= hi.value <= exact.upper + 1e-6

    def test_large_n_reaches_gradient_tolerance(self):
        # criterion 04's population at its truth size: a 2e5-row mean rounds
        # away the last Armijo decreases near the optimum
        spec = SynthSpec(
            n=200_000, num_labelers=2, labeler_accuracies=(0.8, 0.7),
            abstain_rates=(0.1, 0.1), seed=42,
        )
        result = generate_synthetic(spec)
        g = build_g(result.data, MetricSpec(MetricKind.ACCURACY), LabelSpace(num_classes=2))
        for est in estimate_bounds(cell_table(result.data, result.model, g)):
            assert est.report.converged
            assert est.report.final_gradient_norm <= 1e-8


def _multiclass_risk(n, seed, num_z=12):
    """A 3-class risk instance whose predictions depend on the signature."""
    rng = np.random.default_rng(seed)
    z_ids = rng.integers(0, num_z, n)
    z_ids[:num_z] = np.arange(num_z)
    lean = rng.dirichlet(np.ones(3), num_z)
    preds = (rng.random(n)[:, None] > np.cumsum(lean, axis=1)[z_ids]).sum(axis=1)
    data = DatasetView(n=n, z_ids=z_ids, predictions=preds)
    model = LabelModel(table=rng.dirichlet(np.full(3, 0.7), num_z))
    loss = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    g = build_g(data, MetricSpec(MetricKind.RISK, loss_table=loss), LabelSpace(num_classes=3))
    return data, model, g


def _binary_instances(n, seed):
    result = generate_synthetic(SynthSpec(n=n, seed=seed))
    for kind in (MetricKind.ACCURACY, MetricKind.JOINT_POSITIVE):
        g = build_g(result.data, MetricSpec(kind), LabelSpace(num_classes=2))
        yield result.data, result.model, g


def _counted_cells(data, model, G):
    """The cells counted one sample at a time, in ``cell_table``'s order."""
    counts = Counter(zip(data.z_ids.tolist(), G.rows.tolist()))
    z_counts = Counter(data.z_ids.tolist())
    keys = sorted(counts)
    return (
        data.n,
        np.array([z for z, _ in keys]),
        G.costs[[row for _, row in keys]],
        np.array([counts[key] / data.n for key in keys]),
        np.array([z_counts[z] / data.n for z in range(model.num_signatures)]),
        model.table,
        float(np.abs(G.costs).max()),
    )


def _population_cells(num_labelers):
    """The accuracy cell table of coverage's population at ``num_labelers``
    labelers, each abstaining at 0.1: every vote tuple, many of tiny mass."""
    accuracies = (0.8, 0.7, 0.65, 0.75, 0.6, 0.7, 0.68, 0.72)[:num_labelers]
    spec = SynthSpec(n=2000, num_labelers=num_labelers, labeler_accuracies=accuracies,
                     abstain_rates=(0.1,) * num_labelers, seed=42)
    mass, posterior = population(spec)
    z, preds = np.repeat(np.arange(len(mass)), 2), np.tile([0, 1], len(mass))
    # np.eye(2): accuracy's cost rows, one per prediction
    return cells_from_counts(z, preds, (mass * spec.n).ravel(), np.eye(2), LabelModel(posterior))


class TestCellTable:
    def test_counts_give_the_cells_of_each_sample(self, rng):
        # built-in G (accuracy and joint_positive; a 3-class risk) and a general
        # per-sample G, whose rows = arange(n) make one cell per sample
        instances = [random_instance(rng, num_classes=k, num_sig_max=8) for k in (2, 2, 3, 3)]
        instances += [_multiclass_risk(300, seed=5), *_binary_instances(500, seed=6)]
        for data, model, G in instances:
            expected = _counted_cells(data, model, G)
            dense = np.zeros((model.num_signatures, len(G.costs)), dtype=np.int64)
            np.add.at(dense, (data.z_ids, G.rows), 1)
            z, rows = np.indices(dense.shape).reshape(2, -1)
            for cells in (
                cell_table(data, model, G),
                # every (signature, cost row) pair, empty ones included
                cells_from_counts(z, rows, dense.ravel(), G.costs, model),
                # float counts, as a population's masses times n enter
                cells_from_counts(z, rows, dense.ravel().astype(float), G.costs, model),
            ):
                assert len(cells) == len(expected)
                for got, want in zip(cells, expected):
                    assert np.array_equal(got, want)

    def test_large_n_sandwich(self):
        # the oracle runs on cells, so the sandwich holds at a size where a
        # per-sample oracle is out of reach
        n = 200_000
        for data, model, g in [*_binary_instances(n, seed=3), _multiclass_risk(n, seed=4)]:
            assert cell_table(data, model, g).mass.size <= model.table.size
            exact = exact_bounds(data, model, g)
            lo, hi = estimate_bounds(cell_table(data, model, g))
            assert lo.report.converged and hi.report.converged
            cap = lo.epsilon * math.log(model.num_classes)
            assert exact.lower - 1e-6 <= lo.value <= exact.lower + cap + 1e-6
            assert exact.upper - cap - 1e-6 <= hi.value <= exact.upper + 1e-6

    @pytest.mark.parametrize("num_labelers", [3, 6, 8])
    def test_population_sandwich(self, num_labelers):
        cells = _population_cells(num_labelers)
        assert len(cells.z_mass) == 3**num_labelers
        exact = exact_cell_bounds(cells)
        lo, hi = estimate_bounds(cells)
        assert lo.report.converged and hi.report.converged
        cap = lo.epsilon * math.log(2)
        assert exact.lower - 1e-12 <= lo.value <= exact.lower + cap + 1e-12
        assert exact.upper - cap - 1e-12 <= hi.value <= exact.upper + 1e-12

    def test_merging_cells_is_exact(self):
        # one cell per sample (rows = arange(n)) gives the same bounds, stds and
        # oracle values as one cell per (signature, prediction)
        for data, model, g in [*_binary_instances(3000, seed=8), _multiclass_risk(600, seed=9)]:
            per_sample = per_sample_g(g_values(g))
            assert cell_table(data, model, per_sample).mass.size == data.n
            for merged, split in zip(
                estimate_bounds(cell_table(data, model, g)),
                estimate_bounds(cell_table(data, model, per_sample)),
            ):
                assert merged.value == pytest.approx(split.value, abs=1e-12)
                assert merged.plugin_std == pytest.approx(split.plugin_std, abs=1e-12)
            merged, split = exact_bounds(data, model, g), exact_bounds(data, model, per_sample)
            assert merged.lower == pytest.approx(split.lower, abs=1e-12)
            assert merged.upper == pytest.approx(split.upper, abs=1e-12)


def _same_estimate(a, b):
    return (
        a.side is b.side
        and a.value == b.value
        and np.array_equal(a.optimizer, b.optimizer)
        and a.plugin_std == b.plugin_std
        and a.report == b.report
        and (a.n, a.epsilon) == (b.n, b.epsilon)
    )


class TestStackedSolve:
    """Problems solved side by side get the bits each gets alone."""

    def test_stacked_problems_equal_each_problem_alone(self, rng):
        problems = [cell_table(*random_instance(rng, num_classes=3)) for _ in range(6)]
        stacked = bounds.solve_bounds(problems)
        # unlike solves
        assert len({est.report.iterations for pair in stacked for est in pair}) > 1
        for problem, pair in zip(problems, stacked):
            assert [est.side for est in pair] == [Side.LOWER, Side.UPPER]
            (alone,) = bounds.solve_bounds([problem])
            assert all(map(_same_estimate, pair, alone))

    def test_stacked_problems_equal_each_estimate_alone(self, rng):
        problems = [random_instance(rng, num_sig_max=8) for _ in range(5)]
        tables = [cell_table(*p) for p in problems]
        # binary tables of at most two cost gaps per signature start at their
        # optimizer and take no Newton step; stacked between per-sample tables,
        # which take steps from the closed form's start
        closed = list(_edge_tables(rng, 3))
        tables = [closed[0], *tables[:2], closed[1], *tables[2:], closed[2]]
        for epsilon in (default_epsilon(2), TIGHT):
            stacked = bounds.solve_bounds(tables, epsilon)
            newton = {bool(est.report.iterations) for pair in stacked for est in pair}
            assert newton == {True, False}
            for cells, pair in zip(tables, stacked):
                assert all(map(_same_estimate, pair, estimate_bounds(cells, epsilon)))

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_each_side_is_finished_at_its_optimizer(self, rng, num_classes):
        tables = [cell_table(*random_instance(rng, num_classes=num_classes)) for _ in range(5)]
        epsilon = default_epsilon(num_classes)
        for cells, (lo, hi) in zip(tables, bounds.solve_bounds(tables)):
            # the lower side is the upper side of the negated costs, negated
            sides = ((lo, negated(cells, lo.optimizer), -1.0), (hi, (cells, hi.optimizer), 1.0))
            for est, (c, a), sign in sides:
                # the same bits as evaluating this side alone at its optimizer
                assert est.value == sign * objective_value(c, a, epsilon)
                assert est.plugin_std == plugin_std(c, cell_values(c, a, epsilon))

    def test_finishing_makes_no_pass(self, rng, monkeypatch):
        passes, at_return = [], []
        soft_pass, solve = objective._soft_pass, bounds.minimize

        def counted(*args, **kwargs):
            out = solve(*args, **kwargs)
            at_return.append(len(passes))
            return out

        monkeypatch.setattr(objective, "_soft_pass", lambda *args: passes.append(args) or soft_pass(*args))
        monkeypatch.setattr(bounds, "minimize", counted)
        tables = [cell_table(*random_instance(rng, num_classes=3)) for _ in range(4)]
        assert len(bounds.solve_bounds(tables)) == 4
        # one solve over every side's cells at once, whose last evaluation
        # finishes every side: no soft-max pass after it
        assert at_return == [len(passes)]
        assert len(passes[-1][0].z) == 2 * sum(len(cells.z) for cells in tables)

    def test_no_problems_no_pairs(self):
        assert bounds.solve_bounds([]) == []
        assert bounds.solve_bounds([], default_epsilon(2)) == []

    @pytest.mark.parametrize("epsilon", [0.0, 1e-7, float("nan")])
    def test_bad_epsilon_raises_without_problems(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must"):
            bounds.solve_bounds([], epsilon)
        result = generate_synthetic(SynthSpec(n=50, seed=3))
        with pytest.raises(ValueError, match="epsilon must"):
            threshold_sweep(result.data, result.model, [0.5], [], epsilon)

    def test_sweep_without_metrics_is_empty(self):
        # nothing to solve: an empty table, as before any solve was stacked
        result = generate_synthetic(SynthSpec(n=50, seed=3))
        sweep = threshold_sweep(result.data, result.model, [0.5], [])
        assert sweep.rows == () and sweep.solves == ()

    def test_sweep_equals_estimates_at_each_threshold(self):
        result = generate_synthetic(SynthSpec(n=400, seed=3))
        data, model = result.data, result.model
        view = lambda scores: DatasetView(n=data.n, z_ids=data.z_ids, scores=scores)
        ties = view(np.round(data.scores, 1))
        assert np.isin([0.3, 0.5, 0.7], ties.scores).all()
        # every score of signature 0 lies above every threshold, of signature 1 below
        one_sided = view(np.select([data.z_ids == 0, data.z_ids == 1], [9.0, -9.0], data.scores))
        rng = np.random.default_rng(31)
        tri, tri_model, _ = random_instance(rng, n_max=200, num_classes=3)
        tri = DatasetView(n=tri.n, z_ids=tri.z_ids, scores=rng.uniform(0.0, 1.0, tri.n))
        prf = ["accuracy", "f1"]
        cases = [
            (data, model, [0.3, 0.5, 0.7], prf),
            (ties, model, [0.3, 0.5, 0.7], prf),  # ties classify positive
            # float32(0.7) < 0.7, yet score >= 0.7 compares in float32 and holds
            (view(ties.scores.astype(np.float32)), model, [0.3, 0.7], prf),
            (data, model, [-1.0, 2.0], prf),  # below and above every score
            (data, model, [0.7, 0.3, 0.5, 0.3, 0.7], prf),
            (one_sided, model, [0.2, 0.6], prf),
            (tri, tri_model, [0.25, 0.5, 0.75], ["accuracy"]),
        ]
        for data, model, thresholds, kinds in cases:
            sweep = threshold_sweep(data, model, thresholds, kinds)
            estimates = iter(est for _, est in sweep.solves)
            rows = iter(sweep.rows)
            space = LabelSpace(num_classes=model.num_classes)
            solved = [MetricKind.ACCURACY] + [MetricKind.JOINT_POSITIVE] * ("f1" in kinds)
            for t in thresholds:
                for kind in solved:
                    g = build_g(data, MetricSpec(kind, threshold=t), space)
                    cells = cell_table(data, model, g)
                    lo, hi = estimate_bounds(cells)
                    assert _same_estimate(next(estimates), lo)
                    assert _same_estimate(next(estimates), hi)
                    p_h1 = p_y1 = None
                    if kind is MetricKind.JOINT_POSITIVE:
                        # estimate's P(h=1) and P(Y=1): the row means, to within rounding
                        p_h1, p_y1 = positive_margins(cells)
                        assert p_h1 == pytest.approx(np.mean(data.scores >= t), rel=1e-14)
                        assert p_y1 == pytest.approx(model.table[data.z_ids, 1].mean(), rel=1e-14)
                    for want in bound_rows(lo, hi, kind.value, kinds, 0.05, p_h1, p_y1, t):
                        assert next(rows) == want
            assert next(rows, None) is None

    def test_each_side_reports_its_own_signatures(self, monkeypatch):
        # lower and upper need different numbers of iterations; a budget between
        # them leaves one side unconverged and the other converged
        data, model, G = random_instance(np.random.default_rng(97), num_classes=3)
        lo, hi = estimate_bounds(cell_table(data, model, G), TIGHT)
        assert lo.report.converged and hi.report.converged
        assert lo.report.iterations != hi.report.iterations
        fast, slow = sorted((lo, hi), key=lambda est: est.report.iterations)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", fast.report.iterations)
        capped = {est.side: est for est in estimate_bounds(cell_table(data, model, G), TIGHT)}
        assert _same_estimate(capped[fast.side], fast)
        assert not capped[slow.side].report.converged
        assert capped[slow.side].report.iterations == fast.report.iterations
        assert capped[slow.side].report.final_gradient_norm > solver.GRADIENT_TOLERANCE


class TestNegatedCosts:
    """The identity the objective rests on: the lower bound of G is minus the
    upper bound of -G, and the upper bound of G minus the lower bound of -G,
    bit for bit, optimizers, plug-in stds and reports included."""

    @staticmethod
    def _assert_mirrored(data, model, G, epsilon=None):
        lo, hi = estimate_bounds(cell_table(data, model, G), epsilon)
        neg_lo, neg_hi = estimate_bounds(
            cell_table(data, model, GMatrix(costs=-G.costs, rows=G.rows)), epsilon
        )
        for est, mirror in ((lo, neg_hi), (hi, neg_lo)):
            assert est.side is not mirror.side
            assert est.value == -mirror.value
            assert est.plugin_std == mirror.plugin_std
            assert np.array_equal(est.optimizer, -mirror.optimizer)
            assert est.report == mirror.report

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_random_instances(self, rng, num_classes):
        for _ in range(10):
            self._assert_mirrored(*random_instance(rng, num_classes=num_classes))

    def test_saturated_small_epsilon(self):
        # at eps = 1e-3 / ln|Y| the weights saturate and solves take many steps
        data, model, G = random_instance(np.random.default_rng(34), num_classes=3)
        self._assert_mirrored(data, model, G, 1e-3 / math.log(3))


def _closed_form_upper(cells, epsilon):
    """The smoothed upper bound of a binary cell table with at most 2 cells per
    signature, in closed form.

    The dual depends on each signature's column only through d = a_1 - a_0. At
    a = (0, d) with x = exp(d / eps), cell c puts weight r_c x / (1 + r_c x) on
    class 1, where r_c = exp((g_c1 - g_c0) / eps). The optimum sets the mass-
    weighted sum of those weights to the label model's share m_z p_1: a linear
    equation in x for one cell and, for two, times (1 + r_1 x)(1 + r_2 x), the
    quadratic A x^2 + B x + C = 0 below. A > 0 > C, so it has one positive root.
    It is solved in 50-digit decimal arithmetic, whose exponent range holds r_c
    at any cost gap. A one-hot label-model row has no finite optimum: as d runs
    to +-inf, each cell's value tends to its cost of the certain class less
    eps ln 2. A signature without cells adds nothing.
    """
    total = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for z, (_, p1), mass, g in _by_signature(cells):
            mz = cells.z_mass[z]
            if p1 in (0.0, 1.0):
                total += float(mass @ (g[:, int(p1)] - epsilon * math.log(2)))
                continue
            r = [_ratio(g1 - g0, epsilon) for g0, g1 in g]
            m, mz, p1 = [Decimal(v) for v in mass], Decimal(mz), Decimal(p1)
            if len(m) == 1:
                x = p1 / (r[0] * (1 - p1))
            else:
                a = mz * r[0] * r[1] * (1 - p1)
                b = m[0] * r[0] + m[1] * r[1] - mz * p1 * (r[0] + r[1])
                c = -mz * p1
                # the roots are q / a and c / q; this q avoids cancellation
                q = -(b + (b * b - 4 * a * c).sqrt().copy_sign(b)) / 2
                x = q / a if q > 0 else c / q
            # ln x from x's decimal exponent and mantissa, each a float
            d = epsilon * (x.adjusted() * math.log(10) + math.log(x.scaleb(-x.adjusted())))
            soft = epsilon * (np.logaddexp(g[:, 0] / epsilon, (g[:, 1] + d) / epsilon) - math.log(2))
            total += float(mass @ soft) - float(mz * p1) * d
    return total


@functools.cache
def _ratio(gap, epsilon):
    """exp(gap / eps) in the decimal context, beyond a float's range too."""
    return (Decimal(gap) / Decimal(epsilon)).exp()


def _by_signature(cells):
    """Each signature that holds cells, its label-model row, and its cells' masses and costs."""
    cut = np.searchsorted(cells.z, np.arange(1, len(cells.z_mass)))
    parts = zip(np.split(cells.mass, cut), np.split(cells.costs, cut))
    for z, (mass, costs) in enumerate(parts):
        if len(mass):
            yield z, cells.label_model[z], mass, costs


# a binary loss table whose cost gaps, 20 and -18.5, exceed 709 * eps at the
# default eps, so exp(gap / eps) overflows a float
WIDE_LOSS = np.array([[0.0, 20.0], [19.0, 0.5]])


def _edge_tables(rng, count):
    """Binary cell tables built from counts, with the cases a closed form must
    handle: one-hot (saturated) label-model rows, signatures of one cell,
    signatures without mass or with a share of about 1e-7, and cost gaps above
    709 * eps."""
    costs = [np.eye(2), np.array([[0.0, 0.0], [0.0, 1.0]]), WIDE_LOSS]
    for i in range(count):
        num_z = int(rng.integers(1, 9))
        counts = rng.integers(0, 40, (num_z, 2)).astype(float)
        counts[rng.random((num_z, 2)) < 0.2] = 0.0  # some one-cell signatures
        counts[rng.random(num_z) < 0.15] = 0.0  # some without mass
        counts[0] = rng.integers(1, 40, 2)  # ...but never all of them
        if num_z > 1 and rng.random() < 0.4:
            counts[-1] = counts[0].sum() * 1e-7 * rng.random(2)  # a share of ~1e-7
        p1 = rng.uniform(0.0, 1.0, num_z)
        p1[rng.random(num_z) < 0.2] = 0.0
        p1[rng.random(num_z) < 0.2] = 1.0
        model = LabelModel(table=np.column_stack([1.0 - p1, p1]))
        z, rows = np.indices(counts.shape).reshape(2, -1)
        yield cells_from_counts(z, rows, counts.ravel(), costs[i % 3], model)


class TestClosedFormBinary:
    """A test oracle for the binary solve: with at most 2 cells per signature, the
    optimum of each signature solves a quadratic."""

    @staticmethod
    def _assert_matches_oracle(cells, lo, hi):
        assert lo.report.converged and hi.report.converged
        assert lo.report.iterations == hi.report.iterations == 0
        assert hi.value == pytest.approx(_closed_form_upper(cells, hi.epsilon), abs=1e-12)
        # the lower bound is minus the upper bound of the negated costs
        negated_cells, _ = negated(cells, lo.optimizer)
        assert lo.value == pytest.approx(-_closed_form_upper(negated_cells, lo.epsilon), abs=1e-12)
        exact_lo, exact_hi, _ = exact_cell_bounds(cells)
        cap = hi.epsilon * math.log(2)
        assert exact_lo - 1e-12 <= lo.value <= exact_lo + cap + 1e-12
        assert exact_hi - cap - 1e-12 <= hi.value <= exact_hi + 1e-12

    def test_estimates_match_closed_form(self):
        rng = np.random.default_rng(2718)
        space = LabelSpace(num_classes=2)
        for i in range(200):
            n, num_z = int(rng.integers(10, 400)), int(rng.integers(1, 9))
            z_ids = rng.integers(0, num_z, n)
            z_ids[:num_z] = np.arange(num_z)  # every signature occurs
            p1 = rng.uniform(0.05, 0.95, num_z)
            model = LabelModel(table=np.column_stack([1.0 - p1, p1]))
            data = DatasetView(n=n, z_ids=z_ids, predictions=rng.integers(0, 2, n))
            kind = MetricKind.ACCURACY if i % 2 else MetricKind.JOINT_POSITIVE
            g = build_g(data, MetricSpec(kind), space)
            cells = cell_table(data, model, g)
            self._assert_matches_oracle(cells, *estimate_bounds(cells))
            exact = exact_bounds(data, model, g)
            want = pytest.approx((exact.lower, exact.upper), abs=1e-12)
            assert exact_cell_bounds(cells)[:2] == want

    def test_edge_cases_match_closed_form(self):
        tables = list(_edge_tables(np.random.default_rng(709), 300))
        kinds = Counter()
        for cells in tables:
            kinds["saturated"] += np.isin(cells.label_model[:, 1], [0.0, 1.0]).any()
            kinds["one cell"] += (np.bincount(cells.z) == 1).any()
            kinds["no mass"] += (cells.z_mass == 0.0).any()
            kinds["tiny"] += ((cells.z_mass > 0.0) & (cells.z_mass < 1e-6)).any()
            kinds["wide"] += bool(np.abs(np.diff(cells.costs)).max() > 709 * default_epsilon(2))
        assert min(kinds.values()) >= 30, kinds
        for epsilon in (default_epsilon(2), TIGHT):
            for cells, (lo, hi) in zip(tables, bounds.solve_bounds(tables, epsilon)):
                self._assert_matches_oracle(cells, lo, hi)
                # a column without mass stays at the zero start
                assert not hi.optimizer[:, cells.z_mass == 0.0].any()
                assert np.isfinite(hi.optimizer).all() and np.isfinite(lo.optimizer).all()

    def test_report_holds_the_gradient_at_the_optimizer(self, rng):
        epsilon = default_epsilon(2)
        for cells in _edge_tables(rng, 20):
            lo, hi = estimate_bounds(cells)
            for est, (c, a) in ((hi, (cells, hi.optimizer)), (lo, negated(cells, lo.optimizer))):
                norm = np.abs(gradient(c, minimized_value(c, a, epsilon)[1])).max()
                assert est.report.final_gradient_norm == norm
                assert est.report.final_gradient_norm <= solver.GRADIENT_TOLERANCE

    def test_no_newton_step_for_closed_form_tables(self, rng):
        closed = list(_edge_tables(rng, 5))
        # a per-sample G of random costs has more than two cost gaps per signature
        data, model, G = random_instance(rng, n_max=60, num_sig_max=3)
        newton = cell_table(data, model, G)
        assert np.bincount(newton.z).max() > 2
        # at a temperature this high no cell's weight saturates, so the
        # per-sample table's signatures are off the two-gap closed form
        pairs = bounds.solve_bounds([closed[0], newton, *closed[1:]], 0.5)
        iterations = [[est.report.iterations for est in pair] for pair in pairs]
        # the closed-form sides start at their optimizer; the per-sample table's
        # sides take Newton steps from that start
        assert iterations[:1] + iterations[2:] == [[0, 0]] * 5
        assert min(iterations[1]) > 0
        assert all(est.report.converged for pair in pairs for est in pair)

    def test_newton_finishes_from_a_perturbed_closed_form(self, rng, monkeypatch):
        # tables with a signature of some mass whose label model is not one-hot:
        # at a saturated optimizer the shift leaves the gradient within the tolerance
        tables = [cells for cells in _edge_tables(rng, 40)
                  if ((cells.z_mass > 1e-3) & (cells.label_model.min(axis=1) > 0.0)).any()]
        assert len(tables) >= 20
        exact = bounds.solve_bounds(tables)
        closed_form = bounds._closed_form

        def perturbed(cells, epsilon):
            # each column moves by 1e-3 along the direction that changes its share
            a = closed_form(cells, epsilon)
            shift = 1e-3 * (-1.0) ** np.arange(a.shape[1])
            return a + np.stack([-shift, shift])

        monkeypatch.setattr(bounds, "_closed_form", perturbed)
        for want, got in zip(exact, bounds.solve_bounds(tables)):
            for w, g in zip(want, got):
                assert g.report.converged and g.report.iterations >= 1
                assert g.value == pytest.approx(w.value, rel=1e-12, abs=1e-12)

    def test_population_truth_is_the_closed_form(self):
        # the smoothed truth of coverage at 8 labelers
        cells = _population_cells(8)
        assert cells.z_mass.min() < 1e-6
        ((lo, hi),) = bounds.solve_bounds([cells])
        assert lo.report.converged and hi.report.converged
        assert hi.value == pytest.approx(_closed_form_upper(cells, hi.epsilon), abs=1e-12)
        negated_cells, _ = negated(cells, lo.optimizer)
        assert lo.value == pytest.approx(-_closed_form_upper(negated_cells, lo.epsilon), abs=1e-12)


class TestNormalQuantile:
    def test_matches_statistics_bit_for_bit(self):
        # the one place the package's tests import statistics
        from statistics import NormalDist

        rng = np.random.default_rng(241)
        ps = np.concatenate([rng.random(20000), 10.0 ** -rng.uniform(0, 300, 2000),
                             1.0 - 10.0 ** -rng.uniform(0, 16, 2000)])
        levels = [1.0 - gamma / 2.0 for gamma in (0.05, 0.32, 1e-10)]
        inv_cdf = NormalDist().inv_cdf
        for p in [*levels, 0.5, 0.075, 0.925, *map(float, ps[(ps > 0) & (ps < 1)])]:
            assert bounds.normal_quantile(p) == inv_cdf(p), p

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, float("nan")])
    def test_rejects_p_outside_open_unit_interval(self, p):
        with pytest.raises(ValueError):
            bounds.normal_quantile(p)
