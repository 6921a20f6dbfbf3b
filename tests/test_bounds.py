import math

import numpy as np
import pytest

from weakbounds import (
    BoundEstimate,
    DatasetView,
    InsufficientSampleError,
    LabelModel,
    LabelSpace,
    MetricKind,
    MetricSpec,
    Side,
    SmoothingConfig,
    SolveReport,
    SynthSpec,
    build_g,
    confidence_interval,
    count_label_model,
    estimate_bounds,
    estimate_class_prior,
    eval_objective,
    exact_bounds,
    generate_synthetic,
    per_sample_objective,
    plugin_std,
    subsample_for_bounds,
    threshold_sweep,
)
from conftest import random_instance, two_point_instance

TIGHT = SmoothingConfig(epsilon=1e-3 / math.log(2))


def make_estimate(value, std, n):
    report = SolveReport(iterations=0, final_gradient_norm=0.0, converged=True)
    return BoundEstimate(
        side=Side.LOWER,
        value=value,
        optimizer=np.zeros((2, 1)),
        plugin_std=std,
        n=n,
        report=report,
        epsilon=0.01,
    )


class TestEstimateBounds:
    def test_two_point_half(self):
        data, model, G = two_point_instance(0.5)
        lo, hi = estimate_bounds(data, model, G, TIGHT)
        cap = TIGHT.epsilon * math.log(2)
        assert 0.0 - 1e-5 <= lo.value <= 0.0 + cap + 1e-5
        assert 1.0 - cap - 1e-5 <= hi.value <= 1.0 + 1e-5

    def test_two_point_three_quarters(self):
        data, model, G = two_point_instance(0.75)
        lo, hi = estimate_bounds(data, model, G, TIGHT)
        cap = TIGHT.epsilon * math.log(2)
        assert 0.25 - 1e-5 <= lo.value <= 0.25 + cap + 1e-5
        assert 0.75 - cap - 1e-5 <= hi.value <= 0.75 + 1e-5

    def test_constant_g_collapses(self, rng):
        data, model, _ = random_instance(rng)
        from weakbounds import GMatrix

        G = GMatrix(values=np.full((data.n, 2), 0.4), sup_norm=0.5)
        cfg = SmoothingConfig()
        lo, hi = estimate_bounds(data, model, G, cfg)
        # the exact bounds collapse to the constant; the smoothed estimates sit
        # inside them by at most the epsilon * ln|Y| smoothing slack
        from weakbounds import exact_bounds

        res = exact_bounds(data, model, G)
        assert res.lower == pytest.approx(0.4, abs=1e-12)
        assert res.upper == pytest.approx(0.4, abs=1e-12)
        cap = cfg.epsilon * math.log(2) + 1e-6
        assert 0.4 - 1e-6 <= lo.value <= 0.4 + cap
        assert 0.4 - cap <= hi.value <= 0.4 + 1e-6

    def test_optimizer_columns_sum_to_zero(self, rng):
        data, model, G = random_instance(rng, num_classes=3)
        lo, hi = estimate_bounds(data, model, G)
        for est in (lo, hi):
            assert np.abs(est.optimizer.sum(axis=0)).max() <= 1e-9

    def test_reported_value_reproducible_from_optimizer(self, rng):
        data, model, G = random_instance(rng)
        cfg = SmoothingConfig()
        lo, hi = estimate_bounds(data, model, G, cfg)
        assert lo.value == pytest.approx(
            eval_objective(data, model, G, lo.optimizer, cfg, Side.LOWER), abs=1e-12
        )
        assert hi.value == pytest.approx(
            eval_objective(data, model, G, hi.optimizer, cfg, Side.UPPER), abs=1e-12
        )

    def test_invariant_to_sample_permutation(self, rng):
        data, model, G = random_instance(rng, n_max=40)
        perm = rng.permutation(data.n)
        from weakbounds import GMatrix

        data_p = DatasetView(n=data.n, z_ids=data.z_ids[perm])
        G_p = GMatrix(values=G.values[perm], sup_norm=G.sup_norm)
        lo, hi = estimate_bounds(data, model, G)
        lo_p, hi_p = estimate_bounds(data_p, model, G_p)
        assert lo_p.value == pytest.approx(lo.value, abs=1e-8)
        assert hi_p.value == pytest.approx(hi.value, abs=1e-8)

    def test_invariant_to_z_relabeling(self, rng):
        data, model, G = random_instance(rng, num_sig_max=4)
        num_z = model.num_signatures
        perm = rng.permutation(num_z)
        inv = np.argsort(perm)
        data_r = DatasetView(n=data.n, z_ids=inv[data.z_ids])
        model_r = LabelModel(table=model.table[perm])
        lo, hi = estimate_bounds(data, model, G)
        lo_r, hi_r = estimate_bounds(data_r, model_r, G)
        assert lo_r.value == pytest.approx(lo.value, abs=1e-8)
        assert hi_r.value == pytest.approx(hi.value, abs=1e-8)


class TestPluginStd:
    def test_equal_values_give_zero(self):
        data, model, G = two_point_instance(0.5)
        from weakbounds import GMatrix

        Gc = GMatrix(values=np.full((2, 2), 0.3), sup_norm=1.0)
        a = np.zeros((2, 1))
        assert plugin_std(data, model, Gc, a, SmoothingConfig(), Side.LOWER) == 0.0

    def test_two_point_sample_std(self, rng):
        # per-sample values {0, 1} with divisor n-1 give 1/sqrt(2)
        vals = np.array([0.0, 1.0])
        assert vals.std(ddof=1) == pytest.approx(0.7071068, abs=1e-7)

    def test_matches_direct_recomputation(self, rng):
        data, model, G = random_instance(rng)
        cfg = SmoothingConfig()
        a = rng.normal(size=(2, model.num_signatures))
        direct = float(
            per_sample_objective(data, model, G, a, cfg, Side.UPPER).std(ddof=1)
        )
        assert plugin_std(data, model, G, a, cfg, Side.UPPER) == pytest.approx(direct)

    def test_shift_invariance(self, rng):
        data, model, G = random_instance(rng)
        cfg = SmoothingConfig()
        a = rng.normal(size=(2, model.num_signatures))
        shift = rng.normal(size=(1, model.num_signatures))
        for side in Side:
            assert plugin_std(data, model, G, a + shift, cfg, side) == pytest.approx(
                plugin_std(data, model, G, a, cfg, side), abs=1e-10
            )

    def test_needs_two_samples(self):
        data = DatasetView(n=1, z_ids=np.array([0]))
        model = LabelModel(table=np.array([[0.5, 0.5]]))
        from weakbounds import GMatrix

        G = GMatrix(values=np.array([[0.0, 1.0]]), sup_norm=1.0)
        with pytest.raises(InsufficientSampleError):
            plugin_std(data, model, G, np.zeros((2, 1)), SmoothingConfig(), Side.LOWER)


class TestConfidenceInterval:
    def test_frozen_quantile_example(self):
        # standard-normal quantile at 0.975 is 1.959964
        est = make_estimate(0.5, 0.1, 100)
        ci = confidence_interval(est, 0.05)
        assert ci.low == pytest.approx(0.48040, abs=1e-5)
        assert ci.high == pytest.approx(0.51960, abs=1e-5)
        assert ci.level == pytest.approx(0.95)

    def test_zero_std_degenerate(self):
        est = make_estimate(0.3, 0.0, 50)
        ci = confidence_interval(est, 0.05)
        assert ci.low == ci.high == 0.3

    def test_gamma_032_half_width(self):
        # quantile at 0.84 is about 0.994458, so half-width is near std/sqrt(n)
        est = make_estimate(0.0, 1.0, 100)
        ci = confidence_interval(est, 0.32)
        assert ci.high == pytest.approx(0.0994458, abs=1e-6)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            confidence_interval(make_estimate(0.0, 1.0, 10), 0.0)


class TestEstimateClassPrior:
    def test_weighted_mean_over_samples(self):
        # P(1|A)=2/3, P(1|B)=1, sequence [A,A,B,B] -> (2/3+2/3+1+1)/4 = 5/6
        data = DatasetView(n=4, z_ids=np.array([0, 0, 1, 1]))
        model = LabelModel(table=np.array([[1 / 3, 2 / 3], [0.0, 1.0]]))
        assert estimate_class_prior(data, model, 1) == pytest.approx(5 / 6)

    def test_one_hot_model_counts_positives(self):
        data = DatasetView(n=3, z_ids=np.array([0, 1, 1]))
        model = LabelModel(table=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert estimate_class_prior(data, model, 1) == pytest.approx(2 / 3)

    def test_single_sample(self):
        data = DatasetView(n=1, z_ids=np.array([0]))
        model = LabelModel(table=np.array([[0.2, 0.8]]))
        assert estimate_class_prior(data, model, 1) == pytest.approx(0.8)


class TestSubsample:
    def test_full_size_is_identity(self, rng):
        data, _, _ = random_instance(rng)
        sub = subsample_for_bounds(data, data.n, seed=0)
        assert sub is data

    def test_too_small_rejected(self, rng):
        data, _, _ = random_instance(rng)
        with pytest.raises(ValueError):
            subsample_for_bounds(data, 0, seed=0)

    def test_deterministic_per_seed(self, rng):
        data, _, _ = random_instance(rng, n_max=50)
        n_target = max(2, data.n // 2)
        s1 = subsample_for_bounds(data, n_target, seed=9)
        s2 = subsample_for_bounds(data, n_target, seed=9)
        assert np.array_equal(s1.z_ids, s2.z_ids)


class TestSolverConvergence:
    def test_wide_sweep_converges_on_every_solve(self):
        # six labelers with frequent abstains: ~500 observed signatures at n = 1000
        spec = SynthSpec(
            n=1000, num_labelers=6, labeler_accuracies=(0.75,) * 6, abstain_rates=(0.3,) * 6
        )
        result = generate_synthetic(spec)
        assert result.table.num_signatures > 300
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
        for cfg in (SmoothingConfig(), TIGHT):
            lo, hi = estimate_bounds(result.data, model, g, cfg)
            assert lo.report.converged and hi.report.converged
            cap = cfg.epsilon * math.log(2)
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
        for est in estimate_bounds(result.data, result.model, g):
            assert est.report.converged
            assert est.report.final_gradient_norm <= 1e-8
