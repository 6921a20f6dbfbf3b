import numpy as np
import pytest

from weakbounds import (
    MetricKind,
    MetricSpec,
    LabelSpace,
    SynthSpec,
    build_g,
    coverage_experiment,
    exact_bounds,
    exact_posterior_y1,
    generate_synthetic,
)


class TestSynthSpec:
    def test_accuracy_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n=10, num_labelers=2, labeler_accuracies=(0.8,), abstain_rates=(0.1, 0.1))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n=10, num_labelers=1, labeler_accuracies=(1.2,), abstain_rates=(0.0,))

    def test_abstain_rate_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one abstain rate per labeler"):
            SynthSpec(n=10, num_labelers=1, labeler_accuracies=(0.8,), abstain_rates=(0.1, 0.1))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="need n >= 2"):
            SynthSpec(n=1)

    @pytest.mark.parametrize("field", ["score_separation", "threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_parameter_rejected(self, field, value):
        # a NaN separation gives every sample a NaN score
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SynthSpec(n=10, **{field: value})


class TestExactPosterior:
    def test_uninformative_labelers_return_prior(self):
        spec = SynthSpec(
            n=10, num_labelers=2, labeler_accuracies=(0.5, 0.5),
            abstain_rates=(0.0, 0.0), prior_y1=0.3,
        )
        for sig in [(0, 0), (1, 0), (1, 1), (-1, 1)]:
            assert exact_posterior_y1(sig, spec) == pytest.approx(0.3)

    def test_perfect_labeler_is_one_hot(self):
        spec = SynthSpec(
            n=10, num_labelers=1, labeler_accuracies=(1.0,), abstain_rates=(0.0,),
        )
        assert exact_posterior_y1((1,), spec) == 1.0
        assert exact_posterior_y1((0,), spec) == 0.0

    def test_abstains_are_ignored(self):
        spec = SynthSpec(
            n=10, num_labelers=2, labeler_accuracies=(0.8, 0.7),
            abstain_rates=(0.5, 0.5),
        )
        assert exact_posterior_y1((1, -1), spec) == exact_posterior_y1(
            (1, -1), spec
        )
        one_labeler = SynthSpec(
            n=10, num_labelers=1, labeler_accuracies=(0.8,), abstain_rates=(0.0,),
        )
        assert exact_posterior_y1((1, -1), spec) == pytest.approx(
            exact_posterior_y1((1,), one_labeler)
        )

    def test_bayes_rule_single_labeler(self):
        spec = SynthSpec(
            n=10, num_labelers=1, labeler_accuracies=(0.8,), abstain_rates=(0.0,),
            prior_y1=0.5,
        )
        assert exact_posterior_y1((1,), spec) == pytest.approx(0.8)
        assert exact_posterior_y1((0,), spec) == pytest.approx(0.2)


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        spec = SynthSpec(n=100, seed=3)
        r1 = generate_synthetic(spec)
        r2 = generate_synthetic(spec)
        assert np.array_equal(r1.data.scores, r2.data.scores)
        assert np.array_equal(r1.data.z_ids, r2.data.z_ids)
        assert r1.true_metrics == r2.true_metrics

    def test_perfect_labelers_collapse_oracle_to_truth(self):
        spec = SynthSpec(
            n=80,
            num_labelers=2,
            labeler_accuracies=(1.0, 1.0),
            abstain_rates=(0.0, 0.0),
            seed=5,
        )
        result = generate_synthetic(spec)
        assert np.all((result.model.table == 0) | (result.model.table == 1))
        g = build_g(
            result.data, MetricSpec(MetricKind.ACCURACY), LabelSpace(num_classes=2)
        )
        res = exact_bounds(result.data, result.model, g)
        assert res.lower == pytest.approx(result.true_metrics["accuracy"], abs=1e-12)
        assert res.upper == pytest.approx(result.true_metrics["accuracy"], abs=1e-12)

    def test_model_rows_match_closed_form(self):
        spec = SynthSpec(n=60, seed=1)
        result = generate_synthetic(spec)
        for z, sig in enumerate(result.table.signatures):
            assert result.model.table[z, 1] == pytest.approx(
                exact_posterior_y1(sig, spec)
            )

    def test_true_metrics_consistent(self):
        result = generate_synthetic(SynthSpec(n=200, seed=2))
        m = result.true_metrics
        y = result.data.labels
        h = result.data.predictions
        assert m["accuracy"] == pytest.approx(np.mean(h == y))
        assert m["joint_positive"] == pytest.approx(np.mean((h == 1) & (y == 1)))
        assert m["f1"] == pytest.approx(
            2 * m["joint_positive"] / (m["p_h1"] + m["p_y1"])
        )


class TestCoverageExperiment:
    def test_too_few_replications_rejected(self):
        with pytest.raises(ValueError):
            coverage_experiment(SynthSpec(n=50), replications=50, gamma=0.05)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            coverage_experiment(SynthSpec(n=50), replications=100, gamma=0.0)

    def test_mid_level_coverage_tracks_gamma(self):
        # gamma = 0.5 -> coverage near 0.5 within Monte-Carlo error
        spec = SynthSpec(n=300, seed=11)
        report = coverage_experiment(spec, replications=100, gamma=0.5, truth_factor=50)
        band = 5 * max(report.se_lower, 0.05)
        assert abs(report.coverage_lower - 0.5) <= band
        assert report.replications == 100
