import itertools
import math

import numpy as np
import pytest

from weakbounds import (
    MetricKind,
    MetricSpec,
    LabelModel,
    LabelSpace,
    SynthSpec,
    build_g,
    cells_from_counts,
    coverage_experiment,
    exact_bounds,
    generate_synthetic,
)
from weakbounds.bounds import solve_bounds
from weakbounds.synth import class_likelihoods, population


def posterior_y1(signatures, spec):
    """P(Y=1 | Z) of each signature, from the closed-form class products."""
    like = class_likelihoods(np.array(signatures), spec)
    return like[1] / like.sum(axis=0)


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
        sigs = [(0, 0), (1, 0), (1, 1), (-1, 1)]
        assert posterior_y1(sigs, spec) == pytest.approx([0.3] * 4)

    def test_perfect_labeler_is_one_hot(self):
        spec = SynthSpec(
            n=10, num_labelers=1, labeler_accuracies=(1.0,), abstain_rates=(0.0,),
        )
        assert posterior_y1([(1,), (0,)], spec).tolist() == [1.0, 0.0]

    def test_abstains_are_ignored(self):
        spec = SynthSpec(
            n=10, num_labelers=2, labeler_accuracies=(0.8, 0.7),
            abstain_rates=(0.5, 0.5),
        )
        one_labeler = SynthSpec(
            n=10, num_labelers=1, labeler_accuracies=(0.8,), abstain_rates=(0.0,),
        )
        # the abstain factor is left out, so the products are the same to the bit
        assert np.array_equal(
            class_likelihoods(np.array([(1, -1)]), spec),
            class_likelihoods(np.array([(1,)]), one_labeler),
        )

    def test_bayes_rule_single_labeler(self):
        spec = SynthSpec(
            n=10, num_labelers=1, labeler_accuracies=(0.8,), abstain_rates=(0.0,),
            prior_y1=0.5,
        )
        assert posterior_y1([(1,), (0,)], spec) == pytest.approx([0.8, 0.2])


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
        for z, sig in enumerate(result.table):
            # one labeler at a time, in Python floats
            like = [1.0 - spec.prior_y1, spec.prior_y1]
            for v, acc in zip(sig, spec.labeler_accuracies):
                if v != -1:
                    like = [like[y] * (acc if v == y else 1.0 - acc) for y in (0, 1)]
            assert result.model.table[z, 1] == like[1] / sum(like)

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
        report = coverage_experiment(spec, replications=100, gamma=0.5)
        band = 5 * max(report.se_lower, 0.05)
        assert abs(report.coverage_lower - 0.5) <= band
        assert report.replications == 100

    def test_more_than_ten_labelers_rejected(self):
        spec = SynthSpec(n=50, num_labelers=11, labeler_accuracies=(0.7,) * 11,
                         abstain_rates=(0.1,) * 11)
        with pytest.raises(ValueError, match="at most 10 labelers"):
            coverage_experiment(spec, replications=100, gamma=0.05)

    def test_replication_holds_only_the_signatures_it_drew(self):
        # as a sample's own table does; all 3^K columns per replication cost
        # time and memory at many labelers
        spec = SynthSpec(n=50, num_labelers=6, labeler_accuracies=(0.7,) * 6,
                         abstain_rates=(0.1,) * 6)
        report = coverage_experiment(spec, replications=100, gamma=0.05)
        widths = [est.optimizer.shape[1] for _, est in report.solves]
        assert widths[:2] == [3**6, 3**6]  # every vote tuple has mass
        assert len(widths) == 202 and max(widths[2:]) <= 50

    def test_truth_is_the_bound_of_the_population(self):
        # the population cells built here one tuple at a time, in Python floats
        spec = SynthSpec(n=500, num_labelers=2, labeler_accuracies=(0.8, 0.65),
                         abstain_rates=(0.2, 0.1), prior_y1=0.4, score_separation=0.3,
                         threshold=0.55, seed=4)
        p_pos = [0.5 * math.erfc((0.55 - (0.5 + 0.3 * (y - 0.5))) / (0.15 * math.sqrt(2)))
                 for y in (0, 1)]
        counts, rows = [], []
        for sig in itertools.product((-1, 0, 1), repeat=2):
            joint = [0.6, 0.4]  # P(Y=y, Z=sig)
            for v, acc, rate in zip(sig, spec.labeler_accuracies, spec.abstain_rates):
                for y in (0, 1):
                    joint[y] *= rate if v == -1 else (1 - rate) * (acc if v == y else 1 - acc)
            p_z = sum(joint)
            counts += [spec.n * sum(j * (1 - p) for j, p in zip(joint, p_pos)),
                       spec.n * sum(j * p for j, p in zip(joint, p_pos))]
            rows.append([joint[0] / p_z, joint[1] / p_z])
        z = np.repeat(np.arange(9), 2)
        cells = cells_from_counts(z, np.tile([0, 1], 9), np.array(counts), np.eye(2),
                                  LabelModel(np.array(rows)))
        ((lo, hi),) = solve_bounds([cells])
        report = coverage_experiment(spec, replications=100, gamma=0.05)
        assert report.truth_lower == pytest.approx(lo.value, abs=1e-9)
        assert report.truth_upper == pytest.approx(hi.value, abs=1e-9)
        assert 0.0 < report.truth_lower < report.truth_upper < 1.0


class TestPopulation:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"threshold": 0.0}, {"threshold": 1.5}, {"threshold": -2.0},
         {"num_labelers": 2, "labeler_accuracies": (1.0, 0.5), "abstain_rates": (0.0, 1.0)}],
        ids=["default", "threshold-0", "threshold-above-1", "threshold-below-0", "extreme"],
    )
    def test_masses_sum_to_one(self, kwargs):
        mass, posterior = population(SynthSpec(n=10, **kwargs))
        k = kwargs.get("num_labelers", 3)
        assert mass.shape == (3**k, 2) and posterior.shape == (3**k, 2)
        assert mass.min() >= 0.0
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(posterior.sum(axis=1), 1.0)

    @pytest.mark.parametrize("threshold", [0.5, 0.3, 1.0, 0.0, 1.5])
    def test_masses_match_the_generator(self, threshold):
        # the (signature, prediction) cell frequencies of a large generated sample
        spec = SynthSpec(n=200_000, seed=8, threshold=threshold,
                         labeler_accuracies=(0.8, 0.7, 0.55), abstain_rates=(0.1, 0.3, 0.0))
        mass, posterior = population(spec)
        result = generate_synthetic(spec)
        # a vote tuple's row in product order over (-1, 0, 1): base 3 in vote + 1
        index = np.array([int("".join(str(v + 1) for v in sig), 3)
                          for sig in result.table])
        cell = index[result.data.z_ids] * 2 + result.data.predictions
        freq = np.bincount(cell, minlength=mass.size) / spec.n
        se = np.sqrt(mass.ravel() * (1 - mass.ravel()) / spec.n)
        assert np.all(np.abs(freq - mass.ravel()) <= 5 * se + 1e-12)
        # the generator's label model is the population's row of each signature
        assert np.array_equal(result.model.table, LabelModel(posterior[index]).table)
