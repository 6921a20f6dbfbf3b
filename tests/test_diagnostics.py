import math

import numpy as np
import pytest

from weakbounds import (
    CoverageError,
    DatasetView,
    GMatrix,
    LabelModel,
    LabelSpace,
    MetricKind,
    MetricSpec,
    NumericalError,
    SelectionStrategy,
    SynthSpec,
    build_g,
    cell_table,
    conditional_entropy_y,
    default_epsilon,
    empirical_z_weights,
    estimate_bounds,
    exact_bounds,
    generate_synthetic,
    informativeness_bound,
    label_model_score,
    misspecification_report,
    select_model,
    tv_distance,
)
from conftest import g_values, random_instance, two_point_instance


class TestTvDistance:
    def test_quarter(self):
        assert tv_distance([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25)

    def test_identical(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_one_hots(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance([1.0], [0.5, 0.5])

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rows_of_two_tables_match_the_per_row_distance(self, rng, k):
        p, q = (rng.dirichlet(np.ones(k), size=5000) for _ in range(2))
        per_row = [tv_distance(a, b) for a, b in zip(p, q)]
        rows = tv_distance(p, q)
        assert rows.tolist() == per_row
        assert float(rows.max()) == max(per_row)


class TestConditionalEntropy:
    def test_one_hot_rows_zero(self):
        model = LabelModel(table=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert conditional_entropy_y(model, [0.5, 0.5]) == 0.0

    def test_uniform_rows_ln2(self):
        model = LabelModel(table=np.array([[0.5, 0.5]]))
        assert conditional_entropy_y(model, [1.0]) == pytest.approx(math.log(2))

    def test_frozen_three_quarters_row(self):
        # -(0.75 ln 0.75 + 0.25 ln 0.25) = 0.562335 nats
        model = LabelModel(table=np.array([[0.75, 0.25], [0.75, 0.25]]))
        assert conditional_entropy_y(model, [0.4, 0.6]) == pytest.approx(
            0.562335, abs=1e-6
        )

    def test_weights_must_be_probabilities(self):
        model = LabelModel(table=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            conditional_entropy_y(model, [0.7])


class TestInformativenessBound:
    def test_zero_entropy_collapses(self):
        assert informativeness_bound(1.0, 0.0) == 0.0

    def test_frozen_ln2_value(self):
        assert informativeness_bound(1.0, math.log(2)) == pytest.approx(
            2.35482, abs=1e-5
        )

    def test_split_sup_norm_keeps_every_small_value(self, rng):
        # the sup-norms of the built-in metrics and the loss tables: the split
        # square gives the bits of the plain one
        for g_sup in (1.0, 2.0, 3.0, 0.7, 123.456):
            for h in [0.0, math.log(2), math.log(3), *rng.uniform(0.0, 2.0, 50)]:
                assert informativeness_bound(g_sup, h) == float(np.sqrt(8.0 * g_sup**2 * h))

    def test_huge_sup_norm_does_not_overflow_its_square(self):
        h = math.log(2)
        assert informativeness_bound(1e200, h) == pytest.approx(1e200 * math.sqrt(8 * h),
                                                                rel=1e-15)
        with pytest.raises(NumericalError, match="beyond the float range"):
            informativeness_bound(1e308, h)

    def test_dominates_oracle_gap(self, rng):
        for _ in range(30):
            data, model, G = random_instance(rng, n_max=30)
            res = exact_bounds(data, model, G)
            w = empirical_z_weights(data, model.num_signatures)
            h = conditional_entropy_y(model, w)
            cap = informativeness_bound(float(np.abs(g_values(G)).max()), h)
            assert res.upper - res.lower <= cap + 1e-9


class TestMisspecification:
    def test_identical_models_zero_gap(self, rng):
        data, model, G = random_instance(rng)
        rep = misspecification_report(cell_table(data, model, G), model)
        assert rep.delta == 0.0
        assert rep.bound_gap_lower <= 1e-6
        assert rep.bound_gap_upper <= 1e-6

    def test_certificate_dominates_gaps(self, rng):
        for _ in range(20):
            data, model_p, G = random_instance(rng)
            t = rng.uniform(0, 0.5)
            mixed = (1 - t) * model_p.table + t * 0.5
            model_q = LabelModel(table=mixed)
            rep = misspecification_report(cell_table(data, model_p, G), model_q)
            expect_delta = max(
                tv_distance(model_p.table[z], model_q.table[z])
                for z in range(model_p.num_signatures)
            )
            assert rep.delta == pytest.approx(expect_delta)
            assert rep.within_certificate

    def test_both_models_solve_as_if_alone(self, rng):
        # the two models' four sides are one stacked solve
        data, model_p, G = random_instance(rng, num_sig_max=8)
        model_q = LabelModel(table=0.8 * model_p.table + 0.1)
        rep = misspecification_report(cell_table(data, model_p, G), model_q)
        alone = [
            *estimate_bounds(cell_table(data, model_p, G)),
            *estimate_bounds(cell_table(data, model_q, G)),
        ]
        for (_, est), single in zip(rep.solves, alone, strict=True):
            assert est.value == single.value and est.plugin_std == single.plugin_std
            assert np.array_equal(est.optimizer, single.optimizer)
            assert est.report == single.report

    @pytest.mark.parametrize("extra", [(1, 0), (0, 1)], ids=["signatures", "classes"])
    def test_models_of_another_shape_rejected(self, rng, extra):
        data, model_p, G = random_instance(rng)
        shape = np.add(model_p.table.shape, extra)
        model_q = LabelModel(table=np.full(shape, 1.0 / shape[1]))
        with pytest.raises(CoverageError, match="same signatures and classes"):
            misspecification_report(cell_table(data, model_p, G), model_q)

    def test_one_hot_vs_uniform_two_point(self):
        data, _, G = two_point_instance(0.5)
        one_hot = LabelModel(table=np.array([[0.0, 1.0]]))
        uniform = LabelModel(table=np.array([[0.5, 0.5]]))
        rep = misspecification_report(cell_table(data, one_hot, G), uniform)
        # oracle bounds: one-hot forces (0.5, 0.5); uniform gives (0, 1)
        slack = 2 * default_epsilon(2) * math.log(2) + 1e-4
        assert rep.bound_gap_lower == pytest.approx(0.5, abs=slack)
        assert rep.bound_gap_upper == pytest.approx(0.5, abs=slack)
        assert rep.within_certificate


class TestLabelModelScore:
    def test_one_hot_model_accuracy_agreement(self, rng):
        data, _, _ = random_instance(rng)
        num_z = int(data.z_ids.max()) + 1
        hot = rng.integers(0, 2, num_z)
        table = np.zeros((num_z, 2))
        table[np.arange(num_z), hot] = 1.0
        model = LabelModel(table=table)
        preds = rng.integers(0, 2, data.n)
        from weakbounds import LabelSpace

        d = DatasetView(n=data.n, z_ids=data.z_ids, predictions=preds)
        g = build_g(d, MetricSpec(MetricKind.ACCURACY), LabelSpace(num_classes=2))
        expect = float(np.mean(preds == hot[data.z_ids]))
        assert label_model_score(cell_table(d, model, g)) == pytest.approx(expect)

    def test_uniform_model_accuracy_half(self, rng):
        data, _, _ = random_instance(rng)
        num_z = int(data.z_ids.max()) + 1
        model = LabelModel(table=np.full((num_z, 2), 0.5))
        preds = rng.integers(0, 2, data.n)
        from weakbounds import LabelSpace

        d = DatasetView(n=data.n, z_ids=data.z_ids, predictions=preds)
        g = build_g(d, MetricSpec(MetricKind.ACCURACY), LabelSpace(num_classes=2))
        assert label_model_score(cell_table(d, model, g)) == pytest.approx(0.5)

    def test_contained_in_oracle_bounds(self, rng):
        for _ in range(30):
            data, model, G = random_instance(rng, n_max=30, num_classes=3)
            res = exact_bounds(data, model, G)
            score = label_model_score(cell_table(data, model, G))
            assert res.lower - 1e-9 <= score <= res.upper + 1e-9


    def test_matches_per_sample_mean(self, rng):
        # the per-sample einsum this cell-table sum replaced
        per_sample = lambda d, m, g: np.einsum("iy,iy->i", g_values(g), m.table[d.z_ids]).mean()
        for _ in range(30):
            data, model, G = random_instance(rng, n_max=60, num_classes=3)
            score = label_model_score(cell_table(data, model, G))
            assert abs(score - per_sample(data, model, G)) <= 1e-12
        result = generate_synthetic(SynthSpec(n=5000, seed=2))
        specs = [MetricSpec(MetricKind.ACCURACY), MetricSpec(MetricKind.JOINT_POSITIVE),
                 MetricSpec(MetricKind.RISK, loss_table=[[0.0, 1.0], [3.0, 0.5]])]
        for spec in specs:
            G = build_g(result.data, spec, LabelSpace(num_classes=2))
            got = label_model_score(cell_table(result.data, result.model, G))
            assert abs(got - per_sample(result.data, result.model, G)) <= 1e-12


class TestSelectModel:
    CANDS = [(0.6, 0.9, 0.7), (0.7, 0.8, 0.76)]

    def test_lower_strategy(self):
        assert select_model(self.CANDS, SelectionStrategy.LOWER).chosen_index == 1

    def test_upper_strategy(self):
        assert select_model(self.CANDS, SelectionStrategy.UPPER).chosen_index == 0

    def test_average_tie_breaks_low(self):
        res = select_model(self.CANDS, SelectionStrategy.AVERAGE)
        assert res.scores == (0.75, 0.75)
        assert res.chosen_index == 0

    def test_label_model_strategy(self):
        assert (
            select_model(self.CANDS, SelectionStrategy.LABEL_MODEL).chosen_index == 1
        )

    def test_single_candidate(self):
        for strategy in SelectionStrategy:
            assert select_model([(0.1, 0.2, 0.3)], strategy).chosen_index == 0

    def test_dominated_candidate_never_wins(self):
        extended = self.CANDS + [(0.5, 0.7, 0.6)]
        for strategy in SelectionStrategy:
            assert (
                select_model(extended, strategy).chosen_index
                == select_model(self.CANDS, strategy).chosen_index
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_model([], SelectionStrategy.LOWER)
