import numpy as np
import pytest

from weakbounds import (
    DatasetView,
    FormatError,
    GMatrix,
    LabelModel,
    LabelSpace,
    MetricKind,
    MetricSpec,
    bound_rows,
    build_g,
    cell_table,
    default_epsilon,
    estimate_bounds,
    positive_margins,
    threshold_sweep,
)
from conftest import g_values, random_instance

SPACE2 = LabelSpace(num_classes=2)


def fake_estimates(lower_value, upper_value, lower_std=0.1, upper_std=0.2, n=100):
    from weakbounds import BoundEstimate, Side, SolveReport

    rep = SolveReport(iterations=0, final_gradient_norm=0.0, converged=True)
    mk = lambda side, v, s: BoundEstimate(
        side=side, value=v, optimizer=np.zeros((2, 1)), plugin_std=s, n=n,
        report=rep, epsilon=0.01,
    )
    return mk(Side.LOWER, lower_value, lower_std), mk(Side.UPPER, upper_value, upper_std)


class TestBuildG:
    def test_accuracy_row_is_indicator(self):
        data = DatasetView(n=1, z_ids=np.array([0]), predictions=np.array([1]))
        g = build_g(data, MetricSpec(MetricKind.ACCURACY), SPACE2)
        assert list(g_values(g)[0]) == [0.0, 1.0]

    def test_joint_positive_negative_prediction_kills_row(self):
        data = DatasetView(n=1, z_ids=np.array([0]), predictions=np.array([0]))
        g = build_g(data, MetricSpec(MetricKind.JOINT_POSITIVE), SPACE2)
        assert list(g_values(g)[0]) == [0.0, 0.0]

    def test_zero_one_loss_complements_accuracy(self):
        data = DatasetView(
            n=4, z_ids=np.zeros(4, dtype=int), predictions=np.array([0, 1, 1, 0])
        )
        loss = 1.0 - np.eye(2)
        g_risk = build_g(data, MetricSpec(MetricKind.RISK, loss_table=loss), SPACE2)
        g_acc = build_g(data, MetricSpec(MetricKind.ACCURACY), SPACE2)
        assert g_values(g_risk) + g_values(g_acc) == pytest.approx(np.ones((4, 2)))

    def test_risk_requires_loss_table(self):
        with pytest.raises(ValueError):
            MetricSpec(MetricKind.RISK)

    def test_joint_positive_needs_binary(self):
        data = DatasetView(n=1, z_ids=np.array([0]), predictions=np.array([0]))
        with pytest.raises(ValueError):
            build_g(data, MetricSpec(MetricKind.JOINT_POSITIVE), LabelSpace(num_classes=3))

    def test_threshold_rule_ties_positive(self):
        data = DatasetView(n=2, z_ids=np.array([0, 0]), scores=np.array([0.5, 0.49]))
        g = build_g(data, MetricSpec(MetricKind.ACCURACY, threshold=0.5), SPACE2)
        assert list(g_values(g)[:, 1]) == [1.0, 0.0]

    def test_missing_predictions_rejected(self):
        data = DatasetView(n=1, z_ids=np.array([0]))
        with pytest.raises(FormatError):
            build_g(data, MetricSpec(MetricKind.ACCURACY), SPACE2)

    def test_nan_score_rejected_with_threshold(self):
        # a NaN fails score >= t, so it would be counted as a negative
        scores = np.array([0.7, np.nan, 0.2, 0.9])
        data = DatasetView(n=4, z_ids=np.zeros(4, dtype=int), scores=scores)
        with pytest.raises(FormatError, match="scores must not be NaN"):
            build_g(data, MetricSpec(MetricKind.ACCURACY, threshold=0.5), SPACE2)


class TestEstimateH1:
    """P(h=1) read from a joint_positive cell table."""

    @staticmethod
    def _p_h1(data, threshold=None):
        model = LabelModel(table=[[0.5, 0.5]])
        g = build_g(data, MetricSpec(MetricKind.JOINT_POSITIVE, threshold=threshold), SPACE2)
        return positive_margins(cell_table(data, model, g))[0]

    def test_counts_positives(self):
        data = DatasetView(n=4, z_ids=np.zeros(4, dtype=int), predictions=np.array([1, 0, 1, 1]))
        assert self._p_h1(data) == pytest.approx(0.75)

    def test_all_zero(self):
        data = DatasetView(n=3, z_ids=np.zeros(3, dtype=int), predictions=np.zeros(3, dtype=int))
        assert self._p_h1(data) == 0.0

    def test_threshold_rule(self):
        data = DatasetView(n=2, z_ids=np.zeros(2, dtype=int), scores=np.array([0.2, 0.6]))
        assert self._p_h1(data, threshold=0.5) == pytest.approx(0.5)


def prf_rows(lower, upper, p_h1, p_y1):
    """The precision, recall and F1 rows that ``bound_rows`` derives from a joint pair."""
    rows = bound_rows(lower, upper, "joint_positive", ("precision", "recall", "f1"), 0.05,
                      p_h1, p_y1)
    return {row.metric: row for row in rows}


class TestPrfFromJoint:
    def test_direct_arithmetic(self):
        lo, hi = fake_estimates(0.2, 0.3)
        prf = prf_rows(lo, hi, p_h1=0.5, p_y1=0.4)
        assert prf["precision"].lower == pytest.approx(0.4)
        assert prf["recall"].lower == pytest.approx(0.5)
        assert prf["f1"].lower == pytest.approx(2 * 0.2 / 0.9)

    def test_zero_joint_lower(self):
        lo, hi = fake_estimates(0.0, 0.3)
        prf = prf_rows(lo, hi, p_h1=0.5, p_y1=0.4)
        assert prf["precision"].lower == 0.0
        assert prf["recall"].lower == 0.0
        assert prf["f1"].lower == 0.0

    def test_clamping_flagged(self):
        lo, hi = fake_estimates(0.2, 0.75)
        prf = prf_rows(lo, hi, p_h1=0.5, p_y1=0.5)
        # raw precision upper 1.5 clamps to 1
        assert prf["precision"].upper == 1.0
        assert prf["precision"].clamped
        assert not prf["recall"].clamped or prf["recall"].upper <= 1.0

    def test_std_scaling_exact(self):
        lo, hi = fake_estimates(0.2, 0.3, lower_std=0.05, upper_std=0.07)
        p_h1, p_y1 = 0.5, 0.4
        prf = prf_rows(lo, hi, p_h1, p_y1)
        assert prf["precision"].lower_std == (1.0 / p_h1) * 0.05
        assert prf["recall"].lower_std == (1.0 / p_y1) * 0.05
        assert prf["f1"].lower_std == (2.0 / (p_h1 + p_y1)) * 0.05
        assert prf["f1"].upper_std == (2.0 / (p_h1 + p_y1)) * 0.07

    def test_homogeneity(self):
        lo1, hi1 = fake_estimates(0.1, 0.2)
        lo2, hi2 = fake_estimates(0.2, 0.4)
        a = prf_rows(lo1, hi1, p_h1=0.9, p_y1=0.9)
        b = prf_rows(lo2, hi2, p_h1=0.9, p_y1=0.9)
        assert b["precision"].lower == pytest.approx(2 * a["precision"].lower)
        assert b["recall"].lower == pytest.approx(2 * a["recall"].lower)
        assert b["f1"].lower == pytest.approx(2 * a["f1"].lower)


def sweep_fixture(rng, n=40):
    data, model, _ = random_instance(rng, n_max=n)
    scores = rng.uniform(0, 1, data.n)
    return (
        DatasetView(n=data.n, z_ids=data.z_ids, scores=scores),
        model,
    )


class TestThresholdSweep:
    def test_threshold_below_min_makes_recall_joint_over_prior(self, rng):
        data, model = sweep_fixture(rng)
        sweep = threshold_sweep(
            data, model, [-0.1], ["joint_positive", "recall"], default_epsilon(2)
        )
        rows = {r.metric: r for r in sweep.rows}
        p_y1 = model.table[data.z_ids, 1].mean()
        expected = min(max(rows["joint_positive"].lower / p_y1, 0.0), 1.0)
        assert rows["recall"].lower == pytest.approx(expected, abs=1e-9)

    def test_threshold_above_max_collapses_joint(self, rng):
        data, model = sweep_fixture(rng)
        epsilon = default_epsilon(2)
        sweep = threshold_sweep(data, model, [1.1], ["joint_positive"], epsilon)
        row = sweep.rows[0]
        # exact bounds are [0, 0]; the smoothed values carry only smoothing slack
        import math

        cap = epsilon * math.log(2) + 1e-6
        assert -1e-6 <= row.lower <= cap
        assert -cap <= row.upper <= 1e-6

    def test_no_positive_prediction_drops_only_precision(self, rng):
        # P(h=1) = 0 leaves recall and F1 defined; the sweep dropped all three
        data, model = sweep_fixture(rng)
        sweep = threshold_sweep(data, model, [1.1], ["precision", "recall", "f1"])
        assert [r.metric for r in sweep.rows] == ["recall", "f1"]

    def test_no_positive_label_drops_only_recall(self, rng):
        data, model = sweep_fixture(rng)
        never_positive = LabelModel(table=np.tile([1.0, 0.0], (model.num_signatures, 1)))
        sweep = threshold_sweep(data, never_positive, [0.5], ["precision", "recall", "f1"])
        assert [r.metric for r in sweep.rows] == ["precision", "f1"]

    def test_matches_independent_estimates(self, rng):
        data, model = sweep_fixture(rng)
        epsilon = default_epsilon(2)
        sweep = threshold_sweep(data, model, [0.25, 0.75], ["accuracy"], epsilon)
        assert [r.threshold for r in sweep.rows] == [0.25, 0.75]
        for row in sweep.rows:
            at_t = DatasetView(
                n=data.n,
                z_ids=data.z_ids,
                scores=data.scores,
                predictions=(data.scores >= row.threshold).astype(np.int64),
            )
            g = build_g(at_t, MetricSpec(MetricKind.ACCURACY), SPACE2)
            lo, hi = estimate_bounds(cell_table(at_t, model, g), epsilon)
            assert row.lower == pytest.approx(lo.value, abs=1e-12)
            assert row.upper == pytest.approx(hi.value, abs=1e-12)

    def test_unknown_metric_rejected(self, rng):
        data, model = sweep_fixture(rng)
        with pytest.raises(ValueError):
            threshold_sweep(data, model, [0.5], ["auc"])

    def test_view_with_mismatched_lengths_rejected(self, rng):
        data, model = sweep_fixture(rng)
        # a view whose constructor checks were bypassed: each threshold's view
        # is built again through the constructor, which rejects it
        object.__setattr__(data, "scores", data.scores[:-1])
        with pytest.raises(FormatError, match="scores length must equal n"):
            threshold_sweep(data, model, [0.5], ["accuracy"])

    def test_nan_score_rejected(self, rng):
        data, model = sweep_fixture(rng)
        scores = data.scores.copy()
        scores[3] = np.nan
        data = DatasetView(n=data.n, z_ids=data.z_ids, scores=scores)
        # a NaN sorts above every threshold, so counting it would make it positive
        with pytest.raises(FormatError, match="scores must not be NaN"):
            threshold_sweep(data, model, [0.5], ["accuracy"])

    def test_needs_scores(self, rng):
        data, model, _ = random_instance(rng)
        with pytest.raises(FormatError):
            threshold_sweep(data, model, [0.5], ["accuracy"])


class TestAccuracyRange:
    def test_bounds_inside_unit_interval_up_to_smoothing(self, rng):
        import math

        epsilon = default_epsilon(2)
        for _ in range(10):
            data, model, _ = random_instance(rng)
            preds = rng.integers(0, 2, data.n)
            d = DatasetView(n=data.n, z_ids=data.z_ids, predictions=preds)
            g = build_g(d, MetricSpec(MetricKind.ACCURACY), SPACE2)
            lo, hi = estimate_bounds(cell_table(d, model, g), epsilon)
            slack = epsilon * math.log(2) + 1e-6
            assert -slack <= lo.value and hi.value <= 1.0 + slack

    def test_one_hot_model_matches_direct_accuracy(self, rng):
        import math

        data, _, _ = random_instance(rng)
        num_z = int(data.z_ids.max()) + 1
        hot = rng.integers(0, 2, num_z)
        table = np.zeros((num_z, 2))
        table[np.arange(num_z), hot] = 1.0
        model = LabelModel(table=table)
        preds = rng.integers(0, 2, data.n)
        d = DatasetView(n=data.n, z_ids=data.z_ids, predictions=preds)
        g = build_g(d, MetricSpec(MetricKind.ACCURACY), SPACE2)
        epsilon = default_epsilon(2)
        lo, hi = estimate_bounds(cell_table(d, model, g), epsilon)
        direct = float(np.mean(preds == hot[data.z_ids]))
        slack = epsilon * math.log(2) + 1e-5
        assert abs(lo.value - direct) <= slack
        assert abs(hi.value - direct) <= slack
