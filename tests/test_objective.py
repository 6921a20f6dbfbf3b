import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbounds import (
    DatasetView,
    GMatrix,
    LabelModel,
    Side,
    SmoothingConfig,
    center_columns,
    eval_objective,
    gradient,
    hessian,
    minimized_value,
    per_sample_objective,
    soft_extreme,
)
from conftest import random_instance


class TestSmoothingConfig:
    def test_default_epsilon_binary(self):
        assert SmoothingConfig().epsilon == pytest.approx(0.01 / math.log(2))

    def test_for_classes(self):
        assert SmoothingConfig.for_classes(3).epsilon == pytest.approx(
            0.01 / math.log(3)
        )

    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            SmoothingConfig(epsilon=1e-9)


class TestSoftExtreme:
    def test_constant_list(self):
        assert soft_extreme([2.5] * 4, 0.1, Side.LOWER) == pytest.approx(2.5)
        assert soft_extreme([2.5] * 4, 0.1, Side.UPPER) == pytest.approx(2.5)

    def test_soft_min_of_zero_one(self):
        # direct evaluation: -0.5 * ln(0.5 * (1 + exp(-2)))
        expect = -0.5 * math.log(0.5 * (1.0 + math.exp(-2.0)))
        assert soft_extreme([0.0, 1.0], 0.5, Side.LOWER) == pytest.approx(
            expect, abs=1e-12
        )
        assert expect == pytest.approx(0.2831096, abs=1e-6)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sandwich_property(self, values, eps):
        k = len(values)
        lo = soft_extreme(values, eps, Side.LOWER)
        hi = soft_extreme(values, eps, Side.UPPER)
        assert min(values) - 1e-9 <= lo <= min(values) + eps * math.log(k) + 1e-9
        assert max(values) - eps * math.log(k) - 1e-9 <= hi <= max(values) + 1e-9


class TestEvalObjective:
    def test_zero_g_zero_a(self, rng):
        data, model, G = random_instance(rng)
        G0 = GMatrix(values=np.zeros_like(G.values), sup_norm=0.0)
        a = np.zeros((model.num_classes, model.num_signatures))
        cfg = SmoothingConfig()
        assert eval_objective(data, model, G0, a, cfg, Side.LOWER) == pytest.approx(0.0)
        assert eval_objective(data, model, G0, a, cfg, Side.UPPER) == pytest.approx(0.0)

    def test_one_hot_model_zero_a_upper_closed_form(self):
        # binary, deterministic Y|Z: at a=0 the upper objective is the
        # log-mean-exp of the two g values per sample, averaged
        data = DatasetView(n=2, z_ids=np.array([0, 0]))
        model = LabelModel(table=np.array([[0.0, 1.0]]))
        G = GMatrix(values=np.array([[0.3, 0.7], [0.1, 0.2]]), sup_norm=1.0)
        cfg = SmoothingConfig(epsilon=0.05)
        a = np.zeros((2, 1))
        expect = np.mean(
            [
                0.05 * np.log(0.5 * np.exp(r[0] / 0.05) + 0.5 * np.exp(r[1] / 0.05))
                for r in G.values
            ]
        )
        got = eval_objective(data, model, G, a, cfg, Side.UPPER)
        assert got == pytest.approx(float(expect), abs=1e-10)

    def test_shift_invariance(self, rng):
        for _ in range(20):
            data, model, G = random_instance(rng, num_classes=3)
            a = rng.normal(size=(3, model.num_signatures))
            shift = rng.normal(size=(1, model.num_signatures))
            cfg = SmoothingConfig.for_classes(3)
            for side in Side:
                v0 = eval_objective(data, model, G, a, cfg, side)
                v1 = eval_objective(data, model, G, a + shift, cfg, side)
                assert v1 == pytest.approx(v0, abs=1e-12)

    def test_per_sample_sandwich_vs_hard_extreme(self, rng):
        # the smoothed per-sample value brackets the hard dual value from inside
        for _ in range(20):
            data, model, G = random_instance(rng, num_classes=3)
            a = rng.normal(size=(3, model.num_signatures))
            cfg = SmoothingConfig.for_classes(3, target_error=0.05)
            shifted = G.values + a.T[data.z_ids]
            lm = np.einsum("zy,yz->z", model.table, a)[data.z_ids]
            cap = cfg.epsilon * math.log(3)
            lo = per_sample_objective(data, model, G, a, cfg, Side.LOWER)
            hard_lo = shifted.min(axis=1) - lm
            assert np.all(lo >= hard_lo - 1e-9)
            assert np.all(lo <= hard_lo + cap + 1e-9)
            hi = per_sample_objective(data, model, G, a, cfg, Side.UPPER)
            hard_hi = shifted.max(axis=1) - lm
            assert np.all(hi <= hard_hi + 1e-9)
            assert np.all(hi >= hard_hi - cap - 1e-9)


class TestPenalized:
    """The solved function needs no column-sum penalty: it is shift invariant and convex."""

    def test_centered_a_has_no_penalty(self, rng):
        data, model, G = random_instance(rng)
        a = rng.normal(size=(2, model.num_signatures))
        cfg = SmoothingConfig()
        for side in Side:
            assert minimized_value(data, model, G, center_columns(a), cfg, side) == pytest.approx(
                minimized_value(data, model, G, a, cfg, side), abs=1e-12
            )

    def test_upper_penalized_is_convex(self, rng):
        for _ in range(20):
            data, model, G = random_instance(rng)
            a1 = rng.normal(size=(2, model.num_signatures))
            a2 = rng.normal(size=(2, model.num_signatures))
            t = rng.uniform(0.05, 0.95)
            cfg = SmoothingConfig()
            for side in Side:
                f = lambda a: minimized_value(data, model, G, a, cfg, side)
                assert f(t * a1 + (1 - t) * a2) <= t * f(a1) + (1 - t) * f(a2) + 1e-10


class TestGradient:
    def test_constant_g_uniform_model_zero_gradient(self):
        data = DatasetView(n=4, z_ids=np.array([0, 0, 1, 1]))
        model = LabelModel(table=np.array([[0.5, 0.5], [0.5, 0.5]]))
        G = GMatrix(values=np.full((4, 2), 0.3), sup_norm=1.0)
        a = np.zeros((2, 2))
        for side in Side:
            g = gradient(data, model, G, a, SmoothingConfig(), side)
            assert np.abs(g).max() <= 1e-14

    def test_column_sum_identity(self, rng):
        # weight rows and label-model rows sum to one, so every column sums to zero
        for _ in range(20):
            data, model, G = random_instance(rng, num_classes=3)
            a = rng.normal(size=(3, model.num_signatures))
            cfg = SmoothingConfig.for_classes(3)
            for side in Side:
                g = gradient(data, model, G, a, cfg, side)
                assert g.sum(axis=0) == pytest.approx(np.zeros(model.num_signatures), abs=1e-15)

    def test_matches_central_finite_differences(self, rng):
        h = 1e-5
        for _ in range(30):
            k = int(rng.integers(2, 4))
            data, model, G = random_instance(rng, num_classes=k)
            a = rng.normal(scale=0.5, size=(k, model.num_signatures))
            cfg = SmoothingConfig.for_classes(k)
            for side in Side:
                analytic = gradient(data, model, G, a, cfg, side)
                fd = np.zeros_like(a)
                for idx in np.ndindex(a.shape):
                    ap, am = a.copy(), a.copy()
                    ap[idx] += h
                    am[idx] -= h
                    fd[idx] = (
                        minimized_value(data, model, G, ap, cfg, side)
                        - minimized_value(data, model, G, am, cfg, side)
                    ) / (2 * h)
                scale = max(1.0, float(np.abs(fd).max()))
                assert np.abs(analytic - fd).max() / scale <= 1e-5


class TestHessian:
    def test_matches_central_differences_of_gradient(self):
        rng = np.random.default_rng(303)
        h = 1e-5
        worst = 0.0
        for trial in range(100):
            k = int(rng.integers(2, 4))
            data, model, G = random_instance(rng, n_max=40, num_classes=k)
            a = rng.normal(scale=0.5, size=(k, model.num_signatures))
            cfg = SmoothingConfig.for_classes(k)
            side = Side.LOWER if trial % 2 else Side.UPPER
            blocks = hessian(data, model, G, a, cfg, side)
            fd = np.zeros_like(blocks)
            for y, z in np.ndindex(a.shape):
                ap, am = a.copy(), a.copy()
                ap[y, z] += h
                am[y, z] -= h
                diff = (gradient(data, model, G, ap, cfg, side)
                        - gradient(data, model, G, am, cfg, side)) / (2 * h)
                # block diagonal: perturbing column z moves only column z
                assert np.abs(np.delete(diff, z, axis=1)).max(initial=0.0) == 0.0
                fd[z, :, y] = diff[:, z]
            worst = max(worst, float(np.abs(blocks - fd).max() / max(1.0, np.abs(fd).max())))
        assert worst <= 1e-5

    def test_blocks_are_psd_with_ones_null_direction(self, rng):
        for _ in range(20):
            data, model, G = random_instance(rng, num_classes=3)
            a = rng.normal(size=(3, model.num_signatures))
            cfg = SmoothingConfig.for_classes(3)
            for side in Side:
                blocks = hessian(data, model, G, a, cfg, side)
                assert np.allclose(blocks, blocks.transpose(0, 2, 1))
                assert np.abs(blocks.sum(axis=2)).max() <= 1e-12 * np.abs(blocks).max()
                assert np.linalg.eigvalsh(blocks).min() >= -1e-9

    def test_absent_signature_has_zero_block(self):
        data = DatasetView(n=2, z_ids=np.array([0, 0]))
        model = LabelModel(table=np.array([[0.3, 0.7], [0.5, 0.5]]))
        G = GMatrix(values=np.array([[0.0, 1.0], [1.0, 0.0]]), sup_norm=1.0)
        blocks = hessian(data, model, G, np.zeros((2, 2)), SmoothingConfig(), Side.UPPER)
        assert np.array_equal(blocks[1], np.zeros((2, 2)))
        assert blocks[0, 0, 0] > 0.0


class TestMinimizedValue:
    def test_upper_equals_objective(self, rng):
        data, model, G = random_instance(rng)
        a = rng.normal(size=(2, model.num_signatures))
        cfg = SmoothingConfig()
        assert minimized_value(data, model, G, a, cfg, Side.UPPER) == eval_objective(
            data, model, G, a, cfg, Side.UPPER
        )

    def test_lower_is_negated_objective(self, rng):
        data, model, G = random_instance(rng)
        a = rng.normal(size=(2, model.num_signatures))
        cfg = SmoothingConfig()
        assert minimized_value(data, model, G, a, cfg, Side.LOWER) == -eval_objective(
            data, model, G, a, cfg, Side.LOWER
        )
