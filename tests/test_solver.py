import math

import numpy as np
import pytest

from weakbounds import (
    LabelModel,
    NumericalError,
    Side,
    SmoothingConfig,
    SolverConfig,
    estimate_bounds,
    minimize,
)
from weakbounds import bounds
from conftest import random_instance, two_point_instance


def quadratic(center):
    """sum (a - center)^2: Hessian 2*I in every column block."""
    value = lambda a: float(((a - center) ** 2).sum())
    grad = lambda a: 2.0 * (a - center)
    hess = lambda a: np.broadcast_to(2.0 * np.eye(a.shape[0]), (a.shape[1], a.shape[0], a.shape[0]))
    return value, grad, hess


class TestSolverConfig:
    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=-1)


class TestMinimize:
    def test_quadratic_reaches_analytic_minimizer(self):
        value, grad, hess = quadratic(3.0)
        a, report = minimize(value, grad, hess, np.zeros((4, 3)))
        assert a == pytest.approx(np.full((4, 3), 3.0), abs=1e-12)
        assert report.converged
        assert report.final_gradient_norm <= 1e-8
        assert report.iterations == 1  # one exact Newton step

    def test_quadratic_iteration_budget_is_tight(self):
        rng = np.random.default_rng(0)
        value, grad, hess = quadratic(rng.normal(size=(3, 4)))
        a, report = minimize(value, grad, hess, np.zeros((3, 4)))
        assert report.converged
        assert report.iterations == 1

    def test_step_cap_limits_each_column(self):
        value, grad, hess = quadratic(3.0)
        a, report = minimize(value, grad, hess, np.zeros((2, 3)), max_step=0.5)
        assert report.converged
        assert report.iterations == 6  # 3 / 0.5 capped steps

    def test_zero_budget_returns_start(self):
        value, grad, hess = quadratic(3.0)
        a0 = np.ones((5, 1))
        a, report = minimize(value, grad, hess, a0, SolverConfig(max_iterations=0))
        assert np.array_equal(a, a0)
        assert not report.converged
        assert report.iterations == 0

    def test_monotone_decrease(self, rng, monkeypatch):
        data, model, G = random_instance(rng)
        values = {side: [] for side in Side}
        original = bounds.minimized_value

        def tracked(*args):
            values[args[-1]].append(original(*args))
            return values[args[-1]][-1]

        monkeypatch.setattr(bounds, "minimized_value", tracked)
        lo, hi = estimate_bounds(data, model, G)
        assert lo.report.converged and hi.report.converged
        # trial evaluations may rise, but the accepted final iterate does not
        for side in Side:
            assert values[side][-1] <= values[side][0] + 1e-12

    def test_bit_determinism(self, rng):
        data, model, G = random_instance(rng, num_classes=3)
        runs = [estimate_bounds(data, model, G) for _ in range(2)]
        for first, second in zip(*runs):
            assert np.array_equal(first.optimizer, second.optimizer)
            assert first.value == second.value
            assert first.report == second.report

    def test_two_point_upper_solve(self):
        data, model, G = two_point_instance(0.75)
        _, hi = estimate_bounds(data, model, G)
        assert hi.report.converged
        assert hi.report.final_gradient_norm <= 1e-8

    def test_non_finite_value_raises(self):
        value, grad, hess = quadratic(0.0)
        a0 = np.ones((2, 1))
        with pytest.raises(NumericalError) as info:
            minimize(lambda a: float("nan"), grad, hess, a0)
        assert np.array_equal(info.value.last_iterate, a0)

    def test_non_finite_trial_keeps_accepted_iterate(self):
        # finite at the start, NaN after the first step: the error carries
        # the start, the last iterate that was accepted
        value, grad, hess = quadratic(3.0)
        a0 = np.zeros((2, 2))
        guarded = lambda a: value(a) if np.array_equal(a, a0) else float("nan")
        with pytest.raises(NumericalError) as info:
            minimize(guarded, grad, hess, a0)
        assert np.array_equal(info.value.last_iterate, a0)

    def test_singular_block_raises(self):
        value, grad, _ = quadratic(1.0)
        zero = lambda a: np.zeros((a.shape[1], a.shape[0], a.shape[0]))
        with pytest.raises(NumericalError):
            minimize(value, grad, zero, np.zeros((2, 2)))

    def test_non_finite_start_rejected(self):
        value, grad, hess = quadratic(0.0)
        with pytest.raises(ValueError):
            minimize(value, grad, hess, np.array([[np.inf], [0.0]]))


class TestDualSolves:
    def test_small_eps_saturated_weights_converge(self, rng):
        # at eps = 1e-3 / ln|Y| the weights saturate and Hessian blocks
        # underflow to zero; the ridge and the step cap keep every solve finite
        for _ in range(50):
            k = int(rng.integers(2, 4))
            data, model, G = random_instance(rng, num_classes=k)
            for est in estimate_bounds(data, model, G, SmoothingConfig(epsilon=1e-3 / math.log(k))):
                assert est.report.converged
                assert np.all(np.isfinite(est.optimizer))

    def test_absent_signature_takes_no_step(self, rng):
        data, model, G = random_instance(rng, num_sig_max=3)
        wider = LabelModel(table=np.vstack([model.table, [[0.5, 0.5]]]))
        for est in estimate_bounds(data, wider, G):
            assert est.report.converged
            assert np.array_equal(est.optimizer[:, -1], np.zeros(2))

    def test_estimate_bounds_reports_solver_outcome(self, rng):
        data, model, G = random_instance(rng)
        lo, hi = estimate_bounds(data, model, G, scfg=SolverConfig(max_iterations=0))
        assert not lo.report.converged and not hi.report.converged
        assert lo.report.iterations == hi.report.iterations == 0
