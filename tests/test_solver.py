import math

import numpy as np
import pytest

from weakbounds import (
    LabelModel,
    NumericalError,
    cell_table,
    estimate_bounds,
    minimize,
)
from weakbounds import bounds, objective, solver
from conftest import random_instance, two_point_instance


def quadratic(center):
    """sum (a - center)^2 per column: Hessian 2*I in every column block.

    The state of an evaluation is its point.
    """
    value = lambda a: (((a - center) ** 2).sum(axis=0), a)
    grad = lambda a: 2.0 * (a - center)
    hess = lambda a: np.broadcast_to(2.0 * np.eye(a.shape[0]), (a.shape[1], a.shape[0], a.shape[0]))
    return value, grad, hess


class TestMinimize:
    def test_quadratic_reaches_analytic_minimizer(self):
        value, grad, hess = quadratic(3.0)
        a, report, _ = minimize(value, grad, hess, np.zeros((4, 3)))
        assert a == pytest.approx(np.full((4, 3), 3.0), abs=1e-12)
        assert report.converged
        assert report.final_gradient_norm <= 1e-8
        assert report.iterations == 1  # one exact Newton step

    def test_quadratic_iteration_budget_is_tight(self):
        rng = np.random.default_rng(0)
        value, grad, hess = quadratic(rng.normal(size=(3, 4)))
        a, report, _ = minimize(value, grad, hess, np.zeros((3, 4)))
        assert report.converged
        assert report.iterations == 1

    def test_step_cap_limits_each_column(self):
        value, grad, hess = quadratic(3.0)
        a, report, _ = minimize(value, grad, hess, np.zeros((2, 3)), max_step=0.5)
        assert report.converged
        assert report.iterations == 6  # 3 / 0.5 capped steps

    def test_column_without_acceptable_step_keeps_its_iterate(self, monkeypatch):
        # any move of column 1 raises its value, so no step length is accepted
        # there (with no rounding floor to accept a vanishing one); column 0
        # still converges, in its one exact Newton step
        monkeypatch.setattr(solver, "ROUNDING_FLOOR", 0.0)
        value, grad, hess = quadratic(3.0)
        jump = lambda a: (value(a)[0] + np.array([0.0, 100.0 * np.any(a[:, 1] != 0.0)]), a)
        a, report, evaluation = minimize(jump, grad, hess, np.zeros((2, 2)))
        assert np.array_equal(a[:, 0], [3.0, 3.0]) and np.array_equal(a[:, 1], [0.0, 0.0])
        # the evaluation handed back is the one at the returned iterate
        assert np.array_equal(evaluation, a)
        assert report.column_iterations.tolist() == [1, 0]
        assert report.of([0]).converged and not report.of([1]).converged
        assert not report.converged and report.iterations == 1

    def test_step_lost_in_rounding_is_no_iteration(self):
        # column 1's value is a huge constant and its gradient a nonzero
        # constant: every step's predicted decrease is lost in the rounding of
        # the value, and no step shrinks the gradient, so the column stalls at
        # its start instead of spending the budget on steps that change nothing
        value, grad, hess = quadratic(3.0)
        huge = lambda a: (value(a)[0] * [1.0, 0.0] + [0.0, 1e200], a)
        constant = lambda a: np.where([True, False], grad(a), 1.0)
        a, report, evaluation = minimize(huge, constant, hess, np.zeros((2, 2)))
        assert np.array_equal(a[:, 1], [0.0, 0.0]) and np.array_equal(evaluation, a)
        assert report.column_iterations.tolist() == [1, 0]
        assert report.of([0]).converged and not report.of([1]).converged

    def test_zero_budget_returns_start(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
        value, grad, hess = quadratic(3.0)
        a0 = np.ones((5, 1))
        a, report, _ = minimize(value, grad, hess, a0)
        assert np.array_equal(a, a0)
        assert not report.converged
        assert report.iterations == 0

    def test_monotone_decrease(self, rng, monkeypatch):
        data, model, G = random_instance(rng)
        values = []  # the shares of both sides' signatures, solved side by side
        original = bounds.minimized_value

        def tracked(cells, a, epsilon):
            shares, evaluation = original(cells, a, epsilon)
            values.append(shares)
            return shares, evaluation

        monkeypatch.setattr(bounds, "minimized_value", tracked)
        lo, hi = estimate_bounds(cell_table(data, model, G))
        assert lo.report.converged and hi.report.converged
        # trial evaluations may rise, but no signature's accepted final share does
        assert np.all(values[-1] <= values[0] + 1e-12)

    def test_bit_determinism(self, rng):
        data, model, G = random_instance(rng, num_classes=3)
        runs = [estimate_bounds(cell_table(data, model, G)) for _ in range(2)]
        for first, second in zip(*runs):
            assert np.array_equal(first.optimizer, second.optimizer)
            assert first.value == second.value
            assert first.report == second.report

    def test_two_point_upper_solve(self):
        data, model, G = two_point_instance(0.75)
        _, hi = estimate_bounds(cell_table(data, model, G))
        assert hi.report.converged
        assert hi.report.final_gradient_norm <= 1e-8

    def test_non_finite_value_raises(self):
        value, grad, hess = quadratic(0.0)
        a0 = np.ones((2, 1))
        with pytest.raises(NumericalError) as info:
            minimize(lambda a: (float("nan"), a), grad, hess, a0)
        assert np.array_equal(info.value.last_iterate, a0)

    def test_non_finite_trial_keeps_accepted_iterate(self):
        # finite at the start, NaN after the first step: the error carries
        # the start, the last iterate that was accepted
        value, grad, hess = quadratic(3.0)
        a0 = np.zeros((2, 2))
        guarded = lambda a: value(a) if np.array_equal(a, a0) else (float("nan"), a)
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
            for est in estimate_bounds(cell_table(data, model, G), 1e-3 / math.log(k)):
                assert est.report.converged
                assert np.all(np.isfinite(est.optimizer))

    def test_rounding_floor_lets_a_stalled_solve_converge(self, monkeypatch):
        # near this lower solve's optimum a full Newton step predicts a decrease
        # below the rounding of a signature's share f_z, so the Armijo test
        # cannot see it; the floor accepts the step because it shrinks that
        # signature's gradient. Without the floor the solve stalls above the
        # tolerance until its budget runs out.
        data, model, G = random_instance(np.random.default_rng(97), num_classes=3)
        epsilon = 1e-3 / math.log(3)
        lo, _ = estimate_bounds(cell_table(data, model, G), epsilon)
        assert lo.report.converged and lo.report.iterations < 50
        monkeypatch.setattr(solver, "ROUNDING_FLOOR", 0.0)
        lo, _ = estimate_bounds(cell_table(data, model, G), epsilon)
        assert not lo.report.converged
        assert lo.report.iterations == solver.MAX_ITERATIONS

    def test_absent_signature_takes_no_step(self, rng):
        data, model, G = random_instance(rng, num_sig_max=3)
        wider = LabelModel(table=np.vstack([model.table, [[0.5, 0.5]]]))
        for est in estimate_bounds(cell_table(data, wider, G)):
            assert est.report.converged
            assert np.array_equal(est.optimizer[:, -1], np.zeros(2))

    def test_estimate_bounds_reports_solver_outcome(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
        data, model, G = random_instance(rng)
        lo, hi = estimate_bounds(cell_table(data, model, G))
        assert not lo.report.converged and not hi.report.converged
        assert lo.report.iterations == hi.report.iterations == 0


class TestWeightReuse:
    """An iterate's gradient and Hessian read the weights of its value evaluation."""

    INSTANCES = [(34, 1e-3 / math.log(3)), (12345, 0.01 / math.log(3))]
    # a rounding floor of 1 sends nearly every trial to the gradient test, so the
    # solves also take gradients at trials they reject
    FLOORS = pytest.mark.parametrize("floor", [solver.ROUNDING_FLOOR, 1.0], ids=["floor", "floor-1"])
    ON_INSTANCES = pytest.mark.parametrize("seed,eps", INSTANCES, ids=["saturated", "default-eps"])

    @FLOORS
    @ON_INSTANCES
    def test_one_soft_max_pass_per_value_evaluation(self, monkeypatch, seed, eps, floor):
        monkeypatch.setattr(solver, "ROUNDING_FLOOR", floor)
        counts = {"passes": 0, "values": 0, "derivatives": 0}
        soft_pass, value = objective._soft_pass, bounds.minimized_value

        def counted_pass(*args):
            counts["passes"] += 1
            return soft_pass(*args)

        def counted_value(*args):
            counts["values"] += 1
            return value(*args)

        def counted(fn):
            def derivative(*args):
                counts["derivatives"] += 1
                before = counts["passes"]
                out = fn(*args)
                assert counts["passes"] == before  # no soft-max pass of its own
                return out

            return derivative

        monkeypatch.setattr(objective, "_soft_pass", counted_pass)
        monkeypatch.setattr(bounds, "minimized_value", counted_value)
        monkeypatch.setattr(bounds, "gradient", counted(objective.gradient))
        monkeypatch.setattr(bounds, "hessian", counted(objective.hessian))
        data, model, G = random_instance(np.random.default_rng(seed), num_classes=3)
        lo, hi = estimate_bounds(cell_table(data, model, G), eps)
        assert lo.report.iterations > 0 and hi.report.iterations > 0
        assert counts["derivatives"] > 0
        # the solve's last value evaluation gives both sides their reported
        # values and plug-in stds: no pass beyond the solve's evaluations
        assert counts["passes"] == counts["values"]

    @FLOORS
    @ON_INSTANCES
    def test_reused_weights_change_no_bit(self, monkeypatch, seed, eps, floor):
        monkeypatch.setattr(solver, "ROUNDING_FLOOR", floor)
        evaluations = []  # (cells, point, evaluation) of every value evaluation
        value = bounds.minimized_value

        def recorded(cells, a, epsilon):
            shares, evaluation = value(cells, a, epsilon)
            evaluations.append((cells, a.copy(), evaluation))
            return shares, evaluation

        def reading(fn):
            def derivative(cells, evaluation, *args):
                # an evaluation, handed over as it is
                assert any(evaluation is e for _, _, e in evaluations)
                return fn(cells, evaluation, *args)

            return derivative

        monkeypatch.setattr(bounds, "minimized_value", recorded)
        monkeypatch.setattr(bounds, "gradient", reading(objective.gradient))
        monkeypatch.setattr(bounds, "hessian", reading(objective.hessian))
        data, model, G = random_instance(np.random.default_rng(seed), num_classes=3)
        estimate_bounds(cell_table(data, model, G), eps)
        assert evaluations
        for cells, a, (values, weights) in evaluations:
            # equal to a fresh evaluation at the same point, bit for bit
            fresh_values, fresh_weights = objective.minimized_value(cells, a, eps)[1]
            assert np.array_equal(values, fresh_values)
            assert np.array_equal(weights, fresh_weights)
