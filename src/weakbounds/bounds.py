"""End-to-end bound estimation with plug-in standard deviations and normal CIs."""

from __future__ import annotations

from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .domain import DatasetView, GMatrix, LabelModel, cell_table, center_columns, check_covers
from .errors import InsufficientSampleError
from .objective import (
    Side,
    check_epsilon,
    default_epsilon,
    eval_objective,
    gradient,
    hessian,
    minimized_value,
    per_cell_objective,
)
from .solver import SolveReport, minimize


class BoundEstimate(NamedTuple):
    side: Side
    value: float
    optimizer: np.ndarray  # centered |Y|-by-|Z| dual matrix
    plugin_std: float
    n: int
    report: SolveReport
    epsilon: float


class ConfidenceInterval(NamedTuple):
    level: float
    low: float
    high: float


def plugin_std(cells, a_hat, epsilon, side) -> float:
    """Sample standard deviation (divisor n-1) of the per-sample dual values."""
    if cells.n < 2:
        raise InsufficientSampleError("plug-in std needs at least 2 samples")
    values = per_cell_objective(cells, a_hat, epsilon, side)
    variance = cells.mass @ (values - cells.mass @ values) ** 2
    return float(np.sqrt(variance * cells.n / (cells.n - 1)))


def _newton_ridge(cells, epsilon) -> np.ndarray:
    """Added to each signature's Hessian block so that every block is invertible.

    The all-ones direction is an exact null direction of each block and the
    gradient is orthogonal to it, so a multiple of 11^T fixes that direction
    without changing the step. A relative floor on the diagonal keeps blocks of
    saturated weights (exactly zero at small eps) invertible. A signature with
    no samples has a zero gradient, and an identity block gives it a zero step.
    """
    k = cells.label_model.shape[1]
    scale = cells.z_mass / epsilon
    ridge = scale[:, None, None] * (np.ones((k, k)) / k**2 + 1e-12 * np.eye(k))
    ridge[scale == 0.0] = np.eye(k)
    return ridge


def _solve_side(cells, epsilon, side, max_step) -> BoundEstimate:
    a0 = np.zeros(cells.label_model.shape[::-1])
    ridge = _newton_ridge(cells, epsilon)
    # The solver takes the gradient and the Hessian only at the iterate of its
    # latest value evaluation, and never changes an iterate in place, so both
    # reuse that evaluation's soft-max weights.
    weights = np.empty(cells.costs.shape[::-1])
    weights_at = None  # the iterate whose weights ``weights`` holds

    def value(a):
        nonlocal weights_at
        weights_at = None
        f = minimized_value(cells, a, epsilon, side, weights_out=weights)
        weights_at = a
        return f

    def reusable(a):
        return weights if a is weights_at else None

    a_hat, report = minimize(
        value,
        lambda a: gradient(cells, a, epsilon, side, reusable(a)),
        lambda a: hessian(cells, a, epsilon, side, reusable(a)) + ridge,
        a0,
        max_step,
    )
    # shift invariance keeps the value; report the zero-column-sum optimizer
    a_hat = center_columns(a_hat)
    sup_norm = float(np.max(np.abs(a_hat))) if a_hat.size else 0.0
    report = report._replace(optimizer_sup_norm=sup_norm)
    return BoundEstimate(
        side=side,
        value=eval_objective(cells, a_hat, epsilon, side),
        optimizer=a_hat,
        plugin_std=plugin_std(cells, a_hat, epsilon, side),
        n=cells.n,
        report=report,
        epsilon=epsilon,
    )


def estimate_bounds(
    data: DatasetView,
    model: LabelModel,
    G: GMatrix,
    epsilon: float | None = None,
) -> tuple[BoundEstimate, BoundEstimate]:
    """Solve both one-sided smoothed dual problems from a zero start at temperature ``epsilon``."""
    epsilon = default_epsilon(model.num_classes) if epsilon is None else check_epsilon(epsilon)
    cells = cell_table(data, model, G)
    # a larger step overshoots when the weights saturate at small eps; the eps
    # term keeps a G of all zeros from freezing the iterate
    max_step = 2.0 * G.sup_norm + epsilon
    lower = _solve_side(cells, epsilon, Side.LOWER, max_step)
    upper = _solve_side(cells, epsilon, Side.UPPER, max_step)
    return lower, upper


def check_gamma(gamma: float) -> float:
    """Return ``gamma`` if it is a usable CI miscoverage level, else raise ValueError."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if 1.0 - gamma / 2.0 == 1.0:
        raise ValueError(f"gamma must be large enough that 1 - gamma/2 < 1, got {gamma:g}")
    return gamma


def ci_half_width(std: float, n: int, gamma: float) -> float:
    """Half-width z_{1-gamma/2} * std / sqrt(n) of a two-sided normal interval."""
    check_gamma(gamma)
    if n < 2:
        raise InsufficientSampleError("confidence interval needs n >= 2")
    return NormalDist().inv_cdf(1.0 - gamma / 2.0) * std / np.sqrt(n)


def normal_interval(value: float, std: float, n: int, gamma: float) -> ConfidenceInterval:
    """``value`` plus and minus ``ci_half_width(std, n, gamma)``: every reported CI."""
    half = ci_half_width(std, n, gamma)
    return ConfidenceInterval(level=1.0 - gamma, low=value - half, high=value + half)


def confidence_interval(est: BoundEstimate, gamma: float) -> ConfidenceInterval:
    """Two-sided normal-approximation interval at level 1 - gamma."""
    return normal_interval(est.value, est.plugin_std, est.n, gamma)


def estimate_class_prior(data: DatasetView, model: LabelModel, positive_class: int) -> float:
    """Marginal class probability implied by the label model over the sample."""
    if not (0 <= positive_class < model.num_classes):
        raise ValueError("positive_class out of range")
    check_covers(data, model)
    return float(model.table[data.z_ids, positive_class].mean())
