"""End-to-end bound estimation with plug-in standard deviations and normal CIs."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm

from .domain import DatasetView, GMatrix, LabelModel, center_columns
from .errors import InsufficientSampleError
from .objective import (
    Side,
    SmoothingConfig,
    eval_objective,
    gradient,
    hessian,
    minimized_value,
    per_sample_objective,
)
from .solver import SolveReport, SolverConfig, minimize


@dataclass(frozen=True)
class BoundEstimate:
    side: Side
    value: float
    optimizer: np.ndarray  # centered |Y|-by-|Z| dual matrix
    plugin_std: float
    n: int
    report: SolveReport
    epsilon: float


@dataclass(frozen=True)
class ConfidenceInterval:
    level: float
    low: float
    high: float


def plugin_std(data, model, G, a_hat, cfg, side) -> float:
    """Sample standard deviation (divisor n-1) of the per-sample dual values."""
    if data.n < 2:
        raise InsufficientSampleError("plug-in std needs at least 2 samples")
    values = per_sample_objective(data, model, G, a_hat, cfg, side)
    return float(values.std(ddof=1))


def _newton_ridge(data, model, cfg) -> np.ndarray:
    """Added to each signature's Hessian block so that every block is invertible.

    The all-ones direction is an exact null direction of each block and the
    gradient is orthogonal to it, so a multiple of 11^T fixes that direction
    without changing the step. A relative floor on the diagonal keeps blocks of
    saturated weights (exactly zero at small eps) invertible. A signature with
    no samples has a zero gradient, and an identity block gives it a zero step.
    """
    k = model.num_classes
    scale = np.bincount(data.z_ids, minlength=model.num_signatures) / (data.n * cfg.epsilon)
    ridge = scale[:, None, None] * (np.ones((k, k)) / k**2 + 1e-12 * np.eye(k))
    ridge[scale == 0.0] = np.eye(k)
    return ridge


def _solve_side(data, model, G, cfg, scfg, side) -> BoundEstimate:
    a0 = np.zeros((model.num_classes, model.num_signatures))
    ridge = _newton_ridge(data, model, cfg)
    a_hat, report = minimize(
        lambda a: minimized_value(data, model, G, a, cfg, side),
        lambda a: gradient(data, model, G, a, cfg, side),
        lambda a: hessian(data, model, G, a, cfg, side) + ridge,
        a0,
        scfg,
        # a larger step overshoots when the weights saturate at small eps; the
        # eps term keeps a G of all zeros from freezing the iterate
        max_step=2.0 * G.sup_norm + cfg.epsilon,
    )
    # shift invariance keeps the value; report the zero-column-sum optimizer
    a_hat = center_columns(a_hat)
    sup_norm = float(np.max(np.abs(a_hat))) if a_hat.size else 0.0
    report = replace(report, optimizer_sup_norm=sup_norm)
    value = eval_objective(data, model, G, a_hat, cfg, side)
    return BoundEstimate(
        side=side,
        value=value,
        optimizer=a_hat,
        plugin_std=plugin_std(data, model, G, a_hat, cfg, side),
        n=data.n,
        report=report,
        epsilon=cfg.epsilon,
    )


def estimate_bounds(
    data: DatasetView,
    model: LabelModel,
    G: GMatrix,
    cfg: SmoothingConfig | None = None,
    scfg: SolverConfig | None = None,
) -> tuple[BoundEstimate, BoundEstimate]:
    """Solve both one-sided smoothed dual problems from a zero start."""
    cfg = cfg or SmoothingConfig.for_classes(model.num_classes)
    scfg = scfg or SolverConfig()
    lower = _solve_side(data, model, G, cfg, scfg, Side.LOWER)
    upper = _solve_side(data, model, G, cfg, scfg, Side.UPPER)
    return lower, upper


def confidence_interval(est: BoundEstimate, gamma: float) -> ConfidenceInterval:
    """Two-sided normal-approximation interval at level 1 - gamma."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if est.n < 2:
        raise InsufficientSampleError("confidence interval needs n >= 2")
    tau = float(norm.ppf(1.0 - gamma / 2.0))
    half = tau * est.plugin_std / np.sqrt(est.n)
    return ConfidenceInterval(level=1.0 - gamma, low=est.value - half, high=est.value + half)


def estimate_class_prior(data: DatasetView, model: LabelModel, positive_class: int) -> float:
    """Marginal class probability implied by the label model over the sample."""
    if not (0 <= positive_class < model.num_classes):
        raise ValueError("positive_class out of range")
    if data.z_ids.size and int(data.z_ids.max()) >= model.num_signatures:
        from .errors import CoverageError

        raise CoverageError("data contains z-ids beyond the label model's coverage")
    return float(model.table[data.z_ids, positive_class].mean())


def subsample_for_bounds(data: DatasetView, n_target: int, seed: int) -> DatasetView:
    """Uniform subset without replacement, deterministic per seed."""
    if not (2 <= n_target <= data.n):
        raise ValueError(f"n_target must lie in [2, {data.n}], got {n_target}")
    if n_target == data.n:
        return data
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(data.n, size=n_target, replace=False))
    return data.take(idx)
