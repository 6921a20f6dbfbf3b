"""Damped Newton minimizer for smooth convex functions with a block-diagonal Hessian.

The variable is a matrix whose columns interact only through the objective's
value: the Hessian is one square block per column. Each iteration solves every
block's Newton system with one batched ``np.linalg.solve``, caps each column's
step, and backtracks a single global step length until the Armijo condition
holds. The contract: bit-deterministic iterates, a gradient sup-norm stopping
rule, and a report that distinguishes convergence from budget exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError

ARMIJO = 1e-4
MAX_BACKTRACKS = 60
# A predicted decrease below this fraction of |f| is lost in the rounding of f
# itself (a mean over many rows), so the Armijo test cannot see it. Such a
# step is accepted when it shrinks the gradient sup-norm instead.
ROUNDING_FLOOR = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")


@dataclass
class SolveReport:
    iterations: int
    final_gradient_norm: float
    converged: bool
    optimizer_sup_norm: float = 0.0


def _sup(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def _newton_step(blocks: np.ndarray, g: np.ndarray, max_step: float) -> np.ndarray:
    # blocks is (columns, k, k) and g is (k, columns); one solve per column
    step = -np.linalg.solve(blocks, g.T[:, :, None])[:, :, 0].T
    size = np.abs(step).max(axis=0)
    over = size > max_step
    step[:, over] *= max_step / size[over]
    return step


def minimize(
    value_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    hess_fn: Callable[[np.ndarray], np.ndarray],
    a0: np.ndarray,
    cfg: SolverConfig | None = None,
    max_step: float = np.inf,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize a smooth convex function of a (k, m) matrix from ``a0``.

    ``hess_fn`` returns the (m, k, k) stack of positive definite Hessian
    blocks, one per column. No column moves by more than ``max_step`` (sup
    norm) in one iteration. Returns the last accepted iterate and a report;
    ``converged`` is the gradient sup-norm test at that iterate, so an
    exhausted budget or a step no backtracking can accept leaves it False.
    """
    cfg = cfg or SolverConfig()
    a = np.array(a0, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("starting point must be finite")

    def checked(fn, x, what):
        out = fn(x)
        if not np.all(np.isfinite(out)):
            raise NumericalError(f"non-finite {what}", last_iterate=a)
        return out

    f = float(checked(value_fn, a, "objective value"))
    g = np.asarray(checked(grad_fn, a, "gradient"), dtype=np.float64)
    gnorm = _sup(g)
    iterations = 0
    while iterations < cfg.max_iterations and gnorm > cfg.gradient_tolerance:
        try:
            step = _newton_step(checked(hess_fn, a, "Hessian"), g, max_step)
        except np.linalg.LinAlgError:
            raise NumericalError("singular Hessian block", last_iterate=a) from None
        slope = float(np.sum(g * step))
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = a + t * step
            f_trial = float(checked(value_fn, trial, "objective value"))
            if f_trial <= f + ARMIJO * t * slope:
                g_trial = checked(grad_fn, trial, "gradient")
                break
            if -t * slope <= ROUNDING_FLOOR * abs(f):
                g_trial = checked(grad_fn, trial, "gradient")
                if _sup(g_trial) < gnorm:
                    break
            t *= 0.5
        else:
            break  # no acceptable step length: keep the current iterate
        a, f, g = trial, f_trial, np.asarray(g_trial, dtype=np.float64)
        gnorm = _sup(g)
        iterations += 1

    report = SolveReport(
        iterations=iterations,
        final_gradient_norm=gnorm,
        converged=gnorm <= cfg.gradient_tolerance,
        optimizer_sup_norm=_sup(a),
    )
    return a, report
