"""Damped Newton minimizer for smooth convex functions with a block-diagonal Hessian.

The variable is a matrix whose columns interact only through the objective's
value: the Hessian is one square block per column. One iteration evaluates the
Hessian at the current iterate, solves every block's Newton system with one
batched ``np.linalg.solve`` and caps each column's step. It then evaluates the
value at trial points, halving a single global step length until the Armijo
condition holds, and the gradient at the accepted trial. The contract:
bit-deterministic iterates, a gradient sup-norm stopping rule, and a report
that distinguishes convergence from budget exhaustion.

The gradient and the Hessian are only ever asked for at the point of the
latest value evaluation, and no iterate is changed in place, so the callbacks
may reuse work from that evaluation.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError

# the iteration budget and the gradient sup-norm tolerance of every solve; read
# at each call, so a test can lower the budget by patching the module
MAX_ITERATIONS = 500
GRADIENT_TOLERANCE = 1e-8
ARMIJO = 1e-4
MAX_BACKTRACKS = 60
# A predicted decrease below this fraction of |f| is lost in the rounding of f
# itself (a mass-weighted sum over cells), so the Armijo test cannot see it.
# Such a step is accepted when it shrinks the gradient sup-norm instead.
ROUNDING_FLOOR = 1e-13


class SolveReport(NamedTuple):
    iterations: int
    final_gradient_norm: float
    converged: bool
    optimizer_sup_norm: float = 0.0  # bounds sets it for the column-centred optimizer


def _sup(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


def _newton_step(blocks: np.ndarray, g: np.ndarray, max_step: float) -> np.ndarray:
    # blocks is (columns, k, k) and g is (k, columns); one solve per column.
    # A row-major step makes the max over its k rows element-wise.
    step = -np.linalg.solve(blocks, g.T[:, :, None])[:, :, 0].T.copy()
    size = np.abs(step).max(axis=0)
    over = size > max_step
    step[:, over] *= max_step / size[over]
    return step


def minimize(
    value_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    hess_fn: Callable[[np.ndarray], np.ndarray],
    a0: np.ndarray,
    max_step: float = np.inf,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize a smooth convex function of a (k, m) matrix from ``a0``.

    ``hess_fn`` returns the (m, k, k) stack of positive definite Hessian
    blocks, one per column. No column moves by more than ``max_step`` (sup
    norm) in one iteration. Returns the last accepted iterate and a report;
    ``converged`` is the gradient sup-norm test at that iterate, so an
    exhausted budget or a step no backtracking can accept leaves it False.
    """
    a = np.array(a0, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("starting point must be finite")

    def checked(fn, x, what):
        out = fn(x)
        if not np.isfinite(out).all():
            raise NumericalError(f"non-finite {what}", last_iterate=a)
        return out

    f = float(checked(value_fn, a, "objective value"))
    g = np.asarray(checked(grad_fn, a, "gradient"), dtype=np.float64)
    gnorm = _sup(g)
    iterations = 0
    while iterations < MAX_ITERATIONS and gnorm > GRADIENT_TOLERANCE:
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
        iterations=iterations, final_gradient_norm=gnorm, converged=gnorm <= GRADIENT_TOLERANCE
    )
    return a, report
