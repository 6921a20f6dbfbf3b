"""Per-column damped Newton minimizer for a sum of smooth convex functions, one per column.

The variable is a matrix, and the objective is a sum of one function per
column: the Hessian is one square block per column and no column's value
depends on another column. One iteration evaluates the Hessian at the current
iterate, solves the Newton system of every column still active with one
batched ``np.linalg.solve`` and caps each column's step. It then evaluates the
column values at trial points, halving each column's own step length until
that column's Armijo condition holds, and the gradient at the accepted trial.
A column stops once its gradient sup-norm is within the tolerance.

So each column's iterates depend only on its own function: solving several
independent problems side by side gives every column the bits it would get
alone. The contract: bit-deterministic iterates, a gradient sup-norm stopping
rule per column, and a report that distinguishes convergence from budget
exhaustion.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import NumericalError

# the iteration budget and the gradient sup-norm tolerance of every column; read
# at each call, so a test can lower the budget by patching the module
MAX_ITERATIONS = 500
GRADIENT_TOLERANCE = 1e-8
ARMIJO = 1e-4
MAX_BACKTRACKS = 60
# A predicted decrease below this fraction of |f| is lost in the rounding of f
# itself (a mass-weighted sum over a column's cells), so the Armijo test cannot
# see it: it would pass any step that leaves f as it is. Such a step is accepted
# only when it shrinks the column's gradient sup-norm.
ROUNDING_FLOOR = 1e-13


class SolveReport(NamedTuple):
    iterations: int
    final_gradient_norm: float
    converged: bool
    optimizer_sup_norm: float = 0.0  # bounds sets it for the returned optimizer


class ColumnReport(NamedTuple):
    """The outcome of each column of one solve."""

    column_iterations: np.ndarray  # accepted Newton steps of each column
    column_gradient_norms: np.ndarray  # gradient sup-norm of each column at the returned iterate

    def of(self, columns=slice(None)) -> SolveReport:
        """The report of the problem made of ``columns``: its slowest column's
        iterations and its largest final gradient sup-norm."""
        norm = float(self.column_gradient_norms[columns].max(initial=0.0))
        iterations = int(self.column_iterations[columns].max(initial=0))
        return SolveReport(iterations, norm, norm <= GRADIENT_TOLERANCE)

    # the outcome of the whole solve, under SolveReport's names
    iterations = property(lambda self: self.of().iterations)
    final_gradient_norm = property(lambda self: self.of().final_gradient_norm)
    converged = property(lambda self: self.of().converged)


def _sup(x: np.ndarray) -> np.ndarray:
    # the sup-norm of each column
    return np.abs(x).max(axis=0, initial=0.0)


def _newton_step(blocks: np.ndarray, g: np.ndarray, max_step: np.ndarray) -> np.ndarray:
    # blocks is (columns, k, k) and g is (k, columns); one solve per column.
    # A row-major step makes the max over its k rows element-wise.
    step = -np.linalg.solve(blocks, g.T[:, :, None])[:, :, 0].T.copy()
    size = np.abs(step).max(axis=0)
    over = size > max_step
    step[:, over] *= max_step[over] / size[over]
    return step


def minimize(
    value_fn: Callable[[np.ndarray], tuple[np.ndarray, Any]],
    grad_fn: Callable[[Any], np.ndarray],
    hess_fn: Callable[[Any], np.ndarray],
    a0: np.ndarray,
    max_step: float | np.ndarray = np.inf,
) -> tuple[np.ndarray, ColumnReport, Any]:
    """Minimize a sum of smooth convex functions, one per column of a (k, m) matrix, from ``a0``.

    ``value_fn(a)`` returns the m column values at ``a`` and a state of that
    evaluation; ``grad_fn(state)`` returns the (k, m) gradient and
    ``hess_fn(state)`` the (m, k, k) stack of positive definite Hessian blocks
    at the evaluated point. No column moves by more than its ``max_step`` (sup
    norm; a scalar or one per column) in one iteration. Returns the last
    accepted iterate, a report per column and the state of the evaluation at
    that iterate; a column has converged when its gradient sup-norm at that
    iterate is within the tolerance, so an exhausted budget or a step no
    backtracking can accept leaves it unconverged.
    """
    a = np.array(a0, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("starting point must be finite")
    cap = np.broadcast_to(np.asarray(max_step, dtype=np.float64), a.shape[1:])

    def checked(out, what):
        if not np.isfinite(out).all():
            raise NumericalError(f"non-finite {what}", last_iterate=a)
        return out

    def value(x):
        f, state = value_fn(x)
        return np.asarray(checked(f, "objective value"), dtype=np.float64), state

    def grad(state):
        return np.asarray(checked(grad_fn(state), "gradient"), dtype=np.float64)

    f, state = value(a)
    g = grad(state)
    gnorm = _sup(g)
    iterations = np.zeros(a.shape[1], dtype=np.int64)
    stalled = np.zeros(a.shape[1], dtype=bool)  # no step length was acceptable
    for _ in range(MAX_ITERATIONS):
        active = (gnorm > GRADIENT_TOLERANCE) & ~stalled
        if not active.any():
            break
        # a column that is not active takes a zero step, which leaves every bit
        # of its iterate, value and gradient as it is
        cols = np.flatnonzero(active)
        step = np.zeros_like(a)
        try:
            blocks = checked(hess_fn(state), "Hessian")[cols]
            step[:, cols] = _newton_step(blocks, g[:, cols], cap[cols])
        except np.linalg.LinAlgError:
            raise NumericalError("singular Hessian block", last_iterate=a) from None
        slope = (g * step).sum(axis=0)
        t = active.astype(np.float64)  # each column's step length
        pending = active.copy()
        for _ in range(MAX_BACKTRACKS):
            trial = a + t * step
            f_trial, trial_state = value(trial)
            g_trial = None
            lost = -t * slope <= ROUNDING_FLOOR * np.abs(f)
            ok = ~lost & (f_trial <= f + ARMIJO * t * slope)
            floor = pending & lost
            if floor.any():
                g_trial = grad(trial_state)
                ok |= floor & (_sup(g_trial) < gnorm)
            pending &= ~ok
            if not pending.any():
                break
            t[pending] *= 0.5
        else:
            # no acceptable step length: those columns keep their iterate, and
            # the value is evaluated again there, where the gradient is taken
            stalled |= pending
            t[pending] = 0.0
            trial = a + t * step
            (f_trial, trial_state), g_trial = value(trial), None
        if g_trial is None:
            g_trial = grad(trial_state)
        iterations += active & ~pending
        a, f, g, state = trial, f_trial, g_trial, trial_state
        gnorm = _sup(g)

    return a, ColumnReport(column_iterations=iterations, column_gradient_norms=gnorm), state
