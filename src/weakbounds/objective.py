"""Smoothed dual objectives with their analytic gradients and Hessians.

The decision variable is a real |Y|-by-|Z| matrix ``a``. For each cell c of
the sample's ``CellTable`` the objective replaces the hard min/max over classes
of ``G[c, y] + a[y, z_c]`` with a temperature-eps log-mean-exp, then subtracts
the label-model expectation of ``a[., z_c]``, and weights the result by the
cell's mass. Everything here is a pure function of immutable inputs.

The objective is invariant to adding a constant to any column of ``a``, and
its columns interact only through the sample mean, so its Hessian is block
diagonal: one |Y|-by-|Y| block per signature.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .domain import CellTable, read_only

EPSILON_FLOOR = 1e-6


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


class SmoothingConfig:
    """Smoothing temperature of the log-mean-exp relaxation."""

    epsilon: float

    def __init__(self, epsilon: float = 0.01 / math.log(2.0)):
        if epsilon < EPSILON_FLOOR:
            raise ValueError(
                f"epsilon must be >= {EPSILON_FLOOR} (overflow guard), got {epsilon}"
            )
        vars(self)["epsilon"] = epsilon

    __setattr__ = __delattr__ = read_only

    @classmethod
    def for_classes(cls, num_classes: int, target_error: float = 0.01):
        """Temperature giving a smoothing bias of ``target_error`` units."""
        return cls(epsilon=target_error / math.log(num_classes))


def soft_extreme(values, epsilon: float, side: Side) -> float:
    """Log-mean-exp relaxation of min (LOWER) or max (UPPER) of ``values``.

    Lies within ``epsilon * log(len(values))`` of the hard extreme, on the
    inside of it: soft-min >= min, soft-max <= max.
    """
    b = np.asarray(values, dtype=np.float64)
    if b.size == 0:
        raise ValueError("soft_extreme of an empty list")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sign = -1.0 if side is Side.LOWER else 1.0
    t = sign * b / epsilon
    m = t.max()
    return float(sign * epsilon * (m + np.log(np.mean(np.exp(t - m)))))


def _shifted(cells: CellTable, a: np.ndarray) -> np.ndarray:
    # cells-by-|Y| matrix of G[c, y] + a[y, z_c]
    return cells.costs + a.T[cells.z]


def per_cell_objective(cells: CellTable, a, cfg, side) -> np.ndarray:
    """The smoothed dual value of each cell's samples; their mass-weighted sum is the objective."""
    eps = cfg.epsilon
    sign = -1.0 if side is Side.LOWER else 1.0
    t = sign * _shifted(cells, a) / eps
    m = t.max(axis=1)
    soft = sign * eps * (m + np.log(np.mean(np.exp(t - m[:, None]), axis=1)))
    # label-model expectation, grouped by z: one dot product per signature
    per_z = np.einsum("zy,yz->z", cells.label_model, a)
    return soft - per_z[cells.z]


def eval_objective(cells, a, cfg, side) -> float:
    """Mean smoothed dual value over the sample."""
    return float(cells.mass @ per_cell_objective(cells, a, cfg, side))


def _weights(cells, a, cfg, side) -> np.ndarray:
    # cells-by-|Y| softmin (LOWER) or softmax (UPPER) weights of G[c] + a[:, z_c]
    sign = -1.0 if side is Side.LOWER else 1.0
    t = sign * _shifted(cells, a) / cfg.epsilon
    t -= t.max(axis=1, keepdims=True)
    w = np.exp(t)
    w /= w.sum(axis=1, keepdims=True)
    return w


def gradient(cells, a, cfg, side) -> np.ndarray:
    """Exact gradient in ``a`` of ``minimized_value``.

    Each column sums to zero, since every weight row and label-model row does.
    """
    w = _weights(cells, a, cfg, side)
    num_z = a.shape[1]
    # per signature and class, the mass-weighted sum of the weights
    mw = cells.mass[:, None] * w
    sums = np.stack([np.bincount(cells.z, weights=col, minlength=num_z) for col in mw.T])
    data_term = sums - cells.z_mass * cells.label_model.T
    return data_term if side is Side.UPPER else -data_term


def hessian(cells, a, cfg, side) -> np.ndarray:
    """Exact Hessian of ``minimized_value`` as a (|Z|, |Y|, |Y|) stack of blocks.

    Block z is ``sum_{c: z_c = z} mass_c (diag w_c - w_c w_c^T) / eps`` on both
    sides. It is positive semidefinite with the all-ones vector in its null
    space, and all zero for a signature absent from the sample.
    """
    w = _weights(cells, a, cfg, side)
    num_y, num_z = a.shape
    # diag w - w w^T has zero row sums, so each diagonal entry is minus the sum
    # of its row's off-diagonal entries; this avoids cancellation in w - w**2
    # as a weight saturates
    blocks = np.zeros((num_z, num_y, num_y))
    for y in range(num_y):
        for x in range(y + 1, num_y):
            outer = np.bincount(cells.z, weights=cells.mass * w[:, y] * w[:, x], minlength=num_z)
            blocks[:, y, x] = blocks[:, x, y] = -outer
            blocks[:, y, y] += outer
            blocks[:, x, x] += outer
    return blocks / cfg.epsilon


def minimized_value(cells, a, cfg, side) -> float:
    """The scalar the solver minimizes: the objective, negated on the LOWER side.

    The lower bound is a supremum, so its solve minimizes the negation; both
    sides are then convex. gradient() and hessian() are its exact derivatives.
    """
    v = eval_objective(cells, a, cfg, side)
    return v if side is Side.UPPER else -v
