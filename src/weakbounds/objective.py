"""Smoothed dual objectives with their analytic gradients and Hessians.

The decision variable is a real |Y|-by-|Z| matrix ``a``. For each sample i the
objective replaces the hard min/max over classes of ``G[i, y] + a[y, z_i]``
with a temperature-eps log-mean-exp, then subtracts the label-model
expectation of ``a[., z_i]``. Everything here is a pure function of immutable
inputs.

The objective is invariant to adding a constant to any column of ``a``, and
its columns interact only through the sample mean, so its Hessian is block
diagonal: one |Y|-by-|Y| block per signature.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domain import DatasetView, GMatrix, LabelModel, check_covers

EPSILON_FLOOR = 1e-6


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing temperature of the log-mean-exp relaxation."""

    epsilon: float = 0.01 / math.log(2.0)

    def __post_init__(self):
        if self.epsilon < EPSILON_FLOOR:
            raise ValueError(
                f"epsilon must be >= {EPSILON_FLOOR} (overflow guard), got {self.epsilon}"
            )

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


def _check_coverage(data: DatasetView, model: LabelModel, G: GMatrix):
    check_covers(data, model)
    if G.n != data.n or G.num_classes != model.num_classes:
        raise ValueError("shape mismatch between data, label model, and G")


def _shifted(data: DatasetView, G: GMatrix, a: np.ndarray) -> np.ndarray:
    # n-by-|Y| matrix of G[i, y] + a[y, z_i]
    return G.values + a.T[data.z_ids]


def per_sample_objective(
    data: DatasetView,
    model: LabelModel,
    G: GMatrix,
    a: np.ndarray,
    cfg: SmoothingConfig,
    side: Side,
) -> np.ndarray:
    """The n per-sample smoothed dual values; their mean is the objective."""
    _check_coverage(data, model, G)
    eps = cfg.epsilon
    sign = -1.0 if side is Side.LOWER else 1.0
    t = sign * _shifted(data, G, a) / eps
    m = t.max(axis=1)
    soft = sign * eps * (m + np.log(np.mean(np.exp(t - m[:, None]), axis=1)))
    # label-model expectation, grouped by z: one dot product per signature
    per_z = np.einsum("zy,yz->z", model.table, a)
    return soft - per_z[data.z_ids]


def eval_objective(data, model, G, a, cfg, side) -> float:
    """Mean smoothed dual value over the sample."""
    return float(per_sample_objective(data, model, G, a, cfg, side).mean())


def _weights(data, G, a, cfg, side) -> np.ndarray:
    # n-by-|Y| softmin (LOWER) or softmax (UPPER) weights of G[i] + a[:, z_i]
    sign = -1.0 if side is Side.LOWER else 1.0
    t = sign * _shifted(data, G, a) / cfg.epsilon
    t -= t.max(axis=1, keepdims=True)
    w = np.exp(t)
    w /= w.sum(axis=1, keepdims=True)
    return w


def gradient(data, model, G, a, cfg, side) -> np.ndarray:
    """Exact gradient in ``a`` of ``minimized_value``.

    Each column sums to zero, since every weight row and label-model row does.
    """
    _check_coverage(data, model, G)
    w = _weights(data, G, a, cfg, side)
    num_z = a.shape[1]
    counts = np.bincount(data.z_ids, minlength=num_z)
    # per signature and class, the weight summed over the signature's samples
    sums = np.stack([np.bincount(data.z_ids, weights=col, minlength=num_z) for col in w.T])
    data_term = (sums - counts * model.table.T) / data.n
    return data_term if side is Side.UPPER else -data_term


def hessian(data, model, G, a, cfg, side) -> np.ndarray:
    """Exact Hessian of ``minimized_value`` as a (|Z|, |Y|, |Y|) stack of blocks.

    Block z is ``sum_{i: z_i = z} (diag w_i - w_i w_i^T) / (n * eps)`` on both
    sides. It is positive semidefinite with the all-ones vector in its null
    space, and all zero for a signature absent from the sample.
    """
    _check_coverage(data, model, G)
    w = _weights(data, G, a, cfg, side)
    num_y, num_z = a.shape
    # diag w - w w^T has zero row sums, so each diagonal entry is minus the sum
    # of its row's off-diagonal entries; this avoids cancellation in w - w**2
    # as a weight saturates
    blocks = np.zeros((num_z, num_y, num_y))
    for y in range(num_y):
        for x in range(y + 1, num_y):
            outer = np.bincount(data.z_ids, weights=w[:, y] * w[:, x], minlength=num_z)
            blocks[:, y, x] = blocks[:, x, y] = -outer
            blocks[:, y, y] += outer
            blocks[:, x, x] += outer
    return blocks / (data.n * cfg.epsilon)


def minimized_value(data, model, G, a, cfg, side) -> float:
    """The scalar the solver minimizes: the objective, negated on the LOWER side.

    The lower bound is a supremum, so its solve minimizes the negation; both
    sides are then convex. gradient() and hessian() are its exact derivatives.
    """
    v = eval_objective(data, model, G, a, cfg, side)
    return v if side is Side.UPPER else -v
