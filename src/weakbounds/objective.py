"""Smoothed dual objectives with their analytic gradients and Hessians.

The decision variable is a real |Y|-by-|Z| matrix ``a``. For each cell c of
the sample's ``CellTable`` the objective replaces the hard max over classes of
``G[c, y] + a[y, z_c]`` with a temperature-eps log-mean-exp, then subtracts the
label-model expectation of ``a[., z_c]``, and weights the result by the cell's
mass. Everything here is a pure function of immutable inputs.

This is the upper bound's objective only. The lower bound of G is minus the
upper bound of -G, and ``bounds.solve_bounds`` poses it so.

The objective is invariant to adding a constant to any column of ``a``, and
it is a sum of one share per signature, each a function of its own column, so
its Hessian is block diagonal: one |Y|-by-|Y| block per signature.

An evaluation holds the shifted costs class-major, as a |Y|-by-cells array, and
makes one soft-max pass over it. ``minimized_value`` returns that pass's
per-cell values and weights beside the shares; ``gradient`` and ``hessian``
take that evaluation and only sum its weights per signature, so a Newton
iteration computes weights once per value evaluation, and the solve's last
evaluation gives each cell's value at the optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import CellTable

EPSILON_FLOOR = 1e-6


def default_epsilon(num_classes: int) -> float:
    """Temperature whose smoothing bias, at most eps * ln|Y|, is 0.01 units of the metric."""
    return 0.01 / math.log(num_classes)


def check_epsilon(eps: float) -> float:
    """Return ``eps`` if it is a usable temperature, else raise ValueError."""
    if not math.isfinite(eps):
        raise ValueError(f"epsilon must be finite, got {eps}")
    if eps < EPSILON_FLOOR:
        raise ValueError(f"epsilon must be >= {EPSILON_FLOOR} (overflow guard), got {eps}")
    return eps


def _soft_pass(cells: CellTable, a, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """One soft-max pass: each cell's dual value and its soft-max weights.

    A cell's value is the soft max over classes of ``G[c, y] + a[y, z_c]`` minus
    the label-model expectation of ``a[., z_c]``. The |Y|-by-cells array is
    class-major, so the max, the exp and the sum over classes run as
    element-wise passes over |Y| contiguous rows of cells, not as reductions
    along rows of 2 or 3 entries. The exp buffer, normalised in place, is
    returned as the |Y|-by-cells weights.
    """
    t = np.add(cells.costs.T, a.take(cells.z, axis=1), order="C")
    t /= epsilon
    m = t.max(axis=0)
    t -= m
    np.exp(t, out=t)
    total = t.sum(axis=0)
    soft = epsilon * (m + np.log(total / len(t)))
    t /= total
    # label-model expectation, grouped by z: one dot product per signature
    per_z = np.einsum("zy,yz->z", cells.label_model, a)
    return soft - per_z[cells.z], t


def _by_signature(z: np.ndarray, values: np.ndarray, num_z: int) -> np.ndarray:
    # row r of the result sums row r of ``values`` (one entry per cell) over
    # each signature's cells, in cell order, as bincount does
    index = z + num_z * np.arange(len(values))[:, None]
    sums = np.bincount(index.ravel(), weights=values.ravel(), minlength=len(values) * num_z)
    return sums.reshape(len(values), num_z)


def gradient(cells, evaluation) -> np.ndarray:
    """Exact gradient of ``minimized_value`` at the ``a`` whose ``evaluation`` it returned.

    Each column sums to zero, since every weight column and label-model row does.
    """
    # per class and signature, the mass-weighted sum of the weights
    sums = _by_signature(cells.z, cells.mass * evaluation[1], len(cells.z_mass))
    return sums - cells.z_mass * cells.label_model.T


def hessian(cells, evaluation, epsilon) -> np.ndarray:
    """Exact Hessian of ``minimized_value`` as a (|Z|, |Y|, |Y|) stack of blocks.

    ``evaluation`` is as for ``gradient``. With w its weights, block z is
    ``sum_{c: z_c = z} mass_c (diag w_c - w_c w_c^T) / eps``. It is positive
    semidefinite with the all-ones vector in its null space, and all zero for a
    signature absent from the sample.
    """
    weights = evaluation[1]
    num_y, num_z = len(weights), len(cells.z_mass)
    ys, xs = np.nonzero(np.arange(num_y)[:, None] < np.arange(num_y))  # pairs y < x
    outer = np.zeros((num_y, num_y, num_z))
    pairs = cells.mass * weights[ys] * weights[xs]
    outer[ys, xs] = outer[xs, ys] = _by_signature(cells.z, pairs, num_z)
    # diag w - w w^T has zero row sums, so each diagonal entry is minus the sum
    # of its row's off-diagonal entries; this avoids cancellation in w - w**2
    # as a weight saturates
    blocks = -outer
    blocks[np.arange(num_y), np.arange(num_y)] = outer.sum(axis=0)  # outer is symmetric
    return blocks.transpose(2, 0, 1) / epsilon


def minimized_value(cells, a, epsilon) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """What the solver minimizes: each signature's share of the objective, and the evaluation.

    The share of signature z is the mass-weighted sum of its cells' values, so
    the shares add up to the objective and each depends on column z of ``a``
    alone; each share is convex. The evaluation is the pair (per-cell values,
    |Y|-by-cells soft-max weights) of the pass at ``a``: the values' mass-weighted
    sum is the objective, and the weights are what gradient() and hessian()
    read for the exact derivatives of the shares' sum at ``a``.
    """
    evaluation = _soft_pass(cells, a, epsilon)
    shares = np.bincount(cells.z, weights=cells.mass * evaluation[0], minlength=a.shape[1])
    return shares, evaluation
