"""Shared fixtures: hand-checkable instances and random-instance generators."""

from __future__ import annotations

import numpy as np
import pytest

from weakbounds import DatasetView, GMatrix, LabelModel, minimized_value


def g_values(G):
    """The n-by-|Y| matrix of per-sample cost rows of ``G``."""
    return G.costs[G.rows]


def soft_max(values, epsilon: float) -> float:
    """Log-mean-exp relaxation of the max of ``values``.

    Lies within ``epsilon * log(len(values))`` below the max. The soft-min,
    ``-soft_max(-values)``, lies as far above the min: both bracket the hard
    extreme from inside.
    """
    b = np.asarray(values, dtype=np.float64)
    if b.size == 0:
        raise ValueError("soft_max of an empty list")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t = b / epsilon
    m = t.max()
    return float(epsilon * (m + np.log(np.mean(np.exp(t - m)))))


def negated(cells, a):
    """The lower problem at ``a`` as the upper problem the objective computes.

    The lower bound of G is minus the upper bound of -G: the lower objective at
    ``a`` is minus the objective of the returned cells at the returned iterate,
    and what the solver minimizes for it is that objective itself.
    """
    return cells._replace(costs=-cells.costs), -a


def cell_values(cells, a, epsilon):
    """The smoothed dual value of each cell at ``a``: the values of an evaluation."""
    return minimized_value(cells, a, epsilon)[1][0]


def objective_value(cells, a, epsilon) -> float:
    """The objective at ``a``: the mass-weighted sum of its cells' values."""
    return float(cells.mass @ cell_values(cells, a, epsilon))


def per_sample_g(values):
    """A G with one cost row per sample."""
    return GMatrix(costs=values, rows=np.arange(len(values)))


def two_point_instance(p1: float):
    """n=2, one signature, G rows [0,1] and [1,0], P(Y=1|z) = p1.

    Exact bounds by greedy transport: lower = min coupling cost, upper = max.
    For p1=0.5 the exact bounds are (0, 1); for p1=0.75 they are (0.25, 0.75).
    """
    data = DatasetView(n=2, z_ids=np.array([0, 0]))
    G = per_sample_g(np.array([[0.0, 1.0], [1.0, 0.0]]))
    model = LabelModel(table=np.array([[1.0 - p1, p1]]))
    return data, model, G


def random_instance(rng, n_max=60, num_classes=2, num_sig_max=5, sup=1.0):
    """Random dataset/model/G triple with |g| <= sup and Dirichlet model rows."""
    n = int(rng.integers(2, n_max + 1))
    num_z = int(rng.integers(1, num_sig_max + 1))
    z_ids = rng.integers(0, num_z, n)
    z_ids[: min(num_z, n)] = np.arange(min(num_z, n))  # every signature occurs
    values = rng.uniform(-sup, sup, (n, num_classes))
    G = per_sample_g(values)
    rows = rng.dirichlet(np.ones(num_classes), num_z)
    model = LabelModel(table=rows)
    data = DatasetView(n=n, z_ids=z_ids)
    return data, model, G


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
