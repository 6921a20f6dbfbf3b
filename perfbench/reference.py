"""Independent exact reference for the benchmark's correctness checks.

Nothing here imports weakbounds. For the built-in metrics the cost of a sample
depends only on its prediction, so the exact bound problem needs only the
table of (signature, prediction) masses: within one signature, samples with
the same prediction are interchangeable. The bound splits into one small
transportation LP per signature; the blocks are independent, so they are
stacked into one block-diagonal LP per side.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix


def cell_masses(z_ids, preds, num_signatures, num_preds):
    """Share of the sample in each (signature, prediction) cell."""
    counts = np.zeros((num_signatures, num_preds))
    np.add.at(counts, (z_ids, preds), 1.0)
    return counts / len(z_ids)


def _min_cost(cells, q, cost):
    num_z, num_k = cells.shape
    num_y = q.shape[1]
    live = np.argwhere(cells > 0.0)  # (z, k) pairs that carry mass
    rows, cols, rhs = [], [], []
    # one variable per (live cell, class): index v * num_y + y
    for v, (z, k) in enumerate(live):
        rows += [len(rhs)] * num_y
        cols += range(v * num_y, (v + 1) * num_y)
        rhs.append(cells[z, k])
    for z in range(num_z):
        members = np.flatnonzero(live[:, 0] == z)
        if members.size == 0:
            continue
        mass = cells[z].sum()
        # last class is implied by the cell constraints, so it is left out
        for y in range(num_y - 1):
            rows += [len(rhs)] * members.size
            cols += list(members * num_y + y)
            rhs.append(mass * q[z, y])
    a_eq = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(rhs), len(live) * num_y))
    c = cost[live[:, 1]].ravel()
    res = linprog(c, A_eq=a_eq.tocsr(), b_eq=np.array(rhs), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def exact_interval(cells, q, cost):
    """Exact [L, U] of E[cost(pred, Y)] over couplings with P(Y | Z) = q.

    ``cells`` is |Z| x |K| (signature, prediction) masses, ``q`` is |Z| x |Y|,
    ``cost`` is |K| x |Y| with cost[k, y] = g(prediction k, class y).
    """
    cost = np.asarray(cost, dtype=np.float64)
    return _min_cost(cells, q, cost), -_min_cost(cells, q, -cost)


def conditional_entropy(cells, q):
    """H(Y | Z) in nats under the empirical signature weights."""
    weights = cells.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(q > 0.0, q * np.log(q), 0.0)
    return float(-(weights @ plogp.sum(axis=1)))


def posterior(signatures, accuracies, prior):
    """Closed-form P(Y | Z) when labelers vote independently given Y.

    A labeler with accuracy a votes the true class with probability a and each
    other class with probability (1 - a) / (|Y| - 1); -1 is an abstain, whose
    probability does not depend on Y and cancels.
    """
    signatures = np.asarray(signatures)
    prior = np.asarray(prior, dtype=np.float64)
    num_y = prior.size
    like = np.tile(prior, (len(signatures), 1))
    for k, acc in enumerate(accuracies):
        vote = signatures[:, k][:, None]
        factor = np.where(vote == np.arange(num_y), acc, (1.0 - acc) / (num_y - 1))
        like *= np.where(vote == -1, 1.0, factor)
    return like / like.sum(axis=1, keepdims=True)
