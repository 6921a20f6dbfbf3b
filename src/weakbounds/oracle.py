"""Exact (non-smoothed) bounds via per-signature transportation problems.

The empirical problem decomposes by signature: within each z, couple the
masses of that signature's cells with the label-model column masses at
minimum (resp. maximum) total cost. The size guard caps cells times classes,
so the built-in metrics, with at most |Z|*|Y| cells, run at any n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DatasetView, GMatrix, LabelModel, cell_table
from .errors import WeakBoundsError

SIZE_GUARD = 10**6
MASS_TOL = 1e-9


class TooLargeError(WeakBoundsError):
    """Instance exceeds the exact-oracle size guard."""


@dataclass(frozen=True)
class TransportInstance:
    """One per-signature transportation problem: rows are cells, columns classes."""

    costs: np.ndarray
    row_mass: np.ndarray
    col_mass: np.ndarray

    def __post_init__(self):
        if abs(self.row_mass.sum() - self.col_mass.sum()) > MASS_TOL:
            raise WeakBoundsError(
                f"transport mass mismatch: rows {self.row_mass.sum():.12g} "
                f"vs columns {self.col_mass.sum():.12g}"
            )
        if np.any(self.row_mass < 0) or np.any(self.col_mass < 0):
            raise WeakBoundsError("transport masses must be non-negative")


@dataclass(frozen=True)
class OracleResult:
    lower: float
    upper: float
    per_signature: tuple[tuple[int, float, float], ...]


def transport_binary(inst: TransportInstance) -> float:
    """Exact min cost for two columns by greedy fractional fill.

    With two columns the problem is a fractional knapsack: assign the y=1
    column mass to rows in ascending order of the cost difference c1 - c0.
    """
    if inst.costs.shape[1] != 2:
        raise ValueError("transport_binary needs exactly 2 columns")
    diff = inst.costs[:, 1] - inst.costs[:, 0]
    order = np.argsort(diff, kind="stable")
    base = float(inst.row_mass @ inst.costs[:, 0])
    remaining = float(inst.col_mass[1])
    total = base
    for i in order:
        if remaining <= 0.0:
            break
        take = min(remaining, float(inst.row_mass[i]))
        total += take * diff[i]
        remaining -= take
    return total


def transport_general(inst: TransportInstance) -> float:
    """Exact min cost for any number of columns via the transportation LP."""
    # scipy is imported here, not at module level: only multiclass instances
    # reach this LP, and the import dominates a CLI process's start-up
    from scipy.optimize import linprog

    keep = inst.col_mass > 0.0
    costs = inst.costs[:, keep]
    col_mass = inst.col_mass[keep]
    n_rows, n_cols = costs.shape
    if n_cols == 0:
        return 0.0
    if n_cols == 1:
        return float(inst.row_mass @ costs[:, 0])

    # equality constraints: row sums and all-but-one column sums (redundant
    # last column dropped to keep the system full rank)
    row_sums = np.kron(np.eye(n_rows), np.ones(n_cols))
    col_sums = np.kron(np.ones(n_rows), np.eye(n_cols)[:-1])
    res = linprog(
        costs.ravel(),
        A_eq=np.vstack([row_sums, col_sums]),
        b_eq=np.concatenate([inst.row_mass, col_mass[:-1]]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise WeakBoundsError(f"transportation LP failed: {res.message}")
    return float(res.fun)


def _min_transport(inst: TransportInstance) -> float:
    if inst.costs.shape[1] == 2:
        return transport_binary(inst)
    return transport_general(inst)


def exact_bounds(data: DatasetView, model: LabelModel, G: GMatrix) -> OracleResult:
    """Exact lower/upper bounds for the empirical problem, by signature."""
    cells = cell_table(data, model, G)
    size = cells.mass.size * model.num_classes
    if size > SIZE_GUARD:
        raise TooLargeError(f"instance size {size} exceeds guard {SIZE_GUARD}")

    per_signature = []
    lower = 0.0
    upper = 0.0
    edges = np.searchsorted(cells.z, np.arange(model.num_signatures + 1))
    for z, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        if start == stop:
            continue
        inst = TransportInstance(
            costs=cells.costs[start:stop],
            row_mass=cells.mass[start:stop],
            col_mass=cells.z_mass[z] * cells.label_model[z],
        )
        lo = _min_transport(inst)
        neg = TransportInstance(
            costs=-inst.costs, row_mass=inst.row_mass, col_mass=inst.col_mass
        )
        hi = -_min_transport(neg)
        per_signature.append((z, lo, hi))
        lower += lo
        upper += hi
    return OracleResult(lower=lower, upper=upper, per_signature=tuple(per_signature))
