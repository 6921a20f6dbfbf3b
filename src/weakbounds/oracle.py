"""Exact (non-smoothed) bounds via per-signature transportation problems.

The empirical problem decomposes by signature: within each z, couple the
uniform mass on that signature's samples with the label-model column masses
at minimum (resp. maximum) total cost. Ground truth for tests and small
instances only; guarded by an instance-size cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DatasetView, GMatrix, LabelModel, check_covers
from .errors import WeakBoundsError

SIZE_GUARD = 10**6
MASS_TOL = 1e-9


class TooLargeError(WeakBoundsError):
    """Instance exceeds the exact-oracle size guard."""


@dataclass(frozen=True)
class TransportInstance:
    """One per-signature transportation problem: rows are samples, columns classes."""

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
    n_var = n_rows * n_cols
    rows_eq = []
    rhs = []
    for i in range(n_rows):
        row = np.zeros(n_var)
        row[i * n_cols : (i + 1) * n_cols] = 1.0
        rows_eq.append(row)
        rhs.append(inst.row_mass[i])
    for j in range(n_cols - 1):
        row = np.zeros(n_var)
        row[j::n_cols] = 1.0
        rows_eq.append(row)
        rhs.append(col_mass[j])
    res = linprog(
        costs.ravel(),
        A_eq=np.array(rows_eq),
        b_eq=np.array(rhs),
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
    num_z = model.num_signatures
    num_y = model.num_classes
    if data.n * num_y * num_z > SIZE_GUARD:
        raise TooLargeError(
            f"instance size {data.n * num_y * num_z} exceeds guard {SIZE_GUARD}"
        )
    check_covers(data, model)

    per_signature = []
    lower = 0.0
    upper = 0.0
    for z in range(num_z):
        rows = np.flatnonzero(data.z_ids == z)
        if rows.size == 0:
            continue
        mass = rows.size / data.n
        inst = TransportInstance(
            costs=G.values[rows],
            row_mass=np.full(rows.size, 1.0 / data.n),
            col_mass=mass * model.table[z],
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
