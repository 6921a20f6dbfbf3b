"""Exact (non-smoothed) bounds via per-signature transportation problems.

The empirical problem decomposes by signature: within each z, couple the
masses of that signature's cells with the label-model column masses at
minimum (resp. maximum) total cost. `exact_cell_bounds` solves one cell
table, whose masses are non-negative and balance per signature;
`exact_bounds` first counts a sample's table.
The size guard caps cells times classes on the transportation simplex, at
three or more classes, where it bounds the per-signature loop; the built-in
metrics, with at most |Z|*|Y| cells, run at any n.

With two classes each signature is a fractional knapsack, and one greedy pass
over the cells sorted by (signature, cost gap) solves them all. More classes
go to the transportation simplex (Dantzig 1951) in numpy and plain Python,
whose north-west-corner start is already optimal for Monge costs such as
|i - j| (Hoffman 1963). Neither needs an LP library.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .domain import CellTable, DatasetView, GMatrix, LabelModel, cell_table
from .errors import NumericalError, WeakBoundsError

SIZE_GUARD = 10**6
# transportation simplex: pivots before giving up, and the run of zero-step
# (degenerate) pivots after which Bland's rule replaces Dantzig's
MAX_PIVOTS = 100_000
BLAND_AFTER = 50


class TooLargeError(WeakBoundsError):
    """Instance exceeds the exact-oracle size guard."""


class OracleResult(NamedTuple):
    lower: float
    upper: float
    per_signature: tuple[tuple[int, float, float], ...]


def transport_general(costs: np.ndarray, row_mass: np.ndarray, col_mass: np.ndarray) -> float:
    """Exact min cost for any number of columns by the transportation simplex.

    Starts from the north-west-corner spanning tree (optimal already for
    Monge costs such as |i - j|) and pivots in the most negative reduced
    cost, switching to Bland's rule after a run of zero-step pivots so that
    degenerate instances terminate. Raises NumericalError past MAX_PIVOTS.
    """
    rows = row_mass > 0.0
    cols = col_mass > 0.0
    costs = costs[np.ix_(rows, cols)]
    row_mass = row_mass[rows]
    col_mass = col_mass[cols]
    n_rows, n_cols = costs.shape
    if n_rows == 0 or n_cols == 0:
        return 0.0
    if n_cols == 1:
        return float(row_mass @ costs[:, 0])
    if n_rows == 1:
        return float(costs[0] @ col_mass)
    return _TransportTree(costs, row_mass, col_mass).solve()


class _TransportTree:
    """A basic feasible solution of a transportation problem and its pivots.

    The basis is a spanning tree of the bipartite row/column graph with
    exactly rows + cols - 1 cells, degenerate zero-flow cells included. It
    lives in plain-Python adjacency sets: only the reduced costs, one
    rows x cols expression per pivot, are computed in numpy.
    """

    def __init__(self, costs: np.ndarray, row_mass: np.ndarray, col_mass: np.ndarray):
        self.costs = costs
        self.cost_rows = costs.tolist()
        n_rows, n_cols = costs.shape
        self.row_adj: list[set[int]] = [set() for _ in range(n_rows)]
        self.col_adj: list[set[int]] = [set() for _ in range(n_cols)]
        self.basic = np.zeros(costs.shape, dtype=bool)
        self.flow: dict[tuple[int, int], float] = {}
        # north-west corner: each step exhausts a row (move down) or a column
        # (move right); a tie moves down and leaves a zero-flow cell basic
        r_left, c_left = row_mass.tolist(), col_mass.tolist()
        i = j = 0
        while True:
            x = min(r_left[i], c_left[j])
            self._add(i, j, x)
            r_left[i] -= x
            c_left[j] -= x
            if i == n_rows - 1 and j == n_cols - 1:
                break
            if j == n_cols - 1 or (i < n_rows - 1 and r_left[i] <= c_left[j]):
                i += 1
            else:
                j += 1
        # one basic column per row: every row potential is cost - v there
        self.anchor = np.array([min(a) for a in self.row_adj])

    def _add(self, i: int, j: int, x: float) -> None:
        self.flow[i, j] = x
        self.row_adj[i].add(j)
        self.col_adj[j].add(i)
        self.basic[i, j] = True

    def _remove(self, i: int, j: int) -> None:
        del self.flow[i, j]
        self.row_adj[i].discard(j)
        self.col_adj[j].discard(i)
        self.basic[i, j] = False

    def _potentials(self):
        """Column potentials and the tree rooted at column 0.

        Columns are linked only through rows with two or more basic cells,
        and there are at most cols - 1 of those, so the walk visits each
        column once and skips the rows that hang off a single column.
        Returns v, each column's parent row and depth, and each multi-cell
        row's parent column.
        """
        cost, row_adj = self.cost_rows, self.row_adj
        n_cols = len(self.col_adj)
        v = [0.0] * n_cols
        col_up = [-1] * n_cols
        depth = [0] * n_cols
        row_up: dict[int, int] = {}
        stack = [0]
        while stack:
            k = stack.pop()
            for r in self.col_adj[k]:
                if r == col_up[k] or len(row_adj[r]) == 1:
                    continue
                row_up[r] = k
                u_r = cost[r][k] - v[k]
                for k2 in row_adj[r]:
                    if k2 != k:
                        v[k2] = cost[r][k2] - u_r
                        col_up[k2] = r
                        depth[k2] = depth[k] + 2
                        stack.append(k2)
        return v, col_up, depth, row_up

    def _cycle(self, i: int, j: int, col_up, depth, row_up) -> list[tuple[int, int]]:
        """The tree path from column j to row i, as cells in path order.

        Rows are encoded as ~r (negative) and columns as k, and the deeper
        end climbs until both ends meet.
        """
        anchor = self.anchor

        def parent(node):
            if node >= 0:
                return ~col_up[node]
            r = ~node
            return row_up[r] if r in row_up else int(anchor[r])

        x, y = ~i, j
        dx, dy = depth[parent(x)] + 1, depth[y]
        xs, ys = [x], [y]
        while x != y:
            if dx >= dy:
                x = parent(x)
                dx -= 1
                xs.append(x)
            else:
                y = parent(y)
                dy -= 1
                ys.append(y)
        nodes = ys + xs[-2::-1]
        return [(~a, b) if a < 0 else (~b, a) for a, b in zip(nodes, nodes[1:])]

    def solve(self) -> float:
        costs = self.costs
        n_rows = costs.shape[0]
        tol = 1e-12 * max(1.0, float(np.abs(costs).max()))
        at_row = np.arange(n_rows)
        pivots = zero_steps = 0
        while True:
            v, col_up, depth, row_up = self._potentials()
            v = np.array(v)
            u = costs[at_row, self.anchor] - v[self.anchor]
            reduced = costs - u[:, None] - v
            reduced[self.basic] = 0.0
            if zero_steps >= BLAND_AFTER:
                e = int(np.argmax(reduced < -tol))
            else:
                e = int(np.argmin(reduced))
            i, j = divmod(e, costs.shape[1])
            if not reduced[i, j] < -tol:
                break
            if pivots == MAX_PIVOTS:
                raise NumericalError(
                    f"transportation simplex not optimal after {MAX_PIVOTS} pivots"
                )
            path = self._cycle(i, j, col_up, depth, row_up)
            # along the cycle from column j the cells alternate -, +, -, ...
            # the leaving cell is the smallest-index one with the least flow
            minus, plus = path[0::2], path[1::2]
            step = min(self.flow[c] for c in minus)
            leave = min(c for c in minus if self.flow[c] == step)
            for c in minus:
                self.flow[c] -= step
            for c in plus:
                self.flow[c] += step
            self._remove(*leave)
            self._add(i, j, step)
            if self.anchor[leave[0]] == leave[1]:
                self.anchor[leave[0]] = min(self.row_adj[leave[0]])
            pivots += 1
            zero_steps = zero_steps + 1 if step == 0.0 else 0
        cost = self.cost_rows
        return sum(x * cost[r][c] for (r, c), x in sorted(self.flow.items()))


def exact_bounds(data: DatasetView, model: LabelModel, G: GMatrix) -> OracleResult:
    """``exact_cell_bounds`` of the sample's cell table."""
    return exact_cell_bounds(cell_table(data, model, G))


def exact_cell_bounds(cells: CellTable) -> OracleResult:
    """Exact lower/upper bounds for the problem of one cell table, by signature:
    the upper bound is minus the lower bound of -G."""
    num_signatures, num_classes = cells.label_model.shape
    size = cells.mass.size * num_classes
    if num_classes > 2 and size > SIZE_GUARD:  # the two-class pass runs at any size
        raise TooLargeError(f"instance size {size} exceeds guard {SIZE_GUARD}")

    edges = np.searchsorted(cells.z, np.arange(num_signatures + 1))
    present = np.flatnonzero(np.diff(edges)).tolist()
    # an overflow would leave a bound infinite, NaN or, in the simplex, wrong
    try:
        with np.errstate(over="raise", invalid="raise"):
            if num_classes == 2:
                lows, highs = _binary_lower(cells, cells.costs), _binary_lower(cells, -cells.costs)
            else:
                lows, highs = {}, {}
                for z in present:
                    part = slice(edges[z], edges[z + 1])
                    col_mass = cells.z_mass[z] * cells.label_model[z]
                    lows[z] = transport_general(cells.costs[part], cells.mass[part], col_mass)
                    highs[z] = transport_general(-cells.costs[part], cells.mass[part], col_mass)
    except FloatingPointError:
        raise NumericalError("exact bounds beyond the float range") from None
    # 0.0 - v, not -v: an upper bound that is exactly zero stays +0.0
    per_signature = tuple((z, lows[z], 0.0 - highs[z]) for z in present)
    lower = upper = 0.0
    for _, lo, hi in per_signature:
        lower += lo
        upper += hi
    # plain float arithmetic overflows to inf without an error
    if not np.isfinite([lower, upper]).all():
        raise NumericalError("exact bounds beyond the float range")
    return OracleResult(lower=lower, upper=upper, per_signature=per_signature)


def _binary_lower(cells: CellTable, costs: np.ndarray) -> list[float]:
    """Each signature's exact min cost over two classes, in one pass over the cells.

    Per signature this is a fractional knapsack: on top of every cell's class-0
    cost, the class-1 mass ``m_z * q_z1`` fills the cells in ascending order of
    the cost gap ``g_1 - g_0``; a stable sort by (signature, gap) orders them all.
    """
    gap = costs[:, 1] - costs[:, 0]
    order = np.lexsort((gap, cells.z))
    total = np.bincount(cells.z, cells.mass * costs[:, 0], len(cells.z_mass)).tolist()
    remaining = (cells.z_mass * cells.label_model[:, 1]).tolist()
    for z, m, g in zip(cells.z[order].tolist(), cells.mass[order].tolist(), gap[order].tolist()):
        r = remaining[z]
        if r > 0.0:
            take = m if m < r else r  # min(r, m) without the call
            total[z] += take * g
            remaining[z] = r - take
    return total
