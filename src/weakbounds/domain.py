"""Core data types: label spaces, weak-label signatures, label models, cost matrices.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CoverageError, FormatError

ABSTAIN = -1

SIMPLEX_TOL = 1e-8  # a row of entries written at 9 significant digits sums to 1 within 5e-9
_INT64_MAX = 2**63 - 1


def read_only(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of each type whose constructor checks its
    arguments, so that no attribute changes after the checks."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class LabelSpace:
    """The finite set of classes."""

    num_classes: int

    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        vars(self)["num_classes"] = num_classes

    __setattr__ = __delattr__ = read_only


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of an n-by-K integer array in first-observed order.

    Returns ``(first, ids)``: ``first[j]`` is the index of the first row of group
    j and ``ids[i]`` the group of row i. Each row is folded into one int64 key,
    ``key * span + (column - min)``; the key is renumbered densely before any
    multiply that would overflow, so any int64 values are grouped exactly.
    Groups are then numbered by a counting pass over a table of at most 2n
    keys, so no step sorts the n rows.

    The key is folded in place, one column at a time, so a column-major (or a
    strided) ``rows`` is read without a copy.
    """
    key = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every key lies in [0, bound)
    for col in rows.T:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if bound * span > _INT64_MAX:
            key, col = (np.unique(v, return_inverse=True)[1] for v in (key, col))
            bound, lo, span = int(key.max()) + 1, 0, int(col.max()) + 1
        # the sum before ``-= lo`` may wrap, but the folded key fits int64, and
        # wrapped int64 sums are exact modulo 2**64
        key *= span
        key += col
        key -= lo
        bound *= span
    n = len(key)
    if bound > 2 * n:
        key = np.unique(key, return_inverse=True)[1]
        bound = int(key.max()) + 1
    first = np.full(bound, n, dtype=np.int64)  # first row of each key; n if absent
    np.minimum.at(first, key, np.arange(n))
    present = np.flatnonzero(first < n)
    order = present[np.argsort(first[present])]
    rank = np.empty(bound, dtype=np.int64)
    rank[order] = np.arange(len(order))
    return first[order], rank[key]


def encode_signatures(
    raw: np.ndarray | list[tuple[int, ...]],
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Map raw weak-label tuples to dense z-ids in first-observed order.

    ``raw`` is an n-by-K integer array or a list of n equal-length tuples.
    Returns the tuple of distinct vote tuples, the one of z-id z at index z,
    and each row's z-id. Only tuples that occur in ``raw`` get an id.
    """
    try:
        sigs = np.asarray(raw, dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"signatures must be equal-length integer tuples ({exc})") from None
    if sigs.ndim != 2 or 0 in sigs.shape:
        raise FormatError("need a non-empty list of equal-length, non-empty signatures")
    first, ids = group_rows(sigs)
    return tuple(map(tuple, sigs[first].tolist())), ids


class DatasetView:
    """One evaluation dataset: z-ids plus whatever the classifier produced.

    Labels are only used by the counting label-model estimator and tests.
    """

    n: int
    z_ids: np.ndarray
    scores: np.ndarray | None
    predictions: np.ndarray | None
    labels: np.ndarray | None

    def __init__(
        self,
        n: int,
        z_ids: np.ndarray,
        scores: np.ndarray | None = None,
        predictions: np.ndarray | None = None,
        labels: np.ndarray | None = None,
    ):
        z_ids = np.asarray(z_ids, dtype=np.int64)
        if z_ids.shape != (n,):
            raise FormatError("z_ids length must equal n")
        columns = {}
        for name, arr in (("scores", scores), ("predictions", predictions), ("labels", labels)):
            if arr is not None:
                arr = np.asarray(arr)
                if arr.shape != (n,):
                    raise FormatError(f"{name} length must equal n")
            columns[name] = arr
        vars(self).update(n=n, z_ids=z_ids, **columns)

    __setattr__ = __delattr__ = read_only


class LabelModel:
    """Conditional probability table P(Y=y | Z=z): one simplex row per z-id."""

    table: np.ndarray

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise FormatError("label model table must be 2-dimensional")
        if table.shape[1] < 2:
            raise FormatError(f"label model table needs at least 2 classes, got {table.shape[1]}")
        if not np.all(np.isfinite(table)):
            raise FormatError("label model entries must be finite")
        if np.any(table < -SIMPLEX_TOL) or np.any(table > 1.0 + SIMPLEX_TOL):
            raise FormatError("label model entries must lie in [0, 1]")
        sums = table.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise FormatError(
                f"label model row {bad} sums to {sums[bad]:.12g}, not 1"
            )
        # renormalize residual float error so rows are exactly on the simplex
        table = np.clip(table, 0.0, 1.0)
        table = table / table.sum(axis=1, keepdims=True)
        table.setflags(write=False)
        vars(self)["table"] = table

    __setattr__ = __delattr__ = read_only

    @property
    def num_signatures(self) -> int:
        return self.table.shape[0]

    @property
    def num_classes(self) -> int:
        return self.table.shape[1]


class GMatrix:
    """Cost values g(X_i, y, Z_i): a table of cost rows and one row id per sample.

    X enters the math only through G. A built-in metric has one cost row per
    prediction; a general per-sample G is the case ``rows = arange(n)``.
    """

    costs: np.ndarray
    rows: np.ndarray

    def __init__(self, costs: np.ndarray, rows: np.ndarray):
        costs = np.array(costs, dtype=np.float64)
        rows = np.array(rows, dtype=np.int64)
        if costs.ndim != 2 or rows.ndim != 1:
            raise FormatError("G needs a 2-dimensional cost table and one row id per sample")
        if not np.all(np.isfinite(costs)):
            raise FormatError("G contains non-finite entries")
        if rows.size and (rows.min() < 0 or rows.max() >= len(costs)):
            raise FormatError("G row ids lie outside its cost table")
        costs.setflags(write=False)
        rows.setflags(write=False)
        vars(self).update(costs=costs, rows=rows)

    __setattr__ = __delattr__ = read_only

    @property
    def n(self) -> int:
        return self.rows.size

    @property
    def num_classes(self) -> int:
        return self.costs.shape[1]


def check_covers(data: DatasetView, model: LabelModel) -> None:
    """Raise CoverageError if any z-id in ``data`` has no row in ``model``."""
    if data.z_ids.size and int(data.z_ids.max()) >= model.num_signatures:
        raise CoverageError("data contains z-ids beyond the label model's coverage")


class CellTable(NamedTuple):
    """The sample grouped into cells of equal signature and cost row, sorted by signature.

    The bounds read the data only through these cells. A built-in metric has at
    most |Z|*|Y| of them at any n.
    """

    n: int  # sample size
    z: np.ndarray  # signature of each cell
    costs: np.ndarray  # cells-by-|Y| cost row of each cell
    mass: np.ndarray  # share of the sample in each cell
    z_mass: np.ndarray  # share of the sample in each signature
    label_model: np.ndarray  # |Z|-by-|Y| table of P(Y | Z)
    sup_norm: float  # max |cost| over the whole cost table, also rows no cell uses


def cells_from_counts(
    z: np.ndarray, rows: np.ndarray, counts: np.ndarray, costs: np.ndarray, model: LabelModel
) -> CellTable:
    """The cell table of a sample given by counts of (signature, cost row) cells.

    Cell i holds ``counts[i]`` samples of signature ``z[i]`` whose cost row is
    ``costs[rows[i]]``. The cells come in ``cell_table``'s order, by signature
    and then by cost row; those with a zero count are dropped. The sample size
    is the total count, rounded (counts may be masses times n), and shares of it
    are formed only here. ``sup_norm``, of all of ``costs``, caps the solver's steps.
    """
    keep = counts > 0
    z, rows, counts = z[keep], rows[keep], counts[keep]
    total = counts.sum()
    return CellTable(
        n=round(total),
        z=z,
        costs=costs[rows],
        mass=counts / total,
        z_mass=np.bincount(z, weights=counts, minlength=model.num_signatures) / total,
        label_model=model.table,
        sup_norm=float(np.abs(costs).max(initial=0.0)),
    )


def cell_table(data: DatasetView, model: LabelModel, G: GMatrix) -> CellTable:
    """Check that data, label model and G fit together, then count the sample's cells."""
    check_covers(data, model)
    if G.n != data.n or G.num_classes != model.num_classes:
        raise ValueError("shape mismatch between data, label model, and G")
    num_rows = len(G.costs)
    # an integer key: np.unique on float cost rows is far slower
    keys, counts = np.unique(data.z_ids * num_rows + G.rows, return_counts=True)
    z, rows = np.divmod(keys, num_rows)
    return cells_from_counts(z, rows, counts, G.costs, model)
