"""Core data types: label spaces, weak-label signatures, label models, cost matrices.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, FormatError

ABSTAIN = -1

SIMPLEX_TOL = 1e-9
CENTER_TOL = 1e-9


@dataclass(frozen=True)
class LabelSpace:
    """The finite set of classes, optionally named."""

    num_classes: int
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.class_names is not None:
            if len(self.class_names) != self.num_classes:
                raise ValueError("class_names length must equal num_classes")
            if len(set(self.class_names)) != self.num_classes:
                raise ValueError("class_names must be unique")


@dataclass(frozen=True)
class SignatureTable:
    """Bijection between observed weak-label tuples and dense ids 0..|Z|-1.

    Ids follow first-observed order. Only tuples that actually occur in the
    data are represented; unobserved tuples carry zero empirical mass.
    """

    signatures: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(repr=False)

    @property
    def num_signatures(self) -> int:
        return len(self.signatures)

    def id_of(self, signature: tuple[int, ...]) -> int:
        try:
            return self.index[signature]
        except KeyError:
            raise CoverageError(f"signature {signature} not in table") from None

    def decode(self, z_id: int) -> tuple[int, ...]:
        return self.signatures[z_id]


def encode_signatures(
    raw: list[tuple[int, ...]],
) -> tuple[SignatureTable, np.ndarray]:
    """Map raw weak-label tuples to dense z-ids in first-observed order."""
    if not raw:
        raise FormatError("empty signature list")
    width = len(raw[0])
    index: dict[tuple[int, ...], int] = {}
    ids = np.empty(len(raw), dtype=np.int64)
    for i, sig in enumerate(raw):
        sig = tuple(int(v) for v in sig)
        if len(sig) != width:
            raise FormatError(
                f"ragged signature lengths: expected {width}, got {len(sig)} at row {i}"
            )
        z = index.get(sig)
        if z is None:
            z = len(index)
            index[sig] = z
        ids[i] = z
    table = SignatureTable(signatures=tuple(index), index=index)
    return table, ids


@dataclass(frozen=True)
class DatasetView:
    """One evaluation dataset: z-ids plus whatever the classifier produced.

    Labels are only used by the counting label-model estimator and tests.
    """

    n: int
    z_ids: np.ndarray
    scores: np.ndarray | None = None
    predictions: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "z_ids", np.asarray(self.z_ids, dtype=np.int64))
        if self.z_ids.shape != (self.n,):
            raise FormatError("z_ids length must equal n")
        for name in ("scores", "predictions", "labels"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr)
            if arr.shape != (self.n,):
                raise FormatError(f"{name} length must equal n")
            object.__setattr__(self, name, arr)

    def take(self, indices: np.ndarray) -> "DatasetView":
        pick = lambda arr: None if arr is None else arr[indices]
        return DatasetView(
            n=len(indices),
            z_ids=self.z_ids[indices],
            scores=pick(self.scores),
            predictions=pick(self.predictions),
            labels=pick(self.labels),
        )


@dataclass(frozen=True)
class LabelModel:
    """Conditional probability table P(Y=y | Z=z): one simplex row per z-id."""

    table: np.ndarray
    source: str = "external"  # "external" or "counted-from-labels"

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 2:
            raise FormatError("label model table must be 2-dimensional")
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
        object.__setattr__(self, "table", table)

    @property
    def num_signatures(self) -> int:
        return self.table.shape[0]

    @property
    def num_classes(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class GMatrix:
    """Per-example cost values g(X_i, y, Z_i); the only way X enters the math."""

    values: np.ndarray
    sup_norm: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise FormatError("G must be an n-by-|Y| matrix")
        if not np.all(np.isfinite(values)):
            raise FormatError("G contains non-finite entries")
        if np.any(np.abs(values) > self.sup_norm + 1e-12):
            raise FormatError("|G| exceeds its declared sup_norm")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


def center_columns(a: np.ndarray) -> np.ndarray:
    """Project dual variables onto zero-column-sum form by removing column means.

    The dual objective is invariant to per-column shifts, so this leaves its
    value unchanged. Idempotent.
    """
    a = np.asarray(a, dtype=np.float64)
    return a - a.mean(axis=0, keepdims=True)


@dataclass(frozen=True)
class ValidationReport:
    """Report-only diagnostics for a label model against a signature table."""

    missing_signatures: tuple[tuple[int, ...], ...]
    simplex_violations: tuple[int, ...]
    min_entry: float
    max_entry: float

    @property
    def ok(self) -> bool:
        return not self.missing_signatures and not self.simplex_violations


def validate_label_model(
    table: np.ndarray,
    signature_table: SignatureTable,
    covered: set[tuple[int, ...]] | None = None,
) -> ValidationReport:
    """Check a raw conditional table against the signatures observed in data.

    ``table`` is the raw |rows|-by-|Y| array (possibly off-simplex, hence not a
    LabelModel instance). ``covered`` is the set of signatures the raw model
    defines; defaults to all signatures in ``signature_table``.
    """
    table = np.asarray(table, dtype=np.float64)
    if covered is None:
        covered = set(signature_table.signatures)
    missing = tuple(s for s in signature_table.signatures if s not in covered)
    bad_rows = []
    for i, row in enumerate(table):
        if (
            np.any(row < -SIMPLEX_TOL)
            or np.any(row > 1.0 + SIMPLEX_TOL)
            or abs(row.sum() - 1.0) > SIMPLEX_TOL
        ):
            bad_rows.append(i)
    return ValidationReport(
        missing_signatures=missing,
        simplex_violations=tuple(bad_rows),
        min_entry=float(table.min()) if table.size else float("nan"),
        max_entry=float(table.max()) if table.size else float("nan"),
    )
