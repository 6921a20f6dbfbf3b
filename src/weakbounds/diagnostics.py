"""Informativeness and misspecification diagnostics, plus model selection."""

from __future__ import annotations

import enum
from math import frexp, ldexp, sqrt
from typing import NamedTuple

import numpy as np

from .bounds import BoundEstimate, solve_bounds
from .domain import CellTable, DatasetView, LabelModel
from .errors import CoverageError, NumericalError


def tv_distance(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Total variation distance along the last axis: a float for two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    d = 0.5 * np.abs(p - q).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


def conditional_entropy_y(model: LabelModel, z_weights: np.ndarray) -> float:
    """Entropy of Y given Z in nats, weighted over signatures; 0*log 0 = 0."""
    w = np.asarray(z_weights, dtype=np.float64)
    if w.shape != (model.num_signatures,):
        raise ValueError("z_weights length must equal the number of signatures")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("z_weights must be a probability vector")
    p = model.table
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(p), 0.0)
    return float(-(w @ plogp.sum(axis=1)))


def empirical_z_weights(data: DatasetView, num_signatures: int) -> np.ndarray:
    """Each signature's share of the sample, as a ``CellTable``'s ``z_mass`` holds it."""
    counts = np.bincount(data.z_ids, minlength=num_signatures)
    return counts / data.n


def informativeness_bound(g_sup: float, h_cond: float) -> float:
    """Entropy-based cap on the exact interval width U - L, sqrt(8 g_sup^2 h_cond).

    ``g_sup`` = m * 2**e is squared as m * m, which cannot overflow, and the
    cap scaled back exactly; a cap beyond the float range raises NumericalError.
    """
    if g_sup < 0 or h_cond < 0:
        raise ValueError("inputs must be non-negative")
    m, e = frexp(g_sup)
    try:
        return ldexp(sqrt(8.0 * (m * m) * h_cond), e)
    except OverflowError:
        raise NumericalError("informativeness bound beyond the float range") from None


class MisspecReport(NamedTuple):
    delta: float
    bound_gap_lower: float
    bound_gap_upper: float
    certificate: float
    optimizer_sup_norm_p: float
    optimizer_sup_norm_q: float
    # the four solved bounds, labelled by model; the CLI leaves them out of the result file
    solves: tuple[tuple[str, BoundEstimate], ...] = ()

    @property
    def within_certificate(self) -> bool:
        tol = 1e-5
        return (
            self.bound_gap_lower <= self.certificate + tol
            and self.bound_gap_upper <= self.certificate + tol
        )


def misspecification_report(
    cells: CellTable, model_q: LabelModel, epsilon: float | None = None
) -> MisspecReport:
    """Bound shift when ``model_q`` replaces the label model of ``cells``, with
    its computable certificate.

    The certificate is 2 * delta * max optimizer sup-norm, where delta is the
    worst per-signature total variation distance between the two models.
    """
    model_p = cells.label_model
    if model_p.shape != model_q.table.shape:
        raise CoverageError("models must cover the same signatures and classes")
    delta = float(tv_distance(model_p, model_q.table).max())
    # both models in one solve
    (lo_p, up_p), (lo_q, up_q) = solve_bounds(
        [cells, cells._replace(label_model=model_q.table)], epsilon
    )
    norm_p = max(lo_p.report.optimizer_sup_norm, up_p.report.optimizer_sup_norm)
    norm_q = max(lo_q.report.optimizer_sup_norm, up_q.report.optimizer_sup_norm)
    return MisspecReport(
        delta=delta,
        bound_gap_lower=abs(lo_q.value - lo_p.value),
        bound_gap_upper=abs(up_q.value - up_p.value),
        certificate=2.0 * delta * max(norm_p, norm_q),
        optimizer_sup_norm_p=norm_p,
        optimizer_sup_norm_q=norm_q,
        solves=tuple(
            [("label model", est) for est in (lo_p, up_p)]
            + [("alternative label model", est) for est in (lo_q, up_q)]
        ),
    )


def label_model_score(cells: CellTable) -> float:
    """Mean of the label-model expectation of g per sample.

    This is the value of the conditional-independence coupling, so it always
    lies inside the exact bounds.
    """
    return float(cells.mass @ (cells.costs * cells.label_model[cells.z]).sum(axis=1))


class SelectionStrategy(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    AVERAGE = "average"
    LABEL_MODEL = "label_model"


class SelectionResult(NamedTuple):
    strategy: SelectionStrategy
    chosen_index: int
    scores: tuple[float, ...]


def select_model(
    candidates: list[tuple[float, float, float]],
    strategy: SelectionStrategy,
) -> SelectionResult:
    """Argmax over candidates of the strategy's score; ties go to the lowest index.

    Each candidate is (lower bound, upper bound, label-model score).
    """
    if not candidates:
        raise ValueError("empty candidate list")
    pick = {
        SelectionStrategy.LOWER: lambda c: c[0],
        SelectionStrategy.UPPER: lambda c: c[1],
        SelectionStrategy.AVERAGE: lambda c: 0.5 * (c[0] + c[1]),
        SelectionStrategy.LABEL_MODEL: lambda c: c[2],
    }[strategy]
    scores = tuple(float(pick(c)) for c in candidates)
    chosen = int(np.argmax(scores))  # argmax keeps the first of ties
    return SelectionResult(strategy=strategy, chosen_index=chosen, scores=scores)
