"""Informativeness and misspecification diagnostics, plus model selection."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundEstimate, estimate_bounds
from .domain import DatasetView, GMatrix, LabelModel
from .errors import CoverageError
from .objective import SmoothingConfig
from .solver import SolverConfig


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two discrete distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    return float(0.5 * np.abs(p - q).sum())


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
    counts = np.bincount(data.z_ids, minlength=num_signatures)
    return counts / data.n


def informativeness_bound(g_sup: float, h_cond: float) -> float:
    """Entropy-based cap on the exact interval width U - L."""
    if g_sup < 0 or h_cond < 0:
        raise ValueError("inputs must be non-negative")
    return float(np.sqrt(8.0 * g_sup**2 * h_cond))


@dataclass(frozen=True)
class MisspecReport:
    delta: float
    bound_gap_lower: float
    bound_gap_upper: float
    certificate: float
    optimizer_sup_norm_p: float
    optimizer_sup_norm_q: float
    # the four solved bounds, labelled by model; not part of the report's values
    solves: tuple[tuple[str, BoundEstimate], ...] = field(default=(), repr=False, compare=False)

    @property
    def within_certificate(self) -> bool:
        tol = 1e-5
        return (
            self.bound_gap_lower <= self.certificate + tol
            and self.bound_gap_upper <= self.certificate + tol
        )


def misspecification_report(
    data: DatasetView,
    model_p: LabelModel,
    model_q: LabelModel,
    G: GMatrix,
    cfg: SmoothingConfig | None = None,
    scfg: SolverConfig | None = None,
) -> MisspecReport:
    """Bound shift under an alternative label model, with its computable certificate.

    The certificate is 2 * delta * max optimizer sup-norm, where delta is the
    worst per-signature total variation distance between the two models.
    """
    if model_p.table.shape != model_q.table.shape:
        raise CoverageError("models must cover the same signatures and classes")
    delta = max(
        tv_distance(model_p.table[z], model_q.table[z])
        for z in range(model_p.num_signatures)
    )
    lo_p, up_p = estimate_bounds(data, model_p, G, cfg, scfg)
    lo_q, up_q = estimate_bounds(data, model_q, G, cfg, scfg)
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


def label_model_score(data: DatasetView, model: LabelModel, G: GMatrix) -> float:
    """Mean of the label-model expectation of g per sample.

    This is the value of the conditional-independence coupling, so it always
    lies inside the exact bounds.
    """
    if data.z_ids.size and int(data.z_ids.max()) >= model.num_signatures:
        raise CoverageError("data contains z-ids beyond the label model's coverage")
    return float(np.einsum("iy,iy->i", G.values, model.table[data.z_ids]).mean())


class SelectionStrategy(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    AVERAGE = "average"
    LABEL_MODEL = "label_model"


@dataclass(frozen=True)
class SelectionResult:
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
