"""Cost matrices for each supported metric and joint-to-PRF conversion."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    BoundEstimate,
    ConfidenceInterval,
    confidence_interval,
    estimate_bounds,
)
from .domain import DatasetView, GMatrix, LabelModel, LabelSpace
from .errors import FormatError
from .objective import SmoothingConfig
from .solver import SolverConfig


class MetricKind(enum.Enum):
    RISK = "risk"
    ACCURACY = "accuracy"
    JOINT_POSITIVE = "joint_positive"
    CUSTOM = "custom"


@dataclass(frozen=True)
class MetricSpec:
    kind: MetricKind
    loss_table: np.ndarray | None = None
    threshold: float | None = None

    def __post_init__(self):
        if self.kind is MetricKind.RISK and self.loss_table is None:
            raise ValueError("risk metric requires a loss_table")
        if self.loss_table is not None:
            object.__setattr__(
                self, "loss_table", np.asarray(self.loss_table, dtype=np.float64)
            )


def _predictions(data: DatasetView, spec: MetricSpec, num_classes: int) -> np.ndarray:
    if data.predictions is not None:
        preds = np.asarray(data.predictions, dtype=np.int64)
        # a negative class would silently index from the end in build_g
        bad = (preds < 0) | (preds >= num_classes)
        if np.any(bad):
            raise FormatError(
                f"prediction {int(preds[np.argmax(bad)])} outside the classes 0..{num_classes - 1}"
            )
        return preds
    if data.scores is not None and spec.threshold is not None:
        # ties at the threshold classify positive
        return (np.asarray(data.scores) >= spec.threshold).astype(np.int64)
    raise FormatError("metric needs predictions, or scores plus a threshold")


def build_g(data: DatasetView, spec: MetricSpec, space: LabelSpace) -> GMatrix:
    """Cost matrix for a metric: row i holds g(X_i, y, Z_i) for every class y."""
    if spec.kind is MetricKind.CUSTOM:
        raise ValueError("custom metrics: construct a GMatrix directly")
    k = space.num_classes
    preds = _predictions(data, spec, k)
    if spec.kind is MetricKind.ACCURACY:
        values = np.zeros((data.n, k))
        values[np.arange(data.n), preds] = 1.0
        return GMatrix(values=values, sup_norm=1.0)
    if spec.kind is MetricKind.RISK:
        table = spec.loss_table
        if table.shape != (k, k):
            raise ValueError("loss_table must be |Y|-by-|Y|")
        return GMatrix(values=table[preds], sup_norm=float(np.abs(table).max()))
    # joint_positive: g = 1[h(x)=1 and y=1], binary only
    if k != 2:
        raise ValueError("joint_positive is defined for binary tasks only")
    values = np.zeros((data.n, 2))
    values[:, 1] = (preds == 1).astype(np.float64)
    return GMatrix(values=values, sup_norm=1.0)


def estimate_h1(
    data: DatasetView,
    threshold: float | None = None,
    predictions: np.ndarray | None = None,
) -> float:
    """Fraction of samples a binary classifier labels positive."""
    if predictions is None:
        predictions = _predictions(data, MetricSpec(MetricKind.ACCURACY, threshold=threshold), 2)
    return float(np.mean(np.asarray(predictions) == 1))


@dataclass(frozen=True)
class MetricInterval:
    lower: float
    upper: float
    lower_std: float
    upper_std: float
    clamped: bool


@dataclass(frozen=True)
class PRFBounds:
    precision: MetricInterval
    recall: MetricInterval
    f1: MetricInterval
    p_hat_h1: float
    p_hat_y1: float


def _scaled(lower: BoundEstimate, upper: BoundEstimate, factor: float) -> MetricInterval:
    lo, hi = factor * lower.value, factor * upper.value
    clamped = lo < 0.0 or hi > 1.0
    lo_c, hi_c = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
    return MetricInterval(
        lower=lo_c,
        upper=max(hi_c, lo_c),
        lower_std=factor * lower.plugin_std,
        upper_std=factor * upper.plugin_std,
        clamped=clamped,
    )


def prf_from_joint(
    lower: BoundEstimate, upper: BoundEstimate, p_h1: float, p_y1: float
) -> PRFBounds:
    """Precision/recall/F1 bounds from bounds on P(h=1, Y=1).

    The joint bound scales by 1/P(h=1) for precision, 1/P(Y=1) for recall, and
    2/(P(h=1)+P(Y=1)) for F1; the plug-in stds scale by the same factors.
    Values are clamped to [0, 1] post hoc with a flag.
    """
    if p_h1 <= 0.0 or p_y1 <= 0.0:
        raise ZeroDivisionError("degenerate denominator: p_h1 and p_y1 must be > 0")
    return PRFBounds(
        precision=_scaled(lower, upper, 1.0 / p_h1),
        recall=_scaled(lower, upper, 1.0 / p_y1),
        f1=_scaled(lower, upper, 2.0 / (p_h1 + p_y1)),
        p_hat_h1=p_h1,
        p_hat_y1=p_y1,
    )


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    metric: str
    lower: float
    upper: float
    lower_std: float
    upper_std: float
    ci_lower: ConfidenceInterval
    ci_upper: ConfidenceInterval


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)
    # every solved bound, labelled "<metric> at threshold <t>", in solve order
    solves: tuple[tuple[str, BoundEstimate], ...] = field(default_factory=tuple)


def _ci_from_values(value, std, n, gamma) -> ConfidenceInterval:
    from scipy.stats import norm

    tau = float(norm.ppf(1.0 - gamma / 2.0))
    half = tau * std / np.sqrt(n)
    return ConfidenceInterval(level=1.0 - gamma, low=value - half, high=value + half)


def threshold_sweep(
    data: DatasetView,
    model: LabelModel,
    thresholds: list[float],
    metric_kinds: list[str],
    cfg: SmoothingConfig | None = None,
    scfg: SolverConfig | None = None,
    gamma: float = 0.05,
    p_y1: float | None = None,
) -> SweepTable:
    """Bounds per threshold for the requested metrics; rows ordered by threshold.

    ``metric_kinds`` may contain "accuracy", "joint_positive", "precision",
    "recall", and "f1"; the last three are derived from one joint solve.
    """
    if not thresholds:
        raise ValueError("empty threshold list")
    if data.scores is None:
        raise FormatError("threshold sweep needs scores")
    space = LabelSpace(num_classes=model.num_classes)
    known = {"accuracy", "joint_positive", "precision", "recall", "f1"}
    unknown = set(metric_kinds) - known
    if unknown:
        raise ValueError(f"unknown metric kinds: {sorted(unknown)}")
    wants_prf = bool({"precision", "recall", "f1"} & set(metric_kinds))

    if p_y1 is None and wants_prf:
        from .bounds import estimate_class_prior

        p_y1 = estimate_class_prior(data, model, positive_class=1)

    rows, solves = [], []
    for t in thresholds:
        at_t = DatasetView(
            n=data.n,
            z_ids=data.z_ids,
            scores=data.scores,
            predictions=(data.scores >= t).astype(np.int64),
            labels=data.labels,
        )
        if "accuracy" in metric_kinds:
            g = build_g(at_t, MetricSpec(MetricKind.ACCURACY), space)
            lo, hi = estimate_bounds(at_t, model, g, cfg, scfg)
            solves += [(f"accuracy at threshold {t:g}", est) for est in (lo, hi)]
            rows.append(
                SweepRow(
                    threshold=t,
                    metric="accuracy",
                    lower=lo.value,
                    upper=hi.value,
                    lower_std=lo.plugin_std,
                    upper_std=hi.plugin_std,
                    ci_lower=confidence_interval(lo, gamma),
                    ci_upper=confidence_interval(hi, gamma),
                )
            )
        if "joint_positive" in metric_kinds or wants_prf:
            g = build_g(at_t, MetricSpec(MetricKind.JOINT_POSITIVE), space)
            lo, hi = estimate_bounds(at_t, model, g, cfg, scfg)
            solves += [(f"joint_positive at threshold {t:g}", est) for est in (lo, hi)]
            if "joint_positive" in metric_kinds:
                rows.append(
                    SweepRow(
                        threshold=t,
                        metric="joint_positive",
                        lower=lo.value,
                        upper=hi.value,
                        lower_std=lo.plugin_std,
                        upper_std=hi.plugin_std,
                        ci_lower=confidence_interval(lo, gamma),
                        ci_upper=confidence_interval(hi, gamma),
                    )
                )
            if wants_prf:
                p_h1 = estimate_h1(at_t, predictions=at_t.predictions)
                if p_h1 > 0.0 and p_y1 > 0.0:
                    prf = prf_from_joint(lo, hi, p_h1, p_y1)
                    for name in ("precision", "recall", "f1"):
                        if name not in metric_kinds:
                            continue
                        mi: MetricInterval = getattr(prf, name)
                        rows.append(
                            SweepRow(
                                threshold=t,
                                metric=name,
                                lower=mi.lower,
                                upper=mi.upper,
                                lower_std=mi.lower_std,
                                upper_std=mi.upper_std,
                                ci_lower=_ci_from_values(mi.lower, mi.lower_std, data.n, gamma),
                                ci_upper=_ci_from_values(mi.upper, mi.upper_std, data.n, gamma),
                            )
                        )
    return SweepTable(rows=tuple(rows), solves=tuple(solves))
