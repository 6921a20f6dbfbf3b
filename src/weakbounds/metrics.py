"""Cost matrices for each supported metric and joint-to-PRF conversion."""

from __future__ import annotations

from collections.abc import Collection
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .domain import (
    CellTable,
    DatasetView,
    GMatrix,
    LabelModel,
    LabelSpace,
    cells_from_counts,
    check_covers,
    read_only,
)
from .errors import FormatError
from .vocab import PRF_KINDS, PRIOR_Y1_KINDS, SWEEP_KINDS, MetricKind

if TYPE_CHECKING:  # annotations only: bounds is imported where a bound is solved
    from .bounds import BoundEstimate, ConfidenceInterval


class MetricSpec:
    kind: MetricKind
    loss_table: np.ndarray | None
    threshold: float | None

    def __init__(
        self,
        kind: MetricKind,
        loss_table: np.ndarray | None = None,
        threshold: float | None = None,
    ):
        if kind is MetricKind.RISK and loss_table is None:
            raise ValueError("risk metric requires a loss_table")
        if loss_table is not None:
            loss_table = np.asarray(loss_table, dtype=np.float64)
        vars(self).update(kind=kind, loss_table=loss_table, threshold=threshold)

    __setattr__ = __delattr__ = read_only


def _predictions(data: DatasetView, spec: MetricSpec, num_classes: int) -> np.ndarray:
    # a given threshold classifies by score, as a sweep does, even beside a pred column
    if spec.threshold is not None:
        if data.scores is None:
            raise FormatError("a threshold needs a score column")
        scores = np.asarray(data.scores)
        # a NaN fails every score >= t, which would count it as a negative
        if np.isnan(scores).any():
            raise FormatError("scores must not be NaN")
        # ties at the threshold classify positive
        return (scores >= spec.threshold).astype(np.int64)
    if data.predictions is not None:
        preds = np.asarray(data.predictions, dtype=np.int64)
        # a negative class would silently index from the end in build_g
        bad = (preds < 0) | (preds >= num_classes)
        if np.any(bad):
            raise FormatError(
                f"prediction {int(preds[np.argmax(bad)])} outside the classes 0..{num_classes - 1}"
            )
        return preds
    raise FormatError("metric needs predictions, or scores plus a threshold")


def _cost_table(kind: MetricKind, k: int, loss_table: np.ndarray | None = None) -> np.ndarray:
    """The cost rows of a built-in metric over ``k`` classes, one per prediction."""
    if kind is MetricKind.ACCURACY:
        return np.eye(k)
    if kind is MetricKind.RISK:
        if loss_table.shape != (k, k):
            raise ValueError("loss_table must be |Y|-by-|Y|")
        return loss_table
    # joint_positive: g = 1[h(x)=1 and y=1], binary only
    if k != 2:
        raise ValueError("joint_positive is defined for binary tasks only")
    return np.array([[0.0, 0.0], [0.0, 1.0]])


def build_g(data: DatasetView, spec: MetricSpec, space: LabelSpace) -> GMatrix:
    """Cost matrix for a metric: sample i takes the cost row of its prediction.

    For any other cost, construct a ``GMatrix`` directly.
    """
    preds = _predictions(data, spec, space.num_classes)
    return GMatrix(costs=_cost_table(spec.kind, space.num_classes, spec.loss_table), rows=preds)


def positive_margins(cells: CellTable) -> tuple[float, float]:
    """P(h=1) and P(Y=1) of a joint_positive cell table: the share of the cells
    whose cost row is the positive prediction's [0, 1], and the label model's
    P(Y=1 | Z) weighted by each signature's share."""
    p_h1 = float(cells.mass[cells.costs[:, 1] == 1.0].sum())
    return p_h1, float(cells.z_mass @ cells.label_model[:, 1])


def _scaled(
    lower: BoundEstimate, upper: BoundEstimate, factor: float
) -> tuple[float, float, float, float, bool]:
    """The (lower, upper, lower_std, upper_std, clamped) of a solved pair scaled
    by ``factor``: the values are clamped to [0, 1], with a flag if they were
    outside, and the plug-in stds scale by the same factor."""
    lo, hi = factor * lower.value, factor * upper.value
    clamped = lo < 0.0 or hi > 1.0
    lo_c, hi_c = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
    return lo_c, max(hi_c, lo_c), factor * lower.plugin_std, factor * upper.plugin_std, clamped


def _prf_factors(p_h1: float, p_y1: float | None) -> dict[str, float]:
    """The factor that scales a bound on P(h=1, Y=1) into precision, recall and
    F1, for each of them whose denominator is positive; without ``p_y1``, for
    precision alone."""
    table = [("precision", 1.0, p_h1)]
    if p_y1 is not None:
        table += zip(PRIOR_Y1_KINDS, (1.0, 2.0), (p_y1, p_h1 + p_y1))
    return {name: top / bottom for name, top, bottom in table if bottom > 0.0}


class SweepRow(NamedTuple):
    """One reported interval: a metric's bounds, their stds and normal CIs."""

    threshold: float | None
    metric: str
    lower: float
    upper: float
    lower_std: float
    upper_std: float
    ci_lower: ConfidenceInterval
    ci_upper: ConfidenceInterval
    clamped: bool = False


class SweepTable(NamedTuple):
    rows: tuple[SweepRow, ...] = ()
    # every solved bound, labelled "<metric> at threshold <t>", in solve order
    solves: tuple[tuple[str, BoundEstimate], ...] = ()


def bound_rows(
    lower: BoundEstimate,
    upper: BoundEstimate,
    metric: str,
    kinds: Collection[str],
    gamma: float,
    p_h1: float | None = None,
    p_y1: float | None = None,
    threshold: float | None = None,
) -> list[SweepRow]:
    """The reported rows of one solved pair, one per metric named in ``kinds``.

    The solved ``metric`` reports the pair itself; given ``p_h1``, a
    joint_positive pair also reports each of precision, recall and F1 whose
    denominator is known (recall and F1 need ``p_y1``) and positive: the joint
    pair scaled by 1/P(h=1), 1/P(Y=1) or 2/(P(h=1)+P(Y=1)), stds included, and
    clamped to [0, 1] with a flag. Every CI is a normal interval around the value.
    """
    from .bounds import normal_interval

    intervals = {metric: (lower.value, upper.value, lower.plugin_std, upper.plugin_std, False)}
    if metric == "joint_positive" and p_h1 is not None:
        factors = _prf_factors(p_h1, p_y1)
        intervals |= {name: _scaled(lower, upper, f) for name, f in factors.items()}
    return [
        SweepRow(
            threshold=threshold,
            metric=name,
            lower=lo,
            upper=hi,
            lower_std=lo_std,
            upper_std=hi_std,
            ci_lower=normal_interval(lo, lo_std, lower.n, gamma),
            ci_upper=normal_interval(hi, hi_std, upper.n, gamma),
            clamped=clamped,
        )
        for name, (lo, hi, lo_std, hi_std, clamped) in intervals.items()
        if name in kinds
    ]


def threshold_sweep(
    data: DatasetView,
    model: LabelModel,
    thresholds: list[float],
    metric_kinds: list[str],
    epsilon: float | None = None,
    gamma: float = 0.05,
    p_y1: float | None = None,
) -> SweepTable:
    """Bounds per threshold for the requested metrics; rows follow the order of ``thresholds``.

    ``metric_kinds`` may hold any of ``SWEEP_KINDS``; those of ``PRF_KINDS`` derive from
    one joint_positive solve. A sample is positive at ``t`` when ``score >= t``, so
    a threshold reads the sample only through each signature's count of positives.
    """
    from .bounds import solve_bounds

    if not thresholds:
        raise ValueError("empty threshold list")
    if data.scores is None:
        raise FormatError("threshold sweep needs scores")
    unknown = set(metric_kinds) - set(SWEEP_KINDS)
    if unknown:
        raise ValueError(f"unknown metric kinds {sorted(unknown)}; choose from {SWEEP_KINDS}")
    solved = [k for k in ("accuracy", "joint_positive") if k in metric_kinds]
    if set(PRF_KINDS) & set(metric_kinds) and "joint_positive" not in solved:
        solved.append("joint_positive")
    # through the constructor, which checks each column's length
    data = DatasetView(**vars(data))
    # a NaN fails every score >= t, but sorts above every threshold
    if np.isnan(data.scores).any():
        raise FormatError("scores must not be NaN")
    check_covers(data, model)
    costs = {metric: _cost_table(MetricKind(metric), model.num_classes) for metric in solved}

    # A sample is positive at each threshold at or below its score: a binary
    # search among the distinct thresholds, sorted in the scores' precision (in
    # which score >= t compares a float t), finds how many those are.
    cuts, column = np.unique(
        np.asarray(thresholds, dtype=np.result_type(data.scores, 0.0)), return_inverse=True
    )
    num_z, width = model.num_signatures, len(cuts) + 1
    key = np.searchsorted(cuts, data.scores, side="right")
    key += data.z_ids * width
    hist = np.bincount(key, minlength=num_z * width).reshape(num_z, width)
    # positives[:, j]: the samples of each signature with a score of at least cuts[j]
    positives = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1]
    totals = hist.sum(axis=1)
    # each signature's cells, prediction 0 then 1: a cost row per prediction
    z, preds = np.repeat(np.arange(num_z), 2), np.tile([0, 1], num_z)

    tables = []
    for j in column:
        counts = np.column_stack([totals - positives[:, j], positives[:, j]]).ravel()
        tables += [cells_from_counts(z, preds, counts, costs[metric], model) for metric in solved]
    # every threshold and metric in one solve, in the order of ``tables``
    labels = [(t, metric) for t in thresholds for metric in solved]
    rows, solves = [], []
    for (t, metric), cells, (lo, hi) in zip(labels, tables, solve_bounds(tables, epsilon)):
        solves += [(f"{metric} at threshold {t:g}", est) for est in (lo, hi)]
        # a given p_y1 replaces the joint table's P(Y=1)
        p_h1, p_y1_hat = positive_margins(cells) if metric == "joint_positive" else (None, None)
        prior = p_y1 if p_y1 is not None else p_y1_hat
        rows += bound_rows(lo, hi, metric, metric_kinds, gamma, p_h1, prior, t)
    return SweepTable(rows=tuple(rows), solves=tuple(solves))
