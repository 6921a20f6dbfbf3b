"""Synthetic binary weak-supervision data with a closed-form exact label model.

Weak labelers are conditionally independent given Y: each abstains with its
own rate and otherwise reports Y correctly with its own accuracy. Under that
structure P(Y | Z) has a closed form (abstentions cancel out of the Bayes
ratio), so the generator can hand back the exact conditional table alongside
the sample.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bounds import BoundEstimate, check_gamma, confidence_interval, solve_bounds
from .domain import (
    ABSTAIN,
    DatasetView,
    LabelModel,
    LabelSpace,
    SignatureTable,
    cell_table,
    encode_signatures,
    read_only,
)
from .metrics import MetricKind, MetricSpec, build_g

SCORE_NOISE = 0.15


class SynthSpec:
    n: int
    num_labelers: int
    labeler_accuracies: tuple[float, ...]
    abstain_rates: tuple[float, ...]
    prior_y1: float
    score_separation: float
    seed: int
    threshold: float

    def __init__(
        self,
        n: int,
        num_labelers: int = 3,
        labeler_accuracies: tuple[float, ...] = (0.8, 0.7, 0.65),
        abstain_rates: tuple[float, ...] = (0.1, 0.1, 0.1),
        prior_y1: float = 0.5,
        score_separation: float = 0.5,
        seed: int = 0,
        threshold: float = 0.5,
    ):
        if len(labeler_accuracies) != num_labelers:
            raise ValueError("one accuracy per labeler required")
        if len(abstain_rates) != num_labelers:
            raise ValueError("one abstain rate per labeler required")
        for p in (*labeler_accuracies, *abstain_rates, prior_y1):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability {p} outside [0, 1]")
        if n < 2:
            raise ValueError("need n >= 2")
        # a NaN separation makes every score NaN; a NaN threshold classifies every sample negative
        for name, value in (("score_separation", score_separation), ("threshold", threshold)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        vars(self).update(
            n=n,
            num_labelers=num_labelers,
            labeler_accuracies=labeler_accuracies,
            abstain_rates=abstain_rates,
            prior_y1=prior_y1,
            score_separation=score_separation,
            seed=seed,
            threshold=threshold,
        )

    __setattr__ = __delattr__ = read_only


class SynthResult(NamedTuple):
    data: DatasetView
    table: SignatureTable
    model: LabelModel  # exact P(Y | Z) over observed signatures
    true_metrics: dict[str, float]


def exact_posterior_y1(
    signature: tuple[int, ...], spec: SynthSpec
) -> float:
    """Closed-form P(Y=1 | Z=signature) under conditional independence."""
    like1 = spec.prior_y1
    like0 = 1.0 - spec.prior_y1
    for v, acc in zip(signature, spec.labeler_accuracies):
        if v == ABSTAIN:
            continue  # abstain probability is class-independent and cancels
        like1 *= acc if v == 1 else 1.0 - acc
        like0 *= acc if v == 0 else 1.0 - acc
    total = like1 + like0
    if total == 0.0:
        return spec.prior_y1
    return like1 / total


def generate_synthetic(spec: SynthSpec) -> SynthResult:
    """Draw a dataset, its exact label model, and the realized true metrics."""
    rng = np.random.default_rng(spec.seed)
    y = (rng.random(spec.n) < spec.prior_y1).astype(np.int64)

    # column-major, so each labeler's votes fill one contiguous column
    sigs = np.empty((spec.n, spec.num_labelers), dtype=np.int64, order="F")
    for k, vote in enumerate(sigs.T):
        abstain = rng.random(spec.n) < spec.abstain_rates[k]
        correct = rng.random(spec.n) < spec.labeler_accuracies[k]
        np.equal(y, correct, out=vote)  # y when correct, 1 - y otherwise
        vote[abstain] = ABSTAIN

    scores = rng.standard_normal(spec.n)
    scores *= SCORE_NOISE
    scores += 0.5 + spec.score_separation * (y - 0.5)
    np.clip(scores, 0.0, 1.0, out=scores)
    preds = (scores >= spec.threshold).astype(np.int64)

    table, z_ids = encode_signatures(sigs)
    rows = np.array(
        [
            [1.0 - exact_posterior_y1(s, spec), exact_posterior_y1(s, spec)]
            for s in table.signatures
        ]
    )
    model = LabelModel(table=rows)
    data = DatasetView(n=spec.n, z_ids=z_ids, scores=scores, predictions=preds, labels=y)

    tp = float(np.mean((preds == 1) & (y == 1)))
    p_h1 = float(np.mean(preds == 1))
    p_y1 = float(np.mean(y == 1))
    metrics = {
        "accuracy": float(np.mean(preds == y)),
        "joint_positive": tp,
        "p_h1": p_h1,
        "p_y1": p_y1,
        "precision": tp / p_h1 if p_h1 > 0 else float("nan"),
        "recall": tp / p_y1 if p_y1 > 0 else float("nan"),
        "f1": 2 * tp / (p_h1 + p_y1) if p_h1 + p_y1 > 0 else float("nan"),
    }
    return SynthResult(data=data, table=table, model=model, true_metrics=metrics)


class CoverageReport(NamedTuple):
    replications: int
    gamma: float
    truth_lower: float
    truth_upper: float
    coverage_lower: float
    coverage_upper: float
    se_lower: float
    se_upper: float
    # every solved bound, labelled by its sample; the CLI leaves them out of the result file
    solves: tuple[tuple[str, BoundEstimate], ...] = ()


def coverage_experiment(
    spec: SynthSpec,
    replications: int,
    gamma: float,
    truth_factor: int = 100,
) -> CoverageReport:
    """Empirical CI coverage of the smoothed accuracy bounds under a well-specified model.

    Ground-truth values come from a single run with ``truth_factor * n``
    samples; each replication draws a fresh size-n sample from the same
    generator and checks whether its interval covers the truth. One solve
    solves every sample.
    """
    if replications < 100:
        raise ValueError("need at least 100 replications")
    check_gamma(gamma)
    mspec = MetricSpec(kind=MetricKind.ACCURACY, threshold=spec.threshold)

    def cells(n, seed):
        # through the constructor, which checks the spec
        result = generate_synthetic(SynthSpec(**{**vars(spec), "n": n, "seed": seed}))
        g = build_g(result.data, mspec, LabelSpace(num_classes=2))
        return cell_table(result.data, result.model, g)

    tables = [cells(truth_factor * spec.n, spec.seed)]
    tables += [cells(spec.n, spec.seed + 1 + r) for r in range(replications)]
    (truth_lo, truth_hi), *pairs = solve_bounds(tables)
    solves = [("accuracy on the truth sample", est) for est in (truth_lo, truth_hi)]

    hits_lo = hits_hi = 0
    for r, (lo, hi) in enumerate(pairs):
        solves += [(f"accuracy in replication {r + 1}", est) for est in (lo, hi)]
        ci_lo = confidence_interval(lo, gamma)
        ci_hi = confidence_interval(hi, gamma)
        hits_lo += ci_lo.low <= truth_lo.value <= ci_lo.high
        hits_hi += ci_hi.low <= truth_hi.value <= ci_hi.high

    cov_lo = float(hits_lo) / replications
    cov_hi = float(hits_hi) / replications
    se = lambda p: float(np.sqrt(p * (1.0 - p) / replications))
    return CoverageReport(
        replications=replications,
        gamma=gamma,
        truth_lower=truth_lo.value,
        truth_upper=truth_hi.value,
        coverage_lower=cov_lo,
        coverage_upper=cov_hi,
        se_lower=se(cov_lo),
        se_upper=se(cov_hi),
        solves=tuple(solves),
    )
