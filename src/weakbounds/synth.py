"""Synthetic binary weak-supervision data with a closed-form exact label model.

Weak labelers are conditionally independent given Y: each abstains with its
own rate and otherwise reports Y correctly with its own accuracy. Under that
structure P(Y | Z) has a closed form (abstentions cancel out of the Bayes
ratio), so the generator hands back the exact conditional table with the
sample, and coverage scores against the exact population of cells.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .bounds import BoundEstimate, check_gamma, normal_interval, solve_bounds
from .domain import (
    ABSTAIN,
    DatasetView,
    LabelModel,
    cells_from_counts,
    encode_signatures,
    read_only,
)

SCORE_NOISE = 0.15
MAX_COVERAGE_LABELERS = 10  # coverage enumerates all 3^K vote tuples


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
    table: tuple[tuple[int, ...], ...]  # the distinct vote tuples; z-id z is table[z]
    model: LabelModel  # exact P(Y | Z) over observed signatures
    true_metrics: dict[str, float]


def class_likelihoods(votes: np.ndarray, spec: SynthSpec) -> np.ndarray:
    """The (2, m) products P(Y=y) * prod over the non-abstaining k of P(vote_k | y) of
    an m-by-K vote array, in labeler order. The abstain probability is left out: it
    is class-independent, so it cancels from P(Y | Z)."""
    like = np.array([[1.0 - spec.prior_y1], [spec.prior_y1]]).repeat(len(votes), axis=1)
    for v, acc in zip(np.asarray(votes).T, spec.labeler_accuracies):
        like *= np.where(v == ABSTAIN, 1.0, np.where(v == [[0], [1]], acc, 1.0 - acc))
    return like


def _posterior(like: np.ndarray, spec: SynthSpec) -> np.ndarray:
    """The P(Y | Z) rows of ``class_likelihoods``; the prior where both products are 0."""
    total = like[0] + like[1]
    p_y1 = np.divide(like[1], total, out=np.full(len(total), spec.prior_y1), where=total != 0.0)
    return np.column_stack([1.0 - p_y1, p_y1])


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
    model = LabelModel(table=_posterior(class_likelihoods(table, spec), spec))
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


def population(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """The generator's exact 3^K-by-2 masses of the (vote tuple, prediction) cells, and
    the P(Y | Z) row of each tuple, in ``itertools.product`` order over (ABSTAIN, 0, 1)."""
    votes = np.array(list(itertools.product((ABSTAIN, 0, 1), repeat=spec.num_labelers)))
    like = class_likelihoods(votes, spec)
    abstain = np.ones(len(votes))  # the class-independent factor
    for v, rate in zip(votes.T, spec.abstain_rates):
        abstain *= np.where(v == ABSTAIN, rate, 1.0 - rate)
    # P(pred = 1 | Y = y): a normal tail, of a score that is clipped to [0, 1]
    t, mean = spec.threshold, 0.5 + spec.score_separation * np.array([-0.5, 0.5])
    p1 = np.array([0.5 * math.erfc((t - m) / (SCORE_NOISE * math.sqrt(2.0))) for m in mean])
    p1 = p1 if 0.0 < t <= 1.0 else np.full(2, float(t <= 0.0))
    return abstain[:, None] * (like.T @ np.column_stack([1.0 - p1, p1])), _posterior(like, spec)


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


def coverage_experiment(spec: SynthSpec, replications: int, gamma: float) -> CoverageReport:
    """Empirical CI coverage of the smoothed accuracy bounds under a well-specified model.

    The truth is the smoothed bound of the generator's exact population of cells.
    Each replication is a size-n sample of cell counts, one multinomial draw, and
    scores whether its interval covers the truth. One solve solves the population
    and every sample. The population spans all 3^K vote tuples, so K is at most 10.
    """
    if replications < 100:
        raise ValueError("need at least 100 replications")
    check_gamma(gamma)
    if spec.num_labelers > MAX_COVERAGE_LABELERS:
        raise ValueError(f"coverage takes at most {MAX_COVERAGE_LABELERS} labelers "
                         f"(3^K vote tuples), got {spec.num_labelers}")
    mass, posterior = population(spec)

    def cells(counts):
        # only the signatures that hold counts, as in a sample's own table
        seen = np.flatnonzero(counts.any(axis=1))
        z, preds = np.repeat(np.arange(len(seen)), 2), np.tile([0, 1], len(seen))
        model = LabelModel(posterior[seen])
        # np.eye(2): accuracy's cost rows, one per prediction
        return cells_from_counts(z, preds, counts[seen].ravel(), np.eye(2), model)

    rng = np.random.default_rng(spec.seed)
    tables = [cells(mass * spec.n)]
    draws = (rng.multinomial(spec.n, mass.ravel()) for _ in range(replications))
    tables += [cells(counts.reshape(mass.shape)) for counts in draws]
    (truth_lo, truth_hi), *pairs = solve_bounds(tables)
    solves = [("accuracy on the population", est) for est in (truth_lo, truth_hi)]

    hits_lo = hits_hi = 0
    for r, (lo, hi) in enumerate(pairs):
        solves += [(f"accuracy in replication {r + 1}", est) for est in (lo, hi)]
        ci_lo, ci_hi = (normal_interval(e.value, e.plugin_std, e.n, gamma) for e in (lo, hi))
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
