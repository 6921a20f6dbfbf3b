"""Synthetic binary weak-supervision data with a closed-form exact label model.

Weak labelers are conditionally independent given Y: each abstains with its
own rate and otherwise reports Y correctly with its own accuracy. Under that
structure P(Y | Z) has a closed form (abstentions cancel out of the Bayes
ratio), so the generator can hand back the exact conditional table alongside
the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import confidence_interval, estimate_bounds
from .domain import (
    DatasetView,
    LabelModel,
    LabelSpace,
    SignatureTable,
    encode_signatures,
)
from .metrics import MetricKind, MetricSpec, build_g
from .objective import SmoothingConfig
from .solver import SolverConfig

SCORE_NOISE = 0.15


@dataclass(frozen=True)
class SynthSpec:
    n: int
    num_labelers: int = 3
    labeler_accuracies: tuple[float, ...] = (0.8, 0.7, 0.65)
    abstain_rates: tuple[float, ...] = (0.1, 0.1, 0.1)
    prior_y1: float = 0.5
    score_separation: float = 0.5
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        if len(self.labeler_accuracies) != self.num_labelers:
            raise ValueError("one accuracy per labeler required")
        if len(self.abstain_rates) != self.num_labelers:
            raise ValueError("one abstain rate per labeler required")
        for p in (*self.labeler_accuracies, *self.abstain_rates, self.prior_y1):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability {p} outside [0, 1]")
        if self.n < 2:
            raise ValueError("need n >= 2")


@dataclass(frozen=True)
class SynthResult:
    data: DatasetView
    table: SignatureTable
    model: LabelModel  # exact P(Y | Z) over observed signatures
    true_metrics: dict[str, float] = field(default_factory=dict)


def exact_posterior_y1(
    signature: tuple[int, ...], spec: SynthSpec
) -> float:
    """Closed-form P(Y=1 | Z=signature) under conditional independence."""
    like1 = spec.prior_y1
    like0 = 1.0 - spec.prior_y1
    for v, acc in zip(signature, spec.labeler_accuracies):
        if v == -1:
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

    sigs = np.empty((spec.n, spec.num_labelers), dtype=np.int64)
    for k in range(spec.num_labelers):
        abstain = rng.random(spec.n) < spec.abstain_rates[k]
        correct = rng.random(spec.n) < spec.labeler_accuracies[k]
        wl = np.where(correct, y, 1 - y)
        sigs[:, k] = np.where(abstain, -1, wl)

    center = 0.5 + spec.score_separation * (y - 0.5)
    scores = np.clip(center + SCORE_NOISE * rng.standard_normal(spec.n), 0.0, 1.0)
    preds = (scores >= spec.threshold).astype(np.int64)

    table, z_ids = encode_signatures([tuple(row) for row in sigs])
    rows = np.array(
        [
            [1.0 - exact_posterior_y1(s, spec), exact_posterior_y1(s, spec)]
            for s in table.signatures
        ]
    )
    model = LabelModel(table=rows, source="external")
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


@dataclass(frozen=True)
class CoverageReport:
    replications: int
    gamma: float
    truth_lower: float
    truth_upper: float
    coverage_lower: float
    coverage_upper: float
    se_lower: float
    se_upper: float


def coverage_experiment(
    spec: SynthSpec,
    replications: int,
    gamma: float,
    metric: MetricKind = MetricKind.ACCURACY,
    cfg: SmoothingConfig | None = None,
    scfg: SolverConfig | None = None,
    truth_factor: int = 100,
) -> CoverageReport:
    """Empirical CI coverage of the smoothed bounds under a well-specified model.

    Ground-truth values come from a single run with ``truth_factor * n``
    samples; each replication draws a fresh size-n sample from the same
    generator and checks whether its interval covers the truth.
    """
    if replications < 100:
        raise ValueError("need at least 100 replications")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    cfg = cfg or SmoothingConfig.for_classes(2)
    scfg = scfg or SolverConfig()
    mspec = MetricSpec(kind=metric, threshold=spec.threshold)

    def run(n, seed, solver_cfg):
        result = generate_synthetic(replace(spec, n=n, seed=seed))
        g = build_g(result.data, mspec, LabelSpace(num_classes=2))
        return estimate_bounds(result.data, result.model, g, cfg, solver_cfg)

    # the ground-truth run must actually converge; give it a larger budget
    truth_scfg = replace(scfg, max_iterations=max(10 * scfg.max_iterations, 2000))
    truth_lo, truth_hi = run(truth_factor * spec.n, spec.seed, truth_scfg)

    hits_lo = 0
    hits_hi = 0
    for r in range(replications):
        lo, hi = run(spec.n, spec.seed + 1 + r, scfg)
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
    )
