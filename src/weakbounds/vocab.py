"""The names and checks that the command line shares with the library.

Only the standard library: the parser converts and checks every option with
these before any command runs, so ``--help`` and a usage error load no numpy.
``metrics``, ``bounds`` and ``objective`` import them from here.
"""

from __future__ import annotations

import enum
import math

# the smallest smoothing temperature, a guard against overflow
EPSILON_FLOOR = 1e-6


class MetricKind(enum.Enum):
    RISK = "risk"
    ACCURACY = "accuracy"
    JOINT_POSITIVE = "joint_positive"


# the metrics a threshold sweep reports
PRF_KINDS = ("precision", "recall", "f1")
SWEEP_KINDS = ("accuracy", "joint_positive", *PRF_KINDS)
# the rows that divide by P(Y=1), the only ones that read it: recall and F1
PRIOR_Y1_KINDS = ("recall", "f1")


def check_gamma(gamma: float) -> float:
    """Return ``gamma`` if it is a usable CI miscoverage level, else raise ValueError."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if 1.0 - gamma / 2.0 == 1.0:
        raise ValueError(f"gamma must be large enough that 1 - gamma/2 < 1, got {gamma:g}")
    return gamma


def check_epsilon(eps: float) -> float:
    """Return ``eps`` if it is a usable temperature, else raise ValueError."""
    if not math.isfinite(eps):
        raise ValueError(f"epsilon must be finite, got {eps}")
    if eps < EPSILON_FLOOR:
        raise ValueError(f"epsilon must be >= {EPSILON_FLOOR} (overflow guard), got {eps}")
    return eps
