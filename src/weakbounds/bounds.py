"""End-to-end bound estimation with plug-in standard deviations and normal CIs."""

from __future__ import annotations

import enum
from math import fabs, frexp, ldexp, log, sqrt
from typing import NamedTuple

import numpy as np

from .domain import CellTable
from .errors import InsufficientSampleError, NumericalError
from .objective import default_epsilon, gradient, hessian, minimized_value
from .solver import SolveReport, minimize
from .vocab import check_epsilon, check_gamma


# the closed form's stand-in for an infinite optimizer: exp(-40) < 2**-54, so
# a weight of that size leaves a soft max's sum of weights at exactly 1
SATURATION = 40.0
# A closed-form beta (see _closed_form) within this fraction of the masses it is
# the difference of is zero. Where beta is zero and the cost gaps are far apart,
# the objective is flat to rounding over a wide range of u, and the root is the
# middle of that range, so the optimizer does not hang on the last bits of the
# masses: a signature's cells give one optimizer, merged or one per sample.
FLAT = 1e-12


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


class BoundEstimate(NamedTuple):
    side: Side
    value: float
    optimizer: np.ndarray  # |Y|-by-|Z| dual matrix; its columns sum to zero up to rounding
    plugin_std: float
    n: int
    report: SolveReport
    epsilon: float


class ConfidenceInterval(NamedTuple):
    level: float
    low: float
    high: float


def plugin_std(cells, values) -> float:
    """Sample standard deviation (divisor n-1) of the per-sample dual values.

    ``values`` holds the dual value of each cell, as ``minimized_value``'s
    evaluation gives it.
    The deviations are divided by the power of two just above their largest
    magnitude before they are squared, so that no square overflows. Such a
    scaling is exact, and so the std is the one of the unscaled squares
    wherever those fit.
    """
    if cells.n < 2:
        raise InsufficientSampleError("plug-in std needs at least 2 samples")
    deviations = values - cells.mass @ values
    exponent = frexp(float(np.abs(deviations).max(initial=0.0)))[1]
    variance = cells.mass @ np.ldexp(deviations, -exponent) ** 2
    return ldexp(float(np.sqrt(variance * cells.n / (cells.n - 1))), exponent)


def _newton_ridge(cells, epsilon) -> np.ndarray:
    """Added to each signature's Hessian block so that every block is invertible.

    The all-ones direction is an exact null direction of each block and the
    gradient is orthogonal to it, so a multiple of 11^T fixes that direction
    without changing the step. A relative floor on the diagonal keeps blocks of
    saturated weights (exactly zero at small eps) invertible.
    """
    k = cells.label_model.shape[1]
    scale = cells.z_mass / epsilon
    return scale[:, None, None] * (np.ones((k, k)) / k**2 + 1e-12 * np.eye(k))


def _stack(tables) -> CellTable:
    """One cell table holding each of ``tables``, their signatures numbered in turn."""
    part = lambda field: [getattr(cells, field) for cells in tables]
    starts = np.cumsum([0] + [len(q) for q in part("label_model")])
    return CellTable(
        n=sum(part("n")),
        z=np.concatenate([z + start for z, start in zip(part("z"), starts)]),
        costs=np.concatenate(part("costs")),
        mass=np.concatenate(part("mass")),
        z_mass=np.concatenate(part("z_mass")),
        label_model=np.concatenate(part("label_model")),
        sup_norm=max(part("sup_norm")),
    )


def _closed_form(cells, epsilon) -> np.ndarray:
    """The centred optimizer of a binary cell table whose signatures each have
    at most two cost gaps g_1 - g_0, as every built-in metric's cells do; at a
    signature of more gaps, a start.

    A signature's share depends on its column only through u = (a_1 - a_0) / eps,
    and cell c weights class 1 by sigmoid(d_c + u), with d_c = (g_c1 - g_c0) / eps.
    The optimum sets the mass-weighted sum of those weights to s = m_z q_1, the
    label model's mass on class 1, and so that of the class-0 weights to
    f = m_z q_0. Let m_h be the mass of the cells at the larger gap d_h, m_l that
    at the smaller d_l (zero if there is one gap; every cell below d_h if there
    are more) and rho = exp(d_l - d_h) <= 1.
    Then X = exp(u + d_h) is the positive root of ``f rho X^2 + beta X - s = 0``
    with beta = m_h - s + rho (m_l - s), and, with the classes swapped,
    exp(-u - d_l) is the root of the same equation in (f, s, m_l, m_h). The two
    betas sum to about zero; the orientation whose beta is the larger takes its
    root, 2 s / (beta + sqrt(beta^2 + 4 rho f s)) or the same with f for s, in
    logs, without cancellation or overflow. A label model with no mass on a class has no finite optimum:
    that signature takes the column at which each cell's weight on the class is
    at most exp(-SATURATION), where every cell value equals its limit. A
    signature without cells keeps a zero column.
    """
    num_z = len(cells.z_mass)
    gap = cells.costs[:, 1] - cells.costs[:, 0]
    count = np.bincount(cells.z, minlength=num_z)
    present = np.flatnonzero(count)
    first = (np.cumsum(count) - count)[present]
    g_hi, g_lo = np.zeros(num_z), np.zeros(num_z)
    g_hi[present] = np.maximum.reduceat(gap, first)
    g_lo[present] = np.minimum.reduceat(gap, first)
    on_hi = np.where(gap == g_hi[cells.z], cells.mass, 0.0)
    m_hi, m_lo = (np.bincount(cells.z, weights=w, minlength=num_z)[present]
                  for w in (on_hi, cells.mass - on_hi))
    d_hi, d_lo = g_hi[present] / epsilon, g_lo[present] / epsilon
    spread = d_hi - d_lo
    rho = np.exp(-spread)
    f, s = cells.z_mass[present] * cells.label_model[present].T
    beta_1 = m_hi - s + rho * (m_lo - s)
    beta_0 = m_lo - f + rho * (m_hi - f)
    toward_1 = beta_1 >= beta_0
    target, other = np.where(toward_1, s, f), np.where(toward_1, f, s)
    beta = np.maximum(beta_1, beta_0)
    beta[np.abs(beta) <= FLAT * (np.where(toward_1, m_hi, m_lo) + target)] = 0.0
    with np.errstate(divide="ignore"):
        # the denominator is at least sqrt(4 rho f s), also where rho underflows
        log_den = np.maximum(
            np.log(beta + np.sqrt(beta * beta + 4.0 * rho * other * target)),
            0.5 * (np.log(4.0 * other) + np.log(target) - spread),
        )
        log_x = np.where(target > 0.0, np.log(2.0 * target) - log_den, -SATURATION)
    half = np.zeros(num_z)
    half[present] = 0.5 * epsilon * np.where(toward_1, log_x - d_hi, -log_x - d_lo)
    return np.stack([-half, half])


def solve_bounds(
    tables: list[CellTable], epsilon: float | None = None
) -> list[tuple[BoundEstimate, BoundEstimate]]:
    """The (lower, upper) pair of each cell table, from one stacked Newton solve.

    The temperature is ``epsilon``, by default ``default_epsilon``. A binary
    stack starts at its closed form (``_closed_form``), any other at zeros. A
    signature whose closed form is its optimizer meets the stopping test there
    and takes no step; every other column takes Newton steps from its start.
    Each signature of each side is its own column, with its own step length and
    stopping test, so each pair is the one its table gets alone, bit for bit,
    reports included: a report's iterations and gradient norm are those of its
    own signatures. Every table must have the same classes.
    """
    if epsilon is not None:
        epsilon = check_epsilon(epsilon)
    if not tables:
        return []
    if epsilon is None:
        epsilon = default_epsilon(tables[0].label_model.shape[1])
    # The objective is the upper bound's. The lower bound of G is minus the
    # upper bound of -G, so each table enters as its negated cost rows and as
    # itself. Since -(g + a) is (-g) + (-a) in IEEE arithmetic, negation passes
    # exactly through every max, exp and log argument, dot product and sum here.
    sides = [table for cells in tables for table in (cells._replace(costs=-cells.costs), cells)]
    widths = [len(cells.label_model) for cells in sides]
    starts = np.cumsum([0] + widths)
    stacked = _stack(sides)
    # a start or an evaluation beyond the float range is a NumericalError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = np.zeros(stacked.label_model.shape[::-1])
        if len(a0) == 2:
            a0 = _closed_form(stacked, epsilon)
            if not np.isfinite(a0).all():
                raise NumericalError(
                    f"start not finite: a cost gap over epsilon ({epsilon:g}) is beyond the float range"
                )
        # A larger step overshoots when the weights saturate at small eps; the
        # eps term keeps a G of all zeros from freezing the iterate.
        max_step = np.repeat([2.0 * cells.sup_norm + epsilon for cells in sides], widths)
        ridge = _newton_ridge(stacked, epsilon)
        # Both starts have zero column sums, and the ridge keeps every Newton step
        # orthogonal to the all-ones vector, so the optimizer keeps them up to
        # rounding and needs no centring.
        a_hat, columns, (values, _) = minimize(
            lambda a: minimized_value(stacked, a, epsilon),
            lambda evaluation: gradient(stacked, evaluation),
            lambda evaluation: hessian(stacked, evaluation, epsilon) + ridge,
            a0,
            max_step,
        )
    # The solve's last evaluation holds each cell's value at the optimizer. A
    # cell's value does not depend on what is stacked beside it, so each side
    # takes its own values, the cells of its signatures, with no further pass.
    per_side = np.split(values, np.searchsorted(stacked.z, starts[1:-1]))
    uppers = []
    for cells, start, width, mine in zip(sides, starts, widths, per_side):
        own = slice(start, start + width)
        a = a_hat[:, own]
        sup_norm = float(np.max(np.abs(a))) if a.size else 0.0
        uppers.append(
            BoundEstimate(
                side=Side.UPPER,
                value=float(cells.mass @ mine),
                optimizer=a,
                plugin_std=plugin_std(cells, mine),
                n=cells.n,
                report=columns.of(own)._replace(optimizer_sup_norm=sup_norm),
                epsilon=epsilon,
            )
        )
    # 0.0 - v, not -v: a value that is exactly zero stays +0.0
    return [
        (neg._replace(side=Side.LOWER, value=0.0 - neg.value, optimizer=-neg.optimizer), upper)
        for neg, upper in zip(uppers[0::2], uppers[1::2])
    ]


def estimate_bounds(
    cells: CellTable, epsilon: float | None = None
) -> tuple[BoundEstimate, BoundEstimate]:
    """Both one-sided smoothed dual bounds of one cell table at temperature ``epsilon``."""
    return solve_bounds([cells], epsilon)[0]


def normal_quantile(p: float) -> float:
    """The standard normal quantile at ``p`` in (0, 1), by Wichura's AS241 (PPND16).

    Wichura, M. J. (1988), "Algorithm AS 241: The Percentage Points of the
    Normal Distribution", Applied Statistics 37(3), 477-484. The coefficients
    and the order of every operation are those of the standard library's
    ``statistics.NormalDist().inv_cdf``, so the result is the same to the bit,
    without importing ``statistics`` (and with it ``fractions`` and ``decimal``).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    q = p - 0.5
    if fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e+3 * r +
                     3.3430575583588128105e+4) * r +
                     6.7265770927008700853e+4) * r +
                     4.5921953931549871457e+4) * r +
                     1.3731693765509461125e+4) * r +
                     1.9715909503065514427e+3) * r +
                     1.3314166789178437745e+2) * r +
                     3.3871328727963666080e+0) * q
        den = (((((((5.2264952788528545610e+3 * r +
                     2.8729085735721942674e+4) * r +
                     3.9307895800092710610e+4) * r +
                     2.1213794301586595867e+4) * r +
                     5.3941960214247511077e+3) * r +
                     6.8718700749205790830e+2) * r +
                     4.2313330701600911252e+1) * r +
                     1.0)
        return num / den
    r = sqrt(-log(p if q <= 0.0 else 1.0 - p))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.7454501427834140764e-4 * r +
                     2.2723844989269184583e-2) * r +
                     2.4178072517745061177e-1) * r +
                     1.2704582524523683826e+0) * r +
                     3.6478483247632045960e+0) * r +
                     5.7694972214606914055e+0) * r +
                     4.6303378461565452959e+0) * r +
                     1.4234371107496835773e+0)
        den = (((((((1.0507500716444168432e-9 * r +
                     5.4759380849953449460e-4) * r +
                     1.5198666563616457197e-2) * r +
                     1.4810397642748007459e-1) * r +
                     6.8976733498510000455e-1) * r +
                     1.6763848301838038494e+0) * r +
                     2.0531916266377588219e+0) * r +
                     1.0)
    else:
        r = r - 5.0
        num = (((((((2.0103343992922881327e-7 * r +
                     2.7115555687434875782e-5) * r +
                     1.2426609473880784386e-3) * r +
                     2.6532189526576123093e-2) * r +
                     2.9656057182850489123e-1) * r +
                     1.7848265399172913358e+0) * r +
                     5.4637849111641143699e+0) * r +
                     6.6579046435011037772e+0)
        den = (((((((2.0442631033899397856e-15 * r +
                     1.4215117583164458887e-7) * r +
                     1.8463183175100546818e-5) * r +
                     7.8686913114561325910e-4) * r +
                     1.4875361290850614852e-2) * r +
                     1.3692988092273580531e-1) * r +
                     5.9983220655588793769e-1) * r +
                     1.0)
    x = num / den
    return -x if q < 0.0 else x


def normal_interval(value: float, std: float, n: int, gamma: float) -> ConfidenceInterval:
    """``value`` plus and minus z_{1-gamma/2} * std / sqrt(n): every reported CI,
    a two-sided normal interval at level 1 - gamma."""
    check_gamma(gamma)
    if n < 2:
        raise InsufficientSampleError("confidence interval needs n >= 2")
    half = normal_quantile(1.0 - gamma / 2.0) * std / np.sqrt(n)
    return ConfidenceInterval(level=1.0 - gamma, low=value - half, high=value + half)
