import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbounds import (
    DatasetView,
    LabelModel,
    cell_table,
    check_epsilon,
    default_epsilon,
    estimate_bounds,
    gradient,
    hessian,
    minimized_value,
)
from conftest import (
    cell_values,
    g_values,
    negated,
    objective_value,
    per_sample_g,
    random_instance,
    soft_max,
    two_point_instance,
)


class TestSmoothingConfig:
    """The smoothing configuration is one temperature: its default and its checks."""

    def test_default_epsilon_binary(self):
        assert default_epsilon(2) == pytest.approx(0.01 / math.log(2))

    def test_for_classes(self):
        assert default_epsilon(3) == pytest.approx(0.01 / math.log(3))

    def test_floor_enforced(self):
        with pytest.raises(ValueError, match="overflow guard"):
            check_epsilon(1e-9)

    def test_estimate_bounds_checks_epsilon(self):
        with pytest.raises(ValueError, match="overflow guard"):
            estimate_bounds(cell_table(*two_point_instance(0.75)), epsilon=1e-9)


# the upper problem at ``a`` as it is, and the lower one as the upper problem of -G
BOTH_SIDES = (lambda cells, a: (cells, a), negated)


def shares_at(cells, a, epsilon):
    return minimized_value(cells, a, epsilon)[0]


def gradient_at(cells, a, epsilon):
    """The gradient from the weights of an evaluation at ``a``."""
    return gradient(cells, minimized_value(cells, a, epsilon)[1])


def hessian_at(cells, a, epsilon):
    """The Hessian from the weights of an evaluation at ``a``."""
    return hessian(cells, minimized_value(cells, a, epsilon)[1], epsilon)


def soft_min(values, eps):
    """The soft-min is minus the soft-max of the negated values."""
    return -soft_max([-v for v in values], eps)


class TestSoftExtreme:
    def test_constant_list(self):
        assert soft_min([2.5] * 4, 0.1) == pytest.approx(2.5)
        assert soft_max([2.5] * 4, 0.1) == pytest.approx(2.5)

    def test_soft_min_of_zero_one(self):
        # direct evaluation: -0.5 * ln(0.5 * (1 + exp(-2)))
        expect = -0.5 * math.log(0.5 * (1.0 + math.exp(-2.0)))
        assert soft_min([0.0, 1.0], 0.5) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.2831096, abs=1e-6)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sandwich_property(self, values, eps):
        k = len(values)
        lo = soft_min(values, eps)
        hi = soft_max(values, eps)
        assert min(values) - 1e-9 <= lo <= min(values) + eps * math.log(k) + 1e-9
        assert max(values) - eps * math.log(k) - 1e-9 <= hi <= max(values) + 1e-9


class TestEvalObjective:
    def test_zero_g_zero_a(self, rng):
        data, model, G = random_instance(rng)
        cells = cell_table(data, model, per_sample_g(np.zeros_like(g_values(G))))
        a = np.zeros((model.num_classes, model.num_signatures))
        epsilon = default_epsilon(2)
        assert -objective_value(*negated(cells, a), epsilon) == pytest.approx(0.0)
        assert objective_value(cells, a, epsilon) == pytest.approx(0.0)

    def test_one_hot_model_zero_a_upper_closed_form(self):
        # binary, deterministic Y|Z: at a=0 the upper objective is the
        # log-mean-exp of the two g values per sample, averaged
        data = DatasetView(n=2, z_ids=np.array([0, 0]))
        model = LabelModel(table=np.array([[0.0, 1.0]]))
        G = per_sample_g(np.array([[0.3, 0.7], [0.1, 0.2]]))
        epsilon = 0.05
        a = np.zeros((2, 1))
        expect = np.mean(
            [
                0.05 * np.log(0.5 * np.exp(r[0] / 0.05) + 0.5 * np.exp(r[1] / 0.05))
                for r in g_values(G)
            ]
        )
        got = objective_value(cell_table(data, model, G), a, epsilon)
        assert got == pytest.approx(float(expect), abs=1e-10)

    def test_shift_invariance(self, rng):
        for _ in range(20):
            cells = cell_table(*random_instance(rng, num_classes=3))
            a = rng.normal(size=(3, cells.z_mass.size))
            shift = rng.normal(size=(1, cells.z_mass.size))
            epsilon = default_epsilon(3)
            for side in BOTH_SIDES:
                v0 = objective_value(*side(cells, a), epsilon)
                v1 = objective_value(*side(cells, a + shift), epsilon)
                assert v1 == pytest.approx(v0, abs=1e-12)

    def test_per_sample_sandwich_vs_hard_extreme(self, rng):
        # the smoothed per-cell value brackets the hard dual value from inside
        for _ in range(20):
            data, model, G = random_instance(rng, num_classes=3)
            cells = cell_table(data, model, G)
            a = rng.normal(size=(3, model.num_signatures))
            epsilon = 0.05 / math.log(3)
            shifted = cells.costs + a.T[cells.z]
            lm = np.einsum("zy,yz->z", model.table, a)[cells.z]
            cap = epsilon * math.log(3)
            lo = -cell_values(*negated(cells, a), epsilon)
            hard_lo = shifted.min(axis=1) - lm
            assert np.all(lo >= hard_lo - 1e-9)
            assert np.all(lo <= hard_lo + cap + 1e-9)
            hi = cell_values(cells, a, epsilon)
            hard_hi = shifted.max(axis=1) - lm
            assert np.all(hi <= hard_hi + 1e-9)
            assert np.all(hi >= hard_hi - cap - 1e-9)


class TestPenalized:
    """The solved function needs no column-sum penalty: it is shift invariant and convex."""

    def test_centered_a_has_no_penalty(self, rng):
        cells = cell_table(*random_instance(rng))
        a = rng.normal(size=(2, cells.z_mass.size))
        epsilon = default_epsilon(2)
        for side in BOTH_SIDES:
            assert shares_at(*side(cells, a - a.mean(axis=0)), epsilon) == pytest.approx(
                shares_at(*side(cells, a), epsilon), abs=1e-12
            )

    def test_upper_penalized_is_convex(self, rng):
        for _ in range(20):
            cells = cell_table(*random_instance(rng))
            a1 = rng.normal(size=(2, cells.z_mass.size))
            a2 = rng.normal(size=(2, cells.z_mass.size))
            t = rng.uniform(0.05, 0.95)
            epsilon = default_epsilon(2)
            for side in BOTH_SIDES:
                # each signature's share is convex in its own column
                f = lambda a: shares_at(*side(cells, a), epsilon)
                assert np.all(f(t * a1 + (1 - t) * a2) <= t * f(a1) + (1 - t) * f(a2) + 1e-10)


class TestGradient:
    def test_constant_g_uniform_model_zero_gradient(self):
        data = DatasetView(n=4, z_ids=np.array([0, 0, 1, 1]))
        model = LabelModel(table=np.array([[0.5, 0.5], [0.5, 0.5]]))
        cells = cell_table(data, model, per_sample_g(np.full((4, 2), 0.3)))
        a = np.zeros((2, 2))
        for c, x in (side(cells, a) for side in BOTH_SIDES):
            g = gradient_at(c, x, default_epsilon(2))
            assert np.abs(g).max() <= 1e-14

    def test_column_sum_identity(self, rng):
        # weight rows and label-model rows sum to one, so every column sums to zero
        for _ in range(20):
            cells = cell_table(*random_instance(rng, num_classes=3))
            num_z = cells.z_mass.size
            a = rng.normal(size=(3, num_z))
            epsilon = default_epsilon(3)
            for c, x in (side(cells, a) for side in BOTH_SIDES):
                g = gradient_at(c, x, epsilon)
                assert g.sum(axis=0) == pytest.approx(np.zeros(num_z), abs=1e-15)

    def test_matches_central_finite_differences(self, rng):
        h = 1e-5
        for _ in range(30):
            k = int(rng.integers(2, 4))
            cells = cell_table(*random_instance(rng, num_classes=k))
            a = rng.normal(scale=0.5, size=(k, cells.z_mass.size))
            epsilon = default_epsilon(k)
            for c, x in (side(cells, a) for side in BOTH_SIDES):
                analytic = gradient_at(c, x, epsilon)
                fd = np.zeros_like(x)
                for idx in np.ndindex(x.shape):
                    xp, xm = x.copy(), x.copy()
                    xp[idx] += h
                    xm[idx] -= h
                    fd[idx] = (
                        shares_at(c, xp, epsilon).sum() - shares_at(c, xm, epsilon).sum()
                    ) / (2 * h)
                scale = max(1.0, float(np.abs(fd).max()))
                assert np.abs(analytic - fd).max() / scale <= 1e-5


class TestHessian:
    def test_matches_central_differences_of_gradient(self):
        rng = np.random.default_rng(303)
        h = 1e-5
        worst = 0.0
        for trial in range(100):
            k = int(rng.integers(2, 4))
            cells = cell_table(*random_instance(rng, n_max=40, num_classes=k))
            a = rng.normal(scale=0.5, size=(k, cells.z_mass.size))
            epsilon = default_epsilon(k)
            c, x = BOTH_SIDES[trial % 2](cells, a)
            blocks = hessian_at(c, x, epsilon)
            fd = np.zeros_like(blocks)
            for y, z in np.ndindex(x.shape):
                xp, xm = x.copy(), x.copy()
                xp[y, z] += h
                xm[y, z] -= h
                diff = (gradient_at(c, xp, epsilon) - gradient_at(c, xm, epsilon)) / (2 * h)
                # block diagonal: perturbing column z moves only column z
                assert np.abs(np.delete(diff, z, axis=1)).max(initial=0.0) == 0.0
                fd[z, :, y] = diff[:, z]
            worst = max(worst, float(np.abs(blocks - fd).max() / max(1.0, np.abs(fd).max())))
        assert worst <= 1e-5

    def test_blocks_are_psd_with_ones_null_direction(self, rng):
        for _ in range(20):
            cells = cell_table(*random_instance(rng, num_classes=3))
            a = rng.normal(size=(3, cells.z_mass.size))
            epsilon = default_epsilon(3)
            for c, x in (side(cells, a) for side in BOTH_SIDES):
                blocks = hessian_at(c, x, epsilon)
                assert np.allclose(blocks, blocks.transpose(0, 2, 1))
                assert np.abs(blocks.sum(axis=2)).max() <= 1e-12 * np.abs(blocks).max()
                assert np.linalg.eigvalsh(blocks).min() >= -1e-9

    def test_absent_signature_has_zero_block(self):
        data = DatasetView(n=2, z_ids=np.array([0, 0]))
        model = LabelModel(table=np.array([[0.3, 0.7], [0.5, 0.5]]))
        G = per_sample_g(np.array([[0.0, 1.0], [1.0, 0.0]]))
        cells = cell_table(data, model, G)
        blocks = hessian_at(cells, np.zeros((2, 2)), default_epsilon(2))
        assert np.array_equal(blocks[1], np.zeros((2, 2)))
        assert blocks[0, 0, 0] > 0.0


def _shares(cells, a, values):
    """Each signature's mass-weighted sum of its cells' ``values``, one cell at a time."""
    shares = np.zeros(a.shape[1])
    for z, v in zip(cells.z, cells.mass * values):
        shares[z] += v
    return shares


class TestMinimizedValue:
    """The solver minimizes one share of the objective per signature."""

    def test_upper_equals_objective(self, rng):
        cells = cell_table(*random_instance(rng))
        a = rng.normal(size=(2, cells.z_mass.size))
        epsilon = default_epsilon(2)
        shares = shares_at(cells, a, epsilon)
        assert np.array_equal(shares, _shares(cells, a, cell_values(cells, a, epsilon)))
        assert shares.sum() == pytest.approx(objective_value(cells, a, epsilon), abs=1e-15)

    def test_lower_is_negated_objective(self, rng):
        cells = cell_table(*random_instance(rng))
        a = rng.normal(size=(2, cells.z_mass.size))
        epsilon = default_epsilon(2)
        # the lower dual value of each cell, a soft-min written out directly
        lower = [
            soft_min(cells.costs[c] + a[:, z], epsilon) - cells.label_model[z] @ a[:, z]
            for c, z in enumerate(cells.z)
        ]
        shares = shares_at(*negated(cells, a), epsilon)
        assert shares == pytest.approx(-_shares(cells, a, np.array(lower)), abs=1e-14)
        assert shares.sum() == pytest.approx(-(cells.mass @ lower), abs=1e-14)

    def test_share_depends_on_its_own_column_only(self, rng):
        cells = cell_table(*random_instance(rng, num_classes=3))
        a = rng.normal(size=(3, cells.z_mass.size))
        moved = a.copy()
        moved[:, 1:] += rng.normal(size=(3, cells.z_mass.size - 1))
        for side in BOTH_SIDES:
            before = shares_at(*side(cells, a), default_epsilon(3))
            after = shares_at(*side(cells, moved), default_epsilon(3))
            assert before[0] == after[0]


def _row_major_reference(cells, a, eps):
    """Per-cell values, value, gradient and Hessian from plain cells-by-|Y| formulas."""
    t = (cells.costs + a.T[cells.z]) / eps
    m = t.max(axis=1)
    e = np.exp(t - m[:, None])
    per_cell = eps * (m + np.log(np.mean(e, axis=1)))
    per_cell = per_cell - np.einsum("zy,yz->z", cells.label_model, a)[cells.z]
    w = e / e.sum(axis=1, keepdims=True)
    num_y, num_z = a.shape
    sums = np.stack(
        [np.bincount(cells.z, weights=cells.mass * w[:, y], minlength=num_z) for y in range(num_y)]
    )
    grad = sums - cells.z_mass * cells.label_model.T
    hess = np.zeros((num_z, num_y, num_y))
    for y in range(num_y):
        for x in range(y + 1, num_y):
            outer = np.bincount(cells.z, weights=cells.mass * w[:, y] * w[:, x], minlength=num_z)
            hess[:, y, x] = hess[:, x, y] = -outer
            hess[:, y, y] += outer
            hess[:, x, x] += outer
    return per_cell, float(cells.mass @ per_cell), grad, hess / eps


class TestClassMajorKernels:
    """The class-major evaluation against row-major reference formulas.

    Up to 7 classes the sums over classes add in the same order as numpy's
    row-wise pairwise sum, which is sequential below 8 terms, so every bit
    agrees. From 8 classes on the pairwise order differs in the last bits.
    """

    @pytest.mark.parametrize("num_classes", range(2, 10))
    @pytest.mark.parametrize("saturated", [False, True], ids=["default-eps", "saturated"])
    def test_matches_row_major_reference(self, num_classes, saturated):
        rng = np.random.default_rng(1000 * num_classes + saturated)
        target = 1e-3 if saturated else 0.01
        epsilon = target / math.log(num_classes)
        for trial in range(20):
            # a per-sample G: every sample is its own cost row
            data, model, G = random_instance(rng, num_classes=num_classes)
            assert np.array_equal(G.rows, np.arange(data.n))
            cells = cell_table(data, model, G)
            a = rng.normal(scale=[0.1, 1.0, 5.0][trial % 3], size=(num_classes, model.num_signatures))
            for c, x in (side(cells, a) for side in BOTH_SIDES):
                ref = _row_major_reference(c, x, epsilon)
                got = (
                    cell_values(c, x, epsilon),
                    objective_value(c, x, epsilon),
                    gradient_at(c, x, epsilon),
                    hessian_at(c, x, epsilon),
                )
                # the size of the terms each result sums, to scale the tolerance
                scales = (
                    np.abs(ref[0]).max(),
                    cells.mass @ np.abs(ref[0]),
                    cells.z_mass.max(),
                    np.abs(ref[3]).max(),
                )
                for name, g, r, scale in zip(("per-cell", "value", "gradient", "Hessian"), got, ref, scales):
                    if num_classes <= 7:
                        assert np.array_equal(g, r), name
                    else:
                        assert np.abs(g - r).max() <= 1e-15 * scale, name
