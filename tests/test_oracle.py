import itertools
import json

import numpy as np
import pytest

from weakbounds import (
    DatasetView,
    GMatrix,
    LabelModel,
    LabelSpace,
    MetricKind,
    MetricSpec,
    NumericalError,
    SynthSpec,
    TooLargeError,
    build_g,
    cell_table,
    exact_bounds,
    generate_synthetic,
)
from weakbounds import oracle
from weakbounds.domain import cells_from_counts
from weakbounds.oracle import exact_cell_bounds, transport_general
from weakbounds.cli import main
from conftest import g_values, per_sample_g, random_instance, two_point_instance


def random_transport(rng, n_rows, n_cols):
    """A transportation problem as (costs, row_mass, col_mass): rows are cells,
    columns classes, and both margins sum to one."""
    costs = rng.uniform(-1, 1, (n_rows, n_cols))
    row_mass = rng.dirichlet(np.ones(n_rows))
    col_mass = rng.dirichlet(np.ones(n_cols))
    return costs, row_mass, col_mass


def eighths_transport(rng, n_rows, n_cols):
    """A degenerate instance: costs tied in {0, 1, 2}, masses in eighths with zeros.

    Both margins are exact in binary and sum to exactly 1, so the
    north-west corner meets ties where a row and a column run out together.
    """
    costs = rng.integers(0, 3, (n_rows, n_cols)).astype(float)
    row_mass = rng.multinomial(8, np.ones(n_rows) / n_rows) / 8
    col_mass = rng.multinomial(8, np.ones(n_cols) / n_cols) / 8
    return costs, row_mass, col_mass


def negated(costs, row_mass, col_mass):
    return -costs, row_mass, col_mass


def linprog_min(costs, row_mass, col_mass) -> float:
    """Reference: the dense transportation LP solved by HiGHS."""
    from scipy.optimize import linprog

    n_rows, n_cols = costs.shape
    res = linprog(
        costs.ravel(),
        A_eq=np.vstack([
            np.kron(np.eye(n_rows), np.ones(n_cols)),
            np.kron(np.ones(n_rows), np.eye(n_cols)[:-1]),
        ]),
        b_eq=np.concatenate([row_mass, col_mass[:-1]]),
        bounds=(0, None),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def brute_force_min(costs, row_mass, col_mass) -> float:
    """LP vertex oracle: enumerate bases of the transportation polytope.

    Vertices of the transportation polytope are spanning-forest solutions; for
    tiny instances, enumerating all subsets of (rows+cols-1) cells and solving
    the resulting linear systems recovers every vertex.
    """
    n_rows, n_cols = costs.shape
    cells = list(itertools.product(range(n_rows), range(n_cols)))
    m = n_rows + n_cols - 1
    best = np.inf
    b = np.concatenate([row_mass, col_mass[:-1]])
    for basis in itertools.combinations(cells, m):
        A = np.zeros((m, m))
        for j, (r, c) in enumerate(basis):
            A[r, j] = 1.0
            if c < n_cols - 1:
                A[n_rows + c, j] = 1.0
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        cost = sum(float(x[j]) * costs[r, c] for j, (r, c) in enumerate(basis))
        best = min(best, cost)
    return best


def ipf_coupling(rng, row_mass, col_mass, iters=2000):
    """Random feasible coupling via iterative proportional fitting."""
    pi = rng.uniform(0.5, 1.5, (row_mass.size, col_mass.size))
    for _ in range(iters):
        pi *= (row_mass / pi.sum(axis=1))[:, None]
        pi *= col_mass / pi.sum(axis=0)
    pi *= (row_mass / pi.sum(axis=1))[:, None]
    assert np.abs(pi.sum(axis=0) - col_mass).max() < 1e-12
    return pi


def transport_binary(costs, row_mass, col_mass) -> float:
    """Reference: the exact min cost for two columns by a greedy fractional fill.

    Rows are cells, columns classes. With two columns the problem is a
    fractional knapsack: assign the y=1 column mass to rows in ascending
    order of the cost difference c1 - c0.
    """
    diff = costs[:, 1] - costs[:, 0]
    order = np.argsort(diff, kind="stable")
    base = float(row_mass @ costs[:, 0])
    remaining = float(col_mass[1])
    total = base
    for i in order:
        if remaining <= 0.0:
            break
        take = min(remaining, float(row_mass[i]))
        total += take * diff[i]
        remaining -= take
    return total


def greedy_cell_bounds(cells, solve=transport_binary):
    """Reference: ``exact_cell_bounds`` of a cell table, one signature at a time,
    as (lower, upper, per_signature) with sequential totals."""
    edges = np.searchsorted(cells.z, np.arange(len(cells.z_mass) + 1))
    lower, upper, per_signature = 0.0, 0.0, []
    for z, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        if start == stop:
            continue
        row_mass = cells.mass[start:stop]
        col_mass = cells.z_mass[z] * cells.label_model[z]
        lo = solve(cells.costs[start:stop], row_mass, col_mass)
        hi = 0.0 - solve(-cells.costs[start:stop], row_mass, col_mass)
        per_signature.append((z, lo, hi))
        lower += lo
        upper += hi
    return lower, upper, per_signature


def bits(lower, upper, per_signature):
    """Both totals and every per-signature value, as exact hex strings."""
    return [lower.hex(), upper.hex()] + [(z, lo.hex(), hi.hex()) for z, lo, hi in per_signature]


def synth_cells(num_labelers, spec, n=20000, seed=5):
    """The cell table of a ``synth`` set whose labelers have the first
    ``num_labelers`` of eight accuracies, each abstaining at 0.1."""
    accuracies = (0.8, 0.7, 0.65, 0.75, 0.6, 0.7, 0.68, 0.72)[:num_labelers]
    result = generate_synthetic(SynthSpec(
        n=n, num_labelers=num_labelers, labeler_accuracies=accuracies,
        abstain_rates=(0.1,) * num_labelers, seed=seed,
    ))
    G = build_g(result.data, spec, LabelSpace(num_classes=2))
    return cell_table(result.data, result.model, G)


BINARY_SPECS = {
    "accuracy": MetricSpec(MetricKind.ACCURACY),
    "joint-positive": MetricSpec(MetricKind.JOINT_POSITIVE, threshold=0.5),
    "risk": MetricSpec(MetricKind.RISK, loss_table=[[0.0, 1.0], [3.0, 0.0]]),
}


class TestBinaryPass:
    """The two-class oracle: one greedy pass over cells sorted by (signature, cost gap)."""

    def test_all_mass_on_column_one(self):
        data = DatasetView(n=2, z_ids=np.array([0, 0]))
        G = per_sample_g(np.array([[0.2, 0.9], [0.1, 0.4]]))
        res = exact_bounds(data, LabelModel(table=np.array([[0.0, 1.0]])), G)
        assert res.lower == pytest.approx(0.5 * 0.9 + 0.5 * 0.4)

    def test_all_mass_on_column_zero(self):
        data = DatasetView(n=2, z_ids=np.array([0, 0]))
        G = per_sample_g(np.array([[0.2, 0.9], [0.1, 0.4]]))
        res = exact_bounds(data, LabelModel(table=np.array([[1.0, 0.0]])), G)
        assert res.lower == pytest.approx(0.5 * 0.2 + 0.5 * 0.1)

    def test_agrees_with_simplex_on_random_tables(self, rng):
        # per-sample tables of up to ~50 cells per signature
        for _ in range(200):
            cells = cell_table(*random_instance(rng, n_max=250))
            want = greedy_cell_bounds(cells, transport_general)
            res = exact_cell_bounds(cells)
            assert [res.lower, res.upper] == pytest.approx(want[:2], abs=1e-9)
            for (z, lo, hi), (wz, wlo, whi) in zip(res.per_signature, want[2], strict=True):
                assert z == wz
                assert [lo, hi] == pytest.approx([wlo, whi], abs=1e-9)

    @pytest.mark.parametrize("num_labelers", [3, 6, 8])
    @pytest.mark.parametrize("metric", sorted(BINARY_SPECS))
    def test_matches_the_per_signature_greedy_bit_for_bit(self, num_labelers, metric):
        # K = 8 puts per-signature values on 9-digit rounding ties, where one
        # ulp shows in the output
        cells = synth_cells(num_labelers, BINARY_SPECS[metric])
        res = exact_cell_bounds(cells)
        assert bits(*res) == bits(*greedy_cell_bounds(cells))
        assert all(type(v) is float for _, lo, hi in res.per_signature for v in (lo, hi))

    def test_tied_gaps_fill_in_cell_order(self, rng):
        # class-0 costs of zero leave the base exact, so the order in which
        # tied cells are filled decides the bits of every fill sum
        for _ in range(50):
            num_z, size = int(rng.integers(1, 6)), int(rng.integers(2, 250))
            z = np.sort(rng.integers(0, num_z, size))
            costs = np.column_stack([np.zeros(size), rng.integers(-1, 2, size)])
            model = LabelModel(table=rng.dirichlet(np.ones(2), num_z))
            cells = cells_from_counts(z, np.arange(size), rng.integers(1, 10, size), costs, model)
            assert bits(*exact_cell_bounds(cells)) == bits(*greedy_cell_bounds(cells))

    def test_a_dense_loss_moves_only_the_last_bits(self):
        # with both class-0 costs nonzero a signature's base sum has two inexact
        # terms, which the reference's BLAS dot may fuse into one rounding and
        # the pass rounds twice: an ulp of a sum of masses times costs <= 1
        spec = MetricSpec(MetricKind.RISK, loss_table=[[0.1, 0.7], [0.3, 0.2]])
        cells = synth_cells(8, spec)
        lower, upper, per_signature = greedy_cell_bounds(cells)
        res = exact_cell_bounds(cells)
        assert [res.lower, res.upper] == pytest.approx([lower, upper], abs=1e-14)
        got = [v for _, lo, hi in res.per_signature for v in (lo, hi)]
        assert got == pytest.approx([v for _, lo, hi in per_signature for v in (lo, hi)], abs=1e-15)


class TestTransportGeneral:
    def test_single_row_forced_coupling(self, rng):
        cost = np.array([[0.3, -0.2, 0.7]])
        col_mass = np.array([0.2, 0.5, 0.3])
        value = transport_general(cost, np.array([1.0]), col_mass)
        assert value == pytest.approx(float(cost[0] @ col_mass))

    def test_identity_cost_square_uniform(self):
        third = np.full(3, 1 / 3)
        assert transport_general(1.0 - np.eye(3), third, third) == pytest.approx(0.0, abs=1e-12)

    def test_matches_vertex_enumeration_3x3(self, rng):
        for _ in range(20):
            inst = random_transport(rng, 3, 3)
            assert transport_general(*inst) == pytest.approx(
                brute_force_min(*inst), abs=1e-8
            )
        # degenerate vertices: tied costs, zero rows and columns, eighths
        for shape in [(3, 3), (2, 4), (4, 2)]:
            for _ in range(30):
                inst = eighths_transport(rng, *shape)
                for case in (inst, negated(*inst)):
                    assert transport_general(*case) == pytest.approx(
                        brute_force_min(*case), abs=1e-12
                    )

    @pytest.mark.parametrize("bland_after", [oracle.BLAND_AFTER, 0], ids=["dantzig", "bland"])
    def test_matches_linprog_on_random_instances(self, rng, monkeypatch, bland_after):
        monkeypatch.setattr(oracle, "BLAND_AFTER", bland_after)
        for k in range(200):
            n_rows, n_cols = int(rng.integers(1, 9)), int(rng.integers(3, 7))
            if k % 2:
                inst = eighths_transport(rng, n_rows, n_cols)
            else:
                inst = random_transport(rng, n_rows, n_cols)
            for case in (inst, negated(*inst)):
                assert transport_general(*case) == pytest.approx(
                    linprog_min(*case), abs=1e-12
                )

    def test_monge_cost_matches_closed_form(self, rng):
        # for the cost |i - j| the optimum is the 1-D Wasserstein distance,
        # and the north-west-corner start is optimal (Hoffman 1963)
        n = 300
        costs = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        row_mass = rng.dirichlet(np.ones(n))
        col_mass = rng.dirichlet(np.ones(n))
        closed = float(np.abs(np.cumsum(row_mass) - np.cumsum(col_mass)).sum())
        assert transport_general(costs, row_mass, col_mass) == pytest.approx(closed, rel=1e-12)

    def test_repeated_calls_are_bit_identical(self, rng):
        for shape in [(8, 6), (60, 40)]:
            inst = random_transport(rng, *shape)
            first = transport_general(*inst)
            assert transport_general(*inst).hex() == first.hex()

    def test_pivot_cap_is_a_numerical_failure(self, rng, monkeypatch, tmp_path):
        # one signature, predictions 0, 1, 2, uniform labels: the accuracy
        # lower bound's north-west corner is the diagonal (cost 1), so the
        # solve needs pivots to reach the optimum 0
        monkeypatch.setattr(oracle, "MAX_PIVOTS", 0)
        third = np.full(3, 1 / 3)
        with pytest.raises(NumericalError, match="pivots"):
            transport_general(np.eye(3), third, third)
        (tmp_path / "d.csv").write_text("pred,wl_0\n0,0\n1,0\n2,0\n")
        (tmp_path / "m.json").write_text(
            json.dumps({"num_classes": 3, "entries": [{"z": [0], "p": [1 / 3] * 3}]})
        )
        rc = main(["oracle", "--data", str(tmp_path / "d.csv"),
                   "--label-model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 3
        assert not (tmp_path / "o.json").exists()


def accuracy_or_random_instance(rng, num_classes, built_in):
    """``random_instance``, with random predictions and accuracy's built-in G in
    place of its per-sample G when ``built_in``."""
    data, model, G = random_instance(rng, num_classes=num_classes)
    if built_in:
        preds = rng.integers(0, num_classes, data.n)
        data = DatasetView(n=data.n, z_ids=data.z_ids, predictions=preds)
        G = build_g(data, MetricSpec(MetricKind.ACCURACY), LabelSpace(num_classes=num_classes))
    return data, model, G


class TestExactBounds:
    def test_two_point_half(self):
        data, model, G = two_point_instance(0.5)
        res = exact_bounds(data, model, G)
        assert res.lower == pytest.approx(0.0, abs=1e-12)
        assert res.upper == pytest.approx(1.0, abs=1e-12)

    def test_two_point_three_quarters(self):
        data, model, G = two_point_instance(0.75)
        res = exact_bounds(data, model, G)
        assert res.lower == pytest.approx(0.25, abs=1e-12)
        assert res.upper == pytest.approx(0.75, abs=1e-12)

    def test_one_hot_model_forces_coupling(self, rng):
        data, _, G = random_instance(rng)
        num_z = int(data.z_ids.max()) + 1
        hot = rng.integers(0, 2, num_z)
        table = np.zeros((num_z, 2))
        table[np.arange(num_z), hot] = 1.0
        model = LabelModel(table=table)
        res = exact_bounds(data, model, G)
        forced = float(g_values(G)[np.arange(data.n), hot[data.z_ids]].mean())
        assert res.lower == pytest.approx(forced, abs=1e-12)
        assert res.upper == pytest.approx(forced, abs=1e-12)

    def test_size_guard(self):
        data = DatasetView(n=10**6, z_ids=np.zeros(10**6, dtype=np.int64))
        model = LabelModel(table=np.array([[0.5, 0.5]]))
        G = per_sample_g(np.zeros((10**6, 2)))
        with pytest.raises(TooLargeError):
            exact_bounds(data, model, G)

    def test_scaling_and_shift(self, rng):
        data, model, G = random_instance(rng, n_max=30)
        res = exact_bounds(data, model, G)
        G2 = per_sample_g(3.0 * g_values(G) + 0.5)
        res2 = exact_bounds(data, model, G2)
        assert res2.lower == pytest.approx(3.0 * res.lower + 0.5, abs=1e-9)
        assert res2.upper == pytest.approx(3.0 * res.upper + 0.5, abs=1e-9)

    def test_class_relabeling_invariance(self, rng):
        data, model, G = random_instance(rng, n_max=30)
        res = exact_bounds(data, model, G)
        swapped_model = LabelModel(table=model.table[:, ::-1].copy())
        swapped_G = per_sample_g(g_values(G)[:, ::-1].copy())
        res_s = exact_bounds(data, swapped_model, swapped_G)
        assert res_s.lower == pytest.approx(res.lower, abs=1e-9)
        assert res_s.upper == pytest.approx(res.upper, abs=1e-9)

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("built_in", [True, False], ids=["built-in", "per-sample"])
    def test_sides_are_exact_negations(self, rng, num_classes, built_in):
        # the lower bound of -G is minus the upper bound of G, bit for bit
        for _ in range(50):
            data, model, G = accuracy_or_random_instance(rng, num_classes, built_in)
            res = exact_bounds(data, model, G)
            neg = exact_bounds(data, model, GMatrix(-G.costs, G.rows))
            assert neg.lower == 0.0 - res.upper
            assert neg.upper == 0.0 - res.lower
            assert list(neg.per_signature) == [
                (z, 0.0 - hi, 0.0 - lo) for z, lo, hi in res.per_signature
            ]

    def test_feasible_couplings_contained(self, rng):
        # any coupling with the right marginals evaluates inside [L, U]
        for _ in range(25):
            data, model, G = random_instance(rng, n_max=20, num_classes=3)
            res = exact_bounds(data, model, G)
            total = 0.0
            for z in range(model.num_signatures):
                idx = np.flatnonzero(data.z_ids == z)
                if idx.size == 0:
                    continue
                row_mass = np.full(idx.size, 1.0 / data.n)
                col_mass = (idx.size / data.n) * model.table[z]
                pi = ipf_coupling(rng, row_mass, col_mass)
                total += float((pi * g_values(G)[idx]).sum())
            assert res.lower - 1e-9 <= total <= res.upper + 1e-9


class TestExactCellBounds:
    @pytest.mark.parametrize("num_classes", [2, 3, 4, 5])
    @pytest.mark.parametrize("built_in", [True, False], ids=["built-in", "per-sample"])
    def test_matches_exact_bounds_bit_for_bit(self, rng, num_classes, built_in):
        hexes = lambda res: [x.hex() for x in (res.lower, res.upper)] + [
            (z, lo.hex(), hi.hex()) for z, lo, hi in res.per_signature
        ]
        for _ in range(25):
            data, model, G = accuracy_or_random_instance(rng, num_classes, built_in)
            want = exact_bounds(data, model, G)
            assert hexes(exact_cell_bounds(cell_table(data, model, G))) == hexes(want)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_bounds_beyond_the_float_range_raise(self, rng, num_classes):
        # at 1e308 the binary cost gaps overflow, and so do the simplex's
        # reduced costs, which could leave a finite and wrong bound
        data, model, G = random_instance(rng, num_classes=num_classes)
        cells = cell_table(data, model, G)
        base = exact_cell_bounds(cells)
        scaled = exact_cell_bounds(cells._replace(costs=1e300 * cells.costs))
        assert scaled.lower == pytest.approx(1e300 * base.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(1e300 * base.upper, rel=1e-12)
        with pytest.raises(NumericalError, match="exact bounds beyond the float range"):
            exact_cell_bounds(cells._replace(costs=1e308 * cells.costs))


def test_accuracy_bounds_are_frechet_hoeffding(rng):
    """For the accuracy cost each signature's exact bounds have a closed form.

    With r_c the mass predicted c and q_c the label-model mass of class c in a
    signature of mass m: upper = sum_c min(r_c, q_c) and
    lower = max(0, max_c(r_c + q_c) - m).
    """
    for _ in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 40))
        num_z = int(rng.integers(1, min(n, 4) + 1))
        z_ids = rng.integers(0, num_z, n)
        z_ids[:num_z] = np.arange(num_z)
        preds = rng.integers(0, k, n)
        model = LabelModel(table=rng.dirichlet(np.ones(k), num_z))
        data = DatasetView(n=n, z_ids=z_ids, predictions=preds)
        G = build_g(data, MetricSpec(MetricKind.ACCURACY), LabelSpace(num_classes=k))
        for z, lo, hi in exact_bounds(data, model, G).per_signature:
            r = np.bincount(preds[z_ids == z], minlength=k) / n
            q = r.sum() * model.table[z]
            assert hi == pytest.approx(np.minimum(r, q).sum(), abs=1e-9)
            assert lo == pytest.approx(max(0.0, (r + q).max() - r.sum()), abs=1e-9)
