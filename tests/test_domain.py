import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbounds import (
    CoverageError,
    DatasetView,
    FormatError,
    GMatrix,
    LabelModel,
    LabelSpace,
    MetricKind,
    MetricSpec,
    SynthSpec,
    cell_table,
    check_covers,
    encode_signatures,
)
from weakbounds.domain import group_rows
from conftest import g_values


class TestLabelSpace:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            LabelSpace(num_classes=1)


class TestEncodeSignatures:
    def test_first_observed_ordering(self):
        table, ids = encode_signatures([(-1, 0), (1, 0), (-1, 0)])
        assert table == ((-1, 0), (1, 0))
        assert list(ids) == [0, 1, 0]

    def test_singleton(self):
        table, ids = encode_signatures([(0,)])
        assert table == ((0,),)
        assert list(ids) == [0]

    def test_all_identical(self):
        table, ids = encode_signatures([(1, 1), (1, 1), (1, 1)])
        assert len(table) == 1
        assert list(ids) == [0, 0, 0]

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            encode_signatures([])

    def test_ragged_rejected(self):
        with pytest.raises(FormatError):
            encode_signatures([(0, 1), (0,)])

    def test_encode_decode_roundtrip(self):
        raw = [(0, 1, -1), (1, 1, 1), (0, 1, -1), (-1, -1, 0)]
        table, ids = encode_signatures(raw)
        for i, sig in enumerate(raw):
            assert table[int(ids[i])] == sig

    @given(
        st.integers(1, 40),
        st.integers(1, 6),
        st.sampled_from(["small", "wide", "extreme"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_ids_match_per_row_dict(self, n, k, values, seed):
        # wide columns overflow the packed key after two columns, extreme ones alone
        i64 = np.iinfo(np.int64)
        pool = {
            "small": [-1, 0, 1],
            "wide": [-(2**40), 0, 2**40],
            "extreme": [i64.min, -1, 0, i64.max],
        }[values]
        sigs = np.random.default_rng(seed).choice(np.array(pool, dtype=np.int64), size=(n, k))
        table, ids = encode_signatures(sigs)
        index = {}  # the per-row loop the packed key replaced
        expect = [index.setdefault(row, len(index)) for row in map(tuple, sigs.tolist())]
        assert ids.tolist() == expect
        assert table == tuple(index)
        assert encode_signatures(sigs.tolist())[1].tolist() == expect

    @pytest.mark.parametrize("k", [4, 60], ids=["counting-table", "renumbered"])
    def test_group_rows_match_per_row_dict_at_scale(self, k):
        # 3**4 keys fit a table of 2n; 3**60 overflows int64 and exceeds 2n,
        # so the key is renumbered before the counting pass
        rows = np.random.default_rng(k).integers(-1, 2, size=(200_000, k))
        first, ids = group_rows(rows)
        index = {}
        expect = [index.setdefault(row, len(index)) for row in map(tuple, rows.tolist())]
        assert ids.tolist() == expect
        assert [tuple(r) for r in rows[first].tolist()] == list(index)


class TestLabelModel:
    def test_rejects_off_simplex_row(self):
        with pytest.raises(FormatError):
            LabelModel(table=np.array([[0.6, 0.5]]))
        # the tolerance covers 9-digit rounding of each entry, not more
        with pytest.raises(FormatError, match="sums to 1.0000001, not 1"):
            LabelModel(table=np.array([[0.5, 0.5 + 1e-7]]))

    def test_renormalizes_within_tolerance(self):
        m = LabelModel(table=np.array([[0.5 + 4e-10, 0.5 + 4e-10]]))
        assert m.table.sum(axis=1) == pytest.approx(1.0, abs=0)

    def test_rejects_negative_entry(self):
        with pytest.raises(FormatError):
            LabelModel(table=np.array([[1.1, -0.1]]))

    # a one-class table left the default temperature (0.01 / ln 1) to divide by zero
    @pytest.mark.parametrize("table", [[0.5, 0.5], [[np.inf, 0.0]], [[1.0], [1.0]]])
    def test_rejects_flat_or_non_finite_table(self, table):
        with pytest.raises(FormatError):
            LabelModel(table=np.array(table))

    def test_table_is_read_only(self):
        m = LabelModel(table=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            m.table[0, 0] = 0.0


class TestDatasetView:
    def test_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            DatasetView(n=3, z_ids=np.array([0, 0]))

    def test_optional_array_length_checked(self):
        with pytest.raises(FormatError):
            DatasetView(n=2, z_ids=np.array([0, 0]), scores=np.array([0.1]))

    @pytest.mark.parametrize("column", ["predictions", "labels"])
    def test_prediction_and_label_lengths_checked(self, column):
        with pytest.raises(FormatError, match=f"{column} length must equal n"):
            DatasetView(n=2, z_ids=np.array([0, 0]), **{column: np.array([1])})


class TestGMatrix:
    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            GMatrix(costs=np.array([[np.nan, 0.0]]), rows=[0])

    def test_flat_cost_table_rejected(self):
        with pytest.raises(FormatError, match="2-dimensional cost table"):
            GMatrix(costs=np.array([0.0, 1.0]), rows=[0])

    @pytest.mark.parametrize("rows", [[0, 2], [-1, 0]])
    def test_row_ids_outside_cost_table_rejected(self, rows):
        with pytest.raises(FormatError):
            GMatrix(costs=np.eye(2), rows=rows)

    def test_sup_norm_is_derived_from_the_cost_table(self):
        G = GMatrix(costs=[[0.0, -2.5], [1.0, 0.0]], rows=[1, 1, 1])
        model = LabelModel(table=[[0.5, 0.5]])
        assert cell_table(DatasetView(n=3, z_ids=[0, 0, 0]), model, G).sup_norm == 2.5
        assert g_values(G).tolist() == [[1.0, 0.0]] * 3
        with pytest.raises(TypeError):
            GMatrix(costs=np.eye(2), rows=[0], sup_norm=1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: LabelSpace(num_classes=2),
        lambda: DatasetView(n=2, z_ids=np.array([0, 0])),
        lambda: LabelModel(table=np.array([[0.5, 0.5]])),
        lambda: GMatrix(costs=np.eye(2), rows=[0]),
        lambda: MetricSpec(MetricKind.ACCURACY),
        lambda: SynthSpec(n=10),
    ],
    ids=[
        "LabelSpace", "DatasetView", "LabelModel", "GMatrix",
        "MetricSpec", "SynthSpec",
    ],
)
def test_checked_types_are_read_only(make):
    """An attribute changed after construction would bypass the constructor's checks."""
    obj = make()
    name = next(iter(vars(obj)))
    for change in (
        lambda: setattr(obj, name, getattr(obj, name)),
        lambda: delattr(obj, name),
        lambda: setattr(obj, "extra", 0),
    ):
        with pytest.raises(AttributeError):
            change()


class TestCheckCovers:
    def test_z_id_beyond_model_rejected(self):
        model = LabelModel(table=np.array([[0.5, 0.5], [0.2, 0.8]]))
        check_covers(DatasetView(n=2, z_ids=np.array([0, 1])), model)
        with pytest.raises(CoverageError, match="beyond the label model's coverage"):
            check_covers(DatasetView(n=2, z_ids=np.array([0, 2])), model)

    @pytest.mark.parametrize("costs, rows", [(np.eye(2), [0, 1, 0]), (np.eye(3), [0, 1])],
                             ids=["samples", "classes"])
    def test_g_of_another_size_rejected(self, costs, rows):
        model = LabelModel(table=np.array([[0.5, 0.5], [0.2, 0.8]]))
        data = DatasetView(n=2, z_ids=np.array([0, 1]))
        with pytest.raises(ValueError, match="shape mismatch between data, label model, and G"):
            cell_table(data, model, GMatrix(costs=costs, rows=rows))
