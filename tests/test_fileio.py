import json

import numpy as np
import pytest

from weakbounds import (
    CoverageError,
    DatasetView,
    FormatError,
    LabelModel,
    count_label_model,
    dump_result_json,
    encode_signatures,
    read_dataset_csv,
    read_label_model_json,
    write_dataset_csv,
    write_label_model_json,
)


def sample_dataset():
    raw = [(0, 1, -1), (1, 1, 1), (0, 1, -1), (-1, 0, 0)]
    table, z_ids = encode_signatures(raw)
    data = DatasetView(
        n=4,
        z_ids=z_ids,
        scores=np.array([0.1, 0.9, 0.4, 0.6]),
        predictions=np.array([0, 1, 0, 1]),
        labels=np.array([0, 1, 1, 1]),
    )
    return data, table


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path):
        data, table = sample_dataset()
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data, table)
        data2, table2 = read_dataset_csv(path)
        assert table2.signatures == table.signatures
        assert np.array_equal(data2.z_ids, data.z_ids)
        assert data2.scores == pytest.approx(data.scores)
        assert np.array_equal(data2.predictions, data.predictions)
        assert np.array_equal(data2.labels, data.labels)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_dataset_csv(path)

    def test_missing_weak_label_columns_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("score,pred\n0.5,1\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("wl_0,wl_1\n0,1\n0\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("wl_0\nx\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)

    def test_headers_only_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("wl_0\n")
        with pytest.raises(FormatError):
            read_dataset_csv(path)


class TestLabelModelJson:
    def test_roundtrip(self, tmp_path):
        _, table = sample_dataset()
        rows = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
        model = LabelModel(table=rows)
        path = tmp_path / "m.json"
        write_label_model_json(path, model, table)
        model2 = read_label_model_json(path, table)
        assert model2.table == pytest.approx(model.table, abs=1e-9)
        # rows stay on the simplex after the round-trip
        assert model2.table.sum(axis=1) == pytest.approx(np.ones(3))

    def test_missing_signature_errors_by_default(self, tmp_path):
        _, table = sample_dataset()
        payload = {
            "num_classes": 2,
            "entries": [{"z": list(table.signatures[0]), "p": [0.5, 0.5]}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CoverageError):
            read_label_model_json(path, table)

    def test_uniform_fallback_fills_missing(self, tmp_path):
        _, table = sample_dataset()
        payload = {
            "num_classes": 2,
            "fallback": "uniform",
            "entries": [{"z": list(table.signatures[0]), "p": [0.2, 0.8]}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        model = read_label_model_json(path, table)
        assert model.table[0] == pytest.approx([0.2, 0.8])
        assert model.table[1] == pytest.approx([0.5, 0.5])

    def test_duplicate_signature_rejected(self, tmp_path):
        _, table = sample_dataset()
        payload = {
            "num_classes": 2,
            "entries": [
                {"z": list(table.signatures[0]), "p": [0.5, 0.5]},
                {"z": list(table.signatures[0]), "p": [0.4, 0.6]},
            ],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            read_label_model_json(path, table)

    @pytest.mark.parametrize(
        "entry",
        [
            {"z": [0, 1, -1]},
            {"z": [0, 1, -1], "p": None},
            {"z": [0, 1, -1], "p": ["x", 0.5]},
            {"z": [0, 1, -1], "p": [float("nan"), 0.5]},
            {"p": [0.5, 0.5]},
            {"z": None, "p": [0.5, 0.5]},
            {"z": [0, "one", -1], "p": [0.5, 0.5]},
            [[0, 1, -1], [0.5, 0.5]],
        ],
    )
    def test_malformed_entry_rejected(self, tmp_path, entry):
        _, table = sample_dataset()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"num_classes": 2, "fallback": "uniform", "entries": [entry]}))
        with pytest.raises(FormatError):
            read_label_model_json(path, table)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        _, table = sample_dataset()
        with pytest.raises(FormatError):
            read_label_model_json(path, table)

    def test_off_simplex_row_rejected(self, tmp_path):
        _, table = sample_dataset()
        payload = {
            "num_classes": 2,
            "fallback": "uniform",
            "entries": [{"z": list(table.signatures[0]), "p": [0.6, 0.5]}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            read_label_model_json(path, table)


class TestResultJson:
    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "r.json"
        dump_result_json({"v": 0.123456789123456}, path)
        assert json.loads(path.read_text())["v"] == 0.123456789

    def test_deterministic_bytes(self, tmp_path):
        payload = {"b": [1.0 / 3.0, 2.0 / 7.0], "a": {"x": 1e-17}}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        dump_result_json(payload, p1)
        dump_result_json(payload, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCountLabelModel:
    def test_plain_counting(self):
        raw = [("A",), ("A",), ("A",), ("B",)]
        sigs = [(0,), (0,), (0,), (1,)]
        table, z_ids = encode_signatures(sigs)
        data = DatasetView(n=4, z_ids=z_ids, labels=np.array([1, 1, 0, 1]))
        model = count_label_model(data, table, num_classes=2)
        assert model.table[0, 1] == pytest.approx(2 / 3)
        assert model.table[1, 1] == pytest.approx(1.0)
        assert model.source == "counted-from-labels"

    def test_heavy_smoothing_tends_uniform(self):
        table, z_ids = encode_signatures([(0,), (0,)])
        data = DatasetView(n=2, z_ids=z_ids, labels=np.array([1, 1]))
        model = count_label_model(data, table, num_classes=2, smoothing_alpha=1e9)
        assert model.table[0] == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_laplace_single_observation(self):
        table, z_ids = encode_signatures([(0,)])
        data = DatasetView(n=1, z_ids=z_ids, labels=np.array([1]))
        model = count_label_model(data, table, num_classes=2, smoothing_alpha=1.0)
        assert model.table[0, 1] == pytest.approx(2 / 3)

    def test_labels_required(self):
        table, z_ids = encode_signatures([(0,)])
        data = DatasetView(n=1, z_ids=z_ids)
        with pytest.raises(FormatError):
            count_label_model(data, table, num_classes=2)
