"""File formats (dataset CSV, label-model JSON, result JSON, sweep CSV) and the
labeled-data counting estimator. The only module that touches the filesystem.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .domain import DatasetView, LabelModel, SignatureTable, encode_signatures
from .errors import CoverageError, FormatError
from .metrics import SweepTable

SIG_DIGITS = 9


def _round_sig(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.{SIG_DIGITS}g}")


def round_floats(obj):
    """Recursively round floats to 9 significant digits for stable serialization."""
    if isinstance(obj, float):
        return _round_sig(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dump_result_json(payload: dict, path: str | Path) -> None:
    text = json.dumps(round_floats(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


# ---------------------------------------------------------------- dataset CSV


def write_dataset_csv(path: str | Path, data: DatasetView, table: SignatureTable) -> None:
    num_labelers = len(table.signatures[0])
    header = []
    if data.scores is not None:
        header.append("score")
    if data.predictions is not None:
        header.append("pred")
    if data.labels is not None:
        header.append("label")
    header += [f"wl_{k}" for k in range(num_labelers)]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i in range(data.n):
        row = []
        if data.scores is not None:
            row.append(f"{data.scores[i]:.{SIG_DIGITS}g}")
        if data.predictions is not None:
            row.append(int(data.predictions[i]))
        if data.labels is not None:
            row.append(int(data.labels[i]))
        row += list(table.decode(int(data.z_ids[i])))
        writer.writerow(row)
    Path(path).write_text(buf.getvalue())


def read_dataset_csv(path: str | Path) -> tuple[DatasetView, SignatureTable]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty dataset file") from None
        wl_cols = [i for i, name in enumerate(header) if name.startswith("wl_")]
        if not wl_cols:
            raise FormatError(f"{path}: no wl_* columns found")
        col = {name: i for i, name in enumerate(header)}

        scores, preds, labels, sigs = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"{path}:{lineno}: wrong number of fields")
            try:
                if "score" in col:
                    scores.append(float(row[col["score"]]))
                if "pred" in col:
                    preds.append(int(row[col["pred"]]))
                if "label" in col:
                    labels.append(int(row[col["label"]]))
                sigs.append(tuple(int(row[i]) for i in wl_cols))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None

    if not sigs:
        raise FormatError(f"{path}: dataset has no rows")
    table, z_ids = encode_signatures(sigs)
    data = DatasetView(
        n=len(sigs),
        z_ids=z_ids,
        scores=np.array(scores) if scores else None,
        predictions=np.array(preds, dtype=np.int64) if preds else None,
        labels=np.array(labels, dtype=np.int64) if labels else None,
    )
    return data, table


# ------------------------------------------------------------ label model JSON


def write_label_model_json(
    path: str | Path,
    model: LabelModel,
    table: SignatureTable,
    fallback: str = "error",
) -> None:
    payload = {
        "num_classes": model.num_classes,
        "fallback": fallback,
        "entries": [
            {"z": list(table.decode(z)), "p": [_round_sig(float(v)) for v in model.table[z]]}
            for z in range(model.num_signatures)
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_label_model_json(path: str | Path, table: SignatureTable) -> LabelModel:
    """Load a conditional table and align its rows to the dataset's signatures."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    try:
        num_classes = int(payload["num_classes"])
        entries = payload["entries"]
        fallback = payload.get("fallback", "error")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: missing or malformed field {exc}") from None
    if fallback not in ("error", "uniform"):
        raise FormatError(f"{path}: fallback must be 'error' or 'uniform'")

    by_sig: dict[tuple[int, ...], list[float]] = {}
    for i, e in enumerate(entries):
        try:
            sig = tuple(int(v) for v in e["z"])
            p = [float(v) for v in e["p"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"{path}: entry {i} needs numeric lists 'z' and 'p' ({exc!r})"
            ) from None
        if sig in by_sig:
            raise FormatError(f"{path}: duplicate signature {sig}")
        if len(p) != num_classes:
            raise FormatError(f"{path}: row for {sig} has wrong length")
        by_sig[sig] = p

    rows = np.empty((table.num_signatures, num_classes))
    for z, sig in enumerate(table.signatures):
        if sig in by_sig:
            rows[z] = by_sig[sig]
        elif fallback == "uniform":
            rows[z] = 1.0 / num_classes
        else:
            raise CoverageError(f"{path}: no entry for data signature {sig}")
    return LabelModel(table=rows, source="external")


# ------------------------------------------------------------------- sweep CSV


def write_sweep_csv(path: str | Path, sweep: SweepTable) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "threshold",
            "metric",
            "lower",
            "upper",
            "lower_std",
            "upper_std",
            "ci_lower_lo",
            "ci_lower_hi",
            "ci_upper_lo",
            "ci_upper_hi",
        ]
    )
    fmt = lambda x: f"{x:.{SIG_DIGITS}g}"
    for r in sweep.rows:
        writer.writerow(
            [
                fmt(r.threshold),
                r.metric,
                fmt(r.lower),
                fmt(r.upper),
                fmt(r.lower_std),
                fmt(r.upper_std),
                fmt(r.ci_lower.low),
                fmt(r.ci_lower.high),
                fmt(r.ci_upper.low),
                fmt(r.ci_upper.high),
            ]
        )
    Path(path).write_text(buf.getvalue())


# ------------------------------------------------- counting label-model estimator


def count_label_model(
    data: DatasetView,
    table: SignatureTable,
    num_classes: int,
    smoothing_alpha: float = 0.0,
) -> LabelModel:
    """Estimate P(Y | Z) by counting labeled examples, with additive smoothing."""
    if data.labels is None:
        raise FormatError("counting estimator needs a label column")
    counts = np.zeros((table.num_signatures, num_classes))
    np.add.at(counts, (data.z_ids, data.labels), 1.0)
    rows = (counts + smoothing_alpha) / (
        counts.sum(axis=1, keepdims=True) + smoothing_alpha * num_classes
    )
    if np.any(~np.isfinite(rows)):
        raise FormatError("signature with no labeled samples and no smoothing")
    return LabelModel(table=rows, source="counted-from-labels")
