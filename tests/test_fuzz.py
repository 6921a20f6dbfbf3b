"""Fuzzing of the dataset CSV and label-model JSON readers.

Mutated input files go through ``cli.main``, which must map every one of them
to a documented exit code. Every CSV the reader accepts must also read the
same through the ``csv`` module.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbounds import FormatError, read_dataset_csv
from weakbounds.cli import main

VALID_CSV = (
    "score,pred,label,wl_0,wl_1,wl_2\n"
    "0.91,1,1,1,-1,1\n"
    "0.2,0,0,0,0,-1\n"
    "0.55,1,0,1,0,1\n"
    "0.07,0,0,-1,-1,0\n"
    "0.66,1,1,1,-1,1\n"
    "0.38,0,1,0,0,-1\n"
)
SIGNATURES = [(1, -1, 1), (0, 0, -1), (1, 0, 1), (-1, -1, 0)]
VALID_MODEL = json.dumps(
    {
        "num_classes": 2,
        "fallback": "error",
        "entries": [
            {"z": list(z), "p": [p, round(1 - p, 2)]}
            for z, p in zip(SIGNATURES, (0.2, 0.7, 0.45, 0.9))
        ],
    }
)

# pieces that change a field's type, a row's length, the quoting or the line
# structure, plus whitespace that int() and float() do or do not strip, a NUL
# and bytes that are not UTF-8
PIECES = [
    *(c.encode() for c in "0123456789-+.e,\"\n\r \tx:[]{}"),
    b"wl_", b"nan", b"1e999", b'"1"', b"\x00", b"\x0b", b"\x1c", b"\x1f",
    "\xa0".encode(), "\u2003".encode(), b"\xe9", b"\xff",
]


@st.composite
def mutated(draw, text):
    """``text`` as bytes after one to four piece inserts, byte deletes or replacements."""
    data = text.encode()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        cut = op != "insert"
        at = draw(st.integers(0, len(data) - cut))
        piece = b"" if op == "delete" else draw(st.sampled_from(PIECES))
        data = data[:at] + piece + data[at + cut :]
    return data


def run_estimate(csv_bytes: bytes, model_bytes: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp, "d.csv"), Path(tmp, "m.json")
        data.write_bytes(csv_bytes)
        model.write_bytes(model_bytes)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["estimate", "--data", str(data), "--label-model", str(model),
                       "--out", str(Path(tmp, "r.json"))])
    return rc, err.getvalue()


def test_valid_inputs_succeed():
    assert run_estimate(VALID_CSV.encode(), VALID_MODEL.encode()) == (0, "")


@given(mutated(VALID_CSV))
@settings(max_examples=60, deadline=None)
def test_mutated_csv_maps_to_an_exit_code(csv_bytes):
    rc, err = run_estimate(csv_bytes, VALID_MODEL.encode())
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err


@given(mutated(VALID_MODEL))
@settings(max_examples=60, deadline=None)
def test_mutated_label_model_maps_to_an_exit_code(model_bytes):
    rc, err = run_estimate(VALID_CSV.encode(), model_bytes)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err


def reference_read(path):
    """The per-row reader: the csv module, int() and float() on every field.
    Header names drop a leading UTF-8 byte order mark and, like fields, the
    whitespace around them."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = list(csv.reader(fh))
    header = [name.strip() for name in header]
    col = {name: i for i, name in enumerate(header)}
    wl_cols = [i for i, name in enumerate(header) if name.startswith("wl_")]
    assert rows and all(len(row) == len(header) for row in rows)
    field = lambda name, cast: [cast(row[col[name]]) for row in rows] if name in col else None
    sigs = [tuple(int(row[i]) for i in wl_cols) for row in rows]
    return field("score", float), field("pred", int), field("label", int), sigs


@given(mutated(VALID_CSV))
@settings(max_examples=150, deadline=None)
def test_accepted_csv_reads_as_the_csv_module_reads_it(csv_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "d.csv")
        path.write_bytes(csv_bytes)
        try:
            data, table = read_dataset_csv(path)
        except FormatError:
            return
        scores, preds, labels, sigs = reference_read(path)
    assert data.n == len(sigs)
    assert [table[z] for z in data.z_ids.tolist()] == sigs
    assert table == tuple(dict.fromkeys(sigs))
    for got, want in ((data.predictions, preds), (data.labels, labels)):
        assert (got is None) == (want is None)
        assert want is None or got.tolist() == want
    assert (data.scores is None) == (scores is None)
    if scores is not None:
        assert all(
            a == b or (math.isnan(a) and math.isnan(b))
            for a, b in zip(data.scores.tolist(), scores)
        )
        assert data.scores.dtype == np.float64
