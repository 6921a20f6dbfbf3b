import csv
import io
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbounds import (
    ConfidenceInterval,
    CoverageError,
    DatasetView,
    FormatError,
    LabelModel,
    count_label_model,
    dump_result_json,
    SweepRow,
    SweepTable,
    SynthSpec,
    encode_signatures,
    generate_synthetic,
    read_dataset_csv,
    read_label_model_json,
    write_dataset_csv,
    write_label_model_json,
    write_sweep_csv,
)
from weakbounds.fileio import (
    _SCAN_CHUNK,
    WRITE_CHUNK_ROWS,
    _first_misread_line,
    read_loss_table,
)
from weakbounds.metrics import SWEEP_KINDS


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
        assert table2 == table
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


    @pytest.mark.parametrize(
        "body, line, what",
        [
            ("0.5,1,0,1\n0.25,0,-1\n", 3, "wrong number of fields (3, the header has 4)"),
            ("0.5,1,0,1\n0.25,0,-1,1,7\n", 3, "wrong number of fields (5, the header has 4)"),
            ("0.5,1,0,1\n0.5,1,,1\n", 3, "column wl_0: could not convert '' to int64"),
            ("0.5,1,1.5,1\n", 2, "column wl_0: could not convert '1.5' to int64"),
            ("0.5,1e0,0,1\n", 2, "column pred: could not convert '1e0' to int64"),
            ("0.5,1,0,1\n\n0.5,1,0,1\n", 3, "blank line"),
            ("0.5,1,0,1\n\n0.5,1,x,1\n", 3, "blank line"),
            ("0.5,1,0,1\n0.5,1,x,1\n\n", 3, "column wl_0: could not convert 'x' to int64"),
            ("0.5,1,0,1\n0.5\x1f,1,0,1\n", 3, "control character '\\x1f'"),
            ("0.5,1,0,1\nnan,1,0,1\n0.5,1,0,1\n", 3, "column score: NaN is not a score"),
            ("-NaN,1,0,1\n", 2, "column score: NaN is not a score"),
            ("0.5,1,0,1\nnan,1,0,1\n\n", 3, "column score: NaN is not a score"),
        ],
        ids=["short", "long", "empty-field", "float-vote", "exponent-pred", "blank",
             "blank-before-bad-value", "bad-value-before-blank", "ascii-separator",
             "nan-score", "minus-nan-score", "nan-score-before-blank"],
    )
    def test_malformed_row_names_its_file_line(self, tmp_path, body, line, what):
        path = tmp_path / "e.csv"
        path.write_text("score,pred,wl_0,wl_1\n" + body)
        with pytest.raises(FormatError, match=re.escape(f"{path}:{line}: {what}")):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "header, name",
        [("score,pred,pred,wl_0,wl_0", "pred"), ("wl_0,note,wl_1,note", "note"),
         ("wl_0,pred, wl_0", "wl_0")],
    )
    def test_duplicate_column_name_rejected(self, tmp_path, header, name):
        # without the check the last of the duplicates wins silently
        path = tmp_path / "e.csv"
        path.write_text(header + "\n" + ",".join(["0"] * header.count(",")) + ",1\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:1: duplicate column name {name!r}")):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "row, what",
        [("0.2,x", "column wl_0: could not convert 'x' to int64"),
         ("nan,1", "column score: NaN is not a score"),
         ("0.2", "wrong number of fields (1, the header has 2)")],
        ids=["bad-value", "nan-score", "ragged"],
    )
    def test_line_after_a_quoted_field_spanning_lines(self, tmp_path, row, what):
        # the first data row takes lines 2 and 3, so the bad row is on line 4
        path = tmp_path / "e.csv"
        path.write_text('score,wl_0\n"0.5\n",1\n' + row + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:4: {what}")):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "header",
        ["\ufeffwl_0,wl_1,pred", "wl_0, wl_1,pred", '\ufeff"wl_0" , wl_1 ,pred'],
        ids=["byte-order-mark", "spaces", "both-and-quotes"],
    )
    def test_header_names_read_without_byte_order_mark_or_spaces(self, tmp_path, header):
        # matched as written, the first or second weak labeler was silently dropped
        path = tmp_path / "h.csv"
        path.write_text(header + "\n0,0,1\n0,1,0\n1,0,1\n1,1,0\n", encoding="utf-8")
        data, table = read_dataset_csv(path)
        assert table == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert data.predictions.tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize(
        "row, what",
        [("1,0.5,x,1,c", "column wl_0: could not convert 'x' to int64"),
         ("y,0.5,0,1,c", "column wl_1: could not convert 'y' to int64")],
        ids=["second-vote", "first-vote"],
    )
    def test_bad_vote_after_a_quoted_field_spanning_lines_in_split_columns(
        self, tmp_path, row, what
    ):
        # the votes are read side by side out of header order; the error still
        # names the file's column and line
        path = tmp_path / "e.csv"
        path.write_text('wl_1,score,wl_0,pred,extra\n1,0.5,0,1,"a\nb"\n' + row + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:4: {what}")):
            read_dataset_csv(path)

    @pytest.mark.parametrize("ends", ["\n\n", "\r\r", "\n\r\n", "\r\n\r\n", "\r\n\n"])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_blank_line_at_a_byte_scan_chunk_boundary(self, tmp_path, ends, shift):
        # the two line ends sit across, or next to, the edge of a raw-byte chunk:
        # spaces pad the last vote before them so the first is at byte
        # _SCAN_CHUNK - 1 + shift
        k = 1000
        head = "wl_0\n" + "1\n" * k
        pad = " " * (_SCAN_CHUNK - 2 + shift - len(head))
        path = tmp_path / "e.csv"
        path.write_bytes((head + pad + "1" + ends + "1\n").encode())
        with pytest.raises(FormatError, match=re.escape(f"{path}:{k + 3}: blank line")):
            read_dataset_csv(path)

    @given(st.text(alphabet="a\n\r\x1b\x1c\x1f \u00e9", max_size=40))
    @settings(max_examples=1000, deadline=None)
    def test_raw_byte_scan_flags_what_the_decoded_text_holds(self, tmp_path_factory, text):
        # the decoded, newline-translated text, as loadtxt reads it, is the reference:
        # a blank line is the line of the second "\n" of the first "\n\n"
        path = tmp_path_factory.getbasetemp() / "scan.csv"
        path.write_bytes(text.encode())
        with open(path) as fh:
            decoded = fh.read()
        hits = [(at + 1, "blank line") for at in [decoded.find("\n\n")] if at >= 0]
        hits += [(at, f"control character {c!r}") for c in "\x1c\x1d\x1e\x1f"
                 if (at := decoded.find(c)) >= 0]
        expect = None
        if hits:
            at, what = min(hits)
            expect = (decoded.count("\n", 0, at) + 1, what)
        assert _first_misread_line(path) == expect

    @pytest.mark.parametrize(
        "text, max_rows, error",
        [("wl_0\n1\n0\n", None, None),
         ("wl_0\n1\n0\n\n1\n", 2, ":4: blank line"),
         ("wl_0\n\n1\n", 0, ":2: blank line"),
         ("wl_0\x1f\n1\n", 0, ":1: control character '\\x1f'"),
         ("wl_0\n1\n\x1c1\n1\n", 1, ":3: control character '\\x1c'")],
        ids=["clean", "blank-line-4", "blank-line-2", "separator-on-header", "separator-line-3"],
    )
    def test_no_row_past_a_misread_line_is_parsed(self, tmp_path, monkeypatch, text, max_rows,
                                                  error):
        # the rows before the misread line; a hit on the header must not read all rows
        path = tmp_path / "e.csv"
        path.write_text(text)
        seen = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: seen.append(kw) or loadtxt(*a, **kw))
        if error is None:
            read_dataset_csv(path)
        else:
            with pytest.raises(FormatError, match=re.escape(f"{path}{error}")):
                read_dataset_csv(path)
        assert [kw["max_rows"] for kw in seen] == [max_rows]

    @pytest.mark.parametrize(
        "body, line, what",
        [("0.5,1,0,1\n" * 3 + "0.5,1,x,1\n\n", 5, "column wl_0: could not convert 'x' to int64"),
         ("0.5,1,0,1\n" * 3 + "0.5,1,x,1\n\n0.5,1,y,1\n0.5\n", 5,
          "column wl_0: could not convert 'x' to int64"),
         ('"\n0.5\n",1,0,1\n' + "0.5,1,0,1\n" * 3 + "\nnan,1,0,1\n", 8, "blank line"),
         ('"\n0.5\n",1,0,1\n' + "0.5,1,0,1\n" * 3 + "\n0.5\n", 8, "blank line"),
         ('"\n0.5\n",1,0,1\n' + "0.5,1,0,1\n" * 3 + "\n0.5,1,y,1\n", 8, "blank line"),
         ('"\n0.5\n",1,0,1\n' + "0.5,1,0,1\n" * 3 + "nan\x1f,1,0,1\n", 8,
          "control character '\\x1f'"),
         ('"\n0.5\n",1,0,1\n' + "0.5,1,0,1\n" * 3 + "0.5,1,x\x1f,1\n", 8,
          "control character '\\x1f'")],
        ids=["good", "bad", "quoted-then-nan-score", "quoted-then-ragged",
             "quoted-then-bad-value", "quoted-then-nan-score-and-separator",
             "quoted-then-bad-value-and-separator"],
    )
    def test_bad_value_before_a_blank_line_is_reported(self, tmp_path, body, line, what):
        # a fault past the blank line is not named, whatever it is; after a quoted
        # field that spans three lines, loadtxt reads rows up to two lines past it.
        # A separator on the line of a row fault is named: on one line, the
        # misread line comes first
        path = tmp_path / "e.csv"
        path.write_text("score,pred,wl_0,wl_1\n" + body)
        with pytest.raises(FormatError, match=re.escape(f"{path}:{line}: {what}")):
            read_dataset_csv(path)

    def test_header_field_spanning_lines_rejected(self, tmp_path):
        # the csv module reads the rest of the file into the open quote, while
        # loadtxt reads the rows below the header's first line
        path = tmp_path / "e.csv"
        path.write_text('score,pred,wl_0,"wl_1\n0.5,1,0,1\n')
        with pytest.raises(FormatError, match=re.escape(f"{path}:1: a header field spans")):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [('pred,wl_0,wl_1\n1,1,0\n0,1,"1\n', 3),
         ('pred,wl_0,wl_1\n1,1,0\n0,1,"1', 3),
         ('pred,wl_0,wl_1\r\n1,1,0\r\n0,1,"1\r\n', 3),
         ('pred,wl_0,note\n1,1,"a""\n0,1,x\n', 2),
         ('pred,wl_0,note\n1,1,"a\n\n0,1,x\n', 2),
         ('pred,wl_0,note\n1,1,"a"\n0,1,"b\n', 3)],
        ids=["last-line", "no-final-line-end", "crlf", "after-a-doubled-quote",
             "before-a-blank-line", "after-a-closed-field"],
    )
    def test_quoted_field_open_at_the_end_of_the_file_rejected(self, tmp_path, text, line):
        # loadtxt read the rest of the file into the open field as one value
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode())
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:{line}: a quoted field is still open at the end of the file")):
            read_dataset_csv(path)

    def test_quote_inside_an_unquoted_field_is_a_plain_character(self, tmp_path):
        # as loadtxt reads it: a quote opens a field only at the field's start, so
        # an odd count of quotes leaves no field open
        path = tmp_path / "q.csv"
        path.write_text('pred,wl_0,note\n1,1,ab"c\n0,0,"x"y"z"\n')
        data, table = read_dataset_csv(path)
        assert data.predictions.tolist() == [1, 0]
        assert table == ((1,), (0,))

    @given(st.lists(st.text(alphabet='"a,', min_size=1, max_size=6), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_open_quote_follows_loadtxt(self, tmp_path_factory, lines):
        # no line is empty, so no line is blank in the raw bytes
        body = "\n".join(lines)
        path = tmp_path_factory.getbasetemp() / "open.csv"
        path.write_bytes(("h\n" + body).encode())
        # loadtxt's own reading: an open field takes in a last line added after it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            first = np.loadtxt(io.StringIO(body + "\nEND"), dtype=str, delimiter=",",
                               comments=None, quotechar='"', usecols=(0,), ndmin=1)
        left_open = first[-1] != "END"
        # the line of the quote that opens the last field, by loadtxt's quote rules
        line, at_start, opened, quoted, i = 2, True, None, False, 0
        while i < len(body):
            c = body[i]
            if quoted and c == '"' and body[i + 1:i + 2] == '"':
                i += 1  # a doubled quote inside a quoted field
            elif quoted:
                quoted = c != '"'
            elif c == '"' and at_start:
                quoted, opened = True, line
            at_start = not quoted and c in ",\n"
            line += c == "\n"
            i += 1
        assert quoted == left_open
        what = "a quoted field is still open at the end of the file"
        # chunks of a few bytes cut runs of quotes and put the last closing run
        # chunks before the end
        for chunk in (_SCAN_CHUNK, 1, 2, 3):
            with mock.patch("weakbounds.fileio._SCAN_CHUNK", chunk):
                assert _first_misread_line(path) == ((opened, what) if left_open else None)

    @pytest.mark.parametrize("tail", ["\n0.5,1,0,1\n", "0.5,1,0\n", "0.5,1,x,1\n"],
                             ids=["blank", "ragged", "bad-value"])
    def test_line_numbers_past_the_first_read_chunk(self, tmp_path, tail):
        # 1.5 MB of good rows, so the fault lies past the first 1 MiB the scan reads
        path = tmp_path / "e.csv"
        path.write_text("score,pred,wl_0,wl_1\n" + "0.5,1,0,1\n" * 150_000 + tail)
        with pytest.raises(FormatError, match=re.escape(f"{path}:150002: ")):
            read_dataset_csv(path)

    def test_quoted_fields_and_surrounding_spaces_accepted(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('score,pred,wl_0,wl_1\n"0.5", 1 ,"-1", 0\n 0.25,"0",1,1\n')
        data, table = read_dataset_csv(path)
        assert data.scores.tolist() == [0.5, 0.25]
        assert data.predictions.tolist() == [1, 0]
        assert table == ((-1, 0), (1, 1))

    def test_extra_non_numeric_column_ignored(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text('id,pred,note,wl_0\nab,1,"x, y",0\ncd,0,,-1\n')
        data, table = read_dataset_csv(path)
        assert data.scores is None and data.labels is None
        assert data.predictions.tolist() == [1, 0]
        assert table == ((0,), (-1,))

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"wl_0\n0\n\xff1\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:3: ") + ".*decode byte 0xff"):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "text, line, what",
        [(b"score,wl_\xff0\n0.5,1\n", 1, "byte 0xff"),
         (b"wl_0\n" + b"1\n" * 40_000 + b"0\n\xff1\n", 40_003, "byte 0xff"),
         (b"wl_0\r\n" + b"1\r\n" * 40_000 + b"1\xe2\x28\r\n", 40_002, "byte 0xe2"),
         (b"wl_0\n1\n\n\xff1\n", 3, "blank line"),
         (b"wl_0\n" + b"1\n" * 5000 + b"x\n" + b"1\n" * 500 + b"\xff1\n", 5002,
          "column wl_0: could not convert 'x' to int64"),
         (b"wl_0,wl_0\n1,1\n\xff1,1\n", 1, "duplicate column name 'wl_0'"),
         (b"score,wl_0\n0.5,1\nnan,1\n0.5,\xff1\n", 3, "column score: NaN is not a score")],
        ids=["header", "past-64-KiB", "crlf", "blank-line-first", "bad-value-first",
             "duplicate-name-first", "nan-score-first"],
    )
    def test_undecodable_byte_names_its_file_line(self, tmp_path, text, line, what):
        # the decoder's own position is an offset inside one of its chunks; the
        # error names the file line, with lines counted as for a blank line. The
        # text readers decode ahead of what they parse, but an earlier fault of
        # another kind is still the one named
        path = tmp_path / "b.csv"
        path.write_bytes(text)
        with pytest.raises(FormatError, match=re.escape(f"{path}:{line}: ") + f".*{what}"):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "columns", [("scores", "predictions", "labels"), ("scores",), ("predictions",), ()]
    )
    def test_writer_matches_per_row_csv_writer(self, tmp_path, columns):
        result = generate_synthetic(SynthSpec(n=500, seed=3))
        full = result.data
        data = DatasetView(n=full.n, z_ids=full.z_ids, **{c: getattr(full, c) for c in columns})
        path = tmp_path / "w.csv"
        write_dataset_csv(path, data, result.table)

        # the per-row writer this one replaced
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [name for name, c in [("score", "scores"), ("pred", "predictions"), ("label", "labels")]
             if c in columns] + ["wl_0", "wl_1", "wl_2"]
        )
        for i in range(data.n):
            row = [f"{data.scores[i]:.9g}"] if data.scores is not None else []
            row += [int(v[i]) for v in (data.predictions, data.labels) if v is not None]
            writer.writerow(row + list(result.table[int(data.z_ids[i])]))
        assert path.read_text() == buf.getvalue()

    @pytest.mark.parametrize(
        "scores",
        [
            np.array([-0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, np.inf, -np.inf, np.nan, 0.5]),
            np.array([0, -7, 123456789012, 2**62, np.iinfo(np.int64).min], dtype=np.int64),
        ],
        ids=["float", "int64"],
    )
    def test_score_text_matches_format_per_row(self, tmp_path, scores):
        table, z_ids = encode_signatures([(-1, 0), (1, 1)] * (len(scores) // 2) + [(0, 0)])
        data = DatasetView(n=len(scores), z_ids=z_ids, scores=scores)
        path = tmp_path / "w.csv"
        write_dataset_csv(path, data, table)
        expect = ["score,wl_0,wl_1"] + [
            f"{s:.9g},{','.join(map(str, table[z]))}"
            for s, z in zip(scores.tolist(), z_ids.tolist())
        ]
        assert path.read_text() == "\n".join(expect) + "\n"

    @pytest.mark.parametrize(
        "n", [1, WRITE_CHUNK_ROWS - 1, WRITE_CHUNK_ROWS + 1, 3 * WRITE_CHUNK_ROWS + 7]
    )
    @pytest.mark.parametrize("with_scores", [True, False], ids=["scores", "no-scores"])
    def test_writer_matches_per_row_writer_across_chunks(self, tmp_path, n, with_scores):
        rng = np.random.default_rng(n)
        table, z_ids = encode_signatures(rng.integers(-1, 2, size=(n, 3)))
        scores = rng.random(n) if with_scores else None
        data = DatasetView(n=n, z_ids=z_ids, scores=scores, predictions=rng.integers(0, 2, n))
        path = tmp_path / "w.csv"
        write_dataset_csv(path, data, table)
        rows = [
            ",".join(map(str, [p, *table[z]]))
            for p, z in zip(data.predictions.tolist(), z_ids.tolist())
        ]
        if with_scores:
            rows = [f"{s:.9g},{row}" for s, row in zip(scores.tolist(), rows)]
        header = ("score," if with_scores else "") + "pred,wl_0,wl_1,wl_2"
        assert path.read_text() == "\n".join([header, *rows]) + "\n"

    def test_reordered_and_split_votes_read_as_a_stacked_reference(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 500
        votes, scores, preds = rng.integers(-1, 2, size=(n, 2)), rng.random(n), rng.integers(0, 2, n)
        lines = ["wl_1,score,wl_0,pred,extra"] + [
            f"{v[1]},{s!r},{v[0]},{p},x{i}"
            for i, (v, s, p) in enumerate(zip(votes.tolist(), scores.tolist(), preds.tolist()))
        ]
        path = tmp_path / "r.csv"
        path.write_text("\n".join(lines) + "\n")
        data, table = read_dataset_csv(path)
        # the votes in header order: wl_1, then wl_0
        ref_table, ref_ids = encode_signatures(np.stack([votes[:, 1], votes[:, 0]], axis=1))
        assert table == ref_table
        assert np.array_equal(data.z_ids, ref_ids)
        assert np.array_equal(data.scores, scores)
        assert np.array_equal(data.predictions, preds)
        assert data.labels is None

    def test_synth_roundtrip_at_scale(self, tmp_path):
        result = generate_synthetic(SynthSpec(n=200_000, seed=11))
        path = tmp_path / "big.csv"
        write_dataset_csv(path, result.data, result.table)
        data, table = read_dataset_csv(path)
        assert table == result.table
        assert np.array_equal(data.z_ids, result.data.z_ids)
        assert np.array_equal(data.predictions, result.data.predictions)
        assert np.array_equal(data.labels, result.data.labels)
        assert data.scores == pytest.approx(result.data.scores, rel=1e-8, abs=0)


class TestLabelModelJson:
    def test_roundtrip(self, tmp_path):
        _, table = sample_dataset()
        table += ((0, 0, 0),)
        # the last row is written as 0.606445312, 0.393554687: its first entry is a
        # 9-digit tie rounded to even, and the row sums to 1 - 1.0000000827e-9
        q = np.nextafter(0.3935546875, 0)
        rows = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0], [1 - q, q]])
        model = LabelModel(table=rows)
        path = tmp_path / "m.json"
        write_label_model_json(path, model, table)
        model2 = read_label_model_json(path, table)
        assert model2.table == pytest.approx(model.table, abs=1e-9)
        # rows stay on the simplex after the round-trip
        assert model2.table.sum(axis=1) == pytest.approx(np.ones(4))

    def test_integral_floats_and_integer_probabilities_read_as_numbers(self, tmp_path):
        # an entry that is not all JSON integers in 'z' and JSON numbers in 'p'
        # goes value by value; 2.0 reads as the signature value 2, and 1 as 1.0
        _, table = sample_dataset()
        entries = [{"z": list(sig), "p": [0.125 * (z + 1), 1 - 0.125 * (z + 1)]}
                   for z, sig in enumerate(table)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"num_classes": 2, "entries": entries}))
        plain = read_label_model_json(path, table).table
        entries[0]["z"] = [float(v) for v in entries[0]["z"]]
        entries[1]["p"] = [1, 0]
        path.write_text(json.dumps({"num_classes": 2, "entries": entries}))
        assert np.array_equal(read_label_model_json(path, table).table,
                              np.vstack([plain[0], [1.0, 0.0], plain[2:]]))

    def test_missing_signature_errors_by_default(self, tmp_path):
        _, table = sample_dataset()
        payload = {
            "num_classes": 2,
            "entries": [{"z": list(table[0]), "p": [0.5, 0.5]}],
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
            "entries": [{"z": list(table[0]), "p": [0.2, 0.8]}],
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
                {"z": list(table[0]), "p": [0.5, 0.5]},
                {"z": list(table[0]), "p": [0.4, 0.6]},
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
            {"z": [0.4, 1, -1], "p": [0.5, 0.5]},  # int() read it as the signature (0, 1, -1)
            {"z": [0, 1, float("inf")], "p": [0.5, 0.5]},
            {"z": [0, True, -1], "p": [0.5, 0.5]},
            {"z": [0, "1", -1], "p": [0.5, 0.5]},
            [[0, 1, -1], [0.5, 0.5]],
            {"z": [0, 1, -1], "p": [True, False]},  # float() read it as (1, 0)
            {"z": [0, 1, -1], "p": ["0.5", "0.5"]},  # float() parsed the strings
            {"z": [0, 1, -1], "p": [1, "0"]},
            {"z": [0, 1, -1], "p": [0.5, 0.25, 0.25]},  # unchecked: a broadcast error, exit 1
        ],
    )
    def test_malformed_entry_rejected(self, tmp_path, entry):
        _, table = sample_dataset()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"num_classes": 2, "fallback": "uniform", "entries": [entry]}))
        with pytest.raises(FormatError):
            read_label_model_json(path, table)

    @pytest.mark.parametrize("num_classes", [0, 1, -2])
    def test_fewer_than_two_classes_rejected(self, tmp_path, num_classes):
        # these were accepted or raised ZeroDivisionError or ValueError: exit 1, not 2
        _, table = sample_dataset()
        path = tmp_path / "m.json"
        payload = {"num_classes": num_classes, "fallback": "uniform", "entries": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=r"num_classes must lie in \[2, 1000\]"):
            read_label_model_json(path, table)

    @pytest.mark.parametrize("num_classes", [2.9, 2.5, float("inf"), "2", True])
    def test_non_integral_num_classes_rejected(self, tmp_path, num_classes):
        # int() read 2.9 as 2 classes
        _, table = sample_dataset()
        path = tmp_path / "m.json"
        payload = {"num_classes": num_classes, "fallback": "uniform", "entries": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="is not an integer"):
            read_label_model_json(path, table)

    def test_integral_float_num_classes_accepted(self, tmp_path):
        _, table = sample_dataset()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"num_classes": 2.0, "fallback": "uniform", "entries": []}))
        assert read_label_model_json(path, table).num_classes == 2

    @pytest.mark.parametrize("num_classes", [1001, 10**15])
    def test_too_many_classes_rejected_before_allocating(self, tmp_path, num_classes):
        # 1e15 classes made the uniform fallback table raise numpy's memory error
        _, table = sample_dataset()
        path = tmp_path / "m.json"
        payload = {"num_classes": num_classes, "fallback": "uniform", "entries": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=r"num_classes must lie in \[2, 1000\]"):
            read_label_model_json(path, table)

    @pytest.mark.parametrize(
        "entries", [None, 5, True, {}, ""], ids=["null", "number", "true", "object", "string"]
    )
    def test_entries_that_are_not_a_list_rejected(self, tmp_path, entries):
        # null, 5 and true raised TypeError; {} and "" read as no entries
        _, table = sample_dataset()
        path = tmp_path / "m.json"
        payload = {"num_classes": 2, "fallback": "uniform", "entries": entries}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(f"{path}: 'entries' must be a list")):
            read_label_model_json(path, table)

    @pytest.mark.parametrize("cut", [2, 4])
    def test_z_of_another_length_than_the_votes_rejected(self, tmp_path, cut):
        # no such entry matches a data signature, so the uniform fallback took
        # every row silently
        _, table = sample_dataset()
        entries = [{"z": (list(sig) + [0])[:cut], "p": [0.5, 0.5]} for sig in table]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"num_classes": 2, "fallback": "uniform", "entries": entries}))
        what = f"{path}: entry 0 has {cut} votes, the dataset 3"
        with pytest.raises(FormatError, match=re.escape(what)):
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
            "entries": [{"z": list(table[0]), "p": [0.6, 0.5]}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            read_label_model_json(path, table)


class TestLossTable:
    def test_numbers_read_as_floats(self, tmp_path):
        path = tmp_path / "loss.json"
        path.write_text("[[0, 1.5], [2, 0.0]]")
        table = read_loss_table(path, 2)
        assert table.dtype == np.float64
        assert table.tolist() == [[0.0, 1.5], [2.0, 0.0]]

    @pytest.mark.parametrize(
        "text, what",
        [('[["0", "1"], [1, 0]]', "bad loss table ('0' is not a number)"),
         ("[[0, 1], [true, 0]]", "bad loss table (True is not a number)"),
         ("[[0, NaN], [1, 0]]", "loss table entries must be finite numbers"),
         ("[[0, 1], [Infinity, 0]]", "loss table entries must be finite numbers"),
         ("[[0, 1], [-Infinity, 0]]", "loss table entries must be finite numbers"),
         ("[[0, 1], [1" + "0" * 400 + ", 0]]", "bad loss table (int too large")],
        ids=["string", "boolean", "nan", "infinity", "minus-infinity", "huge-integer"],
    )
    def test_entry_that_is_not_a_finite_number_rejected(self, tmp_path, text, what):
        # asarray read the strings and the boolean as numbers, and NaN and the
        # infinities got as far as the cost table; a huge integer raised OverflowError
        path = tmp_path / "loss.json"
        path.write_text(text)
        with pytest.raises(FormatError, match=re.escape(f"{path}: {what}")):
            read_loss_table(path, 2)


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


class TestSweepCsv:
    HEADER = ["threshold", "metric", "lower", "upper", "lower_std", "upper_std",
              "ci_lower_lo", "ci_lower_hi", "ci_upper_lo", "ci_upper_hi"]

    @staticmethod
    def _rows():
        values = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300, 1.0 / 3.0, 0.0, 5e-324]
        rows = []
        for i, metric in enumerate(SWEEP_KINDS):
            # bound_rows mixes floats and numpy floats (the CIs)
            v = [values[(i + j) % len(values)] for j in range(9)]
            ci = lambda a, b: ConfidenceInterval(0.95, np.float64(a), np.float64(b))
            rows.append(SweepRow(v[0], metric, v[1], v[2], v[3], v[4],
                                 ci(v[5], v[6]), ci(v[7], v[8])))
        return rows

    def _by_csv_module(self, rows) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.HEADER)
        for r in rows:
            fields = [r.threshold, r.lower, r.upper, r.lower_std, r.upper_std,
                      *r.ci_lower[1:], *r.ci_upper[1:]]
            text = [f"{x:.9g}" for x in fields]
            writer.writerow([text[0], r.metric, *text[1:]])
        return buf.getvalue()

    def test_template_matches_the_csv_module(self, tmp_path, capsys):
        # the template writes what a csv.writer of the formatted fields writes,
        # non-finite values, signed zeros and extreme exponents included
        rows = self._rows()
        want = self._by_csv_module(rows).encode()
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, SweepTable(rows=tuple(rows)))
        assert path.read_bytes() == want
        assert b"nan" in want and b"-inf" in want and b"-0," in want and b"1e+300" in want
        write_sweep_csv(None, SweepTable(rows=tuple(rows)))
        assert capsys.readouterr().out.encode() == want


class TestCountLabelModel:
    def test_plain_counting(self):
        raw = [("A",), ("A",), ("A",), ("B",)]
        sigs = [(0,), (0,), (0,), (1,)]
        table, z_ids = encode_signatures(sigs)
        data = DatasetView(n=4, z_ids=z_ids, labels=np.array([1, 1, 0, 1]))
        model = count_label_model(data, table, num_classes=2)
        assert model.table[0, 1] == pytest.approx(2 / 3)
        assert model.table[1, 1] == pytest.approx(1.0)

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

    @pytest.mark.parametrize("labels, bad", [([0, -1, 1, 1], -1), ([0, 1, 2, 1], 2)])
    def test_label_outside_classes_rejected(self, labels, bad):
        # -1 used to be counted into the last class; 2 raised a bare IndexError
        table, z_ids = encode_signatures([(0,), (1,), (0,), (1,)])
        data = DatasetView(n=4, z_ids=z_ids, labels=np.array(labels))
        with pytest.raises(FormatError, match=f"label {bad} outside the classes 0..1"):
            count_label_model(data, table, num_classes=2)
