"""File formats (dataset CSV, label-model JSON, loss-table JSON, result JSON,
sweep CSV) and the labeled-data counting estimator. The only module that
touches the filesystem.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import json
import math
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .domain import DatasetView, LabelModel, encode_signatures, group_rows
from .errors import CoverageError, FormatError

if TYPE_CHECKING:  # an annotation only: importing metrics would load the solver
    from .metrics import SweepTable

SIG_DIGITS = 9
# a label model file may name at most this many classes; the solver holds one
# |Y|-by-|Y| Hessian block per signature
MAX_CLASSES = 1000
# the dataset writer formats and writes this many rows at a time, so its
# text temporaries do not grow with n
WRITE_CHUNK_ROWS = 1 << 15


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


def result_json(payload: dict) -> str:
    """The text of a result: sorted keys, floats at 9 significant digits, one newline."""
    return json.dumps(round_floats(payload), indent=2, sort_keys=True) + "\n"


def dump_result_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(result_json(payload))


# ---------------------------------------------------------------- dataset CSV


def write_dataset_csv(
    path: str | Path, data: DatasetView, table: tuple[tuple[int, ...], ...]
) -> None:
    num_labelers = len(table[0])
    header = []
    if data.scores is not None:
        header.append("score")
    if data.predictions is not None:
        header.append("pred")
    if data.labels is not None:
        header.append("label")
    header += [f"wl_{k}" for k in range(num_labelers)]

    # every row past the score is one of the few distinct (pred, label, signature)
    # cells, so each cell's text is formatted once; ``cells`` is column-major,
    # which group_rows reads fastest
    cells = np.array(
        [v for v in (data.predictions, data.labels) if v is not None] + [data.z_ids],
        dtype=np.int64,
    ).T
    first, ids = group_rows(cells)
    texts = np.array(
        [",".join(map(str, [*row[:-1], *table[row[-1]]])) for row in cells[first].tolist()],
        dtype=object,
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, data.n, WRITE_CHUNK_ROWS):
            chunk = slice(start, start + WRITE_CHUNK_ROWS)
            tails = texts[ids[chunk]].tolist()
            if data.scores is None:
                fh.write("\n".join(tails) + "\n")
                continue
            # one %-format over the chunk: scores and tails interleaved
            fields = [None] * (2 * len(tails))
            fields[0::2] = data.scores[chunk].tolist()
            fields[1::2] = tails
            fh.write(f"%.{SIG_DIGITS}g,%s\n" * len(tails) % tuple(fields))


# numpy's loadtxt messages for a row with the wrong number of fields (its row
# counts rows from 0, the header first) and for a field it cannot convert (its
# row counts data rows from 0)
_RAGGED = re.compile(r"requires \d+ columns but (\d+) were found at row (\d+)")
_BAD_VALUE = re.compile(r"could not convert string (.*) to (\w+) at row (\d+), column (\d+)", re.S)
# loadtxt also reads what int() and float() on the csv module's fields reject: it
# skips blank lines and takes the ASCII separators \x1c-\x1f for whitespace
_SEPARATORS = "\x1c\x1d\x1e\x1f"
_SCAN_CHUNK = 1 << 16  # bytes per chunk of the one byte scan for misread lines


def _first_misread_line(path: str | Path) -> tuple[int, str] | None:
    """The 1-based line and the reason of the first line that loadtxt would
    misread or fail to decode: one that holds an ASCII separator, is blank, or
    holds a byte that the text readers' encoding cannot decode. Lines are
    counted as loadtxt counts them; on one line, a separator comes first.

    A blank line of the decoded, newline-translated text is two line ends in a
    row in the raw bytes (each a ``\\n`` or a ``\\r``, but not the pair ``\\r\\n``).
    The scan is vectorised over fixed-size chunks of the bytes, which an
    incremental decoder also reads; an undecodable byte counts at the first line
    end after it. Only a hit reads the bytes before it again, to count its line.
    """
    buf = np.zeros(1 + _SCAN_CHUNK, dtype=np.uint8)  # buf[0]: the previous chunk's last byte
    low, hit, nl, cr = np.empty_like(buf), *(np.empty(buf.shape, dtype=bool) for _ in range(3))
    start = 0  # the file offset of buf[1]
    undecodable = None  # the file offset and the reason of the first undecodable byte
    with open(path) as text:  # in the encoding that loadtxt opens it with
        fh, decoder = text.buffer, codecs.getincrementaldecoder(text.encoding)()
        while True:
            got = fh.readinto(memoryview(buf)[1:])
            held = len(decoder.getstate()[0])  # bytes of a sequence the last chunk cut
            try:
                if undecodable is None:
                    decoder.decode(buf.data[1 : 1 + got], final=not got)
            except UnicodeDecodeError as exc:
                bad = exc.object[exc.start:exc.end]
                undecodable = start - held + exc.start, (
                    f"{exc.encoding!r} codec can't decode byte{'s' * (len(bad) > 1)} "
                    f"{' '.join(f'0x{b:02x}' for b in bad)}: {exc.reason}")
            if not got:  # no line end follows an undecodable byte: it is on the last line
                return None if undecodable is None else (_line_at(fh, start), undecodable[1])
            m = slice(0, 1 + got)
            b = buf[m]
            # the separators are the four bytes from 0x1c; below it, b - 0x1c wraps
            np.subtract(b, 0x1C, out=low[m])
            seps = np.less(low[m], len(_SEPARATORS), out=hit[m])
            at = int(seps.argmax())  # found: (index into buf, reason) of each kind's first hit
            found = [(at, f"control character {chr(buf[at])!r}")] if seps[at] else []
            n, r = np.equal(b, ord("\n"), out=nl[m]), np.equal(b, ord("\r"), out=cr[m])
            if r.any():
                ends = n | r
                pairs = ends[:-1] & ends[1:] & ~(r[:-1] & n[1:])
            else:
                pairs = np.logical_and(n[:-1], n[1:], out=hit[:got])
            if pairs.any():
                found.append((int(pairs.argmax()) + 1, "blank line"))  # the second line end
            if undecodable is not None:
                # at its line's end, so that a separator on its line comes first
                after = (n | r)[max(undecodable[0] - start + 1, 1):]
                if after.any():
                    found.append((len(b) - len(after) + int(after.argmax()), undecodable[1]))
            if found:
                at, what = min(found)
                # the byte at the hit is never the \n of a \r\n
                return _line_at(fh, start + at - 1), what
            start += got
            buf[0] = buf[got]


def _line_at(fh, offset: int) -> int:
    """The 1-based line of the byte at ``offset`` of the binary file ``fh``, with
    a ``\\r\\n`` counted as one line end."""
    fh.seek(0)
    head = fh.read(offset)
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _row_line(path, row: int) -> int:
    """The 1-based file line on which data row ``row`` (from 0) ends.

    A quoted field may span lines, so rows are counted by the csv module, past
    the blank lines that loadtxt skips.
    """
    try:
        with open(path, newline="", errors="replace") as fh:
            reader = csv.reader(fh)
            next(reader)  # the header, one line
            ends = (reader.line_num for fields in reader if fields)
            return next(itertools.islice(ends, row, None))
    except (csv.Error, StopIteration):
        return row + 2  # as if no field spanned lines


def _read_error(
    path, exc: ValueError, header: list[str], misread: tuple[int, str] | None
) -> FormatError:
    """The FormatError, naming the 1-based file line, for loadtxt's failure to parse the file."""
    msg = str(exc)
    if m := _RAGGED.search(msg):
        line = _row_line(path, int(m[2]) - 1)
        what = f"wrong number of fields ({m[1]}, the header has {len(header)})"
    elif m := _BAD_VALUE.search(msg):
        line = _row_line(path, int(m[3]))
        what = f"column {header[int(m[4]) - 1]}: could not convert {m[1]} to {m[2]}"
    else:
        return FormatError(f"{path}: {msg}")
    # the first fault is reported; loadtxt skips blank lines, so it counts a row after one short
    if misread is not None and misread[0] <= line:
        line, what = misread
    return FormatError(f"{path}:{line}: {what}")


def read_dataset_csv(path: str | Path) -> tuple[DatasetView, tuple[tuple[int, ...], ...]]:
    """The dataset and the tuple of its distinct vote tuples, which
    ``encode_signatures`` numbers in first-observed order."""
    try:
        # the text reader decodes ahead of the header: the scan below names a bad byte
        with open(path, newline="", errors="replace") as fh:
            if fh.read(1) != "\ufeff":  # a UTF-8 byte order mark, as Excel writes
                fh.seek(0)
            header = next(csv.reader(fh), None)
    except csv.Error as exc:
        raise FormatError(f"{path}: {exc}") from None
    misread = _first_misread_line(path)
    # an undecodable header is named before the checks of the names read from it
    if misread is not None and misread[0] == 1 and "decode" in misread[1]:
        raise FormatError(f"{path}:1: {misread[1]}")
    if header is None:
        raise FormatError(f"{path}: empty dataset file")
    # loadtxt skips one physical line for the header, whatever its quotes hold
    if any("\n" in name or "\r" in name for name in header):
        raise FormatError(f"{path}:1: a header field spans more than one line")
    # names are matched without the whitespace around them, as loadtxt strips fields
    header = [name.strip() for name in header]
    seen = set()
    for name in header:
        if name in seen:
            raise FormatError(f"{path}:1: duplicate column name {name!r}")
        seen.add(name)
    wl_cols = [i for i, name in enumerate(header) if name.startswith("wl_")]
    if not wl_cols:
        raise FormatError(f"{path}: no wl_* columns found")
    col = {name: i for i, name in enumerate(header)}

    # one field per column, so loadtxt checks every row's field count; other
    # columns are read into zero-width strings, which keeps them ignored. The
    # votes lead each record, side by side in header order, so the records hold
    # them as one n-by-K block; the score, pred and label follow.
    numeric = wl_cols + [col[name] for name in ("score", "pred", "label") if name in col]
    offset = {i: 8 * at for at, i in enumerate(numeric)}
    dtype = np.dtype({
        "names": [f"c{i}" for i in range(len(header))],
        "formats": [
            "f8" if i == col.get("score") else "i8" if i in offset else "U0"
            for i in range(len(header))
        ],
        "offsets": [offset.get(i, 0) for i in range(len(header))],
        "itemsize": 8 * len(numeric),
    })
    # a fault past the first misread line is reported as that line: read no row past it
    max_rows = None if misread is None else max(misread[0] - 2, 0)  # not -1: all rows
    load = lambda source: np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                                     quotechar='"', skiprows=1, ndmin=1, max_rows=max_rows)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows read
            try:
                body = load(path)
            except UnicodeDecodeError:
                # loadtxt decodes past the rows it parses; parse them again with the
                # bad bytes replaced, so that a bad row before them is named first
                with open(path, errors="replace") as text:
                    body = load(text)
    except ValueError as exc:
        raise _read_error(path, exc, header, misread) from None

    # views into the records, not copies
    column = lambda name: body[f"c{col[name]}"] if name in col else None
    # loadtxt reads nan as a float; the rows read all lie before the misread line
    nan_rows = np.flatnonzero(np.isnan(column("score"))) if "score" in col else []
    if len(nan_rows):
        line = _row_line(path, nan_rows[0])
        raise FormatError(f"{path}:{line}: column score: NaN is not a score")
    if misread is not None:
        raise FormatError(f"{path}:{misread[0]}: {misread[1]}")
    if len(body) == 0:
        raise FormatError(f"{path}: dataset has no rows")
    votes = body.view(np.int64).reshape(len(body), -1)[:, : len(wl_cols)]
    table, z_ids = encode_signatures(votes)
    data = DatasetView(
        n=len(body),
        z_ids=z_ids,
        scores=column("score"),
        predictions=column("pred"),
        labels=column("label"),
    )
    return data, table


# ------------------------------------------------------------ label model JSON


def write_label_model_json(
    path: str | Path, model: LabelModel, table: tuple[tuple[int, ...], ...]
) -> None:
    payload = {
        "num_classes": model.num_classes,
        "fallback": "error",
        "entries": [
            {"z": list(table[z]), "p": [_round_sig(float(v)) for v in model.table[z]]}
            for z in range(model.num_signatures)
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _integer(v) -> int:
    """A JSON integer, or a float with no fractional part, as an int.

    int() would truncate 2.9 to 2 and read true or "1" as 1.
    """
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"{v!r} is not an integer")


def _number(v) -> float:
    """A JSON number as a float; float() would also read true or "0.5"."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ValueError(f"{v!r} is not a number")


def read_label_model_json(path: str | Path, table: tuple[tuple[int, ...], ...]) -> LabelModel:
    """Load a conditional table and align its rows to the dataset's signatures."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    try:
        num_classes = _integer(payload["num_classes"])
        entries = payload["entries"]
        fallback = payload.get("fallback", "error")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: missing or malformed field {exc}") from None
    # a dict or a string would iterate as no entries, and null or a number not at all
    if type(entries) is not list:
        raise FormatError(f"{path}: 'entries' must be a list")
    if fallback not in ("error", "uniform"):
        raise FormatError(f"{path}: fallback must be 'error' or 'uniform'")
    if not 2 <= num_classes <= MAX_CLASSES:
        raise FormatError(
            f"{path}: num_classes must lie in [2, {MAX_CLASSES}], got {num_classes}"
        )

    num_votes = len(table[0])
    by_sig: dict[tuple[int, ...], list[float]] = {}
    for i, e in enumerate(entries):
        try:
            # a list of JSON integers (numbers) is taken as it is; anything else
            # goes value by value, to convert integral floats or name the bad value
            z = e["z"]
            if type(z) is not list or not set(map(type, z)) <= {int}:
                z = [_integer(v) for v in z]
            sig = tuple(z)
            p = e["p"]
            if type(p) is not list or not set(map(type, p)) <= {int, float}:
                p = [_number(v) for v in p]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(
                f"{path}: entry {i} needs an integer list 'z' and a numeric list 'p' ({exc!r})"
            ) from None
        # a signature of another length matches no data row; the fallback took them all
        if len(sig) != num_votes:
            raise FormatError(f"{path}: entry {i} has {len(sig)} votes, the dataset {num_votes}")
        if sig in by_sig:
            raise FormatError(f"{path}: duplicate signature {sig}")
        if len(p) != num_classes:
            raise FormatError(f"{path}: row for {sig} has wrong length")
        by_sig[sig] = p

    rows = np.empty((len(table), num_classes))
    for z, sig in enumerate(table):
        if sig in by_sig:
            rows[z] = by_sig[sig]
        elif fallback == "uniform":
            rows[z] = 1.0 / num_classes
        else:
            raise CoverageError(f"{path}: no entry for data signature {sig}")
    return LabelModel(table=rows)


# ------------------------------------------------------------- loss table JSON


def read_loss_table(path: str | Path, num_classes: int) -> np.ndarray:
    """A |Y|-by-|Y| table of finite JSON numbers, for a risk metric."""
    k = num_classes
    try:
        rows = json.loads(Path(path).read_text())
        table = np.asarray(rows, dtype=np.float64)
        if (shape := table.shape) != (k, k):
            raise FormatError(f"{path}: loss table must be |Y|-by-|Y| = {k}-by-{k}, not {shape}")
        # asarray reads true and "1" as numbers too; a table of this shape is a list of rows
        if not all(math.isfinite(_number(v)) for row in rows for v in row):
            raise FormatError(f"{path}: loss table entries must be finite numbers")
    except (json.JSONDecodeError, ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: bad loss table ({exc})") from None
    return table


# ----------------------------------------------------- result files for select


def _finite(v) -> float:
    """A finite JSON number as a float: json reads NaN and Infinity too."""
    x = _number(v)
    if not math.isfinite(x):
        raise ValueError(f"{v!r} is not finite")
    return x


def _candidate(path: Path, metric: str) -> tuple[float, float, float]:
    """(lower, upper, label-model score) of ``metric`` in one result file, each a
    finite number; a file without a score reads as NaN."""
    try:
        payload = json.loads(path.read_text())
        entry = payload["metrics"][metric]
        metadata = payload.get("metadata", {})
        # keys(), not the object itself: a list would answer `in` as well
        has_score = "label_model_score" in metadata.keys()
        lm = _finite(metadata["label_model_score"]) if has_score else math.nan
        return _finite(entry["lower"]), _finite(entry["upper"]), lm
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: not a result file with bounds on {metric} ({exc!r})") from None


def read_candidates(
    directory: str | Path, metric: str
) -> tuple[list[str], list[tuple[float, float, float]]]:
    """The names of the result files (``*.json``) in ``directory``, sorted, and
    the (lower, upper, label-model score) of ``metric`` in each."""
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        raise FormatError(f"no candidate result files in {directory}")
    return [f.name for f in files], [_candidate(f, metric) for f in files]


# ------------------------------------------------------------------- sweep CSV


def write_sweep_csv(path: str | Path | None, sweep: SweepTable) -> None:
    """Write the sweep as CSV to ``path``, or to stdout if ``path`` is None.

    A metric name is a plain word and every other field a float at 9
    significant digits, so no field needs quoting: one template formats a row.
    """
    header = ("threshold,metric,lower,upper,lower_std,upper_std,"
              "ci_lower_lo,ci_lower_hi,ci_upper_lo,ci_upper_hi\n")
    row = f"%.{SIG_DIGITS}g,%s" + f",%.{SIG_DIGITS}g" * 8 + "\n"
    text = header + "".join(
        row % (r.threshold, r.metric, r.lower, r.upper, r.lower_std, r.upper_std,
               r.ci_lower.low, r.ci_lower.high, r.ci_upper.low, r.ci_upper.high)
        for r in sweep.rows
    )
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ------------------------------------------------- counting label-model estimator


def count_label_model(
    data: DatasetView,
    table: tuple[tuple[int, ...], ...],
    num_classes: int,
    smoothing_alpha: float = 0.0,
) -> LabelModel:
    """Estimate P(Y | Z) by counting labeled examples, with additive smoothing."""
    if data.labels is None:
        raise FormatError("counting estimator needs a label column")
    labels = np.asarray(data.labels, dtype=np.int64)
    # a negative label would silently index from the end, a large one raise IndexError
    bad = (labels < 0) | (labels >= num_classes)
    if np.any(bad):
        raise FormatError(
            f"label {int(labels[np.argmax(bad)])} outside the classes 0..{num_classes - 1}"
        )
    counts = np.zeros((len(table), num_classes))
    np.add.at(counts, (data.z_ids, labels), 1.0)
    rows = (counts + smoothing_alpha) / (
        counts.sum(axis=1, keepdims=True) + smoothing_alpha * num_classes
    )
    if np.any(~np.isfinite(rows)):
        raise FormatError("signature with no labeled samples and no smoothing")
    return LabelModel(table=rows)
