"""CSV ingestion of 2x2 panels and a text rendering of their cell means.

Ingestion is total: every input file either yields a valid PanelSample or
a structured error naming the offending row.  Labels are accepted only as
literal 0/1; silent recoding of treatment indicators is a classic source
of wrong DiD signs, so anything else is an error.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyFileError, MalformedRowError, MissingColumnError
from .panel import PanelSample, compute_cell_means

__all__ = [
    "ColumnMap",
    "load_panel",
    "summarize",
]


@dataclass(frozen=True)
class ColumnMap:
    """Names of the outcome, time, and affected columns in a CSV header."""

    outcome_column: str = "y"
    time_column: str = "time"
    affected_column: str = "affected"

    def __post_init__(self):
        names = (self.outcome_column, self.time_column, self.affected_column)
        if len(set(names)) != 3:
            raise ValueError("outcome, time, and affected columns must be distinct")


# Undecodable bytes under errors="surrogateescape".
_UNDECODED = re.compile("[\udc80-\udcff]")

# Size of one read of the file; a batch is the whole lines it completes.
_BATCH_BYTES = 2**18

_COMMA, _NEWLINE = ord(","), ord("\n")


def _parse_label(token: str, column: str, row: int) -> int:
    text = token.strip()
    if text == "0":
        return 0
    if text == "1":
        return 1
    raise MalformedRowError(row, f"column {column!r} must be 0 or 1, got {token!r}")


def _parse_outcome(token: str, column: str, row: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRowError(row, f"column {column!r} is not numeric: {token!r}") from None
    if not math.isfinite(value):
        raise MalformedRowError(row, f"column {column!r} must be finite, got {token!r}")
    return value


def _byte_batches(fh):
    """The bytes of the binary file `fh` in batches of whole lines.

    A batch ends after the last "\n" of a read, or, in a read without
    one, after its last "\r" that is not its last byte, so no "\r\n" is
    split; only the file's last batch may end otherwise.
    """
    pending = []
    while chunk := fh.read(_BATCH_BYTES):
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, -1) + 1
        if cut:
            yield b"".join([*pending, chunk[:cut]])
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    if tail := b"".join(pending):
        yield tail


def _utf8_batches(batches):
    """The lines of each byte batch, raising csv.Error at the first line that is not UTF-8.

    Lines split as a file opened with newline="" splits them.  A batch is
    checked in one pass.  One that holds such a line is cut before it and
    raises when the next batch is asked for, so csv.reader, fed line by
    line, is on that line's record.
    """
    for batch in batches:
        # A byte that is not UTF-8 decodes to a lone surrogate.
        text = batch.decode("utf-8", "surrogateescape")
        lines = io.StringIO(text, newline="").readlines()
        if not batch.isascii() and _UNDECODED.search(text):
            yield list(itertools.takewhile(lambda line: not _UNDECODED.search(line), lines))
            raise csv.Error("not valid UTF-8 text")
        yield lines


def _layout(header, path: Path, columns: ColumnMap):
    """The field count and the outcome, time and affected positions of a header record."""
    if header is None:
        raise EmptyFileError(f"{path}: file is empty")
    header = [name.strip() for name in header]
    names = (columns.outcome_column, columns.time_column, columns.affected_column)
    missing = [name for name in names if name not in header]
    if missing:
        raise MissingColumnError(missing)
    for name in names:
        if (times := header.count(name)) > 1:
            raise MalformedRowError(0, f"column {name!r} appears {times} times in the header")
    return len(header), [header.index(name) for name in names]


def _parse_records(records, path: Path, columns: ColumnMap, layout=None, parsed: int = 0):
    """Outcome, and int8 time and affected, arrays of data records, numbered on from `parsed`.

    Without a `layout` the first record is the header.
    """
    y, time, affected = [], [], []
    try:
        if layout is None:
            layout = _layout(next(records, None), path, columns)
        width, (y_pos, t_pos, a_pos) = layout
        for row_index, row in enumerate(records, start=parsed + 1):
            if len(row) != width:
                raise MalformedRowError(row_index, f"expected {width} fields, got {len(row)}")
            y.append(_parse_outcome(row[y_pos], columns.outcome_column, row_index))
            time.append(_parse_label(row[t_pos], columns.time_column, row_index))
            affected.append(_parse_label(row[a_pos], columns.affected_column, row_index))
    except csv.Error as exc:
        # csv reads one line at a time, so the reader is still on the faulty record.
        raise MalformedRowError(0 if layout is None else parsed + len(y) + 1, str(exc)) from None
    return np.array(y, dtype=np.float64), np.array(time, np.int8), np.array(affected, np.int8)


def _plain_header(line: bytes):
    """The fields of a header line that csv.reader splits at its commas alone, else None."""
    if not (line.isascii() and (text := line.decode()).isprintable()) or '"' in text:
        return None
    fields = text.split(",")
    return fields if text and max(map(len, fields)) <= csv.field_size_limit() else None


def _bulk(batch: bytes, layout):
    """Outcome, and int8 time and affected, arrays of a plainly clean batch, else None.

    Plainly clean: printable ASCII lines without a quote, none blank,
    each ending in "\n" or "\r\n" (or the file) with the header's field
    count, no field over csv's limit, labels of exactly "0" or "1", and
    outcomes that np.loadtxt reads as finite.  csv.reader and float read
    such lines to the same values, and find no fault in them.
    """
    width, (y_pos, t_pos, a_pos) = layout
    if b"\r" in batch:  # a lone "\r" is left, and sends the batch to the streaming parser
        batch = batch.replace(b"\r\n", b"\n")
    if not batch.endswith(b"\n"):
        batch += b"\n"
    data = np.frombuffer(batch, np.uint8)
    newline = data == _NEWLINE
    rows = np.count_nonzero(newline)
    # Bytes outside " " .. "~" wrap past 0x5e; "\n" must be the only one.
    if b'"' in batch or np.count_nonzero(data - np.uint8(0x20) > 0x5E) != rows:
        return None
    # width - 1 commas, then "\n", on every line; width >= 3, so none is blank.
    ends = np.flatnonzero(newline | (data == _COMMA))
    if ends.size != rows * width or not newline[ends[width - 1 :: width]].all():
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.max() > csv.field_size_limit():
        return None
    labels = []
    for pos in (t_pos, a_pos):
        # the byte before each field's end; one below "0" wraps past 1
        label = data[ends[pos::width] - 1] - np.uint8(ord("0"))
        if ((lengths[pos::width] != 1) | (label > 1)).any():
            return None
        labels.append(label.view(np.int8))
    text = io.StringIO(batch.decode())
    try:
        y = np.loadtxt(text, delimiter=",", usecols=y_pos, comments=None, ndmin=1)
    except ValueError:
        return None
    if not np.isfinite(y).all():
        return None
    return y, *labels


def _parse(batches, path: Path, columns: ColumnMap):
    """Outcome, time and affected arrays of a file's byte batches.

    Clean batches are parsed in bulk.  From the first batch that is not,
    the streaming parser reads on, numbering rows on from the bulk rows
    and keeping the header already read; a header that is not plain
    leaves the whole file to it.  Both parsers give int8 labels, so the
    parts join without a cast.
    """
    # Drop the byte-order mark that spreadsheet exports put before the header.
    first = next(batches, b"").removeprefix(b"\xef\xbb\xbf")
    header, _, body = first.partition(b"\n")
    fields = _plain_header(header.removesuffix(b"\r"))
    parts, layout = [], None
    if fields is None:
        batches = itertools.chain([first], batches)
    else:
        layout = _layout(fields, path, columns)
        for batch in itertools.chain([body] if body else [], batches):
            part = _bulk(batch, layout)
            if part is None:
                batches = itertools.chain([batch], batches)
                break
            parts.append(part)
    records = csv.reader(itertools.chain.from_iterable(_utf8_batches(batches)))
    parsed = sum(len(part[0]) for part in parts)
    parts.append(_parse_records(records, path, columns, layout, parsed))
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def load_panel(path, columns: ColumnMap = ColumnMap()) -> PanelSample:
    """Load a comma-separated panel file into a PanelSample.

    The file must be UTF-8 text, and its first row a header containing
    the three mapped columns.  It is read once, in batches of lines, and
    the error names the first faulty row.  Rows count records, not lines
    (a quoted field may span lines): 1-based over data rows, with 0 for
    the header.  Each line is checked for bytes that are not UTF-8
    before csv splits it, so a line holding both such a byte and an
    over-long field is named for the byte.

    Raises
    ------
    EmptyFileError
        No header, or fewer than 4 data rows (the least a 2x2 panel holds).
    MissingColumnError
        A mapped column is absent from the header.
    MalformedRowError
        A mapped column named more than once in the header (row 0: which
        of them to read is ambiguous), ragged row, non-binary label,
        non-finite/non-numeric outcome, a byte that is not UTF-8, a field
        longer than the csv module's limit (131,072 characters unless
        changed), or an outcome at which twice the running sum of |y|
        overflows.  Every cell sum, cell mean and DiD value, observed or
        relabeled, is at most that sum in magnitude, so the bound keeps
        all of them and the width of the null distribution's range finite.
    """
    path = Path(path)
    with path.open("rb") as fh:
        y, time, affected = _parse(_byte_batches(fh), path, columns)

    if len(y) < 4:
        raise EmptyFileError(f"{path}: {len(y)} data rows; a 2x2 panel needs at least 4")
    with np.errstate(over="ignore"):
        overflows = np.flatnonzero(~np.isfinite(2.0 * np.cumsum(np.abs(y))))
    if overflows.size:
        row = int(overflows[0]) + 1
        raise MalformedRowError(row, f"twice the sum of |{columns.outcome_column}| overflows here")
    for arr in (y, time, affected):
        arr.flags.writeable = False  # so the sample keeps it without a copy
    return PanelSample(y=y, time=time, affected=affected)


def summarize(sample: PanelSample) -> str:
    """Render the 2x2 cell-mean table (rows control/treated, columns pre/post)."""
    cells = compute_cell_means(sample)
    header = f"{'':24s}{'Pre (time=0)':>16s}{'Post (time=1)':>16s}"
    lines = [header]
    for g, label in ((0, "Control (affected=0)"), (1, "Treated (affected=1)")):
        entries = []
        for t in (0, 1):
            if cells.counts[g, t] > 0:
                entries.append(f"{cells.means[g, t]:>16.4f}")
            else:
                entries.append(f"{'(empty)':>16s}")
        lines.append(f"{label:24s}" + "".join(entries))
    return "\n".join(lines)

