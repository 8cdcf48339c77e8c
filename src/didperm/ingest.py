"""CSV ingestion of 2x2 panels and a text rendering of their cell means.

Ingestion is total: every input file either yields a valid PanelSample or
a structured error naming the offending row.  Labels are accepted only as
literal 0/1; silent recoding of treatment indicators is a classic source
of wrong DiD signs, so anything else is an error.
"""

from __future__ import annotations

import csv
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

# Size hint of one `readlines` batch for the UTF-8 check.
_BATCH_CHARS = 2**16


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


def _utf8_batches(fh):
    """Batches of the lines of `fh`, raising csv.Error at the first line that is not UTF-8.

    A batch (about 64 KB, `readlines`) is checked in one pass.  One that
    holds such a line is cut before it and raises when the next batch is
    asked for, so csv.reader, fed line by line, is on that line's record.
    """
    while batch := fh.readlines(_BATCH_CHARS):
        text = "".join(batch)
        if not text.isascii() and _UNDECODED.search(text):
            yield list(itertools.takewhile(lambda line: not _UNDECODED.search(line), batch))
            raise csv.Error("not valid UTF-8 text")
        yield batch


def _parse_records(records, path: Path, columns: ColumnMap):
    """Outcome, time and affected lists of a header record and its data records."""
    header = None
    y, time, affected = [], [], []
    try:
        header = next(records, None)
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
        y_pos, t_pos, a_pos = (header.index(name) for name in names)

        for row_index, row in enumerate(records, start=1):
            if len(row) != len(header):
                raise MalformedRowError(row_index, f"expected {len(header)} fields, got {len(row)}")
            y.append(_parse_outcome(row[y_pos], columns.outcome_column, row_index))
            time.append(_parse_label(row[t_pos], columns.time_column, row_index))
            affected.append(_parse_label(row[a_pos], columns.affected_column, row_index))
    except csv.Error as exc:
        # csv reads one line at a time, so the reader is still on the faulty record.
        raise MalformedRowError(0 if header is None else len(y) + 1, str(exc)) from None
    return y, time, affected


def load_panel(path, columns: ColumnMap = ColumnMap()) -> PanelSample:
    """Load a comma-separated panel file into a PanelSample.

    The file must be UTF-8 text, and its first row a header containing
    the three mapped columns.  It is read once, as a stream, and the error
    names the first faulty row.  Rows count records, not lines (a quoted
    field may span lines): 1-based over data rows, with 0 for the header.
    Each line is checked for bytes that are not UTF-8 before csv splits
    it, so a line holding both such a byte and an over-long field is
    named for the byte.

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
    # utf-8-sig drops the byte-order mark that spreadsheet exports put
    # before the header; files without one read as plain UTF-8.  A byte
    # that is not UTF-8 decodes to a lone surrogate for _utf8_batches to name.
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = itertools.chain.from_iterable(_utf8_batches(fh))
        y, time, affected = _parse_records(csv.reader(lines), path, columns)

    if len(y) < 4:
        raise EmptyFileError(f"{path}: {len(y)} data rows; a 2x2 panel needs at least 4")
    y = np.array(y)
    with np.errstate(over="ignore"):
        overflows = np.flatnonzero(~np.isfinite(2.0 * np.cumsum(np.abs(y))))
    if overflows.size:
        row = int(overflows[0]) + 1
        raise MalformedRowError(row, f"twice the sum of |{columns.outcome_column}| overflows here")
    return PanelSample(y=y, time=np.array(time), affected=np.array(affected))


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

