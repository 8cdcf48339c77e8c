"""CSV ingestion of 2x2 panels and a text rendering of their cell means.

Ingestion is total: every input file either yields a valid PanelSample or
a structured error naming the offending row.  Labels are accepted only as
literal 0/1 (optionally true/false behind a flag); silent recoding of
treatment indicators is a classic source of wrong DiD signs, so anything
else is an error.
"""

from __future__ import annotations

import csv
import math
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


_TRUE_WORDS = {"true"}
_FALSE_WORDS = {"false"}


def _parse_label(token: str, column: str, row: int, allow_bool_words: bool) -> int:
    text = token.strip()
    if text == "0":
        return 0
    if text == "1":
        return 1
    if allow_bool_words:
        low = text.lower()
        if low in _TRUE_WORDS:
            return 1
        if low in _FALSE_WORDS:
            return 0
    raise MalformedRowError(row, f"column {column!r} must be 0 or 1, got {token!r}")


def _parse_outcome(token: str, column: str, row: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRowError(row, f"column {column!r} is not numeric: {token!r}") from None
    if not math.isfinite(value):
        raise MalformedRowError(row, f"column {column!r} must be finite, got {token!r}")
    return value


def load_panel(path, columns: ColumnMap = ColumnMap(), *, allow_bool_words: bool = False) -> PanelSample:
    """Load a comma-separated panel file into a PanelSample.

    The first row must be a header containing the three mapped columns.
    Row indices in errors are 1-based over data rows.

    Raises
    ------
    EmptyFileError
        No header or no data rows.
    MissingColumnError
        A mapped column is absent from the header.
    MalformedRowError
        Ragged row, non-binary label, or non-finite/non-numeric outcome.
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark that spreadsheet exports put
    # before the header; files without one read as plain UTF-8.
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        missing = [
            name
            for name in (columns.outcome_column, columns.time_column, columns.affected_column)
            if name not in header
        ]
        if missing:
            raise MissingColumnError(missing)
        y_pos = header.index(columns.outcome_column)
        t_pos = header.index(columns.time_column)
        a_pos = header.index(columns.affected_column)

        y, time, affected = [], [], []
        for row_index, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise MalformedRowError(
                    row_index, f"expected {len(header)} fields, got {len(row)}"
                )
            y.append(_parse_outcome(row[y_pos], columns.outcome_column, row_index))
            time.append(_parse_label(row[t_pos], columns.time_column, row_index, allow_bool_words))
            affected.append(
                _parse_label(row[a_pos], columns.affected_column, row_index, allow_bool_words)
            )

    if not y:
        raise EmptyFileError(f"{path}: no data rows")
    return PanelSample(y=np.array(y), time=np.array(time), affected=np.array(affected))


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

