"""Machine-readable run reports with a fixed, versioned schema, and their histograms.

Reports serialize to JSON in the field order of the `Report` dataclass
(nested dataclasses in their own field order, enums as their values) and
round-trip bit-exactly: floats are written in shortest-repr form, and
reading a report back coerces every field to its annotated type, so the
result is a Report equal field-for-field to the one written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .inference import NullDistribution
from .randomize import RandomizationScheme
from .spaces import PermutationSpaceStats

__all__ = ["Report", "SCHEMA_VERSION", "make_histogram", "write_report", "read_report"]

SCHEMA_VERSION = "didperm-report/1"

DECISION_REJECTED = "rejected"
DECISION_NOT_REJECTED = "not_rejected"


@dataclass(frozen=True)
class Report:
    """One complete inference run: inputs, decision, p-values, histogram, space stats."""

    dataset_id: str
    scheme: RandomizationScheme
    iterations: int
    master_seed: int
    observed: float
    lower: float
    upper: float
    alpha: float
    decision: str
    p_raw: float
    p_corrected: float
    histogram: tuple[tuple[float, float, int], ...]
    space_stats: PermutationSpaceStats

    def __post_init__(self):
        if self.decision not in (DECISION_REJECTED, DECISION_NOT_REJECTED):
            raise ValueError(f"decision must be rejected/not_rejected, got {self.decision!r}")
        object.__setattr__(
            self,
            "histogram",
            tuple((float(lo), float(hi), int(c)) for lo, hi, c in self.histogram),
        )


def make_histogram(dist: NullDistribution, bins: int) -> list[tuple[float, float, int]]:
    """Equal-width histogram of the retained null values.

    Bins span [min, max]; each bin is closed on the left and open on the
    right except the last, which is closed.  Counts always sum to the
    number of retained draws.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if dist.iterations_retained == 0:
        raise ValueError("null distribution is empty")
    law, m = dist._law, dist.iterations_retained
    # The edges of `np.histogram`, and its counts read off the sorted law:
    # bin i holds the values v with edges[i] <= v < edges[i + 1].
    edges = np.histogram_bin_edges([law.order_statistic(0), law.order_statistic(m - 1)], bins=bins)
    below = np.concatenate([[0], law.count_below(edges[1:-1]), [m]])
    counts = np.diff(below)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


def _json_value(value):
    """`json`'s hook: an enum's value, or a dataclass's fields in field order.

    `fields` raises TypeError for anything else, as `json` asks of the hook.
    """
    if isinstance(value, Enum):
        return value.value
    return {f.name: getattr(value, f.name) for f in fields(value)}


def _coerce(kind, value):
    """`value` read back as the annotated type `kind`; `Report` types its histogram's items."""
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        return kind(**{f.name: _coerce(hints[f.name], value[f.name]) for f in fields(kind)})
    return kind(value)


def write_report(report: Report, path) -> None:
    """Write a report as schema-versioned JSON with a fixed field order."""
    path = Path(path)
    try:
        data = {"schema": SCHEMA_VERSION, **_json_value(report)}
        text = json.dumps(data, indent=2, allow_nan=False, default=_json_value) + "\n"
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def read_report(path) -> Report:
    """Read back a report written by `write_report`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema: {data.get('schema')!r}")
    return _coerce(Report, data)
