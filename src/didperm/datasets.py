"""Benchmark 2x2 datasets: published cell means, reference inference, fixtures.

Six classic applied-economics outcomes are bundled as cell-mean summaries:
an Indonesian school-construction cohort study (inpress), brand search
intensity around a June 2020 public statement (brand_search), the 1992
New Jersey / Pennsylvania fast-food minimum-wage survey (three outcomes),
and refugee-exposure effects on far-right vote share across 96 Greek
municipalities (refugee_arrivals).

Only cell means and reference inference results are public for these
datasets, not row-level data, so `make_fixture` synthesizes panels whose
cell means match the summaries exactly: each cell holds symmetric
mean +/- d pairs, by default 10 observations per cell with offsets
proportional to the mean's magnitude.  Fixtures reproduce the point
estimates; the reference quantile bounds depend on the unpublished raw
samples and are shipped as decision fixtures, not as targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .panel import PanelSample, _did_from_cells

__all__ = [
    "ReferenceInference",
    "BenchmarkDataset",
    "ALL_DATASETS",
    "INPRESS",
    "BRAND_SEARCH",
    "MINWAGE_EMPTOT",
    "MINWAGE_WAGE_ST",
    "MINWAGE_PMEAL",
    "REFUGEE_ARRIVALS",
    "make_fixture",
    "write_fixture_csv",
]

DEFAULT_PER_CELL = 10
DEFAULT_RELATIVE_SPREAD = 0.05


@dataclass(frozen=True)
class ReferenceInference:
    """A reference 95% null interval and decision for one randomization scheme."""

    lower: float
    upper: float
    rejected: bool


@dataclass(frozen=True)
class BenchmarkDataset:
    """Cell-mean summary of one benchmark outcome plus its reference inference.

    `cell_means[g][t]` is the mean for group g (0 control, 1 treated) in
    period t (0 pre, 1 post).  `reference` maps scheme label ("affected"
    or "dual") to the bundled inference result at alpha = 0.05.
    """

    dataset_id: str
    description: str
    cell_means: tuple[tuple[float, float], tuple[float, float]]
    observed: float
    reference: dict[str, ReferenceInference]

    def did_from_cell_means(self) -> float:
        """Four-means DiD implied by the rounded cell means."""
        return float(_did_from_cells(*np.array(self.cell_means).reshape(4)))


INPRESS = BenchmarkDataset(
    dataset_id="inpress",
    description="educational outcomes around a large school construction program",
    cell_means=((9.7327, 8.4759), (10.1184, 8.9379)),
    observed=0.076,
    reference={
        "affected": ReferenceInference(lower=-0.149, upper=0.148, rejected=False),
        "dual": ReferenceInference(lower=-0.145, upper=0.146, rejected=False),
    },
)

BRAND_SEARCH = BenchmarkDataset(
    dataset_id="brand_search",
    description="daily search intensity for two ice-cream brands, treated brand "
    "issued a public statement mid-sample",
    cell_means=((1.915, 2.055), (5.681, 10.648)),
    observed=4.827,
    reference={
        "affected": ReferenceInference(lower=-2.949, upper=2.956, rejected=True),
        "dual": ReferenceInference(lower=-2.949, upper=3.018, rejected=True),
    },
)

MINWAGE_EMPTOT = BenchmarkDataset(
    dataset_id="minwage_emptot",
    description="full-time-equivalent employment, fast-food minimum wage survey",
    cell_means=((23.3312, 21.1656), (20.4394, 21.0274)),
    observed=2.7536,
    reference={
        "affected": ReferenceInference(lower=-2.5790, upper=2.6134, rejected=True),
        "dual": ReferenceInference(lower=-2.6269, upper=2.6010, rejected=True),
    },
)

MINWAGE_WAGE_ST = BenchmarkDataset(
    dataset_id="minwage_wage_st",
    description="starting wage, fast-food minimum wage survey",
    cell_means=((4.6301, 4.6175), (4.6121, 5.0808)),
    observed=0.4814,
    reference={
        "affected": ReferenceInference(lower=-0.0854, upper=0.0852, rejected=True),
        "dual": ReferenceInference(lower=-0.1017, upper=0.1019, rejected=True),
    },
)

MINWAGE_PMEAL = BenchmarkDataset(
    dataset_id="minwage_pmeal",
    description="full meal price, fast-food minimum wage survey",
    cell_means=((3.0424, 3.0266), (3.3511, 3.4148)),
    observed=0.0794,
    reference={
        "affected": ReferenceInference(lower=-0.1855, upper=0.1793, rejected=False),
        "dual": ReferenceInference(lower=-0.1810, upper=0.1821, rejected=False),
    },
)

REFUGEE_ARRIVALS = BenchmarkDataset(
    dataset_id="refugee_arrivals",
    description="far-right vote share by municipality refugee exposure",
    cell_means=((5.0720, 5.6591), (5.7299, 8.4039)),
    observed=2.0870,
    reference={
        "affected": ReferenceInference(lower=-1.1627, upper=1.1588, rejected=True),
        "dual": ReferenceInference(lower=-1.0490, upper=1.0407, rejected=True),
    },
)

ALL_DATASETS = (
    INPRESS,
    BRAND_SEARCH,
    MINWAGE_EMPTOT,
    MINWAGE_WAGE_ST,
    MINWAGE_PMEAL,
    REFUGEE_ARRIVALS,
)


def make_fixture(dataset: BenchmarkDataset, per_cell: int = DEFAULT_PER_CELL) -> PanelSample:
    """Synthetic panel whose cell means equal the dataset's summary exactly.

    Each cell holds `per_cell` observations arranged as symmetric
    mean +/- d pairs (plus one observation at the mean when per_cell is
    odd), with offsets d_j = DEFAULT_RELATIVE_SPREAD * max(1, |mean|) * j / k for
    the k = per_cell // 2 pairs.  Rows are emitted cell by cell in the
    order (0,0), (0,1), (1,0), (1,1).
    """
    if per_cell < 1:
        raise ValueError("per_cell must be >= 1")
    ys: list[np.ndarray] = []
    time: list[int] = []
    affected: list[int] = []
    for g in (0, 1):
        for t in (0, 1):
            mean = dataset.cell_means[g][t]
            pairs = per_cell // 2
            scale = DEFAULT_RELATIVE_SPREAD * max(1.0, abs(mean))
            values = [mean] if per_cell % 2 else []
            for j in range(1, pairs + 1):
                d = scale * j / max(pairs, 1)
                values.extend((mean + d, mean - d))
            ys.append(np.array(values))
            time.extend([t] * per_cell)
            affected.extend([g] * per_cell)
    return PanelSample(y=np.concatenate(ys), time=np.array(time), affected=np.array(affected))


def write_fixture_csv(path, sample: PanelSample) -> Path:
    """Write a PanelSample as a CSV with header y,time,affected; returns the path."""
    path = Path(path)
    lines = ["y,time,affected"]
    for y, t, a in zip(sample.y, sample.time, sample.affected):
        lines.append(f"{float(y)!r},{int(t)},{int(a)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
