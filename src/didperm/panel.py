"""Data model for two-group, two-period panels and the DiD point estimators.

A panel is three aligned vectors: a real-valued outcome, a binary period
indicator (`time`), and a binary group indicator (`affected`).  The
difference-in-differences (DiD) coefficient can be read off the four
(group, period) cell means, or equivalently estimated as the interaction
coefficient of the saturated two-way OLS model

    y = alpha + beta * time + gamma * affected + delta * (time * affected) + error.

Both estimators are provided; for the saturated 2x2 design they agree exactly,
and the OLS coefficients are solved in closed form from the cell means.

This module also holds the statistic kernel that every DiD value in the
package goes through, observed or relabeled: `_block_cells` sums the
cells of many labelings at once and `_did_from_cells` applies the
four-means formula to their means.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellError

__all__ = [
    "PanelSample",
    "CellMeans",
    "OlsFit",
    "compute_cell_means",
    "did_from_means",
    "did_from_ols",
    "did_value",
]


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector")
    out = arr.astype(np.int64, copy=True)
    if not np.array_equal(out, arr) or not np.isin(out, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return out


@dataclass(frozen=True, eq=False)
class PanelSample:
    """Aligned outcome, period, and group vectors for a 2x2 panel.

    Parameters
    ----------
    y : array_like of float
        Observed outcomes. Must be finite.
    time : array_like of {0, 1}
        0 for the pre period, 1 for the post period.
    affected : array_like of {0, 1}
        0 for the control group, 1 for the treated group.

    All three vectors must share the same length n >= 4.  Estimability
    (all four cells non-empty) is checked at estimation time, not here,
    so relabeled samples that empty a cell can still be represented.
    """

    y: np.ndarray
    time: np.ndarray
    affected: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError("y must be a 1-d vector")
        if not np.isfinite(y).all():
            raise ValueError("y must contain only finite values")
        time = _as_binary(self.time, "time")
        affected = _as_binary(self.affected, "affected")
        if not (y.size == time.size == affected.size):
            raise ValueError("y, time, and affected must have identical length")
        if y.size < 4:
            raise ValueError("a 2x2 panel needs at least 4 observations")
        y = y.copy()
        for arr in (y, time, affected):
            arr.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "affected", affected)

    @property
    def n(self) -> int:
        """Number of observations."""
        return int(self.y.size)

    @property
    def n_affected(self) -> int:
        """Number of treated-group observations."""
        return int(self.affected.sum())

    @property
    def n_time(self) -> int:
        """Number of post-period observations."""
        return int(self.time.sum())


@dataclass(frozen=True, eq=False)
class CellMeans:
    """Per-cell means and counts of the 2x2 design.

    `means[g, t]` is the sample mean for group g in period t; it is NaN
    when `counts[g, t]` is zero (no mean is defined for an empty cell).
    The four counts always sum to n.
    """

    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64).reshape(2, 2)
        counts = np.asarray(self.counts, dtype=np.int64).reshape(2, 2)
        if (counts < 0).any():
            raise ValueError("cell counts must be non-negative")
        means = means.copy()
        counts = counts.copy()
        means.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class OlsFit:
    """Coefficients of the saturated two-way OLS model.

    For the 2x2 design the fitted value in each cell is that cell's mean,
    so `residual_sum_squares` is the total within-cell squared deviation.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    residual_sum_squares: float


def _block_cells(cells: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cell counts and sums, each (rows, 4), of a (rows, n) cell-index matrix.

    Cell index is 2*affected + time.  `weights` holds the outcomes tiled at
    least `rows` times.  One bincount over the row-offset index
    4*row + cell visits every row's entries in their own order, so each
    row's sums are bit-identical to a bincount of that row alone.
    """
    rows = cells.shape[0]
    idx = (cells + 4 * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(idx, minlength=4 * rows).reshape(rows, 4)
    sums = np.bincount(idx, weights=weights[: idx.size], minlength=4 * rows).reshape(rows, 4)
    return counts, sums


def _did_from_cells(means: np.ndarray) -> np.ndarray:
    """The DiD formula on (..., 4) cell means, cell index 2*affected + time.

    (treated change) - (control change) = (m3 - m2) - (m1 - m0), with this
    grouping kept explicit.  Every DiD value of the package, observed or
    relabeled, is this function of `_block_cells` sums, so ties between
    them are exact in floating point for:

    * the observed labeling against itself in its own null;
    * relabelings that flip the 0/1 labels of one margin, which maps
      every value to its exact negation.

    Ties that hold only in exact arithmetic are not exact here: in the
    dual scheme with n_affected = n_time, swapping the group and time
    labels regroups the four means and rounds differently (ROADMAP,
    direction 1).
    """
    return (means[..., 3] - means[..., 2]) - (means[..., 1] - means[..., 0])


def compute_cell_means(sample: PanelSample) -> CellMeans:
    """Compute the four (group, period) cell means and counts.

    Empty cells are represented (count 0, mean NaN) rather than rejected,
    so callers can decide how to treat inestimable relabelings.
    """
    counts, sums = _block_cells((2 * sample.affected + sample.time)[None, :], sample.y)
    # An empty cell's sum is 0, so its mean is 0/0 = NaN.
    with np.errstate(invalid="ignore"):
        means = sums / counts
    return CellMeans(means=means.reshape(2, 2), counts=counts.reshape(2, 2))


def _require_four_cells(counts: np.ndarray) -> None:
    flat = np.asarray(counts).reshape(4)
    for cell in range(4):
        if flat[cell] == 0:
            raise EmptyCellError(affected=cell >> 1, time=cell & 1)


def did_from_means(cells: CellMeans) -> float:
    """DiD coefficient from the four cell means.

    value = (mean[1,1] - mean[1,0]) - (mean[0,1] - mean[0,0]): the treated
    group's change over time minus the control group's change.

    Raises
    ------
    EmptyCellError
        If any cell has zero count, naming the first empty (g, t) cell in
        scan order (0,0), (0,1), (1,0), (1,1).
    ValueError
        If the value is not finite.
    """
    _require_four_cells(cells.counts)
    value = float(_did_from_cells(cells.means.reshape(4)))
    if not np.isfinite(value):
        raise ValueError("DiD value must be finite")
    return value


def did_from_ols(sample: PanelSample) -> OlsFit:
    """Fit the saturated two-way OLS model and return its coefficients.

    The design is saturated, so the normal equations have the closed-form
    solution alpha = mean[0,0], beta = mean[0,1] - mean[0,0],
    gamma = mean[1,0] - mean[0,0], and delta equal to the four-means DiD.
    The rank of the design matrix drops exactly when a cell is empty, in
    which case EmptyCellError is raised.
    """
    cells = compute_cell_means(sample)
    delta = did_from_means(cells)
    m = cells.means
    resid = sample.y - m[sample.affected, sample.time]
    return OlsFit(
        alpha=float(m[0, 0]),
        beta=float(m[0, 1] - m[0, 0]),
        gamma=float(m[1, 0] - m[0, 0]),
        delta=delta,
        residual_sum_squares=float(resid @ resid),
    )


def did_value(sample: PanelSample) -> float:
    """The four-means DiD value of an estimable sample."""
    return did_from_means(compute_cell_means(sample))
