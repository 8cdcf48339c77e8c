"""Data model for two-group, two-period panels and the DiD point estimators.

A panel is three aligned vectors: a real-valued outcome, a binary period
indicator (`time`), and a binary group indicator (`affected`).  The
difference-in-differences (DiD) coefficient can be read off the four
(group, period) cell means, or equivalently estimated as the interaction
coefficient of the saturated two-way OLS model

    y = alpha + beta * time + gamma * affected + delta * (time * affected) + error.

Both estimators are provided; for the saturated 2x2 design they agree exactly,
and the OLS coefficients are solved in closed form from the cell means.

This module also holds the three statistic kernels.  `_cell_sums` sums
the cells of many labelings at once in one pass over their labels, for
the observed value (`compute_cell_means`) and, through `_block_cells`,
for every Monte Carlo draw.  `_product_cells` gives the DiD values of
every (affected row, time row) pair of two label blocks from products of
the rows, for exact enumeration; both end in `_did_from_cells`, the
four-means formula.  `_agreement_draws` gives, at balanced dual fixed
margins, the DiD of agreement sets from their sums: of the sets that
Monte Carlo draws, and of every set, weighed by its relabelings, for the
exact null's law.  Each takes outcomes prepared once per run and gives
values with their estimability, under one floating-point rule (`_quiet`).
Beside the kernels sit the bounds on their rounding
(`_cell_means_tolerance` and `_product_cells_tolerance`, both of which
cover `_agreement_draws`) within which `inference` counts ties.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellError

_EPS = float(np.finfo(np.float64).eps)
_MAX = float(np.finfo(np.float64).max)

__all__ = [
    "PanelSample",
    "CellMeans",
    "OlsFit",
    "compute_cell_means",
    "did_from_means",
    "did_from_ols",
    "did_value",
]


def _read_only(values, dtype) -> np.ndarray:
    """`values` as a read-only `dtype` array, copied only where it must be.

    The one rule for the arrays that frozen results hold: a read-only
    array of `dtype` that owns its memory is kept as it is, and any other
    input is copied (converted) once and the copy made read-only.  So a
    producer that has just built an array hands it over read-only, and it
    is not copied again.
    """
    arr = np.asarray(values)
    if arr.dtype != dtype or arr.flags.writeable or not arr.flags.owndata:
        arr = arr.astype(dtype)
        arr.flags.writeable = False
    return arr


def _as_binary(values, name: str) -> np.ndarray:
    """A 0/1 label vector in the one label format, read-only int8.

    Every label vector of a sample, drawn block or enumerated block is
    int8.  The values are checked on the caller's dtype, each entry
    `== 0` or `== 1`, so no entry is cast before it is checked; the
    vector is then kept or converted once by the `_read_only` rule, and
    `load_panel`'s read-only int8 labels are kept as they are.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector")
    # Non-numeric dtypes such as text are refused before the comparison:
    # numpy before 1.25 warns, rather than answering False, when it
    # compares text with numbers.
    if arr.dtype.kind not in "biufcO" or not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return _read_only(arr, np.int8)


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
    The vectors are held read-only (`_read_only`): `y` as float64, the
    labels as int8 (`_as_binary`).  Label arithmetic whose result can
    leave [-128, 127] needs a cast first: int8 wraps silently.
    """

    y: np.ndarray
    time: np.ndarray
    affected: np.ndarray

    def __post_init__(self):
        y = _read_only(self.y, np.float64)
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
    The four counts always sum to n.  Both are 2x2 and held read-only
    (`_read_only`).
    """

    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        means = _read_only(self.means, np.float64)
        counts = _read_only(self.counts, np.int64)
        if means.shape != (2, 2) or counts.shape != (2, 2):
            raise ValueError("cell means and counts must be 2x2")
        if (counts < 0).any():
            raise ValueError("cell counts must be non-negative")
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


def _quiet() -> np.errstate:
    """The kernels' one floating-point rule: divide, invalid and overflow are silent.

    An empty cell's mean is 0/0 = NaN, and a value whose outcomes overflow
    the float range is inf or NaN.  Neither warns: estimability marks the
    first, and `did_from_means` or the finiteness check of
    `inference.NullDistribution` refuses the second with ValueError.
    """
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _cell_sums(affected, time, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-labeling cell counts and outcome sums, each (rows, 4), of (..., n) label arrays.

    `affected` and `time` broadcast together; every index of their leading
    axes is one labeling, rows in C order, with cell index 2*affected + time.
    One bincount over the row-offset index 4*row + cell and the first rows*n
    entries of `y`, the outcomes tiled once per run, visits every row's
    entries in their own order, so each row's sums are bit-identical to a
    bincount of that row alone.  A cell's mean is its sum over its count.
    """
    cells = (2 * affected + time).reshape(-1, np.shape(affected)[-1])
    rows = cells.shape[0]
    idx = (cells + 4 * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(idx, minlength=4 * rows).reshape(rows, 4)
    sums = np.bincount(idx, weights=y[: idx.size], minlength=4 * rows).reshape(rows, 4)
    return counts, sums


def _block_cells(affected, time, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DiD values of many labelings of `y` at once, and which are estimable.

    The statistic call behind every Monte Carlo draw: int8 labels (a
    `randomize` draw) and tiled outcomes as in `_cell_sums` in, (values,
    estimable) out, each of length rows.  The value of a row with an empty
    cell is NaN, and `estimable` is False there.
    """
    counts, sums = _cell_sums(affected, time, y)
    with _quiet():
        return _did_from_cells(*(sums / counts).T), counts.all(axis=1)


def _cell_means_tolerance(y: np.ndarray) -> float:
    """8*n*eps*max|y|, the tie tolerance of DiD values from `_cell_sums`.

    eps is the float64 machine epsilon.  A cell mean adds at most n
    outcomes one after another, so it rounds by about n_cell*eps/2*max|y|,
    and a DiD value by at most about n*eps/2*max|y| + 4*eps*max|y| <=
    1.5*n*eps*max|y| (n >= 4).  Two values equal in exact arithmetic thus
    lie within 3*n*eps*max|y|, well inside the tolerance.
    """
    return 8 * y.size * _EPS * float(np.max(np.abs(y)))


def _centred(y: np.ndarray) -> np.ndarray:
    """`y` less its midrange c, the outcomes that the enumeration kernels sum.

    A DiD value is a contrast of cell means, so shifting every outcome by
    c leaves it unchanged in exact arithmetic; the rounding of sums of
    y - c scales with max|y - c|, not with max|y|.
    """
    return y - (0.5 * y.max() + 0.5 * y.min())


def _scaled(y: np.ndarray) -> tuple[np.ndarray, float]:
    """The centred outcomes (`_centred`) over a power of two, and that power.

    Sums of centred outcomes reach n*max|y - c|, which can overflow where
    the sums of raw outcomes that ingest bounds do not.  Where they could,
    the outcomes are divided by 2**k, 2**k > n, and a kernel multiplies its
    values back by 2**k: no bit changes in the normal float range.
    """
    n = y.size
    y = _centred(y)
    scale = 2.0 ** n.bit_length() if n * float(np.max(np.abs(y))) > _MAX / 4 else 1.0
    return y / scale, scale


def _ordered_sums(p, q, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of `y` over the ones of 0/1 label rows, each in observation order.

    For rows p (rp, n) and q (rq, n), returns (by_p, by_q).  by_p is
    (rp, rq + 1): column j < rq sums y over the observations where both p_i
    and q_j hold a one, column rq over those of p_i.  by_q is (rq + 1,):
    entry j < rq sums over q_j, entry rq over all n.  Each sum starts at
    0.0 and adds its terms in observation order, whatever rp and rq are.
    """
    n = y.size
    # Row i holds y_i under every q row with a one at i, and y_i last;
    # row n is zero and pads short rows of `positions`.
    terms = np.zeros((n + 1, len(q) + 1))
    np.multiply(q.T, y[:, None], out=terms[:n, :-1])
    terms[:n, -1] = y
    width = int(p.sum(axis=1).max(initial=0))
    positions = np.sort(np.where(p, np.arange(n), n), axis=1)[:, :width]
    by_p = np.zeros((len(p), len(q) + 1))
    for column in positions.T:  # the k-th one of every p row, k = 0, 1, ...
        by_p += terms[column]
    by_q = np.zeros(len(q) + 1)
    for row in terms[:n]:
        by_q += row
    return by_p, by_q


def _product_cells(affected, time, y: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Values, and estimability, of every (affected row, time row) pair of two label blocks.

    `affected` (ra, n) and `time` (rt, n) hold 0/1 label rows, and `y` and
    `scale` are the outcomes and power of two that `_scaled` gives, once
    per run.  The result has ra*rt entries, affected-major, the labelings
    that `_block_cells` would take on the broadcast of the two blocks.
    Only the cells are formed differently:

    * counts: |A & T| is the product of the label rows (integers, so
      exact in float64 in any order), and the other three cells follow
      from it, n_A, n_T and n;
    * sums: the outcomes are centred (`_centred`), which leaves every DiD
      value unchanged in exact arithmetic.  Their sums over A & T, A, T
      and all n are each taken in observation order from 0.0
      (`_ordered_sums`, through the side with fewer rows), and the other
      three cell sums follow by inclusion-exclusion.  Where those sums
      could overflow, `_scaled` has divided the outcomes by `scale`, and
      the values are multiplied back by it, which rounds nothing in the
      normal float range.

    No sum of outcomes goes through BLAS or depends on how rows are
    blocked, so a value does not depend on the block size, thread count
    or BLAS build.  Inclusion-exclusion rounds differently from
    `_cell_sums`, by up to `_product_cells_tolerance`.  The value of a
    pair with an empty cell is not finite, and `estimable` is False there.
    """
    n = y.size
    # Step through the ones of the side with fewer rows: each step adds a
    # whole row of the other side's terms.
    if len(affected) > len(time):
        by_t, by_a = _ordered_sums(time, affected, y)
        s3, s_time = by_t[:, :-1].T, by_t[:, -1]
        s_affected, total = by_a[:-1, None], by_a[-1]
    else:
        by_a, by_t = _ordered_sums(affected, time, y)
        s3, s_affected = by_a[:, :-1], by_a[:, -1:]
        s_time, total = by_t[:-1], by_t[-1]
    a = affected.astype(np.float64)
    t = time.astype(np.float64)
    ones = np.ones(n)
    c3 = a @ t.T
    c_affected = (a @ ones)[:, None]
    c2 = c_affected - c3
    c1 = t @ ones - c3
    c0 = (n - c_affected) - c1
    s2 = s_affected - s3
    s1 = s_time - s3
    s0 = (total - s_affected) - s1
    with _quiet():
        values = _did_from_cells(s0 / c0, s1 / c1, s2 / c2, s3 / c3) * scale
    estimable = np.minimum(np.minimum(c0, c1), np.minimum(c2, c3)) > 0
    return values.ravel(), estimable.ravel()


def _agreement_draws(c, drawn, y: np.ndarray, scale: float, total: float):
    """Values, and estimability, of the balanced dual relabelings of given agreement sets.

    At n_affected = n_time = n/2, cells 0 and 3 both hold c = |A & T|
    observations and cells 1 and 2 both hold n/2 - c.  So the DiD
    (m3 - m2) - (m1 - m0) is S_D/c - S_{D^c}/(n/2 - c), a function of
    the agreement set D = {i : affected_i = time_i} of 2c members alone.

    For row r, c[r] = |A & T| and `drawn` gives a set G_r of 2c[r]
    observations: a `randomize.draw_agreement_sets` draw, or a
    `randomize.enumerate_agreement_sets` set.  `y` holds the outcomes
    centred and scaled by `_scaled`, tiled as in `_cell_sums`, `total` the
    sum of one row, and `scale` is the power of two of `_scaled`, negated
    when the sets are the complements of the agreement sets, whose values
    are the negations.  A row's value is then
    (S_D/c - S_{D^c}/(n/2 - c)) * scale for D = G_r; multiplying by `scale`
    rounds nothing in the normal float range.  A row with c = 0 or n/2 has
    an empty cell, `estimable` False and the value NaN: either path below
    sums no terms to 0.0 for the empty side, whose quotient is then 0/0.

    Rounding, with u = eps/2, M = max|y - mid| over the outcomes centred
    on their midrange and h = n/2, in the normal float range.  Either way
    centring rounds each outcome by at most u*M, and the DiD weighs the
    outcomes by 1/c and 1/(h - c), 4 in absolute sum: 2*eps*M; and the
    two quotients, each at most 2*M, round by eps*M each, and their
    difference, at most 4*M, by 2*eps*M.  The sums are taken two ways:

    * A (rows, n) indicator `drawn` (multi-row blocks, and enumeration):
      S_D and S_{D^c} of every row start at 0.0 and add their terms in
      observation order, in one bincount over the row-offset index
      2*row + indicator, as in `_cell_sums`.  So a value depends on its
      set alone, and a set with count c and its complement with count
      h - c give values that negate bit for bit.  S_D adds 2c terms of
      size at most M with 2c - 1 roundings, so S_D/c is off by at most
      (2c - 1)*eps*M, and S_{D^c}/(h - c) by at most (n - 2c - 1)*eps*M.
      A value rounds by (n + 4)*eps*M to first order, and by at most
      (n + 5)*eps*M with the higher-order terms.
    * A 1-d `drawn` (one-row runs, whose `y` holds exactly one row and so
      gives n) holds the m <= h positions of the smaller of G and its
      complement.  Their outcomes are gathered and summed in any order,
      and the sum of the other side is `total` less that sum.  The
      gathered sum adds m terms of size at most M, so it is off by at
      most (m - 1)*u*m*M, and its quotient by its cell count m/2 by
      (m - 1)*eps*M <= (h - 1)*eps*M.  `total` is off by at most
      (n - 1)*u*n*M, and so the other side's sum by that, the gathered
      sum's error and u*(n - m)*M.  Its cell count is (n - m)/2 >= n/4,
      so its quotient is off by at most (2*(n - 1) + (h - 1) + 1)*eps*M:
      the side formed by subtraction is always the larger one.  A value
      rounds by (3n + 3)*eps*M to first order, and by at most
      (3n + 4)*eps*M.  Had the larger side been gathered instead, a cell
      of one pair would divide the error of `total`, n**2*u*M, by 1.

    M <= max|y| for the raw outcomes, so two values equal in exact
    arithmetic lie within (6n + 8)*eps*max|y| <= 8*n*eps*max|y| (n >= 4),
    and one and the observed value within (3n + 4)*eps*max|y| +
    1.5*n*eps*max|y|: both inside `_cell_means_tolerance`, which the Monte
    Carlo null keeps.  Two values of indicator rows lie within
    2*(n + 5)*eps*M <= 12*n**2*eps*M, and one and the observed value
    within (n + 5)*eps*M + 1.5*n*eps*max|y|: far inside
    `_product_cells_tolerance`, which `enumerate_null` keeps.
    """
    if drawn.ndim == 2:
        rows, n = drawn.shape
        idx = (drawn + 2 * np.arange(rows)[:, None]).ravel()
        sums = np.bincount(idx, weights=y[: idx.size], minlength=2 * rows).reshape(rows, 2)
        inside, outside = sums[:, 1], sums[:, 0]
    else:
        n = y.size
        gathered = float(np.sum(y[drawn]))
        inside, outside = gathered, total - gathered
        if 4 * int(c[0]) > n:  # the positions are the complement of G
            inside, outside = outside, inside
    half = n // 2
    estimable = (c >= 1) & (c <= half - 1)
    with _quiet():
        values = (inside / c - outside / (half - c)) * scale
    return values, estimable


def _product_cells_tolerance(y: np.ndarray) -> float:
    """`_cell_means_tolerance` + 16*n**2*eps*D, the tie tolerance of `_product_cells`.

    D = max|y - c| over the centred outcomes (`_centred`).  A cell of one
    observation can take its sum as a difference of sums over up to n
    centred outcomes, each rounded by up to n**2*eps/2*D, so a value
    rounds by at most 6*n**2*eps*D.  Two enumerated values equal in exact
    arithmetic lie within 12*n**2*eps*D, an enumerated value and the
    observed one within 6*n**2*eps*D + 1.5*n*eps*max|y|.  Centring keeps
    a common offset of the outcomes out of D.  At n = 12 and unit-scale
    outcomes the tolerance is about 1e-12; distinct values of continuous
    outcomes almost surely lie much further apart.
    """
    n = y.size
    return _cell_means_tolerance(y) + 16 * n * n * _EPS * float(np.max(np.abs(_centred(y))))


def _did_from_cells(m0, m1, m2, m3):
    """The DiD formula on the four cell means, cell index 2*affected + time.

    (treated change) - (control change) = (m3 - m2) - (m1 - m0), with this
    grouping kept explicit.  The observed value and every Monte Carlo or
    product-form value is this function of cell means, from `_cell_sums`
    or `_product_cells`, except at dual fixed margins with n_affected =
    n_time = n/2.  There `_agreement_draws` (Monte Carlo and enumeration)
    regroups it as (m3 + m0) - (m1 + m2), which the equal cell counts
    allow.
    """
    return (m3 - m2) - (m1 - m0)


def compute_cell_means(sample: PanelSample) -> CellMeans:
    """Compute the four (group, period) cell means and counts.

    Empty cells are represented (count 0, mean NaN) rather than rejected,
    so callers can decide how to treat inestimable relabelings.
    """
    counts, sums = _cell_sums(sample.affected, sample.time, sample.y)
    with _quiet():
        return CellMeans(means=(sums / counts).reshape(2, 2), counts=counts.reshape(2, 2))


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
    for (g, t), count in np.ndenumerate(cells.counts):  # CellMeans holds them 2x2
        if count == 0:
            raise EmptyCellError(affected=g, time=t)
    with _quiet():  # such a value raises below
        value = float(_did_from_cells(*cells.means.reshape(4)))
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
