"""Null distribution construction, quantile decisions, and randomization p-values.

The null distribution of the DiD coefficient is built by relabeling the
indicator vectors while holding outcomes fixed, either by Monte Carlo
sampling (`simulate_null`) or by exact enumeration of every admissible
relabeling (`enumerate_null`, for small spaces).  `test_significance`
turns a distribution into a two-sided quantile decision plus p-values,
and `exactness_audit` verifies the finite-sample validity guarantee
P(p <= alpha) <= alpha exhaustively on enumerable spaces.

Relabelings that empty a cell leave the DiD contrast undefined.  Such
draws are discarded and, in the Monte Carlo path, redrawn from the same
block stream (up to a retry cap per iteration), so every retained
distribution is conditional on estimability.  The discard count is always
reported.

Simulation runs in blocks of B = `stream_block_rows(n)` iterations: iteration k
(1-based) is row (k - 1) mod B of block (k - 1) // B, and block b depends
only on (master_seed, b).  Workers take runs of whole blocks, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SpaceTooLargeError, TooManyDegenerateDrawsError
from .panel import PanelSample, _block_cells, _did_from_cells, did_value
from .randomize import (
    Margins,
    Mode,
    RandomizationScheme,
    SeedSpec,
    stream_block_rows,
    draw_relabelings,
    generator_for,
)

__all__ = [
    "Source",
    "NullDistribution",
    "TestResult",
    "UniformityReport",
    "simulate_null",
    "enumerate_null",
    "empirical_quantile",
    "decide",
    "test_significance",
    "randomization_p_value",
    "exactness_audit",
    "DEFAULT_ITERATIONS",
    "DEFAULT_ENUMERATION_CAP",
]

DEFAULT_ITERATIONS = 15_000
DEFAULT_ENUMERATION_CAP = 10_000_000
MAX_RETRY_ATTEMPTS = 1_000

# Label entries per kernel call during enumeration (see `enumerate_null`).
# At n=12 dual/fixed, 2**13 and 2**14 were 1.5x and 1.25x slower, and 2**17
# was slower and held 2.5 MB more.
_ENUM_ENTRIES = 2**16


class Source(Enum):
    """Provenance of a null distribution."""

    MONTE_CARLO = "monte_carlo"
    EXACT_ENUMERATION = "exact_enumeration"


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Realized DiD values under a randomization scheme, with provenance.

    `iterations_requested` is the Monte Carlo iteration count, or the full
    space size for exact enumeration.  `iterations_retained` equals
    len(values); it falls short of the space size exactly when degenerate
    (empty-cell) relabelings were discarded.
    """

    values: np.ndarray
    iterations_requested: int
    iterations_retained: int
    scheme: RandomizationScheme
    master_seed: int | None
    degenerate_draws_discarded: int
    source: Source

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be a 1-d vector")
        if not np.isfinite(values).all():
            raise ValueError("null distribution values must all be finite")
        if self.iterations_retained != values.size:
            raise ValueError("iterations_retained must equal len(values)")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TestResult:
    """Two-sided quantile decision for an observed DiD value.

    The null is rejected exactly when `observed` falls outside the open
    interval (lower, upper); equality with either bound rejects.  For
    continuous outcomes such ties have probability zero.  `p_value` is the
    plain fraction of null draws at least as extreme in absolute value;
    `p_value_corrected` is the add-one Monte Carlo version
    (1 + count) / (retained + 1), never anti-conservative at finite
    sample counts.
    """

    observed: float
    lower: float
    upper: float
    alpha: float
    reject: bool
    p_value: float
    p_value_corrected: float


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------


def _simulate_chunk(
    y, time, affected, scheme, master_seed, iterations, max_attempts, first_block, stop_block
) -> tuple[np.ndarray, int]:
    """Values and discard count of blocks [first_block, stop_block) of a run."""
    per_block = stream_block_rows(y.size)
    start = first_block * per_block
    values = np.empty(min(stop_block * per_block, iterations) - start, dtype=np.float64)
    weights = np.tile(y, per_block)
    discarded = 0
    # Degenerate rows divide by an empty cell's zero count; their values are
    # overwritten by the redraw below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for block in range(first_block, stop_block):
            lo = block * per_block
            rows = min(per_block, iterations - lo)
            rng = generator_for(SeedSpec(master_seed, block))
            new_affected, new_time = draw_relabelings(rng, affected, time, scheme, rows)
            counts, sums = _block_cells(2 * new_affected + new_time, weights)
            out = values[lo - start : lo - start + rows]
            out[:] = _did_from_cells(sums / counts)
            for row in np.flatnonzero(~counts.all(axis=1)).tolist():
                for attempt in range(1, max_attempts):
                    new_affected, new_time = draw_relabelings(rng, affected, time, scheme, 1)
                    counts, sums = _block_cells(2 * new_affected + new_time, weights)
                    if counts.all():
                        out[row] = _did_from_cells(sums / counts)[0]
                        discarded += attempt
                        break
                else:
                    raise TooManyDegenerateDrawsError(iteration=lo + row + 1, attempts=max_attempts)
    return values, discarded


def simulate_null(
    sample: PanelSample,
    scheme: RandomizationScheme,
    iterations: int = DEFAULT_ITERATIONS,
    master_seed: int = 0,
    *,
    workers: int = 1,
    max_attempts: int = MAX_RETRY_ATTEMPTS,
) -> NullDistribution:
    """Monte Carlo null distribution of the DiD coefficient.

    Iterations are drawn in blocks of B = `stream_block_rows(sample.n)` rows.
    Block b (0-based) holds iterations b*B + 1 .. min((b + 1)*B, iterations)
    and reads the stream SeedSpec(master_seed, b): first the affected
    label matrix, then the time matrix (dual scheme), one row per
    iteration.  After that main draw, each degenerate row is redrawn from
    the same stream, in row order, until estimable; an iteration gets at
    most `max_attempts` draws in all.  The result is a pure function of
    (sample, scheme, iterations, master_seed) and is bit-identical for
    every `workers` value.

    Parameters
    ----------
    sample : PanelSample
        Must be estimable under its original labels.
    scheme : RandomizationScheme
        Margins and relabeling mode.
    iterations : int
        Number of retained draws, >= 1.
    master_seed : int
        Unsigned 64-bit seed identifying the whole run.
    workers : int
        Process count; each process takes a run of whole blocks.  Affects
        speed only.
    max_attempts : int
        Retry cap per iteration before TooManyDegenerateDrawsError.

    Raises
    ------
    EmptyCellError
        If the original sample is inestimable.
    TooManyDegenerateDrawsError
        If some iteration cannot find an estimable relabeling.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    SeedSpec(master_seed, 0)  # validates the seed range
    did_value(sample)  # raises EmptyCellError when the sample is inestimable

    run = functools.partial(
        _simulate_chunk,
        sample.y,
        sample.time,
        sample.affected,
        scheme,
        master_seed,
        iterations,
        max_attempts,
    )
    blocks = -(-iterations // stream_block_rows(sample.n))
    if min(workers, blocks) <= 1:
        values, discarded = run(0, blocks)
    else:
        bounds = np.linspace(0, blocks, num=min(workers, blocks) + 1, dtype=np.int64).tolist()
        with ProcessPoolExecutor(max_workers=len(bounds) - 1) as pool:
            parts = list(pool.map(run, bounds[:-1], bounds[1:]))
        values = np.concatenate([part for part, _ in parts])
        discarded = sum(d for _, d in parts)

    return NullDistribution(
        values=values,
        iterations_requested=iterations,
        iterations_retained=values.size,
        scheme=scheme,
        master_seed=master_seed,
        degenerate_draws_discarded=discarded,
        source=Source.MONTE_CARLO,
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def _space_size(n: int, ones_affected: int, ones_time: int, scheme: RandomizationScheme) -> int:
    if scheme.mode is Mode.FIXED_MARGINS:
        size = math.comb(n, ones_affected)
        if scheme.margins is Margins.DUAL:
            size *= math.comb(n, ones_time)
        return size
    size = 1 << n
    if scheme.margins is Margins.DUAL:
        size <<= n
    return size


def _fixed_blocks(n: int, ones: int, block_rows: int):
    """Indicator matrices over all C(n, ones) arrangements, lexicographic order."""
    combos = itertools.combinations(range(n), ones)
    while True:
        rows = list(itertools.islice(combos, block_rows))
        if not rows:
            return
        block = np.zeros((len(rows), n), dtype=np.int64)
        if ones:
            block[np.arange(len(rows))[:, None], np.array(rows, dtype=np.intp)] = 1
        yield block


def _bernoulli_blocks(n: int, block_rows: int):
    """Indicator matrices over all 2**n binary vectors, integer order (bit j = obs j)."""
    total = 1 << n
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, total, block_rows):
        ints = np.arange(start, min(start + block_rows, total), dtype=np.uint64)
        yield ((ints[:, None] >> shifts) & np.uint64(1)).astype(np.int64)


def _label_blocks(n: int, ones: int, mode: Mode, block_rows: int):
    if mode is Mode.FIXED_MARGINS:
        return _fixed_blocks(n, ones, block_rows)
    return _bernoulli_blocks(n, block_rows)


def enumerate_null(
    sample: PanelSample,
    scheme: RandomizationScheme,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> NullDistribution:
    """Exact null distribution over every admissible relabeling.

    Fixed-margin spaces enumerate the C(n, ones) arrangements of each
    relabeled vector (both vectors independently for the dual scheme);
    Bernoulli spaces enumerate all 2**n binary vectors per margin.  The
    values vector is assembled in canonical order: arrangements in
    lexicographic (fixed) or integer (Bernoulli) order, affected-major for
    the dual scheme.  Degenerate relabelings are counted in
    `degenerate_draws_discarded` and excluded from the values.

    Every value comes from the statistic kernel of `did_value` and
    `simulate_null` (`panel._did_from_cells`), with each relabeling's
    cells summed in observation order.  So the observed labeling's value
    is bitwise one of the values, and flipping the 0/1 labels of one
    margin maps a value to its exact negation; the weak inequality in
    `randomization_p_value` counts those ties.  Ties that hold only in
    exact arithmetic, such as the group/time swap in the dual scheme with
    n_affected = n_time, can round apart (ROADMAP, direction 1).

    Raises
    ------
    SpaceTooLargeError
        If the space size exceeds `cap`; use `simulate_null` instead.
    """
    n = sample.n
    ones_a = sample.n_affected
    ones_t = sample.n_time
    size = _space_size(n, ones_a, ones_t, scheme)
    if size > cap:
        raise SpaceTooLargeError(log_size=math.log(size), cap=cap)

    # Each kernel call pairs a block of affected arrangements with a block
    # of time arrangements, about _ENUM_ENTRIES labels in all.  The time
    # side is split only when one affected row against all of it exceeds
    # that, so the calls visit the space in canonical order.
    t_step = max(1, _ENUM_ENTRIES // n)
    if scheme.margins is Margins.DUAL:
        t_blocks = [blk.astype(np.int8) for blk in _label_blocks(n, ones_t, scheme.mode, t_step)]
    else:
        t_blocks = [sample.time.astype(np.int8)[None, :]]
    t_rows = sum(blk.shape[0] for blk in t_blocks)
    block_rows = max(1, _ENUM_ENTRIES // (t_rows * n))
    weights = np.tile(sample.y, block_rows * t_blocks[0].shape[0])
    values = np.empty(size, dtype=np.float64)
    pos = 0
    # Degenerate relabelings divide by an empty cell's zero count; their
    # values are dropped.
    with np.errstate(divide="ignore", invalid="ignore"):
        for a_block in _label_blocks(n, ones_a, scheme.mode, block_rows):
            for t_block in t_blocks:
                cells = (2 * a_block[:, None, :] + t_block[None, :, :]).reshape(-1, n)
                counts, sums = _block_cells(cells, weights)
                kept = _did_from_cells(sums / counts)[counts.all(axis=1)]
                values[pos : pos + kept.size] = kept
                pos += kept.size

    return NullDistribution(
        values=values[:pos],
        iterations_requested=size,
        iterations_retained=pos,
        scheme=scheme,
        master_seed=None,
        degenerate_draws_discarded=size - pos,
        source=Source.EXACT_ENUMERATION,
    )


# ---------------------------------------------------------------------------
# quantiles, decisions, p-values
# ---------------------------------------------------------------------------


def empirical_quantile(dist: NullDistribution, q: float) -> float:
    """Order-statistic quantile with linear interpolation between closest ranks.

    On the sorted values of length m this reads off position 1 + q*(m - 1),
    interpolating linearly between neighbouring order statistics; q = 0 and
    q = 1 return the minimum and maximum.
    """
    if dist.iterations_retained == 0:
        raise ValueError("null distribution is empty")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile level must lie in [0, 1]")
    return float(np.quantile(dist.values, q))


def decide(observed: float, lower: float, upper: float) -> bool:
    """Two-sided decision: reject iff `observed` is outside the open (lower, upper)."""
    return bool(observed <= lower or observed >= upper)


def randomization_p_value(observed: float, dist: NullDistribution) -> tuple[float, float]:
    """Two-sided randomization p-value of `observed` against a null distribution.

    Returns (raw, corrected): raw is the fraction of null values v with
    |v| >= |observed| (the exact p-value when the distribution is a full
    enumeration); corrected is (1 + count) / (retained + 1).
    """
    if dist.iterations_retained == 0:
        raise ValueError("null distribution is empty")
    count = int(np.count_nonzero(np.abs(dist.values) >= abs(observed)))
    m = dist.iterations_retained
    return count / m, (1 + count) / (m + 1)


def test_significance(observed: float, dist: NullDistribution, alpha: float = 0.05) -> TestResult:
    """Quantile-based two-sided significance decision with attached p-values."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    lower = empirical_quantile(dist, alpha / 2.0)
    upper = empirical_quantile(dist, 1.0 - alpha / 2.0)
    raw, corrected = randomization_p_value(observed, dist)
    return TestResult(
        observed=float(observed),
        lower=lower,
        upper=upper,
        alpha=float(alpha),
        reject=decide(observed, lower, upper),
        p_value=raw,
        p_value_corrected=corrected,
    )


# ---------------------------------------------------------------------------
# exactness audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UniformityReport:
    """Exhaustive law of the exact p-value over an enumerable relabeling space.

    Every estimable relabeling is treated in turn as the observed
    assignment and its exact p-value computed against the full (estimable)
    space.  Under the sharp null the assignment is uniform over that
    space, so P(p <= alpha) <= alpha must hold for every alpha; when all
    absolute statistic values are distinct the p-values are exactly a
    permutation of {1/m, 2/m, ..., 1}.
    """

    n: int
    n_affected: int
    n_time: int
    scheme: RandomizationScheme
    total_relabelings: int
    estimable_relabelings: int
    statistic_values: np.ndarray
    p_values: np.ndarray

    def rejection_rate(self, alpha: float) -> float:
        """P(p <= alpha) over the uniform assignment law."""
        return float(np.mean(self.p_values <= alpha))

    def worst_violation(self, alphas=None) -> float:
        """max over alphas of P(p <= alpha) - alpha; exactness means <= 0.

        With alphas=None the maximum is taken over all attainable p-value
        levels, where P(p <= alpha) - alpha is piecewise largest.
        """
        if alphas is None:
            alphas = np.unique(self.p_values)
        return max(self.rejection_rate(a) - a for a in np.asarray(alphas, dtype=np.float64))


def exactness_audit(
    n: int,
    n_affected: int,
    n_time: int,
    scheme: RandomizationScheme,
    outcome_seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
    outcomes=None,
) -> UniformityReport:
    """Exhaustive finite-sample validity check on a small relabeling space.

    Outcomes are drawn once from a standard normal stream seeded by
    `outcome_seed` (continuous, so cross-relabeling ties occur only
    through exact symmetries of the space), or taken from `outcomes` when
    given.  All statistics come from `enumerate_null`, on the one
    statistic kernel behind every DiD value.  Sign flips of one margin's
    labels tie exactly in floating point; the group/time swap of the dual
    scheme with n_affected = n_time does not, so at such margins some
    p-values differ from their exact-arithmetic law (ROADMAP,
    direction 1).

    Raises
    ------
    SpaceTooLargeError
        If the space exceeds `cap` relabelings.
    ValueError
        If no relabeling in the space is estimable (e.g. a margin of 1).
    """
    if not 0 < n_affected < n:
        raise ValueError("need 0 < n_affected < n")
    if not 0 < n_time < n:
        raise ValueError("need 0 < n_time < n")
    if outcomes is None:
        y = generator_for(SeedSpec(outcome_seed, 0)).standard_normal(n)
    else:
        y = np.asarray(outcomes, dtype=np.float64)
        if y.shape != (n,):
            raise ValueError(f"outcomes must be a length-{n} vector")

    base_affected = np.zeros(n, dtype=np.int64)
    base_affected[:n_affected] = 1
    base_time = np.zeros(n, dtype=np.int64)
    base_time[:n_time] = 1
    sample = PanelSample(y=y, time=base_time, affected=base_affected)
    dist = enumerate_null(sample, scheme, cap)
    if dist.iterations_retained == 0:
        raise ValueError("no estimable relabeling exists in this space")

    stats = dist.values
    m = stats.size
    magnitudes = np.sort(np.abs(stats))
    p_values = (m - np.searchsorted(magnitudes, np.abs(stats), side="left")) / m
    return UniformityReport(
        n=n,
        n_affected=n_affected,
        n_time=n_time,
        scheme=scheme,
        total_relabelings=dist.iterations_requested,
        estimable_relabelings=m,
        statistic_values=stats,
        p_values=p_values,
    )
