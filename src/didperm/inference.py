"""Null distribution construction, quantile decisions, and randomization p-values.

The null distribution of the DiD coefficient is built by relabeling the
indicator vectors while holding outcomes fixed, either by Monte Carlo
sampling (`simulate_null`) or by exact enumeration of every admissible
relabeling (`enumerate_null`, for small spaces).  `randomize` owns the
relabeling space (its draws, its size and its enumeration) and
`panel._block_cells` turns each block of labels into DiD values, so both
builders read: label blocks, one kernel call, keep or redraw.
`test_significance` turns a distribution into a two-sided quantile
decision plus p-values, and `exactness_audit` verifies the finite-sample
validity guarantee P(p <= alpha) <= alpha exhaustively on enumerable
spaces.

Relabelings that empty a cell leave the DiD contrast undefined.  Such
draws are discarded and, in the Monte Carlo path, redrawn from the same
block stream (up to a retry cap per iteration), so every retained
distribution is conditional on estimability.  The discard count is always
reported.  `simulate_null` states the block and stream contract that
makes its results bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TooManyDegenerateDrawsError
from .panel import PanelSample, _block_cells, did_value
from .randomize import (
    ENUMERATION_CAP,
    RandomizationScheme,
    draw_relabelings,
    enumerate_relabelings,
    generator_for,
    stream_block_rows,
)

__all__ = [
    "Source",
    "NullDistribution",
    "TestResult",
    "UniformityReport",
    "simulate_null",
    "enumerate_null",
    "decide",
    "test_significance",
    "randomization_p_value",
    "exactness_audit",
    "DEFAULT_ITERATIONS",
    "ENUMERATION_CAP",
]

DEFAULT_ITERATIONS = 15_000
MAX_RETRY_ATTEMPTS = 1_000


class Source(Enum):
    """Provenance of a null distribution."""

    MONTE_CARLO = "monte_carlo"
    EXACT_ENUMERATION = "exact_enumeration"


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Realized DiD values under a randomization scheme, with provenance.

    `iterations_requested` is the Monte Carlo iteration count, or the full
    space size for exact enumeration.  `iterations_retained` is
    len(values); it falls short of the space size exactly when degenerate
    (empty-cell) relabelings were discarded.
    """

    values: np.ndarray
    iterations_requested: int
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
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def iterations_retained(self) -> int:
        return self.values.size


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
    y, time, affected, scheme, master_seed, iterations, first_block, stop_block
) -> tuple[np.ndarray, int]:
    """Values and discard count of blocks [first_block, stop_block) of a run."""
    # np.bincount copies read-only weights such as `PanelSample.y` on every
    # kernel call; one writeable copy per run spares the one-row blocks that.
    y = np.array(y)
    per_block = stream_block_rows(y.size)
    attempts = MAX_RETRY_ATTEMPTS
    parts = []
    discarded = 0
    for block in range(first_block, stop_block):
        lo = block * per_block
        rng = generator_for(master_seed, block)
        labels = draw_relabelings(rng, affected, time, scheme, min(per_block, iterations - lo))
        values, estimable = _block_cells(*labels, y)
        for row in np.flatnonzero(~estimable).tolist():
            for attempt in range(1, attempts):
                labels = draw_relabelings(rng, affected, time, scheme, 1)
                redrawn, estimable = _block_cells(*labels, y)
                if estimable[0]:
                    values[row] = redrawn[0]
                    discarded += attempt
                    break
            else:
                raise TooManyDegenerateDrawsError(iteration=lo + row + 1, attempts=attempts)
        parts.append(values)
    return np.concatenate(parts), discarded


def simulate_null(
    sample: PanelSample,
    scheme: RandomizationScheme,
    iterations: int = DEFAULT_ITERATIONS,
    master_seed: int = 0,
    *,
    workers: int = 1,
) -> NullDistribution:
    """Monte Carlo null distribution of the DiD coefficient.

    Iterations are drawn in blocks of B = max(1, 8192 // sample.n) rows.
    Block b (0-based) holds iterations b*B + 1 .. min((b + 1)*B, iterations)
    and reads the stream `generator_for(master_seed, b)`: first the affected
    label matrix, then the time matrix (dual scheme), one row per
    iteration.  After that main draw, each degenerate row is redrawn from
    the same stream, in row order, until estimable; an iteration gets at
    most `MAX_RETRY_ATTEMPTS` draws in all.  The result is a pure function of
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

    Raises
    ------
    EmptyCellError
        If the original sample is inestimable.
    TooManyDegenerateDrawsError
        If some iteration cannot find an estimable relabeling.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    generator_for(master_seed)  # validates the seed range
    did_value(sample)  # raises EmptyCellError when the sample is inestimable

    run = functools.partial(
        _simulate_chunk,
        sample.y,
        sample.time,
        sample.affected,
        scheme,
        master_seed,
        iterations,
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
        scheme=scheme,
        master_seed=master_seed,
        degenerate_draws_discarded=discarded,
        source=Source.MONTE_CARLO,
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def enumerate_null(sample: PanelSample, scheme: RandomizationScheme) -> NullDistribution:
    """Exact null distribution over every admissible relabeling.

    `randomize.enumerate_relabelings` sizes the space and walks it: the
    C(n, ones) arrangements of each relabeled vector under fixed margins,
    all 2**n binary vectors per margin under Bernoulli, both margins for
    the dual scheme.  The values vector keeps its canonical order:
    arrangements in lexicographic (fixed) or integer (Bernoulli) order,
    affected-major for the dual scheme.  Degenerate relabelings are
    counted in `degenerate_draws_discarded` and excluded from the values.

    Every value comes from `panel._block_cells`, the statistic call of
    `simulate_null`, whose formula `panel._did_from_cells` also gives
    `did_value`, with each relabeling's cells summed in observation order.
    So the observed labeling's value is bitwise one of the values, and
    flipping the 0/1 labels of one margin maps a value to its exact
    negation; the weak inequality in `randomization_p_value` counts those
    ties.  Ties that hold only in exact arithmetic, such as the group/time
    swap in the dual scheme with n_affected = n_time, can round apart
    (ROADMAP, direction 1).

    Raises
    ------
    SpaceTooLargeError
        If the space size exceeds `ENUMERATION_CAP`; use `simulate_null`
        instead.
    """
    size, blocks = enumerate_relabelings(sample.affected, sample.time, scheme)
    values = np.empty(size, dtype=np.float64)
    pos = 0
    for affected, time in blocks:
        drawn, estimable = _block_cells(affected, time, sample.y)
        kept = drawn[estimable]
        values[pos : pos + kept.size] = kept
        pos += kept.size

    return NullDistribution(
        values=values[:pos],
        iterations_requested=size,
        scheme=scheme,
        master_seed=None,
        degenerate_draws_discarded=size - pos,
        source=Source.EXACT_ENUMERATION,
    )


# ---------------------------------------------------------------------------
# quantiles, decisions, p-values
# ---------------------------------------------------------------------------


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
    if not math.isfinite(observed):
        raise ValueError(f"observed value must be finite, got {observed}")
    count = int(np.count_nonzero(np.abs(dist.values) >= abs(observed)))
    m = dist.iterations_retained
    return count / m, (1 + count) / (m + 1)


def test_significance(observed: float, dist: NullDistribution, alpha: float = 0.05) -> TestResult:
    """Quantile-based two-sided significance decision with attached p-values.

    The bounds are the alpha/2 and 1 - alpha/2 quantiles of the null
    values: on the sorted values of length m, quantile q reads off
    position 1 + q*(m - 1), interpolating linearly between neighbouring
    order statistics.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    raw, corrected = randomization_p_value(observed, dist)  # checks dist and observed
    # Two scalar calls: one call with both levels can differ in the last bit.
    lower = float(np.quantile(dist.values, alpha / 2.0))
    upper = float(np.quantile(dist.values, 1.0 - alpha / 2.0))
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
    statistic_values: np.ndarray
    p_values: np.ndarray

    @property
    def estimable_relabelings(self) -> int:
        return self.p_values.size

    def rejection_rate(self, alpha: float) -> float:
        """P(p <= alpha) over the uniform assignment law."""
        return float(np.mean(self.p_values <= alpha))

    def worst_violation(self) -> float:
        """max over alpha of P(p <= alpha) - alpha; exactness means <= 0.

        The maximum is taken over the attainable p-value levels, where
        P(p <= alpha) - alpha is piecewise largest.
        """
        levels, counts = np.unique(self.p_values, return_counts=True)
        return float(np.max(np.cumsum(counts) / self.p_values.size - levels))


def exactness_audit(
    n: int,
    n_affected: int,
    n_time: int,
    scheme: RandomizationScheme,
    outcome_seed: int = 0,
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
        If the space exceeds `ENUMERATION_CAP` relabelings.
    ValueError
        If no relabeling in the space is estimable (e.g. a margin of 1).
    """
    if not 0 < n_affected < n:
        raise ValueError("need 0 < n_affected < n")
    if not 0 < n_time < n:
        raise ValueError("need 0 < n_time < n")
    if outcomes is None:
        y = generator_for(outcome_seed).standard_normal(n)
    else:
        y = np.asarray(outcomes, dtype=np.float64)
        if y.shape != (n,):
            raise ValueError(f"outcomes must be a length-{n} vector")

    positions = np.arange(n)
    sample = PanelSample(y=y, time=positions < n_time, affected=positions < n_affected)
    dist = enumerate_null(sample, scheme)
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
        statistic_values=stats,
        p_values=p_values,
    )
