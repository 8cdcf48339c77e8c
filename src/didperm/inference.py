"""Null distribution construction, quantile decisions, and randomization p-values.

The null distribution of the DiD coefficient is built by relabeling the
indicator vectors while holding outcomes fixed, either by Monte Carlo
sampling (`simulate_null`) or by exact enumeration of every admissible
relabeling (`enumerate_null`, for small spaces).  `randomize` owns the
relabeling space (its draws, its size and its enumeration).
`panel._block_cells` turns each block of drawn labels into DiD values and
`panel._product_cells` each pair of enumerated label blocks, so both
builders read: label blocks, one kernel call, keep or redraw.  Balanced
dual fixed-margin spaces instead draw, or enumerate, agreement sets,
whose values `panel._agreement_draws` gives.  Both builders record the
tie tolerance of their kernel, within which `_Law.count_as_extreme`
counts ties.  An exact null is its law: its values are the law's
points repeated by their counts, in increasing order.
`test_significance` turns a distribution into a two-sided quantile
decision plus p-values, and `exactness_audit` verifies the finite-sample
validity guarantee P(p <= alpha) <= alpha exhaustively on enumerable
spaces.  All of them, and `report.make_histogram`, read a distribution's
sorted law (`_Law`: points in increasing order with cumulative counts,
equal points not merged), which gives the results that numpy's quantile,
histogram and counting rules give on the values; only the audit merges
equal points.  Only this module reads the law's arrays.

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
import os
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TooManyDegenerateDrawsError
from .panel import (
    PanelSample,
    _agreement_draws,
    _block_cells,
    _cell_means_tolerance,
    _product_cells,
    _product_cells_tolerance,
    _read_only,
    _scaled,
    did_value,
)
from .randomize import (
    ENUMERATION_CAP,
    RandomizationScheme,
    _block_streams,
    draw_agreement_sets,
    draw_relabelings,
    enumerate_agreement_sets,
    enumerate_relabelings,
    generator_for,
    is_balanced_dual_fixed,
    space_size,
    stream_block_rows,
)
from .spaces import _margins

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
class _Law:
    """The sorted law of a null: its values in increasing order, and how many lie below each.

    `support` holds the law's points, non-decreasing, equal points not
    merged; `below[i]` counts the values before point i, and `below[-1]`
    is the count m of all values.  A point stands for `below[i + 1] -
    below[i]` values: one for a Monte Carlo null or a product walk, the
    relabelings of an agreement set on that route.  Every consumer of a
    null (p-values, quantiles, histogram, exactness audit) reads this law,
    not the values; only the audit merges equal points.
    """

    support: np.ndarray
    below: np.ndarray

    def order_statistic(self, k: int) -> float:
        """The k-th smallest value, 0-based."""
        return float(self.support[np.searchsorted(self.below, k, side="right") - 1])

    def quantile(self, q: float) -> float:
        """`np.quantile(values, q)` bit for bit: numpy's linear rule on the law.

        numpy takes the virtual index (m - 1)*q.  From m - 1 on it reads
        the largest value; below, the order statistics at its floor and the
        next one, between which it interpolates with a two-sided lerp.  The
        table may order -0.0 and 0.0 otherwise than numpy's partition, so a
        zero result may differ from numpy's in its sign.
        """
        m = int(self.below[-1])
        virtual = (m - 1) * q
        if virtual >= m - 1:
            return float(self.support[-1])
        lo = math.floor(virtual)
        gamma = virtual - lo
        a, b = self.order_statistic(lo), self.order_statistic(lo + 1)
        diff = b - a
        return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma

    def count_below(self, edges: np.ndarray) -> np.ndarray:
        """How many values lie below each of `edges`."""
        return self.below[np.searchsorted(self.support, edges, side="left")]

    def count_as_extreme(self, observed, tol: float):
        """How many values v have |v| >= |observed| - tol, for each observed: the tie rule."""
        cuts = np.abs(observed) - tol
        m = self.below[-1]
        at_least = m - self.count_below(cuts)
        at_most = self.below[np.searchsorted(self.support, np.negative(cuts), side="right")]
        return np.where(np.greater(cuts, 0), at_least + at_most, m)


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Realized DiD values under a randomization scheme, with provenance.

    `iterations_requested` is the Monte Carlo iteration count, or the full
    space size for exact enumeration.  `iterations_retained` is
    len(values); it falls short of the space size exactly when degenerate
    (empty-cell) relabelings were discarded.

    `tie_tolerance` is the bound on the rounding of the kernel that made
    the values, within which `randomization_p_value` counts ties; 0.0,
    the default, counts bitwise ties only.

    `values` is held read-only, by the rule of `panel._read_only`.
    """

    values: np.ndarray
    iterations_requested: int
    scheme: RandomizationScheme
    master_seed: int | None
    degenerate_draws_discarded: int
    source: Source
    tie_tolerance: float = 0.0

    def __post_init__(self):
        values = _read_only(self.values, np.float64)
        if values.ndim != 1:
            raise ValueError("values must be a 1-d vector")
        if not np.isfinite(values).all():
            raise ValueError("null distribution values must all be finite")
        if not 0.0 <= self.tie_tolerance < math.inf:
            raise ValueError("tie_tolerance must be finite and >= 0")
        object.__setattr__(self, "tie_tolerance", float(self.tie_tolerance))
        object.__setattr__(self, "values", values)

    @property
    def iterations_retained(self) -> int:
        return self.values.size

    @functools.cached_property
    def _law(self) -> _Law:
        """The sorted law of `values`; exact enumeration fills it as it builds them."""
        return _Law(np.sort(self.values), np.arange(self.values.size + 1))


@dataclass(frozen=True)
class TestResult:
    """Two-sided quantile decision for an observed DiD value.

    The null is rejected exactly when `observed` falls outside the open
    interval (lower, upper); equality with either bound rejects.  For
    continuous outcomes such ties have probability zero.  `p_value` is the
    fraction of null draws at least as extreme in absolute value, ties
    counted within the distribution's `tie_tolerance`;
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
    sample, scheme, master_seed, iterations, first_block, stop_block
) -> tuple[np.ndarray, int]:
    """Values and discard count of blocks [first_block, stop_block) of a run of `sample`.

    `relabel(rng, rows)` draws `rows` relabelings and values them, with
    estimability, in one kernel call on a prefix of the run's tiled `weights`:
    agreement sets and `panel._agreement_draws` at balanced dual fixed
    margins, label matrices and `panel._block_cells` elsewhere.
    """
    y, time, affected, n = sample.y, sample.time, sample.affected, sample.n
    per_block = stream_block_rows(n)
    if is_balanced_dual_fixed(n, sample.n_affected, sample.n_time, scheme):
        outcomes, scale = _scaled(y)
        total = float(np.sum(outcomes))
        weights = np.tile(outcomes, per_block)
        # Where observation 0's labels differ, each drawn set is the
        # disagreement set, whose value is the negation.
        scale = scale if affected[0] == time[0] else -scale

        def relabel(rng, rows):
            return _agreement_draws(*draw_agreement_sets(rng, n, rows), weights, scale, total)

    else:
        weights = np.tile(y, per_block)

        def relabel(rng, rows):
            return _block_cells(*draw_relabelings(rng, affected, time, scheme, rows), weights)

    attempts = MAX_RETRY_ATTEMPTS
    parts = []
    discarded = 0
    for block, rng in _block_streams(master_seed, range(first_block, stop_block)):
        lo = block * per_block
        values, estimable = relabel(rng, min(per_block, iterations - lo))
        for row in np.flatnonzero(~estimable).tolist():
            for attempt in range(1, attempts):
                redrawn, estimable = relabel(rng, 1)
                if estimable[0]:
                    values[row] = redrawn[0]
                    discarded += attempt
                    break
            else:
                raise TooManyDegenerateDrawsError(iteration=lo + row + 1, attempts=attempts)
        parts.append(values)
    return np.concatenate(parts), discarded


def _exit_with_parent() -> None:
    """Pool initializer: end this worker as soon as its parent dies.

    A terminated parent cannot shut its pool down, and its workers would
    otherwise compute on and then block on the result pipe.  The worker
    waits on multiprocessing's sentinel of the parent, which it holds from
    its start under every start method, so a parent that died before this
    initializer ran is seen too.
    """
    import multiprocessing  # here: `import didperm` does not load it

    def watch():
        multiprocessing.parent_process().join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    and reads the stream `generator_for(master_seed, b)`: first the main
    draw of all its rows, then, in row order, a redraw of each degenerate
    row from the same stream until estimable; an iteration gets at most
    `MAX_RETRY_ATTEMPTS` draws in all.  How a row is drawn is the stream
    contract that `randomize` states.  The result is a pure function of
    (sample, scheme, iterations, master_seed) and is bit-identical for
    every `workers` value.  On a balanced dual fixed-margin space
    (block-v5), each value of a multi-row block is bit for bit the one
    `enumerate_null` gives its agreement set.

    Contract block-v5 ranks the fixed-margin rows and agreement sets of
    multi-row blocks (n <= 4096) by n 32-bit keys per row, the halves of
    ceil(n/2) raw words, where block-v4 read a 64-bit word per key.
    Equal keys at a row's cut, about n / 2**32 likely, are ranked by
    position, so a row's law lies within that of the uniform law in total
    variation (`randomize._smallest_keys`).  So the values, and
    `didperm test` reports, of fixed-margin runs at n <= 4096 differ from
    block-v4's.  Bernoulli rows are block-v4's, and runs of one-row
    blocks (n > 4096) draw as before.

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
        Most processes to use, >= 1; each takes a run of whole blocks.
        The pool never exceeds the block count or the CPUs this process
        may run on, so a large value starts no more processes than can
        run at once.  Affects speed only.

    Raises
    ------
    EmptyCellError
        If the original sample is inestimable.
    TooManyDegenerateDrawsError
        If some iteration cannot find an estimable relabeling.
    TypeError
        If `master_seed` is not an integer (a float is refused, not truncated).
    ValueError
        If `iterations` or `workers` is below 1, or a relabeling's value
        is not finite (its outcomes overflow the float range).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    generator_for(master_seed)  # validates the seed range
    did_value(sample)  # raises EmptyCellError when the sample is inestimable

    run = functools.partial(_simulate_chunk, sample, scheme, master_seed, iterations)
    blocks = -(-iterations // stream_block_rows(sample.n))
    processes = min(workers, blocks, _usable_cpus())
    if processes <= 1:
        values, discarded = run(0, blocks)
    else:
        # Imported here: most runs never start a pool, and the import is a
        # tenth of `import didperm`.
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, blocks, num=processes + 1, dtype=np.int64).tolist()
        with ProcessPoolExecutor(max_workers=processes, initializer=_exit_with_parent) as pool:
            parts = list(pool.map(run, bounds[:-1], bounds[1:]))
        values = np.concatenate([part for part, _ in parts])
        discarded = sum(d for _, d in parts)
    values.flags.writeable = False  # so the distribution keeps it without a copy

    return NullDistribution(
        values=values,
        iterations_requested=iterations,
        scheme=scheme,
        master_seed=master_seed,
        degenerate_draws_discarded=discarded,
        source=Source.MONTE_CARLO,
        tie_tolerance=_cell_means_tolerance(sample.y),
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def enumerate_null(sample: PanelSample, scheme: RandomizationScheme) -> NullDistribution:
    """Exact null distribution over every admissible relabeling.

    `randomize.space_size` sizes the space, and refuses one too large,
    before any work; `randomize.enumerate_relabelings` walks it: the
    C(n, ones) arrangements of each relabeled vector under fixed margins,
    all 2**n binary vectors per margin under Bernoulli, both margins for
    the dual scheme.  Degenerate relabelings are counted in
    `degenerate_draws_discarded` and excluded from the values.  The
    values are in increasing order, and the distribution's sorted law is
    filled as they are built.

    The outcomes are centred and scaled (`panel._scaled`) once, for both
    routes.  Every value comes from `panel._product_cells`, which forms
    each block pair's cells from products of its label rows and ends in
    `panel._did_from_cells`, the formula of `did_value` and
    `simulate_null`.  Its values can differ from `did_value` on the same
    labels, so ties that hold in exact arithmetic (the observed labeling,
    the group/time swap of the dual scheme with n_affected = n_time) can
    round apart.  The distribution carries
    `panel._product_cells_tolerance`, within which `randomization_p_value`
    counts them as ties.

    One route differs, chosen by the margins alone: under `Margins.DUAL`
    and `Mode.FIXED_MARGINS` with n_affected = n_time = n/2, a value
    depends on its relabeling only through the agreement set
    D = {i : affected_i = time_i}.  `randomize.enumerate_agreement_sets`
    gives every D of even size with its count of relabelings,
    `panel._agreement_draws` values them all in one call, as it does a
    Monte Carlo block, and the law weighs each estimable value by that
    count, with no walk over the relabelings.  All relabelings of one D
    share one value, and its rounding lies inside the same tie tolerance.

    Raises
    ------
    SpaceTooLargeError
        If the space size exceeds `ENUMERATION_CAP`; use `simulate_null`
        instead.
    ValueError
        If a relabeling's value is not finite (its outcomes overflow the
        float range).
    """
    n = sample.n
    size = space_size(n, sample.n_affected, sample.n_time, scheme)
    outcomes, scale = _scaled(sample.y)
    if is_balanced_dual_fixed(n, sample.n_affected, sample.n_time, scheme):
        c, sets, relabelings = enumerate_agreement_sets(n)
        weights = np.tile(outcomes, len(sets))
        by_set, estimable = _agreement_draws(c, sets, weights, scale, float(np.sum(outcomes)))
        by_set, relabelings = by_set[estimable], relabelings[estimable]
        order = np.argsort(by_set)
        law = _Law(by_set[order], np.concatenate([[0], np.cumsum(relabelings[order])]))
        values = np.repeat(law.support, np.diff(law.below))
    else:
        values = np.empty(size, dtype=np.float64)
        pos = 0
        for affected, time in enumerate_relabelings(sample.affected, sample.time, scheme):
            drawn, estimable = _product_cells(affected, time, outcomes, scale)
            kept = int(np.count_nonzero(estimable))
            np.compress(estimable, drawn, out=values[pos : pos + kept])
            pos += kept
        values.resize(pos, refcheck=False)  # in place: no view of the buffer is left
        values.sort()
        law = _Law(values, np.arange(pos + 1, dtype=np.int32))  # ENUMERATION_CAP < 2**31
    values.flags.writeable = False  # so the distribution keeps it without a copy
    dist = NullDistribution(
        values=values,
        iterations_requested=size,
        scheme=scheme,
        master_seed=None,
        degenerate_draws_discarded=size - values.size,
        source=Source.EXACT_ENUMERATION,
        tie_tolerance=_product_cells_tolerance(sample.y),
    )
    vars(dist)["_law"] = law  # fills the cache of `NullDistribution._law`
    return dist


# ---------------------------------------------------------------------------
# quantiles, decisions, p-values
# ---------------------------------------------------------------------------


def decide(observed: float, lower: float, upper: float) -> bool:
    """Two-sided decision: reject iff `observed` is outside the open (lower, upper)."""
    return bool(observed <= lower or observed >= upper)


def randomization_p_value(observed: float, dist: NullDistribution) -> tuple[float, float]:
    """Two-sided randomization p-value of `observed` against a null distribution.

    Returns (raw, corrected): raw is the fraction of null values v with
    |v| >= |observed| - tol (the exact p-value when the distribution is a
    full enumeration); corrected is (1 + count) / (retained + 1).  The
    count is `_Law.count_as_extreme`, the package's one tie rule.  tol is
    the distribution's `tie_tolerance`, the bound on the rounding of the
    kernel that made its values (`panel._cell_means_tolerance`,
    `panel._product_cells_tolerance`), so values that tie in exact
    arithmetic but round apart count as ties.  Counting more ties can
    only raise p, so the test stays valid.
    """
    if dist.iterations_retained == 0:
        raise ValueError("null distribution is empty")
    if not math.isfinite(observed):
        raise ValueError(f"observed value must be finite, got {observed}")
    count = int(dist._law.count_as_extreme(observed, dist.tie_tolerance))
    m = dist.iterations_retained
    return count / m, (1 + count) / (m + 1)


def test_significance(observed: float, dist: NullDistribution, alpha: float = 0.05) -> TestResult:
    """Quantile-based two-sided significance decision with attached p-values.

    The bounds are the alpha/2 and 1 - alpha/2 quantiles of the null
    values: on the sorted values of length m, quantile q reads off
    position 1 + q*(m - 1), interpolating linearly between neighbouring
    order statistics.  They are read off the distribution's sorted law
    and equal `np.quantile` of the values bit for bit.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    raw, corrected = randomization_p_value(observed, dist)  # checks dist and observed
    lower = dist._law.quantile(alpha / 2.0)
    upper = dist._law.quantile(1.0 - alpha / 2.0)
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
    space.  `p_levels` holds the attainable p-values in increasing order
    and `level_counts` how many relabelings attain each.  Under the sharp
    null the assignment is uniform over the space, so P(p <= alpha) <= alpha
    must hold for every alpha; when all absolute statistic values are
    distinct the levels are {1/m, 2/m, ..., 1}, each attained once.
    The three arrays are held read-only, by the rule of `panel._read_only`.
    """

    n: int
    n_affected: int
    n_time: int
    scheme: RandomizationScheme
    total_relabelings: int
    statistic_values: np.ndarray
    p_levels: np.ndarray
    level_counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "statistic_values", _read_only(self.statistic_values, np.float64))
        object.__setattr__(self, "p_levels", _read_only(self.p_levels, np.float64))
        object.__setattr__(self, "level_counts", _read_only(self.level_counts, np.int64))

    @property
    def estimable_relabelings(self) -> int:
        return int(self.level_counts.sum())

    def rejection_rate(self, alpha: float) -> float:
        """P(p <= alpha) over the uniform assignment law."""
        return float(self.level_counts[self.p_levels <= alpha].sum() / self.estimable_relabelings)

    def worst_violation(self) -> float:
        """max over alpha of P(p <= alpha) - alpha; exactness means <= 0.

        The maximum is taken over the attainable p-value levels, where
        P(p <= alpha) - alpha is piecewise largest.
        """
        rates = np.cumsum(self.level_counts) / self.estimable_relabelings
        return float(np.max(rates - self.p_levels))


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
    given.  The statistics are the values of `enumerate_null`, in
    increasing order.  Each p-value is that of `randomization_p_value` for
    its own statistic.  The audit merges the law's equal points, the one
    reader that does, and reads the p-value once per distinct point; the
    report keeps the p-values as their law: each attained level
    with its count of relabelings.  So relabelings that tie in exact
    arithmetic (sign flips of one margin, the group/time swap of the dual
    scheme with n_affected = n_time, equal cell counts) tie here too,
    and the p-values follow their exact-arithmetic law.

    Raises
    ------
    SpaceTooLargeError
        If the space exceeds `ENUMERATION_CAP` relabelings.
    TypeError
        If n, a margin or `outcome_seed` is not an integer (a float is
        refused, not truncated).
    ValueError
        If a margin is not strictly between 0 and n, or no relabeling in
        the space is estimable (e.g. a margin of 1).
    """
    n, n_affected, n_time = _margins(n, n_affected, n_time)
    space_size(n, n_affected, n_time, scheme)  # refuses a space past the cap before any draw
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

    # One p-value per distinct point: the audit alone merges equal points,
    # at the indices where each distinct point starts, then the end.
    law = dist._law
    starts = np.flatnonzero(np.concatenate([[True], law.support[1:] != law.support[:-1], [True]]))
    merged = _Law(law.support[starts[:-1]], law.below[starts])
    p = merged.count_as_extreme(merged.support, dist.tie_tolerance) / law.below[-1]
    p_levels, level = np.unique(p, return_inverse=True)
    return UniformityReport(
        n=n,
        n_affected=n_affected,
        n_time=n_time,
        scheme=scheme,
        total_relabelings=dist.iterations_requested,
        statistic_values=dist.values,
        p_levels=p_levels,
        level_counts=np.bincount(level, weights=np.diff(merged.below)).astype(np.int64),
    )
