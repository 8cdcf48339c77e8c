"""Shared test oracles, deliberately independent of the library internals.

Everything here recomputes quantities from first principles (pure Python,
itertools, Fraction arithmetic) so library results can be checked against
a second route.  `kernel_stat` writes out the statistic's formula with the
library's documented cell summation and grouping, so simulated and
enumerated values can be compared with it bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np


def brute_force_did(y, time, affected):
    """Four-means DiD via dict grouping; None when a cell is empty."""
    cells = {}
    for yi, ti, ai in zip(y, time, affected):
        cells.setdefault((int(ai), int(ti)), []).append(yi)
    if any((g, t) not in cells for g in (0, 1) for t in (0, 1)):
        return None
    m = {key: sum(vals) / len(vals) for key, vals in cells.items()}
    return (m[(1, 1)] - m[(1, 0)]) - (m[(0, 1)] - m[(0, 0)])


def brute_force_did_fraction(y, time, affected):
    """Exact-rational DiD; None when a cell is empty."""
    cells = {}
    for yi, ti, ai in zip(y, time, affected):
        cells.setdefault((int(ai), int(ti)), []).append(Fraction(float(yi)))
    if any((g, t) not in cells for g in (0, 1) for t in (0, 1)):
        return None
    m = {key: sum(vals) / len(vals) for key, vals in cells.items()}
    return (m[(1, 1)] - m[(1, 0)]) - (m[(0, 1)] - m[(0, 0)])


def arrangements_fixed(n, ones):
    """All 0/1 vectors with `ones` ones, lexicographic by positions of ones."""
    out = []
    for combo in itertools.combinations(range(n), ones):
        vec = [0] * n
        for pos in combo:
            vec[pos] = 1
        out.append(vec)
    return out


def arrangements_bernoulli(n):
    """All 2**n 0/1 vectors in integer order, bit j = observation j."""
    out = []
    for mask in range(1 << n):
        out.append([(mask >> j) & 1 for j in range(n)])
    return out


def canonical_labelings(time, affected, dual, fixed):
    """Every (affected, time) pair of a relabeling space in enumeration order.

    Affected-major; arrangements lexicographic (fixed margins) or in
    integer order (Bernoulli); under affected-only margins the time
    vector is `time` itself.
    """
    n = len(time)
    if fixed:
        a_space = arrangements_fixed(n, int(np.sum(affected)))
        t_space = arrangements_fixed(n, int(np.sum(time))) if dual else [list(time)]
    else:
        a_space = arrangements_bernoulli(n)
        t_space = arrangements_bernoulli(n) if dual else [list(time)]
    return [(a_vec, t_vec) for a_vec in a_space for t_vec in t_space]


def enumerate_brute_force(y, time, affected, dual, fixed):
    """All relabeled DiD values in canonical order; None marks degenerate draws."""
    return [brute_force_did(y, t, a) for a, t in canonical_labelings(time, affected, dual, fixed)]


def enumerate_kernel(y, time, affected, dual, fixed):
    """`kernel_stat` of every estimable labeling in canonical order, and the degenerate count."""
    values = []
    degenerate = 0
    for a_vec, t_vec in canonical_labelings(time, affected, dual, fixed):
        if np.bincount(2 * np.asarray(a_vec) + np.asarray(t_vec), minlength=4).all():
            values.append(kernel_stat(y, t_vec, a_vec))
        else:
            degenerate += 1
    return np.array(values, dtype=np.float64), degenerate


def exact_p_law_fraction(y, label_pairs):
    """Exact-rational two-sided p-value law over estimable relabelings.

    `label_pairs` is the full list of (affected, time) vectors; returns the
    sorted list of Fraction p-values over the estimable subset.
    """
    stats = []
    for a_vec, t_vec in label_pairs:
        value = brute_force_did_fraction(y, t_vec, a_vec)
        if value is not None:
            stats.append(abs(value))
    stats.sort()
    m = len(stats)
    # the count of others >= s is m minus the count strictly below s
    return sorted(Fraction(m - bisect.bisect_left(stats, s), m) for s in stats)


def audit_p_values(report):
    """One p-value per estimable relabeling of an audit, in increasing order: its levels repeated."""
    return np.repeat(report.p_levels, report.level_counts)


def sup_cdf_distance(sample_values, exact_values):
    """Sup-norm distance between two empirical CDFs, evaluated at all atoms."""
    atoms = np.unique(np.concatenate([sample_values, exact_values]))
    s = np.sort(sample_values)
    e = np.sort(exact_values)
    right = np.abs(
        np.searchsorted(s, atoms, side="right") / s.size
        - np.searchsorted(e, atoms, side="right") / e.size
    )
    left = np.abs(
        np.searchsorted(s, atoms, side="left") / s.size
        - np.searchsorted(e, atoms, side="left") / e.size
    )
    return float(max(right.max(), left.max()))


def merge_ties(tol, *samples):
    """Each sample with every value moved to the least value of its tie class.

    The values of all samples, sorted, form classes from the least up: a
    class takes every value within `tol` of its least value, and the next
    value starts a new class.  So values that tie within `tol` become one
    atom, whichever kernel rounded them, and no class spans more than
    `tol` (neighbours do not chain).
    """
    atoms = np.unique(np.concatenate(samples))
    least = np.empty_like(atoms)
    anchor = atoms[0]
    for i, atom in enumerate(atoms):
        if atom > anchor + tol:
            anchor = atom
        least[i] = anchor
    return [least[np.searchsorted(atoms, s)] for s in samples]


def adversarial_outcomes(kind, n=20):
    """Outcomes that stress a kernel's rounding.

    "offset": a large common offset; "powers": partial sums on and around
    powers of two; "huge": centred sums past the float range.
    """
    rng = np.random.default_rng(7)
    if kind == "offset":
        return 1e6 + rng.standard_normal(n)
    if kind == "powers":  # partial sums land on and around powers of two
        signs = rng.choice([-1.0, 1.0], n)
        return signs * 2.0 ** rng.integers(-3, 4, n) * (1 + rng.uniform(-1e-9, 1e-9, n))
    y = rng.standard_normal(n)  # "huge": centred sums pass the float range
    y[:2] = 8e307, -8e307
    return y


def range_outcomes(n):
    """Outcomes near the largest that ingest accepts: twice the sum of their |y| just finite."""
    rng = np.random.default_rng(9)
    scale = np.finfo(np.float64).max / (2 * n)
    return rng.choice([-1.0, 1.0], n) * rng.uniform(0.9, 0.999, n) * scale


def random_estimable_sample(rng, n_min=8, n_max=24):
    """Random PanelSample guaranteed estimable under its original labels."""
    from didperm import PanelSample

    n = int(rng.integers(n_min, n_max + 1))
    while True:
        time = rng.integers(0, 2, size=n)
        affected = rng.integers(0, 2, size=n)
        idx = 2 * affected + time
        if np.bincount(idx, minlength=4).all():
            break
    y = rng.normal(size=n)
    return PanelSample(y=y, time=time, affected=affected)


def mock_distribution(values):
    """A Monte Carlo null of `values` under dual fixed margins: seed 0, no draw discarded."""
    from didperm import Margins, Mode, NullDistribution, RandomizationScheme, Source

    values = np.asarray(values, dtype=np.float64)
    return NullDistribution(
        values=values,
        iterations_requested=values.size,
        scheme=RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS),
        master_seed=0,
        degenerate_draws_discarded=0,
        source=Source.MONTE_CARLO,
    )


def inline_pool(sizes):
    """A stand-in for `ProcessPoolExecutor` that starts no process.

    Each pool appends its `max_workers` to `sizes` and maps in this
    process.  It never calls `initializer`, which is meant for a worker.
    """

    class InlinePool:
        def __init__(self, max_workers=None, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return InlinePool


def documented_block_rows(n):
    """Iterations per stream block, B = max(1, 8192 // n)."""
    return max(1, 8192 // n)


def raw_words(rng, count):
    """The next `count` raw 64-bit words of `rng`'s bit stream, as Python ints."""
    return rng.bit_generator.random_raw(count).tolist()


def smallest_positions(words, m):
    """Positions of the m smallest of `words`, equal words ranked by position."""
    return [pos for _, pos in sorted(zip(words, range(len(words))))[:m]]


def _replay_margin(rng, labels, fixed):
    """One relabeling of `labels` drawn from `rng` as the stream contract documents.

    A Bernoulli row, at every n (block-v4), is the first n bits of
    ceil(n/64) raw words, bit j mod 64 of word j // 64.  A fixed-margin
    row gives the m positions of the rarer label (at a tie, the label of
    observation 0) that label, and the other label everywhere else.  Up
    to n = 4096 (multi-row blocks, block-v4) the positions are those of
    the m smallest of n raw words; past it (one-row blocks, block-v2)
    they are a `choice`.
    """
    n = len(labels)
    if not fixed:
        words = raw_words(rng, -(-n // 64))
        return np.array([(words[j // 64] >> (j % 64)) & 1 for j in range(n)], dtype=np.int64)
    ones = int(np.sum(labels))
    if 2 * ones == n:
        rare = int(labels[0])
    else:
        rare = 1 if 2 * ones < n else 0
    m = min(ones, n - ones)
    if documented_block_rows(n) > 1:
        positions = smallest_positions(raw_words(rng, n), m)
    else:
        positions = rng.choice(n, m, replace=False, shuffle=False).tolist()
    row = [1 - rare] * n
    for pos in positions:
        row[pos] = rare
    return np.array(row, dtype=np.int64)


def count_cdf(n):
    """P(c <= k), k = 0 .. n/2, exactly: c = |A & T| of a uniform balanced dual relabeling.

    c is hypergeometric (n/2 good, n/2 bad, n/2 drawn): P(c = k) =
    C(n/2, k)**2 / C(n, n/2).
    """
    h = n // 2
    total = math.comb(n, h)
    return list(itertools.accumulate(Fraction(math.comb(h, k) ** 2, total) for k in range(h + 1)))


def balanced_dual_fixed(sample, dual, fixed):
    """Whether a run of `sample` draws agreement sets: dual fixed margins, both n/2."""
    n = len(sample.y)
    return dual and fixed and 2 * int(np.sum(sample.affected)) == n == 2 * int(np.sum(sample.time))


def labeling_of(agreement, c):
    """A relabeling whose agreement set is `agreement` (2c members) and |A & T| = c.

    A & T takes the first c members of the set in observation order, and
    A & not T the first n/2 - c of the others; so both margins are n/2.
    """
    n = len(agreement)
    inside = [i for i in range(n) if agreement[i]]
    outside = [i for i in range(n) if not agreement[i]]
    affected, time = [0] * n, [0] * n
    for i in inside[:c]:
        affected[i] = time[i] = 1
    for i in outside[: n // 2 - c]:
        affected[i] = 1
    for i in outside[n // 2 - c :]:
        time[i] = 1
    return np.array(affected), np.array(time)


def agreement_did_fraction(y, affected, time):
    """S_D/c - S_(not D)/(n/2 - c) in exact rationals, D = {i : affected_i = time_i}, c = |A & T|.

    The DiD of a labeling with both margins n/2; None when a cell is empty.
    """
    n = len(y)
    c = sum(int(a) & int(t) for a, t in zip(affected, time))
    if not 0 < c < n // 2:
        return None
    inside = sum(Fraction(float(v)) for v, a, t in zip(y, affected, time) if a == t)
    outside = sum(Fraction(float(v)) for v, a, t in zip(y, affected, time) if a != t)
    return inside / c - outside / (n // 2 - c)


def agreement_draws_bound(y):
    """(3n + 4)*eps*max|y - c|, c the midrange: the rounding bound of an agreement-set value.

    `panel._agreement_draws` derives it for one-row blocks, and for
    indicator rows (multi-row blocks and enumeration) the tighter
    (n + 5)*eps*max|y - c|.
    """
    y = np.asarray(y, dtype=np.float64)
    spread = float(np.max(np.abs(y - (0.5 * y.max() + 0.5 * y.min()))))
    return (3 * y.size + 4) * float(np.finfo(np.float64).eps) * spread


def _replay_agreement_set(rng, n, c, agrees):
    """The agreement set of one balanced row with count c, as a 0/1 list.

    Multi-row blocks (block-v4): G is the 2c smallest of n raw words.
    One-row blocks (block-v3): a `choice` of min(2c, n - 2c) positions,
    which are G when 4c <= n and its complement otherwise.  The agreement
    set is G when observation 0's observed labels agree, else not G.
    """
    inside = [0] * n
    if documented_block_rows(n) > 1:
        for pos in smallest_positions(raw_words(rng, n), 2 * c):
            inside[pos] = 1
    else:
        for pos in rng.choice(n, min(2 * c, n - 2 * c), replace=False, shuffle=False).tolist():
            inside[pos] = 1
        if 4 * c > n:
            inside = [1 - bit for bit in inside]
    return inside if agrees else [1 - bit for bit in inside]


def _replay_counts(rng, n, rows):
    """The counts c of `rows` balanced rows: every count before any set.

    Multi-row blocks (block-v4): c is the number of thresholds
    floor(2**64 * P(c <= k)), k < n/2, at or below one raw word.  One-row
    blocks (block-v3): a `hypergeometric` draw.
    """
    half = n // 2
    if documented_block_rows(n) == 1:
        return rng.hypergeometric(half, half, half, size=rows).tolist()
    thresholds = [math.floor(p * 2**64) for p in count_cdf(n)[:-1]]
    return [sum(t <= word for t in thresholds) for word in raw_words(rng, rows)]


def _replay_agreement_rows(rng, sample, rows):
    """`rows` balanced relabelings from `rng`: every count c first, then each row's set."""
    n = len(sample.y)
    agrees = int(sample.affected[0]) == int(sample.time[0])
    out = []
    for c in _replay_counts(rng, n, rows):
        agreement = _replay_agreement_set(rng, n, c, agrees)
        out.append(labeling_of(agreement, c if agrees else n // 2 - c))
    return out


def replay_block(sample, dual, fixed, master_seed, block, rows, max_attempts=1000):
    """Replay one simulation block row by row from its documented draw order.

    Block `block` reads generator_for(master_seed, block): the
    affected labels of all `rows` rows, then (dual) the time labels of all
    rows; then each degenerate row, in row order, redraws affected and
    (dual) time from the same stream until estimable.  Where
    `balanced_dual_fixed` holds, the main draw is each row's count c = |A & T|,
    then each row's agreement set, and a redraw is one count and one set;
    a row is given as the relabeling `labeling_of` its set.  Returns
    (labels, discarded, failed_row): `labels` lists the final
    (affected, time) pair per row, and `failed_row` is the first row that
    exhausted `max_attempts` (None when every row is estimable).
    """
    from didperm import generator_for

    rng = generator_for(master_seed, block)
    if balanced_dual_fixed(sample, dual, fixed):
        pairs = _replay_agreement_rows(rng, sample, rows)

        def redraw():
            return _replay_agreement_rows(rng, sample, 1)[0]

    else:
        affected = [_replay_margin(rng, sample.affected, fixed) for _ in range(rows)]
        if dual:
            time = [_replay_margin(rng, sample.time, fixed) for _ in range(rows)]
        else:
            time = [sample.time] * rows
        pairs = list(zip(affected, time))

        def redraw():
            a = _replay_margin(rng, sample.affected, fixed)
            return a, _replay_margin(rng, sample.time, fixed) if dual else sample.time

    discarded = 0
    for row in range(rows):
        attempts = 1
        while brute_force_did(sample.y, pairs[row][1], pairs[row][0]) is None:
            if attempts == max_attempts:
                return pairs, discarded, row
            pairs[row] = redraw()
            attempts += 1
        discarded += attempts - 1
    return pairs, discarded, None


def kernel_stat(y, time, affected):
    """DiD of one labeling: cells summed in observation order, grouped as in the library.

    Cell index is 2*affected + time; the value is
    (s3/c3 - s2/c2) - (s1/c1 - s0/c0) on the cell counts c and sums s.
    """
    idx = 2 * np.asarray(affected, dtype=np.int64) + np.asarray(time, dtype=np.int64)
    c0, c1, c2, c3 = np.bincount(idx, minlength=4).tolist()
    s0, s1, s2, s3 = np.bincount(idx, weights=y, minlength=4).tolist()
    return (s3 / c3 - s2 / c2) - (s1 / c1 - s0 / c0)


def replay_run(sample, dual, fixed, master_seed, iterations):
    """Per-block replays of a whole simulate_null run: [(labels, discarded), ...]."""
    rows_per_block = documented_block_rows(len(sample.y))
    out = []
    for block, lo in enumerate(range(0, iterations, rows_per_block)):
        rows = min(rows_per_block, iterations - lo)
        labels, discarded, failed = replay_block(sample, dual, fixed, master_seed, block, rows)
        assert failed is None
        out.append((labels, discarded))
    return out


# Bytes a spreadsheet export or a damaged file can hold: invalid UTF-8, a
# Latin-1 e-acute, NUL, a bare carriage return, a byte-order mark.
SPLICES = [b"\xff", b"\xe9", b"\x00", b"\r", b"\xef\xbb\xbf"]
