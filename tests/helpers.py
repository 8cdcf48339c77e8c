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


def documented_block_rows(n):
    """Iterations per stream block, B = max(1, min(4096, 2**13 // n))."""
    return max(1, min(4096, 2**13 // n))


def _replay_margin(rng, labels, fixed):
    """One relabeling of `labels` drawn from `rng` as the stream contract documents.

    Up to n = 4096 (multi-row blocks) a fixed-margin row is a shuffle.
    Past it (one-row blocks, block-v2) it is a `choice` of the m positions
    of the rarer label (at a tie, the label of observation 0) with the
    other label everywhere else.
    """
    n = len(labels)
    if not fixed:
        return (rng.random(n) < 0.5).astype(np.int64)
    if documented_block_rows(n) > 1:
        return rng.permutation(labels)
    ones = int(np.sum(labels))
    if 2 * ones == n:
        rare = int(labels[0])
    else:
        rare = 1 if 2 * ones < n else 0
    positions = rng.choice(n, min(ones, n - ones), replace=False, shuffle=False)
    row = [1 - rare] * n
    for pos in positions.tolist():
        row[pos] = rare
    return np.array(row, dtype=np.int64)


def replay_block(sample, dual, fixed, master_seed, block, rows, max_attempts=1000):
    """Replay one simulation block row by row from its documented draw order.

    Block `block` reads generator_for(master_seed, block): the
    affected labels of all `rows` rows, then (dual) the time labels of all
    rows; then each degenerate row, in row order, redraws affected and
    (dual) time from the same stream until estimable.  Returns
    (labels, discarded, failed_row): `labels` lists the final
    (affected, time) pair per row, and `failed_row` is the first row that
    exhausted `max_attempts` (None when every row is estimable).
    """
    from didperm import generator_for

    rng = generator_for(master_seed, block)
    affected = [_replay_margin(rng, sample.affected, fixed) for _ in range(rows)]
    if dual:
        time = [_replay_margin(rng, sample.time, fixed) for _ in range(rows)]
    else:
        time = [sample.time] * rows
    discarded = 0
    for row in range(rows):
        attempts = 1
        while brute_force_did(sample.y, time[row], affected[row]) is None:
            if attempts == max_attempts:
                return list(zip(affected, time)), discarded, row
            affected[row] = _replay_margin(rng, sample.affected, fixed)
            if dual:
                time[row] = _replay_margin(rng, sample.time, fixed)
            attempts += 1
        discarded += attempts - 1
    return list(zip(affected, time)), discarded, None


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
