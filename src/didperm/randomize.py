"""Relabeling of (time, affected) vectors under deterministic, parallel-safe seeding.

Two axes configure a randomization scheme:

* margins -- relabel only the `affected` vector (the conventional baseline)
  or both `affected` and `time` (the dual scheme).
* mode -- `FIXED_MARGINS` draws a uniformly random rearrangement of each
  relabeled vector, preserving its count of ones exactly; `BERNOULLI`
  redraws every label independently as a fair coin flip.

`draw_relabelings` draws a matrix of relabeled affected vectors and one
of time vectors, a row per relabeling, from a given generator; a single
relabeling is a one-row draw.  Its rows feed the statistic kernel
`panel._block_cells`.  On a balanced dual fixed-margin space
(`is_balanced_dual_fixed`) a relabeling's DiD depends on it only through
its agreement set, and `draw_agreement_sets` draws that set directly for
the kernel `panel._agreement_draws`.  `space_size` sizes the whole
relabeling space from its margins and refuses one past `ENUMERATION_CAP`;
`enumerate_relabelings` walks it, as pairs of an affected block and a
time block whose row products `panel._product_cells` turns into values.
A balanced dual fixed-margin space is walked through its agreement sets
instead: `enumerate_agreement_sets`, the enumeration twin of
`draw_agreement_sets`, gives every set of even size, for
`panel._agreement_draws` to value, with the relabelings that have it.

Randomness is counter-based.  Simulation iterations are drawn in blocks of
B = `stream_block_rows(n)` = max(1, 8192 // n) rows: iteration k (1-based)
is row (k - 1) mod B of block (k - 1) // B, and block b reads the Philox
stream `generator_for(master_seed, b)`.  A block draws its whole affected
matrix first, then its time matrix (dual scheme); degenerate rows are
redrawn from the same stream after that main draw, in row order.  No
block's stream depends on another's, so blocks can be produced
concurrently and in any order with identical results.  A run of blocks
reads those streams from one generator re-keyed per block
(`_block_streams`), which gives the words of a fresh `generator_for`.

How a row is drawn is part of that contract, named by
`_stream_contract`, and depends on n alone.  A Bernoulli row at every n
takes the first n bits of ceil(n/64) raw Philox words (`_bits`), as it
did under block-v4.  Up to n = 4096 (B > 1, contract block-v5) every
other draw reads raw words too (`bit_generator.random_raw`), whose stream
NEP 19 keeps fixed across numpy versions, and so calls no `Generator`
method: a fixed-margin row marks the m smallest of n 32-bit keys, the
halves of ceil(n/2) words (`_smallest_keys`), and a balanced dual row
takes c = |A & T| by inverse CDF from one 64-bit word
(`_count_thresholds`) and its agreement set as the 2c smallest of n
32-bit keys.  Equal keys at a row's cut, about n / 2**32 likely per row,
are ranked by position, and that probability bounds the row's distance
from the uniform law in total variation.  Block-v5 differs from
block-v4, which read one 64-bit word per key, in those keys alone: the
values, and `didperm test` reports, of fixed-margin runs at n <= 4096
changed with it, and those of Bernoulli runs and one-row blocks did
not.  Past n = 4096 (B = 1) fixed-margin
rows keep numpy's algorithms: a row is a uniform subset of the
positions of the rarer label, `Generator.choice(n, m, replace=False,
shuffle=False)` (contract block-v2), and a balanced dual row one
`hypergeometric` count and one `choice` (block-v3).  See `_draw_margin`
and `draw_agreement_sets`.

Every label vector here is int8, the format of `PanelSample`'s labels.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SpaceTooLargeError
from .spaces import LN2, log_binomial

__all__ = [
    "Margins",
    "Mode",
    "RandomizationScheme",
    "generator_for",
    "derive_seed",
]

_MASK64 = (1 << 64) - 1

# Label entries per margin in one stream block (see `stream_block_rows`).  Block
# arrays are short-lived but set the peak memory of short runs: 2**17 was
# no faster and raised it by about 14%.
_BLOCK_ENTRIES = 2**13

# Largest space `enumerate_relabelings` walks.  9.4M relabelings (n=18,
# dual, margins 4 and 4) took 0.5-0.65 s on a 2-vCPU host with numpy 2.4,
# and their values alone take 75 MB.
ENUMERATION_CAP = 10_000_000

# Relabelings times n per block during enumeration (see `enumerate_relabelings`).
# Medians of two sets of interleaved runs on a 2-vCPU host, numpy 2.4, for
# 2**17, 2**18 and 2**19: n=9 dual/Bernoulli 9.1-12.8, 9.2-11.7 and
# 10.1-12.2 ms; n=12 dual/fixed, margins 4 and 4, 9.0-12.7, 8.3-11.2 and
# 8.7-10.4 ms; n=20 affected-only fixed, margin 10, 75-108 ms for all three.
# None was faster on all three spaces.
_ENUM_ENTRIES = 2**18


class Margins(Enum):
    """Which label vectors are relabeled."""

    AFFECTED_ONLY = "affected"
    DUAL = "dual"


class Mode(Enum):
    """How each relabeled vector is drawn."""

    FIXED_MARGINS = "fixed"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class RandomizationScheme:
    """A (margins, mode) pair selecting the relabeling behaviour."""

    margins: Margins = Margins.DUAL
    mode: Mode = Mode.FIXED_MARGINS

    def __post_init__(self):
        if not isinstance(self.margins, Margins):
            object.__setattr__(self, "margins", Margins(self.margins))
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))


def generator_for(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """Fresh Generator for the stream (master_seed, stream_index).

    `simulate_null` keys block b of a run by (master_seed, b).  A stream
    does not depend on evaluation order or on any other stream.  Either
    argument may be a Python or numpy integer; a float raises TypeError.
    """
    if not 0 <= operator.index(master_seed) <= _MASK64:
        raise ValueError("master_seed must be an unsigned 64-bit integer")
    if not 0 <= operator.index(stream_index) <= _MASK64:
        raise ValueError("stream_index must be a non-negative 64-bit integer")
    key = np.array([master_seed, stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Mix a master seed with integer indices into a fresh 64-bit sub-seed.

    Used to carve independent seeding domains (e.g. one per replication of
    a simulation study) out of one user-supplied seed without coordination.
    """
    state = _splitmix64(master_seed & _MASK64)
    for ix in indices:
        state = _splitmix64(state ^ _splitmix64(ix & _MASK64))
    return state


def stream_block_rows(n: int) -> int:
    """Iterations per stream block for an n-observation panel: B = max(1, 8192 // n).

    Holds a block near 2**13 label entries per margin, so block memory
    stays bounded for every n; it depends on n alone, never on worker
    count or iteration count.
    """
    return max(1, _BLOCK_ENTRIES // n)


def _block_streams(master_seed: int, blocks) -> Iterator[tuple[int, np.random.Generator]]:
    """Each block b of `blocks`, with the stream `generator_for(master_seed, b)` on one Generator.

    Philox is keyed and counter-based, so setting the key (master_seed, b)
    on one instance, with counter 0, an empty buffer and no 32-bit half
    held back, gives the stream of a fresh instance with that key.  A run
    of blocks builds one Philox and one Generator and re-keys them through
    `bit_generator.state` per block: about 2 us against 11-17 us for
    `generator_for`, which first seeds a throwaway `SeedSequence` (2-vCPU
    host, numpy 2.4).  The
    Generator yielded for one block is re-keyed for the next, so it is
    read before the iteration goes on.
    """
    rng = generator_for(master_seed)
    bit_generator = rng.bit_generator
    state = bit_generator.state  # counter 0, buffer empty, has_uint32 0
    key = state["state"]["key"]
    for block in blocks:
        key[1] = block
        bit_generator.state = state
        yield block, rng


def _smallest_keys(rng: np.random.Generator, n: int, counts: np.ndarray) -> np.ndarray:
    """(rows, n) bool: in row r, the counts[r] smallest of n 32-bit keys from raw Philox words.

    One row per entry of the (rows,) int array `counts`, each in [0, n].
    Row r reads the next ceil(n/2) words of `rng.bit_generator.random_raw`,
    rows in order, and its key j is half j of them: word j // 2, low 32
    bits first, whatever the host's byte order; an odd n drops the last
    word's high half.  A row's keys depend on its own words alone, so a
    one-row redraw reads them as a block's main draw does.

    A row sort finds each row's (m+1)-th smallest key, m = counts[r], and
    the keys below it are marked.  Two equal keys at that cut, about
    n / 2**32 likely per row (about 1e-6 at n = 4096), would leave the row
    short of m; such a row, and a row with m = n, is marked by a stable
    argsort instead, which ranks equal keys by position.  So every row
    marks exactly m keys.  The keys are exchangeable, so a row with no tie
    at its cut marks a uniform m-subset, and the law of a row lies within
    that tie probability of the uniform law in total variation.
    """
    rows = counts.size
    words = rng.bit_generator.random_raw(rows * -(-n // 2)).reshape(rows, -1)
    keys = words.astype("<u8", copy=False).view("<u4")[:, :n]
    ordered = np.sort(keys, axis=1)
    at = np.arange(rows)
    last, cut = ordered[at, np.maximum(counts, 1) - 1], ordered[at, np.minimum(counts, n - 1)]
    marked = keys < cut[:, None]
    short = (last == cut) & (counts > 0)
    if short.any():
        for row in np.flatnonzero(short).tolist():
            marked[row, np.argsort(keys[row], kind="stable")[: counts[row]]] = True
    return marked


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) int8: in row r, bit j mod 64 of words[r, j // 64] for j < n, bit 0 the least significant.

    The bytes of each uint64 word are read little-endian, whatever the
    host's byte order, so a row is the same on every host.
    """
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(np.int8)


def _draw_margin(
    rng: np.random.Generator, labels: np.ndarray, mode: Mode, rows: int
) -> np.ndarray:
    """`rows` independent int8 relabelings of the 0/1 vector `labels`, one per row.

    FIXED_MARGINS rows are uniformly random rearrangements of `labels`, so
    each keeps its count of ones exactly; BERNOULLI rows are n independent
    fair coin flips and read only the length of `labels`.
    Rows are drawn from `rng` in row order.

    A Bernoulli row, at every n (stream contract block-v5, whose Bernoulli
    rows are block-v4's), takes the first n bits of ceil(n/64) raw Philox
    words (`_bits`): observation j is bit j mod 64 of word j // 64, bit 0
    the least significant.

    A fixed-margin row gives the m = min(ones, n - ones) positions of the
    rarer label that label, or at a tie the label of observation 0, and
    the other label everywhere else; so `1 - labels` draws the same
    positions, and flipping a margin's labels flips every row.  How the
    positions are drawn depends on n alone:

    * while `stream_block_rows(n)` > 1 (block-v5), they are the m
      smallest of n 32-bit keys, the halves of ceil(n/2) raw Philox
      words, equal keys at the cut (about n / 2**32 likely per row)
      ranked by position (`_smallest_keys`);
    * once it is 1 (n > 4096, block-v2), they are one
      `Generator.choice(n, m, replace=False, shuffle=False)`.
    """
    n = labels.size
    if mode is Mode.BERNOULLI:
        # A fair coin, not a setting: `space_size` and `_arrangements` count 2**n equal vectors.
        return _bits(rng.bit_generator.random_raw(rows * -(-n // 64)).reshape(rows, -1), n)
    ones = int(labels.sum())
    drawn = int(labels[0]) if 2 * ones == n else int(2 * ones < n)
    m = min(ones, n - ones)
    if stream_block_rows(n) > 1:
        marked = _smallest_keys(rng, n, np.full(rows, m))
        return (marked if drawn else ~marked).view(np.int8)
    out = np.full((rows, n), 1 - drawn, dtype=np.int8)
    for row in out:
        row[rng.choice(n, m, replace=False, shuffle=False)] = drawn
    return out


def draw_relabelings(
    rng: np.random.Generator,
    affected: np.ndarray,
    time: np.ndarray,
    scheme: RandomizationScheme,
    rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(affected, time) label matrices of `rows` relabelings drawn from `rng`.

    The affected matrix is drawn first, then the time matrix in the dual
    scheme; under AFFECTED_ONLY every time row is `time` itself.
    """
    new_affected = _draw_margin(rng, affected, scheme.mode, rows)
    if scheme.margins is Margins.DUAL:
        return new_affected, _draw_margin(rng, time, scheme.mode, rows)
    return new_affected, np.broadcast_to(time, (rows, time.size))


def is_balanced_dual_fixed(
    n: int, n_affected: int, n_time: int, scheme: RandomizationScheme
) -> bool:
    """Whether a relabeling's DiD depends on it only through its agreement set.

    That holds under dual fixed margins with n_affected = n_time = n/2:
    cells 0 and 3 then both hold c = |A & T| observations and cells 1 and
    2 both hold n/2 - c (`panel._agreement_draws`).
    """
    balanced = 2 * n_affected == n == 2 * n_time
    return balanced and scheme.margins is Margins.DUAL and scheme.mode is Mode.FIXED_MARGINS


def _stream_contract(n: int, n_affected: int, n_time: int, scheme: RandomizationScheme) -> str:
    """The name of the rules by which `simulate_null` draws a run's rows.

    block-v5 while blocks hold several rows (n <= 4096), and for
    Bernoulli runs at every n: every draw from raw Philox words
    (`_draw_margin`, `draw_agreement_sets`), ranks from 32-bit keys
    (`_smallest_keys`).  Its Bernoulli rows are block-v4's.  Fixed-margin
    runs whose blocks hold one row are block-v3 at balanced dual fixed
    margins (`draw_agreement_sets`) and block-v2 otherwise (`_draw_margin`).
    """
    if stream_block_rows(n) > 1 or scheme.mode is Mode.BERNOULLI:
        return "block-v5"
    return "block-v3" if is_balanced_dual_fixed(n, n_affected, n_time, scheme) else "block-v2"


@functools.lru_cache(maxsize=16)
def _count_thresholds(n: int) -> np.ndarray:
    """uint64 T_0 .. T_{h-1}, T_k = floor(2**64 * P(c <= k)) for c hypergeometric(h, h, h), h = n/2.

    P(c = k) = C(h, k)**2 / C(n, h), and the squares sum to C(n, h).  The
    binomials come from the integer recurrence C(h, k + 1) =
    C(h, k)*(h - k)/(k + 1), so every T_k is exact; T_h = 2**64 is left
    out.  A table costs about 9 ms at n = 4096, so it is cached by n, read
    only, rather than built per block.
    """
    h = n // 2
    binomials = [1]
    for k in range(h):
        binomials.append(binomials[-1] * (h - k) // (k + 1))
    cumulative = list(itertools.accumulate(b * b for b in binomials))
    total = cumulative.pop()
    table = np.array([(s << 64) // total for s in cumulative], dtype=np.uint64)
    table.flags.writeable = False
    return table


def draw_agreement_sets(
    rng: np.random.Generator, n: int, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """c = |A & T| of `rows` balanced dual fixed-margin relabelings, and a set G of 2c for each.

    At n_affected = n_time = n/2 the count c of a uniform relabeling is
    hypergeometric (n/2 good, n/2 bad, n/2 drawn), and given c its
    agreement set is a uniform 2c-subset of the n observations, by
    exchangeability.  So a block first draws c for all its rows, then G
    row by row:

    * while `stream_block_rows(n)` > 1 (stream contract block-v5), c is
      the inverse CDF of one 64-bit raw Philox word per row,
      `searchsorted(_count_thresholds(n), word, "right")`, and G, given by
      its (rows, n) bool indicator, is the 2c smallest of n 32-bit keys
      per row, the halves of ceil(n/2) raw words, equal keys at the cut
      (about n / 2**32 likely per row) ranked by position
      (`_smallest_keys`);
    * once it is 1 (n > 4096, so `rows` is 1; block-v3), c is one
      `Generator.hypergeometric(n/2, n/2, n/2)` and G is given by the
      positions of the smaller of G and its complement: one
      `Generator.choice(n, m, replace=False, shuffle=False)` of m =
      min(2c, n - 2c) positions, which are G itself when 4c <= n.

    Rows with c = 0 or c = n/2 empty two cells.  G is the agreement set
    when observation 0's observed labels agree (affected_0 = time_0),
    and its complement, of the same law, when they differ
    (`inference._simulate_chunk`); so swapping the labels of one margin
    negates every value.
    """
    if stream_block_rows(n) > 1:
        words = rng.bit_generator.random_raw(rows)
        c = np.searchsorted(_count_thresholds(n), words, side="right")
        return c, _smallest_keys(rng, n, 2 * c)
    half = n // 2
    c = rng.hypergeometric(half, half, half, size=rows)
    (size,) = (2 * c).tolist()
    return c, rng.choice(n, min(size, n - size), replace=False, shuffle=False)


def _combinations(n: int, ones: int, block_rows: int):
    """The C(n, ones) position sets of `ones` ones among n, lexicographic, in (rows, ones) intp blocks."""
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), ones))
    total = math.comb(n, ones)
    for start in range(0, total, block_rows):
        rows = min(block_rows, total - start)
        yield np.fromiter(combos, dtype=np.intp, count=rows * ones).reshape(rows, ones)


def _arrangements(n: int, ones: int, mode: Mode, block_rows: int):
    """Every relabeling of one margin in canonical order, in int8 blocks of `block_rows` rows.

    Fixed margins: the C(n, ones) arrangements, lexicographic in the
    positions of their ones.  Bernoulli: all 2**n binary vectors in
    integer order (bit j = observation j, as `_bits` reads it).
    """
    if mode is Mode.FIXED_MARGINS:
        for positions in _combinations(n, ones, block_rows):
            block = np.zeros((len(positions), n), dtype=np.int8)
            block[np.arange(len(positions))[:, None], positions] = 1
            yield block
        return
    for start in range(0, 1 << n, block_rows):
        yield _bits(np.arange(start, min(start + block_rows, 1 << n), dtype=np.uint64)[:, None], n)


def enumerate_relabelings(
    affected: np.ndarray, time: np.ndarray, scheme: RandomizationScheme
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A lazy walk over all of the space `draw_relabelings` draws from.

    The walk yields (affected, time) label blocks of shapes (ra, n) and
    (rt, n), whose ra*rt row pairs, affected-major, are relabelings; in
    all it visits the space, of `space_size` relabelings, in the canonical
    order of `_arrangements`, affected-major.  It does not check the size
    against `ENUMERATION_CAP`: callers size the space first.
    """
    n = affected.size
    # A block pairs a run of affected arrangements with a run of time
    # arrangements, about _ENUM_ENTRIES // n relabelings in all.  The time
    # side is split only when one affected row against all of it exceeds that.
    if scheme.margins is Margins.DUAL:
        step = max(1, _ENUM_ENTRIES // n)
        t_blocks = list(_arrangements(n, int(time.sum()), scheme.mode, step))
    else:
        t_blocks = [time[None, :]]
    t_rows = sum(block.shape[0] for block in t_blocks)
    a_rows = max(1, _ENUM_ENTRIES // (t_rows * n))
    for a_block in _arrangements(n, int(affected.sum()), scheme.mode, a_rows):
        for t_block in t_blocks:
            yield a_block, t_block


def enumerate_agreement_sets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every agreement set of the balanced dual fixed-margin space: (c, sets, relabelings).

    The enumeration twin of `draw_agreement_sets`: the 0/1 rows of every
    set D of even size 2c (c = 0 and n/2, which empty two cells,
    included), in the integer order of `_arrangements` under Bernoulli.
    D is the agreement set of C(2c, c) * C(n - 2c, n/2 - c) relabelings:
    the affected ones inside D pick c of its members, those outside
    n/2 - c of the rest.  Sets of odd size have none, so these sum to
    C(n, n/2)**2.
    """
    (sets,) = _arrangements(n, 0, Mode.BERNOULLI, 1 << n)
    members = sets.sum(axis=1)
    even = members % 2 == 0
    c = members[even] // 2
    by_size = [math.comb(2 * k, k) * math.comb(n - 2 * k, n // 2 - k) for k in range(n // 2 + 1)]
    return c, sets[even], np.array(by_size, dtype=np.int64)[c]


def space_size(n: int, n_affected: int, n_time: int, scheme: RandomizationScheme) -> int:
    """Relabelings of n observations with margins (n_affected, n_time) under `scheme`.

    Each relabeled margin contributes C(n, ones) arrangements (fixed) or
    2**n vectors (Bernoulli).  Raises SpaceTooLargeError if the size
    exceeds `ENUMERATION_CAP`.  The log-gamma log-size decides first, so
    a space far past the cap is never sized in big integers.
    """
    ones = (n_affected, n_time) if scheme.margins is Margins.DUAL else (n_affected,)
    fixed = scheme.mode is Mode.FIXED_MARGINS
    log_size = sum(log_binomial(n, k) if fixed else n * LN2 for k in ones)
    if log_size < math.log(ENUMERATION_CAP) + 1:  # near the cap: settle it exactly
        size = math.prod(math.comb(n, k) if fixed else 1 << n for k in ones)
        if size <= ENUMERATION_CAP:
            return size
        log_size = math.log(size)
    raise SpaceTooLargeError(log_size=log_size, cap=ENUMERATION_CAP)
