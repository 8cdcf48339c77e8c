"""Relabeling of (time, affected) vectors under deterministic, parallel-safe seeding.

Two axes configure a randomization scheme:

* margins -- relabel only the `affected` vector (the conventional baseline)
  or both `affected` and `time` (the dual scheme).
* mode -- `FIXED_MARGINS` draws a uniformly random rearrangement of each
  relabeled vector, preserving its count of ones exactly; `BERNOULLI`
  redraws every label independently as a fair coin flip.

`draw_relabelings` draws a matrix of relabeled affected vectors and one
of time vectors, a row per relabeling, from a given generator; a single
relabeling is a one-row draw.  `enumerate_relabelings` sizes the whole
relabeling space, refuses one past `ENUMERATION_CAP`, and walks it in
canonical order, in label blocks of the same form.  Both feed the
statistic kernel `panel._block_cells`.

Randomness is counter-based.  Simulation iterations are drawn in blocks of
B = `stream_block_rows(n)` = max(1, 8192 // n) rows: iteration k (1-based)
is row (k - 1) mod B of block (k - 1) // B, and block b reads the Philox
stream `generator_for(master_seed, b)`.  A block draws its whole affected
matrix first, then its time matrix (dual scheme); degenerate rows are
redrawn from the same stream after that main draw, in row order.  No shared
mutable generator exists anywhere, so blocks can be produced concurrently
and in any order with identical results.
"""

from __future__ import annotations

import itertools
import math
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
BERNOULLI_P = 0.5

# Label entries per margin in one stream block (see `stream_block_rows`).  Block
# arrays are short-lived but set the peak memory of short runs: 2**17 was
# no faster and raised it by about 14%.
_BLOCK_ENTRIES = 2**13

# Largest space `enumerate_relabelings` walks.  9.4M relabelings (n=18,
# dual, margins 4 and 4) took 2.1 s on a 2-vCPU host with numpy 2.4.
ENUMERATION_CAP = 10_000_000

# Label entries per block during enumeration (see `enumerate_relabelings`).
# At n=12 dual/fixed, 2**13 and 2**14 were 1.5x and 1.25x slower, and 2**17
# was slower and held 2.5 MB more.
_ENUM_ENTRIES = 2**16


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
    does not depend on evaluation order or on any other stream.
    """
    if not 0 <= int(master_seed) <= _MASK64:
        raise ValueError("master_seed must be an unsigned 64-bit integer")
    if not 0 <= int(stream_index) <= _MASK64:
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


def _draw_margin(
    rng: np.random.Generator, labels: np.ndarray, mode: Mode, rows: int
) -> np.ndarray:
    """`rows` independent relabelings of the int64 vector `labels`, one per row.

    FIXED_MARGINS rows are uniformly random rearrangements of `labels`, so
    each keeps its count of ones exactly; BERNOULLI rows are n independent
    Bernoulli(BERNOULLI_P) labels and read only the length of `labels`.
    Rows are drawn from `rng` in row order.
    """
    if mode is Mode.FIXED_MARGINS:
        out = np.tile(labels, (rows, 1))
        return rng.permuted(out, axis=1, out=out)
    return (rng.random((rows, labels.size)) < BERNOULLI_P).astype(np.int64)


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


def _arrangements(n: int, ones: int, mode: Mode, block_rows: int):
    """Every relabeling of one margin in canonical order, in int8 blocks of `block_rows` rows.

    Fixed margins: the C(n, ones) arrangements, lexicographic in the
    positions of their ones.  Bernoulli: all 2**n binary vectors in
    integer order (bit j = observation j).
    """
    if mode is Mode.FIXED_MARGINS:
        combos = itertools.combinations(range(n), ones)
        while rows := list(itertools.islice(combos, block_rows)):
            block = np.zeros((len(rows), n), dtype=np.int8)
            block[np.arange(len(rows))[:, None], np.array(rows, dtype=np.intp)] = 1
            yield block
        return
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, 1 << n, block_rows):
        ints = np.arange(start, min(start + block_rows, 1 << n), dtype=np.uint64)
        yield ((ints[:, None] >> shifts) & np.uint64(1)).astype(np.int8)


def _space_blocks(affected: np.ndarray, time: np.ndarray, scheme: RandomizationScheme):
    n = affected.size
    # A block pairs a run of affected arrangements with a run of time
    # arrangements, about _ENUM_ENTRIES labels in all.  The time side is
    # split only when one affected row against all of it exceeds that.
    if scheme.margins is Margins.DUAL:
        step = max(1, _ENUM_ENTRIES // n)
        t_blocks = list(_arrangements(n, int(time.sum()), scheme.mode, step))
    else:
        t_blocks = [time.astype(np.int8)[None, :]]
    t_rows = sum(block.shape[0] for block in t_blocks)
    a_rows = max(1, _ENUM_ENTRIES // (t_rows * n))
    for a_block in _arrangements(n, int(affected.sum()), scheme.mode, a_rows):
        for t_block in t_blocks:
            yield a_block[:, None, :], t_block[None, :, :]


def enumerate_relabelings(
    affected: np.ndarray, time: np.ndarray, scheme: RandomizationScheme
) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Size of the space `draw_relabelings` draws from, and a lazy walk over all of it.

    Each relabeled margin contributes C(n, ones) arrangements (fixed) or
    2**n vectors (Bernoulli).  The walk yields (affected, time) label
    blocks of shapes (ra, 1, n) and (1, rt, n), whose broadcast holds
    ra*rt relabelings; in all it visits the space in the canonical order
    of `_arrangements`, affected-major.

    Raises SpaceTooLargeError if the size exceeds `ENUMERATION_CAP`.  The
    log-gamma log-size decides first, so a space far past the cap is
    never sized in big integers.
    """
    n = affected.size
    relabeled = (affected, time) if scheme.margins is Margins.DUAL else (affected,)
    ones = [int(m.sum()) for m in relabeled]
    fixed = scheme.mode is Mode.FIXED_MARGINS
    log_size = sum(log_binomial(n, k) if fixed else n * LN2 for k in ones)
    if log_size < math.log(ENUMERATION_CAP) + 1:  # near the cap: settle it exactly
        size = math.prod(math.comb(n, k) if fixed else 1 << n for k in ones)
        if size <= ENUMERATION_CAP:
            return size, _space_blocks(affected, time, scheme)
        log_size = math.log(size)
    raise SpaceTooLargeError(log_size=log_size, cap=ENUMERATION_CAP)
