"""Relabeling of (time, affected) vectors under deterministic, parallel-safe seeding.

Two axes configure a randomization scheme:

* margins -- relabel only the `affected` vector (the conventional baseline)
  or both `affected` and `time` (the dual scheme).
* mode -- `FIXED_MARGINS` draws a uniformly random rearrangement of each
  relabeled vector, preserving its count of ones exactly; `BERNOULLI`
  redraws every label independently as a fair coin flip.

`draw_relabelings` is the one relabeling entry point: it draws a matrix
of relabeled affected vectors and one of time vectors, a row per
relabeling, from a given generator.  A single relabeling is a one-row
draw.

Randomness is counter-based.  Simulation iterations are drawn in blocks of
B = `stream_block_rows(n)` rows: iteration k (1-based) is row (k - 1) mod B of
block (k - 1) // B, and block b reads one Philox stream keyed by
SeedSpec(master_seed, b).  A block draws its whole affected matrix first,
then its time matrix (dual scheme); degenerate rows are redrawn from the
same stream after that main draw, in row order.  No shared mutable
generator exists anywhere, so blocks can be produced concurrently and in
any order with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Margins",
    "Mode",
    "RandomizationScheme",
    "SeedSpec",
    "generator_for",
    "derive_seed",
]

_MASK64 = (1 << 64) - 1
BERNOULLI_P = 0.5

# Label entries per margin in one stream block (see `stream_block_rows`).  Block
# arrays are short-lived but set the peak memory of short runs: 2**17 was
# no faster and raised it by about 14%.
_BLOCK_ENTRIES = 2**13
_MAX_BLOCK_ROWS = 4096


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


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one deterministic random stream: (master seed, stream index).

    `simulate_null` keys block b of a run by SeedSpec(master_seed, b).  The
    stream derived from a SeedSpec does not depend on evaluation order or
    on any other stream.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) <= _MASK64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if not 0 <= int(self.stream_index) <= _MASK64:
            raise ValueError("stream_index must be a non-negative 64-bit integer")


def generator_for(seed: SeedSpec) -> np.random.Generator:
    """Fresh Generator for the stream identified by `seed`."""
    key = np.array([seed.master_seed, seed.stream_index], dtype=np.uint64)
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
    """Iterations per stream block for an n-observation panel.

    Holds a block near 2**13 label entries per margin, so block memory
    stays bounded for every n; it depends on n alone, never on worker
    count or iteration count.
    """
    return max(1, min(_MAX_BLOCK_ROWS, _BLOCK_ENTRIES // n))


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

