"""Exact and asymptotic accounting of the relabeling space.

Sizes are reported in natural log (nats) throughout; divide by ln 2 to
convert to bits.  The dual scheme's space factorizes as
C(n, n_A) * C(n, n_T), so its log size is the single-margin log size plus
the log gain, an identity this module maintains by construction.

These sizes count relabelings, not distinct null values.  At balanced
margins (n_A = n_T = n/2) the dual DiD depends on the labels only
through the agreement set {i : affected_i = time_i}, and a set and its
complement give negated values.  So the dual null has at most
2^(n-2) - 1 distinct |DiD| values, against about C(n, n/2)/2 for the
affected-only null: a gain of about sqrt(pi n / 8) (2.2 at n = 12), not
C(n, n/2).  Off balance the gain in distinct values is far larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PermutationSpaceStats",
    "log_binomial",
    "space_stats",
    "binary_entropy",
    "stirling_log_binomial",
    "BITS_PER_NAT",
]

LN2 = math.log(2.0)
BITS_PER_NAT = 1.0 / LN2


def log_binomial(n: int, k: int) -> float:
    """Natural log of the binomial coefficient C(n, k), via log-gamma.

    Stays finite far beyond where the integer coefficient overflows a
    float; cross-checked against exact big-integer binomials in tests.
    """
    n = int(n)
    k = int(k)
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binary_entropy(p: float) -> float:
    """Binary entropy -p*log(p) - (1-p)*log(1-p) in nats.

    Defined as 0 at p = 0 and p = 1; symmetric about 1/2 and maximized
    there with value log 2.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log(p) + q * math.log(q))


def stirling_log_binomial(n: int, p: float) -> float:
    """Stirling approximation of log C(n, n*p).

    Returns n*H(p) - log(2*pi*n*p*(1-p))/2 where H is `binary_entropy`.
    The leading term shows the relabeling space grows at entropy rate H(p)
    per observation, largest for balanced margins (p = 1/2).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if n <= 0:
        raise ValueError("n must be positive")
    return n * binary_entropy(p) - 0.5 * math.log(2.0 * math.pi * n * p * (1.0 - p))


@dataclass(frozen=True)
class PermutationSpaceStats:
    """Log sizes, gain, and entropies of the relabeling space for one sample.

    `log_size_single` is log C(n, n_A) (affected-only rearrangements),
    `log_gain` is log C(n, n_T) (the multiplier contributed by also
    rearranging time), and `log_size_dual` is their sum.
    `log_size_bernoulli_dual` is the unconstrained count 2^(2n) in nats.
    """

    n: int
    n_affected: int
    n_time: int
    p_affected: float
    p_time: float
    log_size_single: float
    log_size_dual: float
    log_gain: float
    log_size_bernoulli_dual: float
    entropy_affected: float
    entropy_time: float


def _margins(n: int, n_affected: int, n_time: int) -> tuple[int, int, int]:
    """(n, n_affected, n_time) as ints; ValueError unless 0 < n_affected < n and 0 < n_time < n."""
    n, n_affected, n_time = int(n), int(n_affected), int(n_time)
    if not 0 < n_affected < n:
        raise ValueError(f"need 0 < n_affected < n, got n_affected={n_affected}, n={n}")
    if not 0 < n_time < n:
        raise ValueError(f"need 0 < n_time < n, got n_time={n_time}, n={n}")
    return n, n_affected, n_time


def space_stats(n: int, n_affected: int, n_time: int) -> PermutationSpaceStats:
    """All size/gain/entropy statistics for margins (n_affected, n_time) out of n."""
    n, n_affected, n_time = _margins(n, n_affected, n_time)
    log_single = log_binomial(n, n_affected)
    log_gain = log_binomial(n, n_time)
    p_a = n_affected / n
    p_t = n_time / n
    return PermutationSpaceStats(
        n=n,
        n_affected=n_affected,
        n_time=n_time,
        p_affected=p_a,
        p_time=p_t,
        log_size_single=log_single,
        log_size_dual=log_single + log_gain,
        log_gain=log_gain,
        log_size_bernoulli_dual=2.0 * n * LN2,
        entropy_affected=binary_entropy(p_a),
        entropy_time=binary_entropy(p_t),
    )
