"""Output checks that any correct didperm must pass, whatever its random streams.

No check compares against stored bytes or against values that depend on
how draws are generated.  Each compares an output with a fact the
benchmark derives itself: the DiD of the generated panel, counting
identities, the decision rule applied to the reported bounds, an
independent vectorized enumeration, or a statistical bound whose false
alarm rate is stated where it is set.  Every check returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# |observed - reference| must stay within this share of the panel's scale.
OBSERVED_RTOL = 1e-12
# Program and oracle null values must agree to this share of max |value|.
ORACLE_RTOL = 1e-9
# Largest exceedance of P(p <= alpha) over alpha that an exact test may show.
AUDIT_ATOL = 1e-12
# Standard errors allowed between lower + upper and 0 on a symmetric null.
# Under a normal approximation a correct program exceeds 6 standard errors
# with probability 2e-9; the headroom to the 1e-6 budget absorbs the error
# in the density estimate taken from the histogram.
SYMMETRY_Z = 6.0
# Half-width, in probability, of the window used to estimate the density.
SYMMETRY_WINDOW = 0.02


def reference_did(y, time, affected) -> tuple[float, float]:
    """Correctly rounded cell means -> (DiD, largest |cell mean|)."""
    y = np.asarray(y, dtype=np.float64)
    means = {}
    for a in (0, 1):
        for t in (0, 1):
            cell = y[(np.asarray(affected) == a) & (np.asarray(time) == t)]
            means[a, t] = math.fsum(cell.tolist()) / cell.size
    did = (means[1, 1] - means[1, 0]) - (means[0, 1] - means[0, 0])
    return did, max(abs(m) for m in means.values())


def _close(value: float, reference: float, scale: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * max(abs(reference), scale)


# ---------------------------------------------------------------------------
# the enumeration oracle
# ---------------------------------------------------------------------------


def fixed_rows(n: int, ones: int) -> np.ndarray:
    """All 0/1 vectors of length n with `ones` ones."""
    rows = np.zeros((math.comb(n, ones), n))
    for i, combo in enumerate(itertools.combinations(range(n), ones)):
        rows[i, list(combo)] = 1.0
    return rows


def bernoulli_rows(n: int) -> np.ndarray:
    """All 2**n vectors of length n with 0/1 entries."""
    ints = np.arange(1 << n)[:, None]
    return ((ints >> np.arange(n)) & 1).astype(np.float64)


def oracle_null(y, affected_rows: np.ndarray, time_rows: np.ndarray, block: int = 64) -> np.ndarray:
    """Sorted DiD over every estimable (affected row, time row) pair.

    Cell counts and sums come from matrix products over blocks of affected
    rows, a different route from the program's per-relabeling bincounts.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    total = y.sum()
    t_ones = time_rows.sum(axis=1)[None, :]
    t_sum = (time_rows @ y)[None, :]
    parts = []
    for lo in range(0, affected_rows.shape[0], block):
        a = affected_rows[lo : lo + block]
        a_ones = a.sum(axis=1)[:, None]
        a_sum = (a @ y)[:, None]
        n11 = a @ time_rows.T
        s11 = (a * y) @ time_rows.T
        n10, n01 = a_ones - n11, t_ones - n11
        n00 = n - a_ones - t_ones + n11
        s10, s01 = a_sum - s11, t_sum - s11
        s00 = total - a_sum - t_sum + s11
        ok = (n11 > 0) & (n10 > 0) & (n01 > 0) & (n00 > 0)
        parts.append(
            (s11[ok] / n11[ok] - s10[ok] / n10[ok]) - (s01[ok] / n01[ok] - s00[ok] / n00[ok])
        )
    return np.sort(np.concatenate(parts))


def p_value_band(observed: float, oracle_sorted: np.ndarray) -> tuple[float, float]:
    """(p with |v| strictly above |observed|, p with |v| within the tie band or above).

    The band is ORACLE_RTOL of max |v|, so any tie rule that counts exact
    ties, none, or near ties gives a p-value inside the returned range.
    """
    magnitudes = np.abs(oracle_sorted)
    tol = ORACLE_RTOL * max(abs(observed), float(magnitudes.max()))
    m = magnitudes.size
    strict = np.count_nonzero(magnitudes > abs(observed) + tol) / m
    banded = np.count_nonzero(magnitudes >= abs(observed) - tol) / m
    return strict, banded


# ---------------------------------------------------------------------------
# checks on one result
# ---------------------------------------------------------------------------


def check_decision(observed, lower, upper, reject: bool, decide) -> list[str]:
    failures = []
    if not lower <= upper:
        failures.append(f"lower {lower!r} > upper {upper!r}")
    if reject != decide(observed, lower, upper):
        failures.append(f"decision {reject} disagrees with decide({observed!r}, {lower!r}, {upper!r})")
    return failures


def check_p_values(p_raw: float, p_corrected: float, m: int) -> list[str]:
    """p_raw is a count over m; p_corrected == (1 + p_raw * m) / (m + 1)."""
    count = p_raw * m
    failures = []
    if not 0.0 <= p_raw <= 1.0 or abs(count - round(count)) > 1e-6:
        failures.append(f"p_raw {p_raw!r} is not a count over {m}")
    expected = (1 + round(count)) / (m + 1)
    if abs(p_corrected - expected) > 1e-12:
        failures.append(f"p_corrected {p_corrected!r} != (1 + p_raw*m)/(m + 1) = {expected!r}")
    return failures


def symmetry_tolerance(histogram, alpha: float) -> float:
    """Bound on |lower + upper| for a symmetric null, from the report's histogram.

    The alpha/2 and 1 - alpha/2 quantile estimates from m draws have
    Var(lower + upper) ~ alpha / (m f^2), f the density at the quantile.
    1/f is estimated as the width of the histogram edges that bracket the
    tail quantile by SYMMETRY_WINDOW on either side, over the probability
    between them; averaging over the window overstates 1/f in a tail whose
    density falls outward, which errs towards passing.
    """
    edges = np.array([lo for lo, _, _ in histogram] + [histogram[-1][1]])
    cum = np.concatenate([[0], np.cumsum([c for _, _, c in histogram])])
    m = int(cum[-1])
    cdf = cum / m
    q = alpha / 2

    def sparsity(p_lo, p_hi):
        i = np.flatnonzero(cdf <= p_lo)[-1]
        k = np.flatnonzero(cdf >= p_hi)[0]
        return (edges[k] - edges[i]) / (cdf[k] - cdf[i])

    s = max(
        sparsity(max(q - SYMMETRY_WINDOW, 0.0), q + SYMMETRY_WINDOW),
        sparsity(1 - q - SYMMETRY_WINDOW, min(1 - q + SYMMETRY_WINDOW, 1.0)),
    )
    return SYMMETRY_Z * s * math.sqrt(2 * q / m)


def check_mc_report(report, panel, iterations: int, decide) -> list[str]:
    """Checks on a `didperm test` report for a generated panel.

    `panel` carries the generated inputs: y, time, affected, planted (the
    panel has an effect of at least 8 standard errors) and balanced (half
    the rows affected, so the relabeled null is symmetric about 0).
    """
    failures = []
    ref, scale = reference_did(panel.y, panel.time, panel.affected)
    if not _close(report.observed, ref, scale, OBSERVED_RTOL):
        failures.append(f"observed {report.observed!r} != DiD of the panel {ref!r}")
    counts = sum(c for _, _, c in report.histogram)
    if counts != iterations or report.iterations != iterations:
        failures.append(f"histogram holds {counts} draws, report {report.iterations}, asked {iterations}")
    reject = report.decision == "rejected"
    failures += check_decision(report.observed, report.lower, report.upper, reject, decide)
    failures += check_p_values(report.p_raw, report.p_corrected, iterations)
    if panel.planted and not reject:
        failures.append("planted effect not rejected")
    if panel.balanced and counts == iterations:
        tol = symmetry_tolerance(report.histogram, report.alpha)
        if abs(report.lower + report.upper) > tol:
            failures.append(
                f"lower + upper = {report.lower + report.upper!r} exceeds symmetry tolerance {tol!r}"
            )
    return failures


def check_p_band(p_raw: float, observed: float, oracle_sorted: np.ndarray) -> list[str]:
    strict, banded = p_value_band(observed, oracle_sorted)
    if not strict <= p_raw <= banded:
        return [f"p_raw {p_raw!r} outside oracle range [{strict!r}, {banded!r}]"]
    return []


def check_exact_report(report, panel, oracle_sorted: np.ndarray, space_size: int, decide) -> list[str]:
    """Checks on a `didperm enumerate` report against the enumeration oracle."""
    failures = []
    m = oracle_sorted.size
    ref, scale = reference_did(panel.y, panel.time, panel.affected)
    if not _close(report.observed, ref, scale, OBSERVED_RTOL):
        failures.append(f"observed {report.observed!r} != DiD of the panel {ref!r}")
    counts = sum(c for _, _, c in report.histogram)
    if counts != m or report.iterations != space_size:
        failures.append(
            f"retained {counts} + discarded {report.iterations - counts} != oracle {m} + {space_size - m}"
        )
    reject = report.decision == "rejected"
    failures += check_decision(report.observed, report.lower, report.upper, reject, decide)
    failures += check_p_values(report.p_raw, report.p_corrected, m)
    failures += check_p_band(report.p_raw, ref, oracle_sorted)
    tol = ORACLE_RTOL * float(np.abs(oracle_sorted).max())
    for name, value, q in (("lower", report.lower, report.alpha / 2), ("upper", report.upper, 1 - report.alpha / 2)):
        expected = float(np.quantile(oracle_sorted, q))
        if abs(value - expected) > tol:
            failures.append(f"{name} {value!r} != oracle quantile {expected!r}")
    return failures


def check_values(values, oracle_sorted: np.ndarray) -> list[str]:
    """Sorted program values equal the oracle's to ORACLE_RTOL of max |value|."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.shape != oracle_sorted.shape:
        return [f"{values.size} null values, oracle has {oracle_sorted.size}"]
    err = float(np.abs(values - oracle_sorted).max())
    tol = ORACLE_RTOL * float(np.abs(oracle_sorted).max())
    if err > tol:
        return [f"null values differ from the oracle by {err!r} > {tol!r}"]
    return []


def check_null(dist, oracle_sorted: np.ndarray, space_size: int) -> list[str]:
    failures = []
    if dist.iterations_retained + dist.degenerate_draws_discarded != space_size:
        failures.append(
            f"retained {dist.iterations_retained} + discarded {dist.degenerate_draws_discarded}"
            f" != space size {space_size}"
        )
    return failures + check_values(dist.values, oracle_sorted)


def check_audit(audit, worst: float, oracle_sorted: np.ndarray, space_size: int) -> list[str]:
    failures = []
    if audit.total_relabelings != space_size or audit.estimable_relabelings != oracle_sorted.size:
        failures.append(
            f"audit counts {audit.estimable_relabelings}/{audit.total_relabelings}"
            f" != oracle {oracle_sorted.size}/{space_size}"
        )
    failures += check_values(audit.statistic_values, oracle_sorted)
    if not worst <= AUDIT_ATOL:
        failures.append(f"worst_violation {worst!r} > {AUDIT_ATOL}")
    return failures


def size_bound(alpha: float, replications: int) -> float:
    """Most rejections a level-alpha test may show: alpha R + 4 sqrt(R alpha (1 - alpha))."""
    return alpha * replications + 4 * math.sqrt(replications * alpha * (1 - alpha))


def check_size(rejections: dict, alpha: float, replications: int) -> list[str]:
    bound = size_bound(alpha, replications)
    return [
        f"{scheme}: {count} rejections in {replications} null replications > {bound:.2f}"
        for scheme, count in rejections.items()
        if count > bound
    ]
