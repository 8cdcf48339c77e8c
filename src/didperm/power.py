"""Monte Carlo size/power comparison of the single-margin and dual schemes.

Each replication draws a fresh synthetic 2x2 panel with `cell_n`
observations per cell, normal noise, and a treatment effect `delta` added
to the treated-post cell, then runs the significance test under both
margin settings.  At delta = 0 the rejection rates estimate test size;
binomial standard errors quantify the Monte Carlo uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import test_significance, simulate_null
from .panel import PanelSample, did_value
from .randomize import Margins, Mode, RandomizationScheme, derive_seed, generator_for

__all__ = ["SchemeRate", "PowerStudyResult", "run_power_study"]

_DATA_DOMAIN = 0x5D
_SIM_DOMAIN = 0x51


@dataclass(frozen=True)
class SchemeRate:
    """Rejection count/rate with the binomial standard error of the rate."""

    margins: Margins
    rejections: int
    replications: int

    @property
    def rate(self) -> float:
        return self.rejections / self.replications

    @property
    def standard_error(self) -> float:
        r = self.rate
        return math.sqrt(r * (1.0 - r) / self.replications)


@dataclass(frozen=True)
class PowerStudyResult:
    """Rejection rates of both margin settings under one synthetic design."""

    cell_n: int
    delta: float
    noise_sd: float
    replications: int
    alpha: float
    iterations: int
    mode: Mode
    rates: tuple[SchemeRate, ...]

    def render(self) -> str:
        lines = [
            f"synthetic design: {self.cell_n} obs/cell, effect {self.delta:g}, "
            f"noise sd {self.noise_sd:g}, {self.replications} replications, "
            f"alpha {self.alpha:g}, {self.iterations} null draws/replication",
            f"{'scheme':12s}{'rejections':>12s}{'rate':>10s}{'std err':>10s}",
        ]
        for entry in self.rates:
            lines.append(
                f"{entry.margins.value:12s}{entry.rejections:>12d}"
                f"{entry.rate:>10.4f}{entry.standard_error:>10.4f}"
            )
        return "\n".join(lines)


def _synthetic_panel(cell_n: int, delta: float, noise_sd: float, rng) -> PanelSample:
    n = 4 * cell_n
    time = np.tile(np.repeat([0, 1], cell_n), 2)
    affected = np.repeat([0, 1], 2 * cell_n)
    with np.errstate(over="ignore"):  # an overflowed outcome fails PanelSample's finiteness check
        y = noise_sd * rng.standard_normal(n)
        y[(time == 1) & (affected == 1)] += delta
    return PanelSample(y=y, time=time, affected=affected)


def run_power_study(
    cell_n: int,
    delta: float,
    noise_sd: float,
    replications: int,
    alpha: float = 0.05,
    iterations: int = 999,
    mode: Mode = Mode.FIXED_MARGINS,
    master_seed: int = 0,
) -> PowerStudyResult:
    """Rejection rates of both margin settings on a common synthetic design.

    Both schemes see the same simulated datasets (paired comparison); the
    per-replication data and simulation streams are derived from
    `master_seed` with a counter-based mixer, so the study is reproducible
    and order-independent.
    """
    if cell_n < 1:
        raise ValueError("cell_n must be >= 1")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if noise_sd <= 0:
        raise ValueError("noise_sd must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    generator_for(master_seed)  # refuses a seed as simulate_null does; derive_seed would wrap it

    rejections = {margins: 0 for margins in Margins}
    for rep in range(replications):
        data_rng = generator_for(derive_seed(master_seed, _DATA_DOMAIN, rep))
        sample = _synthetic_panel(cell_n, delta, noise_sd, data_rng)
        observed = did_value(sample)
        for scheme_index, margins in enumerate(Margins):
            dist = simulate_null(
                sample,
                RandomizationScheme(margins=margins, mode=mode),
                iterations=iterations,
                master_seed=derive_seed(master_seed, _SIM_DOMAIN, rep, scheme_index),
            )
            if test_significance(observed, dist, alpha).reject:
                rejections[margins] += 1

    return PowerStudyResult(
        cell_n=cell_n,
        delta=delta,
        noise_sd=noise_sd,
        replications=replications,
        alpha=alpha,
        iterations=iterations,
        mode=mode,
        rates=tuple(
            SchemeRate(margins=m, rejections=rejections[m], replications=replications)
            for m in Margins
        ),
    )
