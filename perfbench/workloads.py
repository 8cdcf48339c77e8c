"""The four benchmark workloads: inputs made from a seed, ops, and their checks.

An op is one user-level call: one `didperm test`, one enumeration or
audit, or one power-study replication.  Ops come in fixed cycles and the
benchmark always finishes a cycle, so the mix of input sizes in a run, and
with it the latency percentiles, does not depend on how many ops fit in
the time.  The program sees only the generated inputs: CSV files for the
CLI, arrays for the library calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import didperm.cli
import didperm.inference
import didperm.power
from didperm import ALL_DATASETS, Margins, Mode, PanelSample, RandomizationScheme, make_fixture, read_report
from didperm.inference import decide

import checks

DUAL_FIXED = RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS)
DUAL_BERNOULLI = RandomizationScheme(Margins.DUAL, Mode.BERNOULLI)
ALPHA = 0.05

# mc-small: per-cell sizes of the 12 panels of a cycle (n = 40 .. 400).
# Even slots have no effect and odd slots a planted one, so both kinds
# cover every size.
SMALL_PER_CELL = (10, 10, 20, 20, 35, 35, 50, 50, 75, 75, 100, 100)
SMALL_ITERATIONS = 2_000
# Planted effects in DiD standard errors; the checks ask for at least 8.
PLANTED_SE = 40.0
LARGE_ROWS = 100_000
LARGE_ITERATIONS = 250
POWER_CELL_N = 20
POWER_ITERATIONS = 999


@dataclass
class Panel:
    """A generated 2x2 panel and what the checks may assume about it."""

    y: np.ndarray
    time: np.ndarray
    affected: np.ndarray
    planted: bool = False
    path: Path | None = None

    @property
    def balanced(self) -> bool:
        return 2 * int(self.affected.sum()) == self.affected.size

    def sample(self) -> PanelSample:
        return PanelSample(y=self.y, time=self.time, affected=self.affected)

    def write_csv(self, path: Path) -> None:
        rows = (f"{v!r},{t},{a}" for v, t, a in zip(self.y.tolist(), self.time.tolist(), self.affected.tolist()))
        path.write_text("y,time,affected\n" + "\n".join(rows) + "\n", encoding="utf-8")
        self.path = path


@dataclass
class Op:
    """One user-level call; `check` returns (failure messages, null values produced)."""

    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]


def _cells(time, affected):
    return [(affected == a) & (time == t) for a in (0, 1) for t in (0, 1)]


def fixture_panel(rng, dataset, per_cell: int, planted: bool) -> Panel:
    """A bundled dataset's fixture with its effect removed, seed noise, and an optional planted effect."""
    base = make_fixture(dataset, per_cell=per_cell)
    y, time, affected = base.y.copy(), base.time, base.affected
    treated_post = (affected == 1) & (time == 1)
    scale = max(1.0, max(abs(m) for row in dataset.cell_means for m in row))
    y[treated_post] -= dataset.did_from_cell_means()
    y += rng.normal(0.0, 0.05 * scale, y.size)
    if planted:
        cells = _cells(time, affected)
        within_sd = math.sqrt(sum(((y[c] - y[c].mean()) ** 2).sum() for c in cells) / (y.size - 4))
        means = np.array([y[c].mean() for c in cells])
        effect = max(PLANTED_SE * within_sd * math.sqrt(4.0 / per_cell), 10.0 * np.ptp(means))
        y[treated_post] += effect
    order = rng.permutation(y.size)
    return Panel(y[order], time[order], affected[order], planted=planted)


def _labels(rng, n: int, ones: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Random (time, affected) with all four cells non-empty; `ones` fixes both margins."""
    while True:
        if ones is None:
            time, affected = rng.integers(0, 2, n), rng.integers(0, 2, n)
        else:
            time = rng.permutation(np.repeat([1, 0], [ones, n - ones]))
            affected = rng.permutation(np.repeat([1, 0], [ones, n - ones]))
        if all(c.any() for c in _cells(time, affected)):
            return time, affected


def _mc_op(panel: Panel, iterations: int, seed: int, workers: int, report: Path) -> Op:
    argv = [
        "test", "--input", str(panel.path), "--scheme", "dual", "--mode", "fixed",
        "--iterations", str(iterations), "--alpha", str(ALPHA), "--seed", str(seed),
        "--bins", "50", "--workers", str(workers), "--output", str(report),
    ]  # fmt: skip

    def check(code):
        if code != 0:
            return [f"didperm test exited {code}"], 0
        return checks.check_mc_report(read_report(report), panel, iterations, decide), iterations

    return Op(lambda: didperm.cli.main(argv), check)


def _op_seed(seed: int, *counters: int) -> int:
    return int(np.random.SeedSequence([seed, *counters]).generate_state(1, np.uint64)[0])


class McSmall:
    """Repeated `didperm test` on 12 small panels (dual/fixed, one worker)."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.panels = []
        for slot, per_cell in enumerate(SMALL_PER_CELL):
            panel = fixture_panel(rng, ALL_DATASETS[slot % 6], per_cell, planted=slot % 2 == 1)
            panel.write_csv(workdir / f"panel{slot}.csv")
            self.panels.append(panel)
        self.report = workdir / "report.json"

    def cycle(self, k: int) -> list[Op]:
        return [
            _mc_op(panel, SMALL_ITERATIONS, _op_seed(self.seed, k, slot), 1, self.report)
            for slot, panel in enumerate(self.panels)
        ]

    def finish(self) -> list[str]:
        return []


class McLarge:
    """`didperm test` on one 10^5-row null panel (dual/fixed, two workers)."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        quarter = LARGE_ROWS // 4
        time = np.tile(np.repeat([0, 1], quarter), 2)
        affected = np.repeat([0, 1], 2 * quarter)
        y = 10.0 + 0.5 * time + 0.8 * affected + rng.normal(0.0, 2.0, LARGE_ROWS)
        order = rng.permutation(LARGE_ROWS)
        self.panel = Panel(y[order], time[order], affected[order])
        self.panel.write_csv(workdir / "large.csv")
        self.seed = seed
        self.report = workdir / "report.json"

    def cycle(self, k: int) -> list[Op]:
        return [_mc_op(self.panel, LARGE_ITERATIONS, _op_seed(self.seed, k), 2, self.report)]

    def finish(self) -> list[str]:
        return []


class Exact:
    """`didperm enumerate` at n=12, 3x enumerate_null at n=9 (Bernoulli), exactness_audit at n=10."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        time, affected = _labels(rng, 12, 6)
        self.panel12 = Panel(rng.standard_normal(12), time, affected)
        self.panel12.write_csv(workdir / "exact12.csv")
        rows12 = checks.fixed_rows(12, 6)
        self.oracle12 = checks.oracle_null(self.panel12.y, rows12, rows12)
        self.size12 = math.comb(12, 6) ** 2

        time, affected = _labels(rng, 9, None)
        self.panel9 = Panel(rng.standard_normal(9), time, affected)
        rows9 = checks.bernoulli_rows(9)
        self.oracle9 = checks.oracle_null(self.panel9.y, rows9, rows9)
        self.observed9, _ = checks.reference_did(self.panel9.y, time, affected)
        self.size9 = 1 << 18

        self.y10 = rng.standard_normal(10)
        rows10 = checks.fixed_rows(10, 5)
        self.oracle10 = checks.oracle_null(self.y10, rows10, rows10)
        self.size10 = math.comb(10, 5) ** 2
        self.report = workdir / "report.json"

    def cycle(self, k: int) -> list[Op]:
        argv = ["enumerate", "--input", str(self.panel12.path), "--scheme", "dual", "--mode", "fixed",
                "--alpha", str(ALPHA), "--bins", "50", "--output", str(self.report)]  # fmt: skip

        def check_enumerate(code):
            if code != 0:
                return [f"didperm enumerate exited {code}"], 0
            report = read_report(self.report)
            failures = checks.check_exact_report(report, self.panel12, self.oracle12, self.size12, decide)
            return failures, self.oracle12.size

        sample9 = self.panel9.sample()

        def enumerate9():
            dist = didperm.inference.enumerate_null(sample9, DUAL_BERNOULLI)
            return dist, didperm.inference.test_significance(self.observed9, dist, ALPHA)

        def check9(output):
            dist, result = output
            failures = checks.check_null(dist, self.oracle9, self.size9)
            failures += checks.check_p_band(result.p_value, self.observed9, self.oracle9)
            failures += checks.check_p_values(result.p_value, result.p_value_corrected, dist.iterations_retained)
            failures += checks.check_decision(result.observed, result.lower, result.upper, result.reject, decide)
            return failures, dist.iterations_retained

        def audit10():
            audit = didperm.inference.exactness_audit(10, 5, 5, DUAL_FIXED, outcomes=self.y10)
            return audit, audit.worst_violation()

        def check10(output):
            audit, worst = output
            return checks.check_audit(audit, worst, self.oracle10, self.size10), audit.estimable_relabelings

        return [Op(lambda: didperm.cli.main(argv), check_enumerate), Op(enumerate9, check9), Op(audit10, check10)]

    def finish(self) -> list[str]:
        return []


class PowerSize:
    """One-replication calls of run_power_study at delta = 0, both margin settings."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rejections: dict[int, dict[str, int]] = {}

    def cycle(self, k: int) -> list[Op]:
        seed = _op_seed(self.seed, k)

        def run():
            return didperm.power.run_power_study(
                cell_n=POWER_CELL_N, delta=0.0, noise_sd=1.0, replications=1, alpha=ALPHA,
                iterations=POWER_ITERATIONS, mode=Mode.FIXED_MARGINS, master_seed=seed,
            )  # fmt: skip

        def check(study):
            got = {entry.margins.value: entry.rejections for entry in study.rates}
            failures = []
            if sorted(got) != sorted(m.value for m in Margins) or study.replications != 1:
                failures.append(f"study covers {sorted(got)} over {study.replications} replications")
            if any(count not in (0, 1) for count in got.values()):
                failures.append(f"rejection counts {got} from one replication")
            # A traced rerun of the same op overwrites, not adds.
            self.rejections[k] = got
            return failures, len(got) * POWER_ITERATIONS

        return [Op(run, check)]

    def finish(self) -> list[str]:
        totals = {m.value: sum(r.get(m.value, 0) for r in self.rejections.values()) for m in Margins}
        return checks.check_size(totals, ALPHA, len(self.rejections))


WORKLOADS = {"mc-small": McSmall, "mc-large": McLarge, "exact": Exact, "power-size": PowerSize}
