"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with its elapsed time (run with `pytest tests/test_acceptance.py -v -s`).
"""

import math
import time

import numpy as np
import pytest

from didperm import (
    ALL_DATASETS,
    BRAND_SEARCH,
    INPRESS,
    MINWAGE_EMPTOT,
    MINWAGE_PMEAL,
    MINWAGE_WAGE_ST,
    REFUGEE_ARRIVALS,
    Margins,
    Mode,
    PanelSample,
    RandomizationScheme,
    decide,
    did_from_ols,
    did_value,
    enumerate_null,
    exactness_audit,
    generator_for,
    make_fixture,
    read_report,
    run_power_study,
    simulate_null,
    space_stats,
    stirling_log_binomial,
    write_fixture_csv,
)
from didperm.cli import main as cli_main
from helpers import audit_p_values, random_estimable_sample, sup_cdf_distance

AFFECTED_FIXED = RandomizationScheme(Margins.AFFECTED_ONLY, Mode.FIXED_MARGINS)
DUAL_FIXED = RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS)


class Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def passed(criterion, clock, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS in {clock.elapsed:.2f}s{extra}")


def test_criterion_01_point_estimate_reproduction():
    expected = [
        (INPRESS, 0.076, 1e-3),
        (BRAND_SEARCH, 4.827, 1e-3),
        (MINWAGE_EMPTOT, 2.7536, 5e-4),
        (MINWAGE_WAGE_ST, 0.4814, 5e-4),
        (MINWAGE_PMEAL, 0.0794, 5e-4),
        (REFUGEE_ARRIVALS, 2.0870, 5e-4),
    ]
    with Clock() as clock:
        for dataset, target, tol in expected:
            value = did_value(make_fixture(dataset))
            assert abs(value - target) <= tol, (dataset.dataset_id, value, target)
    passed(1, clock, "6 published point estimates")


def test_criterion_02_decision_reproduction():
    named_single = {
        INPRESS.dataset_id: False,
        BRAND_SEARCH.dataset_id: True,
        MINWAGE_EMPTOT.dataset_id: True,
        MINWAGE_WAGE_ST.dataset_id: True,
        MINWAGE_PMEAL.dataset_id: False,
        REFUGEE_ARRIVALS.dataset_id: True,
    }
    with Clock() as clock:
        for dataset in ALL_DATASETS:
            for label in ("affected", "dual"):
                ref = dataset.reference[label]
                decision = decide(dataset.observed, ref.lower, ref.upper)
                assert decision == ref.rejected, (dataset.dataset_id, label)
            assert (
                decide(
                    dataset.observed,
                    dataset.reference["affected"].lower,
                    dataset.reference["affected"].upper,
                )
                == named_single[dataset.dataset_id]
            )
    passed(2, clock, "12 reference decisions reproduced")


@pytest.mark.skip(
    reason="criterion 3: the published quantile bounds depend on unpublished raw "
    "microdata and sample sizes, so they cannot be re-simulated at desk scale; "
    "substituted by the property-based criteria 4-8"
)
def test_criterion_03_quantile_bound_reproduction():
    pass


def test_criterion_04_exactness_suite():
    # All margins 2 <= n_affected <= n-2 for n <= 8 (a margin of 1 admits no
    # estimable relabeling at all).  On the estimable space the exact
    # p-values are uniform on the attainable grid: a permutation of
    # {k/m} when |statistic| values are distinct, tied in sign-symmetric
    # pairs when the affected margin is balanced.  Validity
    # P(p <= alpha) <= alpha holds in every configuration.
    with Clock() as clock:
        audited = 0
        for n in range(4, 9):
            for n_affected in range(2, n - 1):
                report = exactness_audit(
                    n, n_affected, n // 2, AFFECTED_FIXED, outcome_seed=20250810
                )
                m = report.estimable_relabelings
                sorted_p = audit_p_values(report)
                if 2 * n_affected != n:
                    expected = np.arange(1, m + 1) / m
                else:
                    expected = np.repeat(np.arange(1, m // 2 + 1), 2) * (2 / m)
                assert np.allclose(sorted_p, expected, rtol=1e-12), (n, n_affected)
                assert all(report.rejection_rate(a) <= a for a in (0.01, 0.05, 0.10))
                assert report.worst_violation() <= 1e-12
                audited += 1
    passed(4, clock, f"{audited} (n, n_affected) configurations audited exhaustively")


def test_criterion_05_oracle_convergence():
    with Clock() as clock:
        y = generator_for(5150).standard_normal(8)
        sample = PanelSample(y=y, time=[0, 1] * 4, affected=[0, 0, 1, 1] * 2)
        exact = enumerate_null(sample, DUAL_FIXED)
        mc = simulate_null(sample, DUAL_FIXED, iterations=200_000, master_seed=99)
        distance = sup_cdf_distance(mc.values, exact.values)
        assert distance <= 0.01, distance
    passed(5, clock, f"sup CDF distance {distance:.4f} <= 0.01 at 200k iterations")


def test_criterion_06_combinatorial_identities():
    with Clock() as clock:
        rng = np.random.default_rng(20250806)
        for _ in range(1000):
            n = int(rng.integers(3, 501))
            n_a = int(rng.integers(1, n))
            n_t = int(rng.integers(1, n))
            stats = space_stats(n, n_a, n_t)
            assert abs(stats.log_size_dual - stats.log_size_single - stats.log_gain) <= 1e-12
            exact = math.log(math.comb(n, n_a)) + math.log(math.comb(n, n_t))
            assert stats.log_size_dual == pytest.approx(exact, rel=1e-10)

        data_rng = np.random.default_rng(7)
        for n, n_a, n_t, scheme in (
            (10, 5, 5, DUAL_FIXED),
            (12, 6, 6, DUAL_FIXED),
            (12, 4, 6, AFFECTED_FIXED),
            (12, 5, 7, RandomizationScheme(Margins.AFFECTED_ONLY, Mode.BERNOULLI)),
        ):
            affected = np.zeros(n, dtype=int)
            affected[:n_a] = 1
            time_v = np.zeros(n, dtype=int)
            time_v[-n_t:] = 1
            sample = PanelSample(y=data_rng.normal(size=n), time=time_v, affected=affected)
            dist = enumerate_null(sample, scheme)
            stats = space_stats(n, n_a, n_t)
            if scheme.mode is Mode.BERNOULLI:
                expected = 2**n
            elif scheme.margins is Margins.DUAL:
                expected = round(math.exp(stats.log_size_dual))
            else:
                expected = round(math.exp(stats.log_size_single))
            assert dist.iterations_requested == expected
    passed(6, clock, "1000 random identities + enumerated counts at n <= 12")


def test_criterion_07_stirling_and_entropy():
    with Clock() as clock:
        gaps = []
        for n in (100, 1000, 10000):
            exact = math.log(math.comb(n, n // 2))
            gaps.append(abs(stirling_log_binomial(n, 0.5) - exact))
        assert gaps[0] <= 0.004
        assert gaps[0] > gaps[1] > gaps[2]

        from didperm import binary_entropy

        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-12)
        for p in (0.1, 0.3, 0.49, 0.51, 0.9):
            assert binary_entropy(p) < math.log(2)

        deviations = []
        for n in (50, 100, 200):
            stats = space_stats(n, n // 2, n // 2)
            asymptote = 2 * n * math.log(2) - math.log(2 * math.pi * n)
            deviations.append(abs(stats.log_size_dual / asymptote - 1.0))
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] < 0.01
    passed(7, clock, "Stirling gap shrinks, entropy peaks at 1/2, ratio tends to 1")


def test_criterion_08_size_calibration_at_null():
    with Clock() as clock:
        study = run_power_study(
            cell_n=20,
            delta=0.0,
            noise_sd=1.0,
            replications=2000,
            alpha=0.05,
            iterations=999,
            master_seed=808,
        )
        rates = {entry.margins.value: entry.rate for entry in study.rates}
        for label, rate in rates.items():
            assert 0.035 <= rate <= 0.065, (label, rate)
    passed(
        8,
        clock,
        "rejection rates "
        + ", ".join(f"{k}={v:.4f}" for k, v in rates.items())
        + " within [0.035, 0.065]",
    )


def test_criterion_09_determinism_across_worker_counts(tmp_path):
    with Clock() as clock:
        csv_path = str(write_fixture_csv(tmp_path / "inpress.csv", make_fixture(INPRESS)))
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"report_w{workers}.json"
            code = cli_main(
                [
                    "test",
                    "--input",
                    csv_path,
                    "--iterations",
                    "5000",
                    "--seed",
                    "31337",
                    "--workers",
                    workers,
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert read_report(tmp_path / "report_w1.json").decision in ("rejected", "not_rejected")
    passed(9, clock, "byte-identical reports for 1 and 4 workers")


def test_criterion_10_estimator_equivalence():
    with Clock() as clock:
        rng = np.random.default_rng(1010)
        worst = 0.0
        for _ in range(10_000):
            sample = random_estimable_sample(rng, n_min=8, n_max=24)
            # Second route: a generic least-squares solve of the saturated design.
            design = np.column_stack(
                [np.ones(sample.n), sample.time, sample.affected, sample.time * sample.affected]
            ).astype(float)
            reference = np.linalg.lstsq(design, sample.y, rcond=None)[0][3]
            gap = abs(did_from_ols(sample).delta - reference) / (1.0 + abs(reference))
            worst = max(worst, gap)
            assert gap <= 1e-10
    passed(10, clock, f"worst normalized gap {worst:.2e} over 10000 samples")
