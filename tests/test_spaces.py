"""Combinatorics tests: log binomials, space stats, entropy, Stirling behaviour."""

import math

import numpy as np
import pytest

from didperm import (
    BITS_PER_NAT,
    Margins,
    Mode,
    PanelSample,
    RandomizationScheme,
    binary_entropy,
    enumerate_null,
    generator_for,
    log_binomial,
    space_stats,
    stirling_log_binomial,
)


class TestLogBinomial:
    def test_small_exact_values(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), abs=1e-12)
        assert log_binomial(17, 0) == 0.0
        assert log_binomial(17, 17) == 0.0

    def test_hundred_choose_fifty(self):
        exact = math.log(math.comb(100, 50))
        value = log_binomial(100, 50)
        assert value == pytest.approx(exact, rel=1e-12)
        assert value == pytest.approx(66.7835, abs=5e-4)

    def test_big_integer_crosscheck_all_n_up_to_30(self):
        for n in range(31):
            for k in range(n + 1):
                exact = math.log(math.comb(n, k))
                assert log_binomial(n, k) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_large_arguments_stay_finite_and_accurate(self):
        # the balanced million case is checked at 10**5 (the exact
        # big-integer oracle at 10**6 takes minutes to build)
        for n, k in ((10**5, 10**5 // 2), (10**6, 12345), (500, 250)):
            exact = math.log(math.comb(n, k))
            assert log_binomial(n, k) == pytest.approx(exact, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binomial(4, 5)
        with pytest.raises(ValueError):
            log_binomial(-1, 0)
        with pytest.raises(ValueError):
            log_binomial(4, -1)


    def test_non_integer_arguments_are_refused_not_truncated(self):
        with pytest.raises(TypeError):
            log_binomial(12.9, 6)
        assert log_binomial(np.int64(12), np.uint64(5)) == log_binomial(12, 5)


class TestSpaceStats:
    def test_four_observation_arithmetic(self):
        stats = space_stats(4, 2, 2)
        assert math.exp(stats.log_size_single) == pytest.approx(6.0, rel=1e-12)
        assert math.exp(stats.log_gain) == pytest.approx(6.0, rel=1e-12)
        assert math.exp(stats.log_size_dual) == pytest.approx(36.0, rel=1e-12)

    def test_bernoulli_dual_size(self):
        assert space_stats(10, 5, 5).log_size_bernoulli_dual == pytest.approx(
            20 * math.log(2), rel=1e-15
        )

    def test_refugee_sized_margins(self):
        # 96 observations, both margins balanced: the time-margin gain.
        stats = space_stats(96, 48, 48)
        exact = math.log(math.comb(96, 48))
        assert stats.log_gain == pytest.approx(exact, rel=1e-12)
        assert stats.log_gain == pytest.approx(64.0316, abs=5e-4)

    def test_identity_in_logs_random_sweep(self):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            n = int(rng.integers(3, 501))
            n_a = int(rng.integers(1, n))
            n_t = int(rng.integers(1, n))
            stats = space_stats(n, n_a, n_t)
            gap = stats.log_size_dual - stats.log_size_single - stats.log_gain
            assert abs(gap) <= 1e-12
            exact = math.log(math.comb(n, n_a) * math.comb(n, n_t))
            assert stats.log_size_dual == pytest.approx(exact, rel=1e-10)

    def test_domain_errors(self):
        for args in ((4, 0, 2), (4, 4, 2), (4, 2, 0), (4, 2, 4)):
            with pytest.raises(ValueError):
                space_stats(*args)

    def test_non_integer_margins_are_refused_not_truncated(self):
        with pytest.raises(TypeError):
            space_stats(12.9, 6, 6)
        assert space_stats(np.int64(12), np.uint64(5), np.int64(6)) == space_stats(12, 5, 6)

    def test_gain_maximized_at_balanced_margin(self):
        for n in (12, 13):
            gains = {k: space_stats(n, 1, k).log_gain for k in range(1, n)}
            best = max(gains, key=gains.get)
            assert best in (n // 2, (n + 1) // 2)
            if n % 2:
                assert gains[n // 2] == pytest.approx(gains[n // 2 + 1], rel=1e-12)


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-12)
        for p in (0.1, 0.25, 0.4, 0.45, 0.6, 0.9):
            assert binary_entropy(p) < math.log(2)

    def test_degenerate_margins_carry_no_information(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter_value(self):
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert binary_entropy(0.25) == pytest.approx(expected, abs=1e-15)
        assert binary_entropy(0.25) == pytest.approx(0.5623, abs=1e-4)

    def test_symmetry(self):
        for p in np.linspace(0.01, 0.99, 23):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), rel=1e-12)

    def test_bits_conversion(self):
        assert binary_entropy(0.5) * BITS_PER_NAT == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestStirling:
    def test_hundred_choose_fifty_accuracy(self):
        approx = stirling_log_binomial(100, 0.5)
        exact = math.log(math.comb(100, 50))
        assert approx == pytest.approx(66.787, abs=1e-3)
        assert abs(approx - exact) < 0.004

    def test_relative_error_below_one_percent_from_fifty(self):
        for n in range(50, 501, 10):
            exact = math.log(math.comb(n, n // 2))
            approx = stirling_log_binomial(n, 0.5)
            assert abs(approx - exact) / exact <= 0.01

    def test_entropy_rate_limit(self):
        gaps = [
            abs(stirling_log_binomial(n, 0.3) / n - binary_entropy(0.3))
            for n in (100, 1000, 10000)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_domain(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                stirling_log_binomial(100, p)
        with pytest.raises(ValueError):
            stirling_log_binomial(0, 0.5)


class TestAsymptotics:
    def test_entropy_additivity_with_fixed_ratios(self):
        # (1/n) log |dual space| -> H(p_affected) + H(p_time), gap shrinking.
        target = binary_entropy(0.5) + binary_entropy(0.25)
        gaps = []
        for n in (16, 64, 256, 1024):
            stats = space_stats(n, n // 2, n // 4)
            gaps.append(abs(stats.log_size_dual / n - target))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.05

    def test_balanced_dual_ratio_to_asymptote(self):
        # log |dual| vs 2n log 2 - log(2 pi n): the ratio tends to one.
        ratios = []
        for n in (50, 100, 200):
            stats = space_stats(n, n // 2, n // 2)
            asymptote = 2 * n * math.log(2) - math.log(2 * math.pi * n)
            ratios.append(stats.log_size_dual / asymptote)
        deviations = [abs(r - 1.0) for r in ratios]
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] < 0.01


class TestBalancedDualSupport:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_distinct_magnitudes_follow_the_agreement_set_law(self, n):
        # At n_A = n_T = n/2 the dual DiD depends on the labels only through
        # the agreement set D = {i : affected_i = time_i}, of even size 2c
        # with 0 < c < n/2, and D and its complement give negated values.
        # So of the C(n, n/2)**2 relabelings only 2**(n-2) - 1 distinct |DiD|
        # remain, about sqrt(pi n / 8) times the affected-only count.
        half = [1] * (n // 2) + [0] * (n // 2)
        sample = PanelSample(y=generator_for(0).standard_normal(n), time=[1, 0] * (n // 2), affected=half)
        dual = enumerate_null(sample, RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS))
        magnitudes = np.sort(np.abs(dual.values))
        tol = 1e-9 * magnitudes[-1]
        distinct = 1 + int(np.count_nonzero(np.diff(magnitudes) > tol))
        assert dual.iterations_requested == math.comb(n, n // 2) ** 2
        assert distinct == 2 ** (n - 2) - 1
