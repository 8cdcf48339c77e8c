"""Inference tests: simulation, enumeration, quantiles, p-values, exactness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import didperm.inference as inference
import didperm.randomize as randomize
import didperm.spaces as spaces
from didperm import (
    EmptyCellError,
    Margins,
    Mode,
    NullDistribution,
    PanelSample,
    RandomizationScheme,
    Source,
    SpaceTooLargeError,
    TooManyDegenerateDrawsError,
    decide,
    did_value,
    enumerate_null,
    exactness_audit,
    generator_for,
    make_fixture,
    randomization_p_value,
    simulate_null,
)
from didperm import test_significance as significance_test
from didperm.datasets import INPRESS
from helpers import (
    brute_force_did,
    canonical_labelings,
    documented_block_rows,
    enumerate_brute_force,
    enumerate_kernel,
    exact_p_law_fraction,
    kernel_stat,
    arrangements_fixed,
    arrangements_bernoulli,
    random_estimable_sample,
    replay_block,
    replay_run,
    sup_cdf_distance,
)

FOUR_POINT = PanelSample(y=[1.0, 2.0, 3.0, 5.0], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
AFFECTED_FIXED = RandomizationScheme(Margins.AFFECTED_ONLY, Mode.FIXED_MARGINS)
DUAL_FIXED = RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS)
DUAL_BERNOULLI = RandomizationScheme(Margins.DUAL, Mode.BERNOULLI)
ALL_SCHEMES = [RandomizationScheme(margins, mode) for margins in Margins for mode in Mode]


def mock_distribution(values, scheme=DUAL_FIXED):
    values = np.asarray(values, dtype=np.float64)
    return NullDistribution(
        values=values,
        iterations_requested=values.size,
        scheme=scheme,
        master_seed=0,
        degenerate_draws_discarded=0,
        source=Source.MONTE_CARLO,
    )


class TestSimulateNull:
    def test_constant_outcome_gives_all_zero(self):
        s = PanelSample(y=[3.0] * 8, time=[0, 1] * 4, affected=[0, 0, 1, 1] * 2)
        for scheme in (AFFECTED_FIXED, DUAL_FIXED, DUAL_BERNOULLI):
            dist = simulate_null(s, scheme, iterations=200, master_seed=1)
            assert np.all(dist.values == 0.0)

    def test_retained_counts_and_provenance(self):
        dist = simulate_null(FOUR_POINT, DUAL_FIXED, iterations=500, master_seed=3)
        assert dist.iterations_requested == 500
        assert dist.iterations_retained == 500
        assert dist.source is Source.MONTE_CARLO
        assert dist.degenerate_draws_discarded > 0  # 12/36 of dual draws degenerate

    def test_bit_identical_across_worker_counts(self):
        # 2B + 7 iterations span three blocks, so worker chunks cut across
        # block boundaries; 5 workers exceed the block count.
        iterations = 2 * documented_block_rows(FOUR_POINT.n) + 7
        base = simulate_null(FOUR_POINT, DUAL_FIXED, iterations=iterations, master_seed=9)
        for workers in (2, 3, 5):
            par = simulate_null(
                FOUR_POINT, DUAL_FIXED, iterations=iterations, master_seed=9, workers=workers
            )
            assert np.array_equal(base.values, par.values)
            assert par.degenerate_draws_discarded == base.degenerate_draws_discarded
        one = simulate_null(FOUR_POINT, DUAL_FIXED, iterations=1, master_seed=9)
        par = simulate_null(FOUR_POINT, DUAL_FIXED, iterations=1, master_seed=9, workers=3)
        assert np.array_equal(one.values, par.values)
        assert par.degenerate_draws_discarded == one.degenerate_draws_discarded

    @pytest.mark.parametrize("scheme", [AFFECTED_FIXED, DUAL_FIXED, DUAL_BERNOULLI])
    def test_matches_independent_stream_replay(self, scheme):
        # Reference: replay each block's stream row by row with the
        # documented draw order (affected rows, then time rows, then
        # redraws of degenerate rows), across two block boundaries.
        iterations = 2 * documented_block_rows(FOUR_POINT.n) + 60
        dist = simulate_null(FOUR_POINT, scheme, iterations=iterations, master_seed=21)
        blocks = replay_run(
            FOUR_POINT,
            scheme.margins is Margins.DUAL,
            scheme.mode is Mode.FIXED_MARGINS,
            21,
            iterations,
        )
        labels = [pair for block_labels, _ in blocks for pair in block_labels]
        brute = [brute_force_did(FOUR_POINT.y, t, a) for a, t in labels]
        kernel = [kernel_stat(FOUR_POINT.y, t, a) for a, t in labels]
        assert len(blocks) == 3
        assert np.allclose(dist.values, brute, rtol=1e-12, atol=0)
        assert dist.values.tobytes() == np.array(kernel, dtype=np.float64).tobytes()
        assert dist.degenerate_draws_discarded == sum(d for _, d in blocks)

    def test_rejects_inestimable_sample(self):
        s = PanelSample(y=[1, 2, 3, 4], time=[0, 0, 1, 1], affected=[0, 0, 1, 1])
        with pytest.raises(EmptyCellError):
            simulate_null(s, DUAL_FIXED, iterations=10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_null(FOUR_POINT, DUAL_FIXED, iterations=0)
        with pytest.raises(ValueError):
            simulate_null(FOUR_POINT, DUAL_FIXED, iterations=10, master_seed=-1)

    def test_retry_cap_exhaustion_raises(self, monkeypatch):
        # find a seed whose first block has a degenerate main draw on the
        # 4-point panel; with one attempt per iteration that row must fail
        # and the error names its 1-based iteration.  A panel that exhausts
        # the real cap needs n near 4096, where the replay is slow.
        found = None
        for seed in range(200):
            _, _, failed = replay_block(FOUR_POINT, True, True, seed, 0, 5, max_attempts=1)
            if failed is not None:
                found = (seed, failed)
                break
        assert found is not None
        seed, failed = found
        monkeypatch.setattr(inference, "MAX_RETRY_ATTEMPTS", 1)
        with pytest.raises(TooManyDegenerateDrawsError) as err:
            simulate_null(FOUR_POINT, DUAL_FIXED, iterations=5, master_seed=seed)
        assert err.value.attempts == 1
        assert err.value.iteration == failed + 1


class TestLabelSwap:
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_swapping_group_names_negates_the_null(self, data):
        # Fixed margins rearrange positions whatever the labels, so 1 - labels
        # relabels to 1 - the same draws: every cell changes its name, and
        # the DiD and each null value change sign exactly.  Compared with ==,
        # since an exact zero negates to -0.0.
        n = data.draw(st.integers(4, 40))
        extra = data.draw(st.lists(st.integers(0, 3), min_size=n - 4, max_size=n - 4))
        cells = np.array(data.draw(st.permutations([0, 1, 2, 3] + extra)))
        outcome = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.integers(-3, 3).map(float))
        y = data.draw(st.lists(outcome, min_size=n, max_size=n))
        sample = PanelSample(y=y, time=cells % 2, affected=cells // 2)
        swapped = data.draw(
            st.sampled_from(
                [
                    PanelSample(y=y, time=sample.time, affected=1 - sample.affected),
                    PanelSample(y=y, time=1 - sample.time, affected=sample.affected),
                ]
            )
        )
        scheme = RandomizationScheme(data.draw(st.sampled_from(list(Margins))), Mode.FIXED_MARGINS)
        iterations = data.draw(st.integers(1, 400))
        seed = data.draw(st.integers(0, 2**64 - 1))
        assert did_value(swapped) == -did_value(sample)
        base = simulate_null(sample, scheme, iterations=iterations, master_seed=seed)
        flipped = simulate_null(swapped, scheme, iterations=iterations, master_seed=seed)
        assert np.array_equal(flipped.values, -base.values)
        assert flipped.degenerate_draws_discarded == base.degenerate_draws_discarded


class TestEnumerateNull:
    def test_affected_only_hand_tabulated_values(self):
        # All C(4,2) = 6 affected arrangements of the 4-point panel, in
        # lexicographic order of the positions of the ones:
        # {0,1} -> -1, {0,2} -> empty cell, {0,3} -> 5, {1,2} -> -5,
        # {1,3} -> empty cell, {2,3} -> 1 (the observed labeling).
        dist = enumerate_null(FOUR_POINT, AFFECTED_FIXED)
        assert dist.iterations_requested == 6
        assert dist.degenerate_draws_discarded == 2
        assert np.array_equal(dist.values, [-1.0, 5.0, -5.0, 1.0])
        assert dist.source is Source.EXACT_ENUMERATION

    def test_dual_visits_all_pairs(self):
        dist = enumerate_null(FOUR_POINT, DUAL_FIXED)
        assert dist.iterations_requested == 36
        assert dist.iterations_retained == 24
        assert dist.degenerate_draws_discarded == 12

    @pytest.mark.parametrize(
        "scheme",
        [AFFECTED_FIXED, DUAL_FIXED, RandomizationScheme(Margins.AFFECTED_ONLY, Mode.BERNOULLI)],
    )
    def test_matches_pure_python_enumeration(self, scheme):
        rng = np.random.default_rng(61)
        s = PanelSample(
            y=rng.normal(size=7),
            time=[0, 1, 1, 0, 1, 0, 1],
            affected=[1, 0, 0, 1, 1, 0, 0],
        )
        dist = enumerate_null(s, scheme)
        reference = enumerate_brute_force(
            s.y,
            s.time,
            s.affected,
            dual=scheme.margins is Margins.DUAL,
            fixed=scheme.mode is Mode.FIXED_MARGINS,
        )
        kept = [v for v in reference if v is not None]
        assert dist.iterations_requested == len(reference)
        assert dist.degenerate_draws_discarded == reference.count(None)
        assert np.allclose(dist.values, kept, rtol=1e-10, atol=1e-12)

    def test_dual_bernoulli_small_space(self):
        s = PanelSample(y=[0.3, -1.2, 0.7, 2.2], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
        dist = enumerate_null(s, DUAL_BERNOULLI)
        assert dist.iterations_requested == 256
        reference = enumerate_brute_force(s.y, s.time, s.affected, dual=True, fixed=False)
        kept = [v for v in reference if v is not None]
        assert np.allclose(dist.values, kept, rtol=1e-10, atol=1e-12)

    def test_block_size_does_not_change_values(self, monkeypatch):
        # The default budget gives the dual spaces uneven blocks of 57 and 14
        # affected rows per call.  Budgets of 100 and 1000 entries make every
        # dual call a single affected row against an uneven split of the
        # time side (11 and 111 rows per call), and give the affected-only
        # spaces (126 and 512 rows) uneven blocks of 11 and 111 rows.
        rng = np.random.default_rng(62)
        s = PanelSample(
            y=rng.normal(size=9),
            time=[0, 1, 0, 1, 0, 1, 0, 1, 1],
            affected=[0, 0, 0, 1, 1, 1, 0, 1, 0],
        )
        baselines = [enumerate_null(s, scheme) for scheme in ALL_SCHEMES]
        for budget in (100, 1000):
            monkeypatch.setattr(randomize, "_ENUM_ENTRIES", budget)
            for scheme, baseline in zip(ALL_SCHEMES, baselines):
                blocked = enumerate_null(s, scheme)
                assert np.array_equal(baseline.values, blocked.values)
                assert blocked.degenerate_draws_discarded == baseline.degenerate_draws_discarded

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("y", [np.arange(7.0) ** 1.5 - 4.1, [0.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0]])
    def test_bitwise_equal_to_scalar_kernel_oracle(self, scheme, y):
        # Every retained value is the scalar oracle `kernel_stat` on its
        # labeling, bit for bit, so ties (integer outcomes tie often) and exact p-values do not
        # depend on how the enumeration is blocked.
        s = PanelSample(y=y, time=[0, 1, 1, 0, 1, 0, 1], affected=[1, 0, 0, 1, 1, 0, 0])
        dist = enumerate_null(s, scheme)
        values, degenerate = enumerate_kernel(
            s.y,
            s.time,
            s.affected,
            dual=scheme.margins is Margins.DUAL,
            fixed=scheme.mode is Mode.FIXED_MARGINS,
        )
        assert degenerate > 0
        assert dist.degenerate_draws_discarded == degenerate
        assert dist.values.view(np.uint64).tobytes() == values.view(np.uint64).tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_bitwise_equal_to_scalar_kernel_oracle_property(self, data):
        scheme = data.draw(st.sampled_from(ALL_SCHEMES))
        # dual Bernoulli spaces hold 4**n labelings; keep the oracle fast
        n = data.draw(st.integers(4, 6 if scheme == DUAL_BERNOULLI else 8))
        extra = data.draw(st.lists(st.integers(0, 3), min_size=n - 4, max_size=n - 4))
        cells = np.array(data.draw(st.permutations([0, 1, 2, 3] + extra)))
        outcome = st.one_of(
            st.floats(-1e3, 1e3, allow_nan=False), st.integers(-2, 2).map(float)
        )
        y = data.draw(st.lists(outcome, min_size=n, max_size=n))
        s = PanelSample(y=y, time=cells % 2, affected=cells // 2)
        dist = enumerate_null(s, scheme)
        values, degenerate = enumerate_kernel(
            s.y,
            s.time,
            s.affected,
            dual=scheme.margins is Margins.DUAL,
            fixed=scheme.mode is Mode.FIXED_MARGINS,
        )
        assert dist.degenerate_draws_discarded == degenerate
        assert dist.values.view(np.uint64).tobytes() == values.view(np.uint64).tobytes()

    def test_exact_p_value_counts_observed_labeling(self):
        # the observed arrangement is in the space and goes through the same
        # kernel, so its value is bitwise one of the null values and the
        # exact p-value is bounded below by one over the estimable count
        rng = np.random.default_rng(64)
        samples = [
            PanelSample(
                y=rng.normal(size=7),
                time=[0, 1, 1, 0, 1, 0, 1],
                affected=[1, 0, 0, 1, 1, 0, 0],
            )
        ]
        samples += [random_estimable_sample(rng, n_min=5, n_max=8) for _ in range(20)]
        for s in samples:
            observed = did_value(s)
            for scheme in ALL_SCHEMES:
                dist = enumerate_null(s, scheme)
                assert np.float64(observed).view(np.uint64) in dist.values.view(np.uint64)
                raw, _ = randomization_p_value(observed, dist)
                assert raw >= 1 / dist.iterations_retained

    def test_space_too_large(self):
        sample = make_fixture(INPRESS)  # n = 40, both margins 20
        with pytest.raises(SpaceTooLargeError) as err:
            enumerate_null(sample, DUAL_FIXED)
        expected_log = 2 * math.log(math.comb(40, 20))
        assert err.value.log_size == pytest.approx(expected_log, rel=1e-12)

    def test_far_over_cap_space_is_not_sized_in_big_integers(self, monkeypatch):
        comb = math.comb

        def small_comb(n, k):
            assert n < 10**5, "the exact size of a space far past the cap was computed"
            return comb(n, k)

        monkeypatch.setattr(math, "comb", small_comb)
        n = 10**6
        positions = np.arange(n)
        sample = PanelSample(y=positions % 7, time=positions % 2, affected=positions // 2 % 2)
        with pytest.raises(SpaceTooLargeError) as err:
            enumerate_null(sample, DUAL_FIXED)
        assert err.value.log_size == pytest.approx(2 * spaces.log_binomial(n, n // 2), rel=1e-12)

    def test_counts_match_space_stats_exponentials(self):
        from didperm import space_stats

        rng = np.random.default_rng(63)
        s = PanelSample(
            y=rng.normal(size=10),
            time=[0, 1] * 5,
            affected=[0, 0, 1, 1, 0, 1, 0, 1, 1, 0],
        )
        stats = space_stats(s.n, s.n_affected, s.n_time)
        single = enumerate_null(s, AFFECTED_FIXED)
        dual = enumerate_null(s, DUAL_FIXED)
        assert single.iterations_requested == round(math.exp(stats.log_size_single))
        assert dual.iterations_requested == round(math.exp(stats.log_size_dual))


class TestQuantiles:
    # The decision bounds are the alpha/2 and 1 - alpha/2 quantiles.
    def test_singleton(self):
        result = significance_test(0.0, mock_distribution([3.0]))
        assert result.lower == result.upper == 3.0

    def test_interpolated_rank_positions(self):
        values = np.random.default_rng(71).permutation(np.arange(1.0, 102.0))
        result = significance_test(0.0, mock_distribution(values), alpha=0.05)
        # positions 1 + 0.025 * 100 = 3.5 and 1 + 0.975 * 100 = 98.5
        assert result.lower == pytest.approx(3.5, rel=1e-12)
        assert result.upper == pytest.approx(98.5, rel=1e-12)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(72)
        dist = mock_distribution(rng.normal(size=37))
        results = [significance_test(0.0, dist, alpha) for alpha in np.linspace(0.01, 0.99, 41)]
        bounds = [r.lower for r in results] + [r.upper for r in reversed(results)]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            significance_test(0.0, mock_distribution([]))


class TestPValues:
    def test_no_draw_as_extreme(self):
        raw, corrected = randomization_p_value(1.0, mock_distribution([0.0, 0.0, 0.0, 0.0]))
        assert raw == 0.0
        assert corrected == pytest.approx(1 / 5)

    def test_ties_count_through_weak_inequality(self):
        raw, corrected = randomization_p_value(1.0, mock_distribution([-2.0, -1.0, 1.0, 2.0]))
        assert raw == 1.0  # |-1| ties with |1| and counts
        assert corrected == 1.0

    def test_zero_observed_gives_one(self):
        rng = np.random.default_rng(73)
        raw, _ = randomization_p_value(0.0, mock_distribution(rng.normal(size=64)))
        assert raw == 1.0

    def test_non_finite_observed_is_rejected(self):
        dist = mock_distribution([-2.0, -1.0, 1.0, 2.0])
        for observed in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                randomization_p_value(observed, dist)

    def test_monte_carlo_converges_to_exact(self):
        rng = np.random.default_rng(74)
        s = PanelSample(
            y=rng.normal(size=7),
            time=[0, 1, 1, 0, 1, 0, 1],
            affected=[1, 0, 0, 1, 1, 0, 0],
        )
        observed = did_value(s)
        exact_p, _ = randomization_p_value(observed, enumerate_null(s, AFFECTED_FIXED))
        mc = simulate_null(s, AFFECTED_FIXED, iterations=20000, master_seed=8)
        mc_p, _ = randomization_p_value(observed, mc)
        band = 6 * math.sqrt(exact_p * (1 - exact_p) / 20000) + 1 / 20000
        assert abs(mc_p - exact_p) <= band


class TestTestSignificance:
    def test_brand_search_reference_bounds_reject(self):
        assert decide(4.827, -2.949, 2.956)

    def test_school_program_reference_bounds_retain(self):
        assert not decide(0.076, -0.149, 0.148)

    def test_meal_price_reference_bounds_retain(self):
        assert not decide(0.0794, -0.1810, 0.1821)

    def test_boundary_equality_rejects(self):
        dist = mock_distribution(np.arange(1.0, 102.0))
        upper = significance_test(0.0, dist, alpha=0.05).upper
        result = significance_test(upper, dist, alpha=0.05)
        assert result.reject
        inside = significance_test(upper - 1e-9, dist, alpha=0.05)
        assert not inside.reject

    def test_result_is_consistent(self):
        dist = simulate_null(FOUR_POINT, DUAL_FIXED, iterations=300, master_seed=2)
        result = significance_test(1.0, dist, alpha=0.1)
        assert result.lower <= result.upper
        assert result.reject == (result.observed <= result.lower or result.observed >= result.upper)
        assert 0.0 <= result.p_value <= 1.0
        assert result.p_value_corrected >= 1 / (dist.iterations_retained + 1)

    def test_alpha_validation(self):
        dist = mock_distribution([1.0, 2.0])
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                significance_test(0.0, dist, alpha=alpha)

    def test_non_finite_observed_is_rejected(self):
        # NaN used to give p = 0 together with "not rejected"
        dist = mock_distribution(np.arange(1.0, 102.0))
        for observed in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                significance_test(observed, dist)

    def test_decision_affine_invariance(self):
        rng = np.random.default_rng(75)
        s = random_estimable_sample(rng, n_min=12, n_max=12)
        scaled = PanelSample(y=3.7 * s.y - 12.0, time=s.time, affected=s.affected)
        base_dist = simulate_null(s, DUAL_FIXED, iterations=999, master_seed=6)
        scaled_dist = simulate_null(scaled, DUAL_FIXED, iterations=999, master_seed=6)
        assert np.allclose(scaled_dist.values, 3.7 * base_dist.values, rtol=1e-10)
        base = significance_test(did_value(s), base_dist, 0.05)
        moved = significance_test(did_value(scaled), scaled_dist, 0.05)
        assert base.reject == moved.reject
        assert base.p_value == pytest.approx(moved.p_value, abs=2 / 999)

    def test_reject_implies_corrected_p_near_alpha(self):
        # discretization slack: reject at level alpha forces the corrected
        # p-value below alpha + 2/(m+1)
        rng = np.random.default_rng(76)
        alpha = 0.1
        rejected = 0
        for trial in range(40):
            s = random_estimable_sample(rng, n_min=16, n_max=16)
            dist = simulate_null(s, DUAL_FIXED, iterations=999, master_seed=100 + trial)
            result = significance_test(did_value(s), dist, alpha)
            if result.reject:
                rejected += 1
                assert result.p_value_corrected <= alpha + 2 / (999 + 1)
        assert rejected >= 1


class TestNullDistributionValidation:
    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            NullDistribution(
                values=np.array([1.0, np.inf]),
                iterations_requested=2,
                scheme=DUAL_FIXED,
                master_seed=0,
                degenerate_draws_discarded=0,
                source=Source.MONTE_CARLO,
            )


class TestOracleConvergence:
    def test_monte_carlo_cdf_tracks_exact_cdf_small_panel(self):
        exact = enumerate_null(FOUR_POINT, DUAL_FIXED)
        mc = simulate_null(FOUR_POINT, DUAL_FIXED, iterations=50000, master_seed=17)
        # DKW at 99% for 50000 draws is ~0.0073; allow 0.01
        assert sup_cdf_distance(mc.values, exact.values) <= 0.01


class TestExactnessAudit:
    def test_six_observation_balanced_law(self):
        # n=6, both margins 3: the space has C(6,3)=20 arrangements, of
        # which 2 are degenerate (arrangement equal to the time vector or
        # its complement); complementation pairs the remaining statistics
        # with exact sign flips, so p-values arrive in tied pairs.
        report = exactness_audit(6, 3, 3, AFFECTED_FIXED, outcome_seed=5)
        assert report.total_relabelings == 20
        assert report.estimable_relabelings == 18
        expected = sorted(2 * k / 18 for k in range(1, 10) for _ in range(2))
        assert np.allclose(sorted(report.p_values), expected, rtol=1e-12)
        assert report.worst_violation() <= 0.0

    def test_matches_exact_rational_oracle(self):
        y = generator_for(5).standard_normal(6)
        time0 = np.array([1, 1, 1, 0, 0, 0])
        pairs = [(a, time0) for a in arrangements_fixed(6, 3)]
        oracle = [float(p) for p in exact_p_law_fraction(y, pairs)]
        report = exactness_audit(6, 3, 3, AFFECTED_FIXED, outcome_seed=5)
        assert np.allclose(sorted(report.p_values), oracle, rtol=0, atol=0)

    def test_unbalanced_margin_gives_full_uniform_grid(self):
        report = exactness_audit(7, 3, 3, AFFECTED_FIXED, outcome_seed=11)
        m = report.estimable_relabelings
        assert np.allclose(
            sorted(report.p_values), [(k + 1) / m for k in range(m)], rtol=1e-12
        )
        assert report.worst_violation() <= 0.0

    def test_validity_guarantee_across_small_configurations(self):
        for n, n_affected in ((5, 2), (6, 2), (6, 4), (7, 2), (8, 3)):
            report = exactness_audit(n, n_affected, n // 2, AFFECTED_FIXED, outcome_seed=3)
            assert all(report.rejection_rate(a) <= a for a in (0.01, 0.05, 0.1))
            assert report.worst_violation() <= 1e-12

    def test_dual_scheme_audit(self):
        report = exactness_audit(6, 2, 3, DUAL_FIXED, outcome_seed=9)
        assert report.total_relabelings == math.comb(6, 2) * math.comb(6, 3)
        assert report.worst_violation() <= 0.0
        pairs = [
            (a, t)
            for a in arrangements_fixed(6, 2)
            for t in arrangements_fixed(6, 3)
        ]
        y = generator_for(9).standard_normal(6)
        oracle = [float(p) for p in exact_p_law_fraction(y, pairs)]
        assert np.allclose(sorted(report.p_values), oracle, rtol=0, atol=0)

    def test_bernoulli_mode_audit_empirical_exactness(self):
        report = exactness_audit(
            5, 2, 2, RandomizationScheme(Margins.AFFECTED_ONLY, Mode.BERNOULLI), outcome_seed=4
        )
        assert report.total_relabelings == 32
        assert report.worst_violation() <= 0.0
        time0 = np.array([1, 1, 0, 0, 0])
        pairs = [(a, time0) for a in arrangements_bernoulli(5)]
        y = generator_for(4).standard_normal(5)
        oracle = [float(p) for p in exact_p_law_fraction(y, pairs)]
        assert np.allclose(sorted(report.p_values), oracle, rtol=0, atol=0)

    def test_constant_outcomes_p_is_one_everywhere(self):
        report = exactness_audit(
            6, 3, 3, AFFECTED_FIXED, outcome_seed=0, outcomes=np.full(6, 2.5)
        )
        assert np.all(report.p_values == 1.0)

    def test_impossible_margin_raises(self):
        with pytest.raises(ValueError):
            exactness_audit(4, 1, 2, AFFECTED_FIXED, outcome_seed=0)

    @pytest.mark.parametrize(
        "n, n_affected, n_time, scheme, seed",
        [
            (6, 3, 3, AFFECTED_FIXED, 5),
            (7, 3, 3, AFFECTED_FIXED, 11),
            (8, 3, 4, AFFECTED_FIXED, 3),
            (6, 2, 3, DUAL_FIXED, 9),
            (5, 2, 2, RandomizationScheme(Margins.AFFECTED_ONLY, Mode.BERNOULLI), 4),
            (8, 4, 4, DUAL_FIXED, 0),
            (5, 2, 2, DUAL_BERNOULLI, 0),
        ],
    )
    def test_worst_violation_is_the_loop_over_levels(self, n, n_affected, n_time, scheme, seed):
        report = exactness_audit(n, n_affected, n_time, scheme, outcome_seed=seed)
        loop = max(report.rejection_rate(a) - a for a in np.unique(report.p_values))
        assert report.worst_violation() == loop

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP direction 1: at n_affected = n_time the dual group/time swap "
        "ties in exact arithmetic but rounds apart, and the audit's >= breaks the tie",
    )
    @pytest.mark.parametrize(
        "n, k, scheme", [(6, 3, DUAL_FIXED), (8, 4, DUAL_FIXED), (5, 2, DUAL_BERNOULLI)]
    )
    def test_balanced_dual_matches_exact_rational_oracle(self, n, k, scheme):
        report = exactness_audit(n, k, k, scheme, outcome_seed=0)
        base = [1] * k + [0] * (n - k)
        fixed = scheme.mode is Mode.FIXED_MARGINS
        pairs = canonical_labelings(base, base, dual=True, fixed=fixed)
        oracle = [float(p) for p in exact_p_law_fraction(generator_for(0).standard_normal(n), pairs)]
        assert np.array_equal(np.sort(report.p_values), oracle)

    def test_space_cap_enforced(self):
        with pytest.raises(SpaceTooLargeError):
            exactness_audit(40, 20, 20, DUAL_FIXED, outcome_seed=0)
