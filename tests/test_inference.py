"""Inference tests: simulation, enumeration, quantiles, p-values, exactness."""

import concurrent.futures
import dataclasses
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import didperm.inference as inference
import didperm.ingest as ingest
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
    compute_cell_means,
    decide,
    did_value,
    enumerate_null,
    exactness_audit,
    generator_for,
    load_panel,
    make_fixture,
    make_histogram,
    randomization_p_value,
    simulate_null,
    write_fixture_csv,
)
from didperm import test_significance as significance_test
from didperm.datasets import INPRESS
from didperm.inference import _Law
from didperm.panel import _product_cells, _scaled
from helpers import (
    adversarial_outcomes,
    agreement_did_fraction,
    agreement_draws_bound,
    audit_p_values,
    balanced_dual_fixed,
    brute_force_did,
    canonical_labelings,
    documented_block_rows,
    enumerate_brute_force,
    enumerate_kernel,
    exact_p_law_fraction,
    inline_pool,
    kernel_stat,
    labeling_of,
    merge_ties,
    mock_distribution,
    arrangements_fixed,
    arrangements_bernoulli,
    random_estimable_sample,
    range_outcomes,
    replay_block,
    replay_run,
    sup_cdf_distance,
)

FOUR_POINT = PanelSample(y=[1.0, 2.0, 3.0, 5.0], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
AFFECTED_FIXED = RandomizationScheme(Margins.AFFECTED_ONLY, Mode.FIXED_MARGINS)
DUAL_FIXED = RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS)
DUAL_BERNOULLI = RandomizationScheme(Margins.DUAL, Mode.BERNOULLI)
AFFECTED_BERNOULLI = RandomizationScheme(Margins.AFFECTED_ONLY, Mode.BERNOULLI)
ALL_SCHEMES = [RandomizationScheme(margins, mode) for margins in Margins for mode in Mode]


def assert_matches_kernel_oracle(dist, oracle, degenerate):
    """Same discards as the scalar oracle, the sorted values each within
    the tie tolerance of the sorted `kernel_stat` values, and the same
    exact p-value for each oracle value taken as the observed one."""
    assert dist.degenerate_draws_discarded == degenerate
    assert np.all(np.abs(np.sort(dist.values) - np.sort(oracle)) <= dist.tie_tolerance)
    exact = dataclasses.replace(dist, values=oracle)
    for observed in np.unique(np.abs(oracle)).tolist():
        assert randomization_p_value(observed, dist) == randomization_p_value(observed, exact)


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

    def test_non_integer_seed_is_refused_not_truncated(self):
        with pytest.raises(TypeError):
            simulate_null(FOUR_POINT, DUAL_FIXED, 50, master_seed=1.7)

    def test_numpy_integer_seed_draws_the_same_stream(self):
        dist = simulate_null(FOUR_POINT, DUAL_FIXED, 50, master_seed=5)
        for seed in (np.uint64(5), np.int64(5)):
            other = simulate_null(FOUR_POINT, DUAL_FIXED, 50, master_seed=seed)
            assert np.array_equal(other.values, dist.values) and other.master_seed == 5

    def test_bit_identical_across_worker_counts(self, monkeypatch):
        # 2B + 7 iterations span three blocks, so worker chunks cut across
        # block boundaries; 5 workers exceed the block count.  Five CPUs
        # are claimed so that 3 workers start 3 processes on any host.
        monkeypatch.setattr(inference, "_usable_cpus", lambda: 5)
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

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_pool_is_bounded_by_usable_cpus(self, monkeypatch, cpus):
        # 5000 workers over 8 blocks: the pool takes one process per usable
        # CPU, and one CPU runs the whole run in this process.
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool(sizes))
        monkeypatch.setattr(inference, "_usable_cpus", lambda: cpus)
        iterations = 8 * documented_block_rows(FOUR_POINT.n)
        base = simulate_null(FOUR_POINT, DUAL_FIXED, iterations=iterations, master_seed=9)
        assert sizes == []
        par = simulate_null(
            FOUR_POINT, DUAL_FIXED, iterations=iterations, master_seed=9, workers=5000
        )
        assert sizes == ([cpus] if cpus > 1 else [])
        assert base.values.tobytes() == par.values.tobytes()
        assert par.degenerate_draws_discarded == base.degenerate_draws_discarded

    def test_usable_cpus_reads_affinity_then_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert inference._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert inference._usable_cpus() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert inference._usable_cpus() == 1

    @pytest.mark.parametrize("affected", [[0, 1] * 2500, [1] * 1667 + [0] * 3333])
    def test_one_row_blocks_bit_identical_across_worker_counts(self, affected):
        # n = 5000: every block is one row, block-v3 with both margins n/2
        # and block-v2 otherwise; 2 workers split the 9 blocks 4 and 5.
        sample = PanelSample(
            y=generator_for(50).standard_normal(5000), time=[0, 0, 1, 1] * 1250, affected=affected
        )
        assert documented_block_rows(sample.n) == 1
        base = simulate_null(sample, DUAL_FIXED, iterations=9, master_seed=5)
        par = simulate_null(sample, DUAL_FIXED, iterations=9, master_seed=5, workers=2)
        assert base.values.tobytes() == par.values.tobytes()
        assert par.degenerate_draws_discarded == base.degenerate_draws_discarded

    @pytest.mark.parametrize("scheme", [AFFECTED_FIXED, DUAL_FIXED, DUAL_BERNOULLI])
    def test_matches_independent_stream_replay(self, scheme):
        # Reference: replay each block's stream row by row with the
        # documented draw order (affected rows, then time rows, then
        # redraws of degenerate rows; under block-v3 counts, then agreement
        # sets, then redraws).  The four-point panel, both margins n/2,
        # crosses two block boundaries.  At n = 5000 every block is one row
        # (block-v2 subset draws, or block-v3 for `balanced`, whose
        # observation 0 disagrees); with an affected margin of 2, about half
        # of the fixed-margin draws are degenerate, so one-row redraws run too.
        rng = np.random.default_rng(22)
        large = PanelSample(
            y=rng.normal(size=5000), time=rng.integers(0, 2, 5000), affected=[0, 1] * 2500
        )
        sparse = PanelSample(y=large.y, time=large.time, affected=[1, 1] + [0] * 4998)
        balanced = PanelSample(y=large.y, time=[1, 1, 0, 0] * 1250, affected=large.affected)
        dual, fixed = scheme.margins is Margins.DUAL, scheme.mode is Mode.FIXED_MARGINS
        four_point_iterations = 2 * documented_block_rows(FOUR_POINT.n) + 60
        runs = [(FOUR_POINT, four_point_iterations, 3), (large, 3, 3), (sparse, 6, 6), (balanced, 4, 4)]
        for sample, iterations, block_count in runs:
            dist = simulate_null(sample, scheme, iterations=iterations, master_seed=21)
            blocks = replay_run(sample, dual, fixed, 21, iterations)
            labels = [pair for block_labels, _ in blocks for pair in block_labels]
            brute = [brute_force_did(sample.y, t, a) for a, t in labels]
            assert len(blocks) == block_count
            assert np.allclose(dist.values, brute, rtol=1e-12, atol=0)
            if balanced_dual_fixed(sample, dual, fixed):
                # block-v3 values come from sums over the agreement sets, within
                # the kernel's rounding bound of their exact values
                exact = [agreement_did_fraction(sample.y, a, t) for a, t in labels]
                bound = agreement_draws_bound(sample.y)
                assert max(abs(Fraction(v) - e) for v, e in zip(dist.values.tolist(), exact)) <= bound
            else:
                kernel = [kernel_stat(sample.y, t, a) for a, t in labels]
                assert dist.values.tobytes() == np.array(kernel, dtype=np.float64).tobytes()
            assert dist.degenerate_draws_discarded == sum(d for _, d in blocks)
            if sample is sparse and fixed or sample is FOUR_POINT and dual and fixed:
                assert dist.degenerate_draws_discarded > 0

    def test_rejects_inestimable_sample(self):
        s = PanelSample(y=[1, 2, 3, 4], time=[0, 0, 1, 1], affected=[0, 0, 1, 1])
        with pytest.raises(EmptyCellError):
            simulate_null(s, DUAL_FIXED, iterations=10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_null(FOUR_POINT, DUAL_FIXED, iterations=0)
        with pytest.raises(ValueError):
            simulate_null(FOUR_POINT, DUAL_FIXED, iterations=10, master_seed=-1)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            simulate_null(FOUR_POINT, DUAL_FIXED, iterations=10, workers=workers)

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


class TestAgreementDrawRounding:
    """Block-v3 values through `simulate_null`, with forced counts, against exact rationals."""

    @pytest.mark.parametrize("kind", ["offset", "powers", "range"])
    @pytest.mark.parametrize("n", [4096, 5000])
    @pytest.mark.parametrize("agrees", [True, False])
    def test_rounding_within_stated_bound(self, monkeypatch, kind, n, agrees):
        # c = 1 and c = n/2 - 1 put a cell of one pair beside one of nearly
        # n/2 observations.  n = 4096 takes two-row blocks of indicator
        # rows, n = 5000 one-row blocks of the positions of the smaller
        # side, whose other side's sum is formed from the total.  Where
        # observation 0's labels differ, each drawn set is the disagreement set.
        half = n // 2
        y = range_outcomes(n) if kind == "range" else adversarial_outcomes(kind, n)
        cells = np.arange(n) % 4 if agrees else (np.arange(n) + 1) % 4
        sample = PanelSample(y=y, time=cells % 2, affected=cells // 2)
        rng = np.random.default_rng(n)
        forced = [(c, rng.choice(n, 2 * c, replace=False)) for c in (1, half - 1, half - 1, 1)]
        queue = iter(forced)

        def forced_draw(_rng, n, rows):
            counts, drawn = [], []
            for _ in range(rows):
                c, members = next(queue)
                inside = np.zeros(n, dtype=bool)
                inside[members] = True
                counts.append(c)
                drawn.append(inside)
            if randomize.stream_block_rows(n) > 1:
                return np.array(counts), np.array(drawn)
            (c,), (inside,) = counts, drawn
            return np.array(counts), np.flatnonzero(inside if 4 * c <= n else ~inside)

        monkeypatch.setattr(inference, "draw_agreement_sets", forced_draw)
        dist = simulate_null(sample, DUAL_FIXED, iterations=len(forced), master_seed=1)
        bound = agreement_draws_bound(y)
        assert bound <= dist.tie_tolerance / 2
        for value, (c, members) in zip(dist.values.tolist(), forced):
            inside = np.zeros(n, dtype=int)
            inside[members] = 1
            if not agrees:
                inside, c = 1 - inside, half - c
            exact = agreement_did_fraction(y, *labeling_of(inside, c))
            assert abs(Fraction(value) - exact) <= bound


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
        with pytest.MonkeyPatch.context() as patch:
            # One-row blocks (block-v2) draw the positions of the rarer
            # label, or at a tie of observation 0's label, so 1 - labels
            # draws the same positions there too.
            if data.draw(st.booleans(), label="one-row blocks"):
                patch.setattr(randomize, "_BLOCK_ENTRIES", 1)
            base = simulate_null(sample, scheme, iterations=iterations, master_seed=seed)
            flipped = simulate_null(swapped, scheme, iterations=iterations, master_seed=seed)
        assert np.array_equal(flipped.values, -base.values)
        assert flipped.degenerate_draws_discarded == base.degenerate_draws_discarded


class TestEnumerateNull:
    def test_affected_only_hand_tabulated_values(self):
        # All C(4,2) = 6 affected arrangements of the 4-point panel, by
        # the positions of their ones: {0,1} -> -1, {0,2} -> empty cell,
        # {0,3} -> 5, {1,2} -> -5, {1,3} -> empty cell, {2,3} -> 1 (the
        # observed labeling).  The values come in increasing order.
        dist = enumerate_null(FOUR_POINT, AFFECTED_FIXED)
        assert dist.iterations_requested == 6
        assert dist.degenerate_draws_discarded == 2
        assert np.array_equal(dist.values, [-5.0, -1.0, 1.0, 5.0])
        assert dist.source is Source.EXACT_ENUMERATION

    def test_dual_visits_all_pairs(self):
        dist = enumerate_null(FOUR_POINT, DUAL_FIXED)
        assert dist.iterations_requested == 36
        assert dist.iterations_retained == 24
        assert dist.degenerate_draws_discarded == 12
        # plain ints, so counts serialize as JSON like every other field
        assert type(dist.iterations_requested) is int
        assert type(dist.degenerate_draws_discarded) is int

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
        assert np.allclose(dist.values, np.sort(kept), rtol=1e-10, atol=1e-12)

    def test_dual_bernoulli_small_space(self):
        s = PanelSample(y=[0.3, -1.2, 0.7, 2.2], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
        dist = enumerate_null(s, DUAL_BERNOULLI)
        assert dist.iterations_requested == 256
        reference = enumerate_brute_force(s.y, s.time, s.affected, dual=True, fixed=False)
        kept = [v for v in reference if v is not None]
        assert np.allclose(dist.values, np.sort(kept), rtol=1e-10, atol=1e-12)

    def test_block_size_does_not_change_values(self, monkeypatch):
        # The default budget takes each space but dual/Bernoulli (uneven
        # blocks of 56 and 8 affected rows) in one call.  A budget of 10000
        # gives the dual spaces uneven blocks of 8 and 6, and 2, affected
        # rows.  Budgets of 100 and 1000 entries make every dual call a
        # single affected row against an uneven split of the time side (11
        # and 111 rows per call), and give the affected-only spaces (126 and
        # 512 rows) uneven blocks of 11 and 111 rows.
        rng = np.random.default_rng(62)
        s = PanelSample(
            y=rng.normal(size=9),
            time=[0, 1, 0, 1, 0, 1, 0, 1, 1],
            affected=[0, 0, 0, 1, 1, 1, 0, 1, 0],
        )
        baselines = [enumerate_null(s, scheme) for scheme in ALL_SCHEMES]
        for budget in (100, 1000, 10_000):
            monkeypatch.setattr(randomize, "_ENUM_ENTRIES", budget)
            for scheme, baseline in zip(ALL_SCHEMES, baselines):
                blocked = enumerate_null(s, scheme)
                assert np.array_equal(baseline.values, blocked.values)
                assert blocked.degenerate_draws_discarded == baseline.degenerate_draws_discarded

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("y", [np.arange(7.0) ** 1.5 - 4.1, [0.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0]])
    def test_bitwise_equal_to_scalar_kernel_oracle(self, scheme, y):
        # Every retained value is within the tie tolerance of the scalar
        # oracle `kernel_stat` on its labeling (the product-form kernel
        # rounds three cell sums differently), so ties (integer outcomes
        # tie often) and exact p-values are the oracle's.
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
        assert_matches_kernel_oracle(dist, values, degenerate)

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
        assert_matches_kernel_oracle(dist, values, degenerate)

    def test_exact_p_value_counts_observed_labeling(self):
        # the observed arrangement is in the space, so its value is within
        # the tie tolerance of one of the null values and the exact p-value
        # is bounded below by one over the estimable count
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
                assert np.min(np.abs(dist.values - observed)) <= dist.tie_tolerance
                raw, _ = randomization_p_value(observed, dist)
                assert raw >= 1 / dist.iterations_retained

    @pytest.mark.parametrize("outcomes", ["offset", "rounding"])
    def test_observed_labeling_counted_at_large_n(self, outcomes):
        # n = 300, time margin n - 2, affected margin 2.  The enumeration
        # takes the sum of the one-observation cell (neither affected nor
        # in the time side) by inclusion-exclusion from sums over about n
        # outcomes.  "offset": y = 1e6 + N(0, 1).  "rounding": after a
        # climb, outcomes of -1 and +1 keep the time side's partial sums
        # just below 128 and the whole sample's just above it, so the last
        # ~170 additions of the two round on grids one ulp apart.  Summed
        # uncentred, that put the observed labeling's enumerated value
        # 1.7 times 8*n*eps*max|y| away from the observed value.
        n = 300
        if outcomes == "offset":
            y = 1e6 + generator_for(300).standard_normal(n)
        else:
            ulp = 2.0**-52
            y = np.ones(n)
            y[0], y[1] = 2.75, 1.5
            y[126:-1] = np.where(np.arange(n - 127) % 2, 1 + 66 * ulp, -(1 + 32 * ulp))
        time = np.ones(n, dtype=np.int8)
        time[[0, -1]] = 0
        affected = np.zeros(n, dtype=np.int8)
        affected[[0, 1]] = 1
        sample = PanelSample(y=y, time=time, affected=affected)
        observed = did_value(sample)
        dist = enumerate_null(sample, AFFECTED_FIXED)
        # Enumerated values do not depend on the blocking, so a one-pair
        # block gives the observed labeling's value in `dist`.
        value, estimable = _product_cells(affected[None], time[None], *_scaled(y))
        assert estimable[0] and value[0] in dist.values
        assert abs(value[0] - observed) <= dist.tie_tolerance
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


# Each observed cell holds 1.5e308 and -1.5e308, so every cell mean and the
# observed DiD are 0.0, but a relabeling that puts 1.5e308 twice in one
# cell overflows.
OVERFLOWING = PanelSample(
    y=[1.5e308, -1.5e308] * 4, time=[0] * 4 + [1] * 4, affected=[0, 0, 1, 1] * 2
)
BUILDERS = {
    "simulate_null": lambda sample, scheme: simulate_null(sample, scheme, iterations=30),
    "enumerate_null": enumerate_null,
}
LARGEST = float(np.finfo(np.float64).max)
DOCUMENTED = (EmptyCellError, ValueError, TooManyDegenerateDrawsError, SpaceTooLargeError)


class TestBuildersEndInANullOrADocumentedError:
    """No relabeling of finite outcomes, however large, lets a warning out of a builder."""

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_overflowed_value_is_refused_as_not_finite(self, builder, scheme):
        assert did_value(OVERFLOWING) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="null distribution values must all be finite"):
                BUILDERS[builder](OVERFLOWING, scheme)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        labels=st.integers(4, 10).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
            )
        ),
        outcomes=st.lists(
            st.sampled_from([0.0, 1.0, -2.5, 1.5e308, -1.5e308, LARGEST, -LARGEST])
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=10,
            max_size=10,
        ),
        scheme=st.sampled_from(ALL_SCHEMES),
    )
    def test_any_finite_panel_ends_in_a_null_or_a_documented_error(self, labels, outcomes, scheme):
        time, affected = labels
        sample = PanelSample(y=outcomes[: len(time)], time=time, affected=affected)
        for build in BUILDERS.values():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    assert isinstance(build(sample, scheme), NullDistribution)
                except DOCUMENTED:
                    pass


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

    def test_values_must_be_a_vector(self):
        with pytest.raises(ValueError, match="1-d vector"):
            mock_distribution(np.zeros((2, 2)))

    @pytest.mark.parametrize("tolerance", [-1e-12, math.inf, math.nan])
    def test_tie_tolerance_must_be_finite_and_non_negative(self, tolerance):
        with pytest.raises(ValueError, match="tie_tolerance"):
            dataclasses.replace(mock_distribution([1.0, 2.0]), tie_tolerance=tolerance)

    @pytest.mark.parametrize(
        "result, field",
        [
            (lambda: FOUR_POINT, "y"),
            (lambda: FOUR_POINT, "time"),
            (lambda: FOUR_POINT, "affected"),
            (lambda: compute_cell_means(FOUR_POINT), "means"),
            (lambda: compute_cell_means(FOUR_POINT), "counts"),
            (lambda: enumerate_null(FOUR_POINT, DUAL_FIXED), "values"),
            (lambda: simulate_null(FOUR_POINT, AFFECTED_FIXED, iterations=20), "values"),
            (lambda: exactness_audit(6, 3, 3, AFFECTED_FIXED), "statistic_values"),
            (lambda: exactness_audit(6, 3, 3, AFFECTED_FIXED), "p_levels"),
            (lambda: exactness_audit(6, 3, 3, AFFECTED_FIXED), "level_counts"),
        ],
        ids=[
            "sample.y",
            "sample.time",
            "sample.affected",
            "cells.means",
            "cells.counts",
            "exact.values",
            "monte-carlo.values",
            "audit.statistic_values",
            "audit.p_levels",
            "audit.level_counts",
        ],
    )
    def test_values_are_held_read_only(self, result, field):
        # Every frozen result holds its arrays by one rule: a writeable
        # array or a view is copied; a read-only array that owns its
        # memory, such as the array of another result, is kept as it is.
        result = result()
        held = getattr(result, field)
        assert not held.flags.writeable and held.flags.owndata
        source = held.copy()
        copied = getattr(dataclasses.replace(result, **{field: source}), field)
        source += 1
        assert copied.tobytes() == held.tobytes() and copied.dtype == held.dtype
        assert not copied.flags.writeable
        view = getattr(dataclasses.replace(result, **{field: held[:]}), field)
        assert not view.flags.writeable and not np.shares_memory(view, held)
        assert getattr(dataclasses.replace(result, **{field: held}), field) is held

    @pytest.mark.parametrize(
        "module, result, field, produce",
        [
            (
                ingest,
                "PanelSample",
                "y",
                lambda path: load_panel(write_fixture_csv(path, FOUR_POINT)),
            ),
            (
                inference,
                "NullDistribution",
                "values",
                lambda path: enumerate_null(FOUR_POINT, DUAL_FIXED),
            ),
            (
                inference,
                "NullDistribution",
                "values",
                lambda path: simulate_null(FOUR_POINT, AFFECTED_FIXED, iterations=20),
            ),
        ],
        ids=["load_panel", "enumerate_null", "simulate_null"],
    )
    def test_producers_hand_over_without_a_copy(
        self, monkeypatch, tmp_path, module, result, field, produce
    ):
        # The array a producer has just built is the one its result holds.
        handed = []
        build = getattr(module, result)

        def capture(**fields):
            handed.append(fields[field])
            return build(**fields)

        monkeypatch.setattr(module, result, capture)
        assert getattr(produce(tmp_path / "panel.csv"), field) is handed[0]


def product_walk(sample, scheme):
    """The retained values of the product-form walk over every space, and its discard count."""
    blocks = randomize.enumerate_relabelings(sample.affected, sample.time, scheme)
    prepared = _scaled(sample.y)  # once per run, as `enumerate_null` prepares it
    parts = [drawn[kept] for drawn, kept in (_product_cells(a, t, *prepared) for a, t in blocks)]
    values = np.concatenate(parts)
    size = randomize.space_size(sample.n, sample.n_affected, sample.n_time, scheme)
    return values, size - values.size


def balanced_sample(n, outcomes):
    rng = generator_for(n)
    half = np.arange(n) < n // 2
    y = {
        "normal": rng.standard_normal(n),
        "offset": rng.standard_normal(n) + 5e3,
        "integers": rng.integers(-2, 3, n).astype(float),
    }[outcomes]
    return PanelSample(y=y, time=rng.permutation(half), affected=rng.permutation(half))


def route_calls(monkeypatch):
    """The names of the kernels that `enumerate_null` calls, one entry per call."""
    calls = []
    for name in ("_agreement_draws", "_product_cells"):

        def spy(*args, name=name, kernel=getattr(inference, name)):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(inference, name, spy)
    return calls


class TestAgreementSetRoute:
    """Balanced dual fixed-margin spaces take their law from their agreement sets."""

    @pytest.mark.parametrize("outcomes", ["normal", "offset", "integers"])
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_matches_product_walk(self, monkeypatch, n, outcomes):
        sample = balanced_sample(n, outcomes)
        calls = route_calls(monkeypatch)
        dist = enumerate_null(sample, DUAL_FIXED)
        assert calls == ["_agreement_draws"]
        values, discarded = product_walk(sample, DUAL_FIXED)
        assert dist.iterations_requested == math.comb(n, n // 2) ** 2
        assert_matches_kernel_oracle(dist, values, discarded)

    @pytest.mark.parametrize(
        "n, scheme, outcomes",
        [
            pytest.param(4, DUAL_FIXED, "normal", id="4"),
            pytest.param(8, DUAL_FIXED, "normal", id="8"),
            pytest.param(12, DUAL_FIXED, "normal", id="12"),
            pytest.param(8, DUAL_FIXED, "integers", id="8-integers"),
            pytest.param(9, DUAL_FIXED, "integers", id="9-dual-fixed"),
            pytest.param(7, DUAL_BERNOULLI, "integers", id="7-dual-bernoulli"),
            pytest.param(9, AFFECTED_FIXED, "integers", id="9-affected-fixed"),
            pytest.param(9, AFFECTED_BERNOULLI, "normal", id="9-affected-bernoulli"),
        ],
    )
    def test_law_is_that_of_the_values(self, n, scheme, outcomes):
        # Every exact null is its law: the values are non-decreasing, and
        # the law that `enumerate_null` fills as it builds them is the one
        # `np.unique` gives on them.
        dist = enumerate_null(balanced_sample(n, outcomes), scheme)
        assert np.all(dist.values[1:] >= dist.values[:-1])
        support, counts = np.unique(dist.values, return_counts=True)
        assert "_law" in vars(dist)
        assert dist._law.support.tobytes() == support.tobytes()
        assert np.array_equal(dist._law.below, np.concatenate([[0], np.cumsum(counts)]))

    @pytest.mark.parametrize(
        "scheme, ones",
        [(DUAL_FIXED, (4, 3)), (DUAL_FIXED, (3, 3)), (DUAL_BERNOULLI, (4, 4)), (AFFECTED_FIXED, (4, 4))],
    )
    def test_no_route_off_balanced_dual_fixed_margins(self, monkeypatch, scheme, ones):
        positions = np.arange(8)
        sample = PanelSample(
            y=generator_for(8).standard_normal(8), time=positions < ones[1], affected=positions < ones[0]
        )
        calls = route_calls(monkeypatch)
        enumerate_null(sample, scheme)
        assert calls and set(calls) == {"_product_cells"}


# Heavily tied values: a few atoms, neighbours one ulp apart, and free floats.
TIED = st.lists(
    st.one_of(
        st.sampled_from([-2.5, -1.0, 0.0, 0.3, 0.3 + 2**-54, 1.0, 1.0 + 2**-52, 7.0]),
        st.floats(-1e3, 1e3).map(lambda v: v + 0.0),  # no -0.0: its sign may differ
    ),
    min_size=1,
    max_size=40,
)
LEVELS = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e-17, 0.025, 0.5 - 2**-53, 0.5, 0.5 + 2**-53, 0.975, 1 - 2**-53, 1.0]),
    st.floats(0.0, 1.0),
)


class TestSortedLaw:
    """Every consumer of a null reads its sorted law; numpy's rules on the values pin it."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=TIED, q=LEVELS)
    # At a weight of exactly 1/2 numpy interpolates down from the upper
    # neighbour; from the lower one, these round to another float.
    @example(values=[-2.5, 0.3], q=0.5)
    @example(values=[7.0, 0.3, -1.0, 0.3, 1.0], q=0.625)
    @example(values=[0.3], q=0.5)
    def test_quantile_is_numpys_bit_for_bit(self, values, q):
        dist = mock_distribution(values)
        expected = np.quantile(dist.values, q)
        assert np.float64(dist._law.quantile(q)).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None, database=None)
    @given(values=TIED, alpha=st.floats(1e-6, 1 - 1e-6))
    def test_bounds_are_numpys_quantiles(self, values, alpha):
        dist = mock_distribution(values)
        result = significance_test(0.0, dist, alpha)
        assert result.lower == float(np.quantile(dist.values, alpha / 2.0))
        assert result.upper == float(np.quantile(dist.values, 1.0 - alpha / 2.0))

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        values=TIED,
        observed=st.one_of(st.sampled_from([0.0, 0.3, -1.0, 2.5, 1e-13]), st.floats(-1e3, 1e3)),
        tol=st.sampled_from([0.0, 1e-12, 2**-52, 0.7, 3.0]),
    )
    @example(values=[0.3], observed=0.3, tol=0.7)
    def test_p_value_is_the_count_rule(self, values, observed, tol):
        # Cuts |observed| - tol <= 0 count every value.
        dist = dataclasses.replace(mock_distribution(values), tie_tolerance=tol)
        m = dist.iterations_retained
        count = int(np.count_nonzero(np.abs(dist.values) >= abs(observed) - tol))
        assert randomization_p_value(observed, dist) == (count / m, (1 + count) / (m + 1))

    @settings(max_examples=100, deadline=None, database=None)
    @given(values=TIED, data=st.data())
    def test_weighted_law_is_that_of_the_repeated_values(self, values, data):
        counts = np.array(data.draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values))))
        order = np.argsort(values)
        law = _Law.of(np.array(values)[order], counts[order])
        support, repeats = np.unique(np.repeat(values, counts), return_counts=True)
        assert law.support.tobytes() == support.tobytes()
        assert np.array_equal(law.below, np.concatenate([[0], np.cumsum(repeats)]))


class TestOracleConvergence:
    def test_monte_carlo_cdf_tracks_exact_cdf_small_panel(self):
        exact = enumerate_null(FOUR_POINT, DUAL_FIXED)
        mc = simulate_null(FOUR_POINT, DUAL_FIXED, iterations=50000, master_seed=17)
        # DKW at 99% for 50000 draws is ~0.0073; allow 0.01
        assert sup_cdf_distance(mc.values, exact.values) <= 0.01


class TestAgreementDrawLaw:
    """Block-v3 draws against `enumerate_null`'s law at n = 12, both margins 6."""

    SAMPLE = PanelSample(
        y=generator_for(1212).standard_normal(12), time=[0, 1] * 6, affected=[0, 0, 1, 1] * 3
    )

    @pytest.mark.parametrize("one_row", [False, True])
    def test_support_frequencies_and_discard_rate(self, monkeypatch, one_row):
        # The law has 2,046 atoms, one per estimable agreement set (2c
        # members, 1 <= c <= 5), of 400 to 504 relabelings each out of
        # 924**2; c = 0 or 6 empties a cell, with probability 2/924 per
        # draw.  Multi-row values are the enumeration's values bit for bit;
        # one-row values (shrunk block budget) are matched within the tie
        # tolerance, far below the gaps between atoms.
        if one_row:
            monkeypatch.setattr(randomize, "_BLOCK_ENTRIES", 12)
        iterations = 30_000 if one_row else 200_000
        exact = enumerate_null(self.SAMPLE, DUAL_FIXED)
        mc = simulate_null(self.SAMPLE, DUAL_FIXED, iterations=iterations, master_seed=1213)
        support = exact._law.support
        assert support.size == 2046
        assert np.diff(support).min() > 2 * mc.tie_tolerance
        nearest = np.clip(np.searchsorted(support, mc.values), 1, support.size - 1)
        nearest -= mc.values - support[nearest - 1] < support[nearest] - mc.values
        if one_row:
            assert np.all(np.abs(support[nearest] - mc.values) <= mc.tie_tolerance)
        else:
            assert np.array_equal(support[nearest], mc.values)
        observed = np.bincount(nearest, minlength=support.size)
        expected = iterations * np.diff(exact._law.below) / exact.iterations_retained
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        df = support.size - 1
        assert abs(chi2 - df) / math.sqrt(2 * df) < 5
        # Discards before `iterations` estimable draws: negative binomial.
        p = 2 / 924
        mean, sd = iterations * p / (1 - p), math.sqrt(iterations * p) / (1 - p)
        assert abs(mc.degenerate_draws_discarded - mean) < 5 * sd


class TestOneRowBlockLaw:
    """The one-row draws, run at n = 8 by shrinking the block budget.

    Both margins at 4 take block-v3's positions of one side of the
    agreement set; every other case block-v2's subset draw.
    """

    @pytest.mark.parametrize("scheme", [AFFECTED_FIXED, DUAL_FIXED, DUAL_BERNOULLI])
    @pytest.mark.parametrize("k", [4, 3])
    def test_matches_exact_law(self, monkeypatch, scheme, k):
        # Both margins hold k of 8: a tie at k = 4.  DKW at 99% for 20000
        # draws bounds the sup distance between CDFs by about 0.0115.
        monkeypatch.setattr(randomize, "_BLOCK_ENTRIES", 8)
        assert randomize.stream_block_rows(8) == 1
        sample = PanelSample(
            y=generator_for(81).standard_normal(8),
            time=[1] + [0] * (k - 1) + [1] * (k - 1) + [0] * (9 - 2 * k),
            affected=[1] * k + [0] * (8 - k),
        )
        exact = enumerate_null(sample, scheme)
        mc = simulate_null(sample, scheme, iterations=20000, master_seed=k)
        if scheme == AFFECTED_FIXED or (scheme == DUAL_FIXED and k == 4):
            # The affected-only law has atoms of 1/70, and at k = 4 the dual
            # law has one atom per agreement set, whose relabelings all take
            # one bitwise-equal value.  The two kernels can round one
            # relabeling apart and split an atom, so values that tie within
            # the enumeration's tolerance are merged first.
            merged = merge_ties(exact.tie_tolerance, mc.values, exact.values)
            assert sup_cdf_distance(*merged) <= 0.0115
        else:
            assert sup_cdf_distance(mc.values, exact.values) <= 0.0115


@st.composite
def small_panels(draw):
    """Estimable panels of 4 to 10 observations, half of them with balanced margins."""
    n = draw(st.integers(4, 10))
    if draw(st.booleans(), label="balanced"):  # block-v3 and the agreement-set route
        n -= n % 2
        c = draw(st.integers(1, n // 2 - 1))
        cells = [0, 3] * c + [1, 2] * (n // 2 - c)
    else:
        cells = [0, 1, 2, 3] + draw(st.lists(st.integers(0, 3), min_size=n - 4, max_size=n - 4))
    cells = np.array(draw(st.permutations(cells)))
    # Outcomes far from the subnormal range, so that no scaled sum loses a bit.
    outcome = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v == 0 or abs(v) > 1e-100),
    )
    y = draw(st.lists(outcome, min_size=n, max_size=n))
    return PanelSample(y=y, time=cells % 2, affected=cells // 2)


class TestPowerOfTwoScaling:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        sample=small_panels(),
        scheme=st.sampled_from(ALL_SCHEMES),
        k=st.integers(-30, 30),
        exact=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_decisions_are_invariant_and_values_scale_exactly(self, sample, scheme, k, exact, seed):
        # Multiplying every outcome by 2**k multiplies every sum, mean and
        # difference by 2**k with no rounding, so each value, bound, edge
        # and the tie tolerance scales bit for bit, and every count,
        # p-value and decision is the same.  Other factors and shifts
        # round differently and are left out.
        factor = 2.0**k
        scaled = PanelSample(y=sample.y * factor, time=sample.time, affected=sample.affected)
        if exact:
            base, other = enumerate_null(sample, scheme), enumerate_null(scaled, scheme)
        else:
            base = simulate_null(sample, scheme, iterations=60, master_seed=seed)
            other = simulate_null(scaled, scheme, iterations=60, master_seed=seed)
        assert other.values.tobytes() == (base.values * factor).tobytes()
        assert other.degenerate_draws_discarded == base.degenerate_draws_discarded
        assert other.tie_tolerance == base.tie_tolerance * factor
        result = significance_test(did_value(sample), base)
        scaled_result = significance_test(did_value(scaled), other)
        assert scaled_result.observed == result.observed * factor
        assert scaled_result.lower == result.lower * factor
        assert scaled_result.upper == result.upper * factor
        assert scaled_result.reject == result.reject
        assert scaled_result.p_value == result.p_value
        assert scaled_result.p_value_corrected == result.p_value_corrected
        histogram, scaled_histogram = make_histogram(base, 7), make_histogram(other, 7)
        assert [c for _, _, c in scaled_histogram] == [c for _, _, c in histogram]
        # numpy widens a null of one value to [v - 0.5, v + 0.5], which does not scale.
        if base.values.min() != base.values.max():
            edges = [(lo * factor, hi * factor) for lo, hi, _ in histogram]
            assert [(lo, hi) for lo, hi, _ in scaled_histogram] == edges


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
        assert np.allclose(audit_p_values(report), expected, rtol=1e-12)
        assert report.worst_violation() <= 0.0

    def test_non_integer_margins_are_refused_not_truncated(self):
        with pytest.raises(TypeError):
            exactness_audit(12.9, 6.7, 6.2, AFFECTED_FIXED)

    def test_numpy_integer_arguments_audit_the_same_space(self):
        report = exactness_audit(12, 6, 6, AFFECTED_FIXED, outcome_seed=5)
        other = exactness_audit(
            np.int64(12), np.uint64(6), np.int64(6), AFFECTED_FIXED, outcome_seed=np.uint64(5)
        )
        assert (other.n, other.n_affected, other.n_time) == (12, 6, 6)
        assert other.total_relabelings == report.total_relabelings
        assert np.array_equal(other.p_levels, report.p_levels)
        assert np.array_equal(other.level_counts, report.level_counts)

    def test_matches_exact_rational_oracle(self):
        y = generator_for(5).standard_normal(6)
        time0 = np.array([1, 1, 1, 0, 0, 0])
        pairs = [(a, time0) for a in arrangements_fixed(6, 3)]
        oracle = [float(p) for p in exact_p_law_fraction(y, pairs)]
        report = exactness_audit(6, 3, 3, AFFECTED_FIXED, outcome_seed=5)
        assert np.allclose(audit_p_values(report), oracle, rtol=0, atol=0)

    def test_unbalanced_margin_gives_full_uniform_grid(self):
        report = exactness_audit(7, 3, 3, AFFECTED_FIXED, outcome_seed=11)
        m = report.estimable_relabelings
        assert np.allclose(
            audit_p_values(report), [(k + 1) / m for k in range(m)], rtol=1e-12
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
        assert np.allclose(audit_p_values(report), oracle, rtol=0, atol=0)

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
        assert np.allclose(audit_p_values(report), oracle, rtol=0, atol=0)

    def test_constant_outcomes_p_is_one_everywhere(self):
        report = exactness_audit(
            6, 3, 3, AFFECTED_FIXED, outcome_seed=0, outcomes=np.full(6, 2.5)
        )
        assert np.all(audit_p_values(report) == 1.0)

    def test_impossible_margin_raises(self):
        with pytest.raises(ValueError):
            exactness_audit(4, 1, 2, AFFECTED_FIXED, outcome_seed=0)

    @pytest.mark.parametrize("n_time", [0, 6])
    def test_time_margin_out_of_range_raises(self, n_time):
        with pytest.raises(ValueError, match="n_time"):
            exactness_audit(6, 3, n_time, DUAL_FIXED)

    @pytest.mark.parametrize("outcomes", [np.zeros(5), np.zeros((2, 6))])
    def test_outcomes_of_the_wrong_shape_raise(self, outcomes):
        with pytest.raises(ValueError, match="length-6 vector"):
            exactness_audit(6, 3, 3, DUAL_FIXED, outcomes=outcomes)

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
        loop = max(report.rejection_rate(a) - a for a in np.unique(audit_p_values(report)))
        assert report.worst_violation() == loop

    @pytest.mark.parametrize("offset", [0.0, 5e3])
    @pytest.mark.parametrize(
        "n, k, scheme",
        [
            (6, 3, DUAL_FIXED),
            (8, 4, DUAL_FIXED),
            (8, 3, DUAL_FIXED),
            (5, 2, DUAL_BERNOULLI),
            (6, 3, DUAL_BERNOULLI),
        ],
    )
    def test_balanced_dual_matches_exact_rational_oracle(self, n, k, scheme, offset):
        # At n_affected = n_time the group/time swap and equal cell counts
        # make relabelings tie in exact arithmetic that round apart; the
        # tie tolerance counts them, also when y sits far from zero.
        y = generator_for(0).standard_normal(n) + offset
        report = exactness_audit(n, k, k, scheme, outcomes=y)
        base = [1] * k + [0] * (n - k)
        fixed = scheme.mode is Mode.FIXED_MARGINS
        pairs = canonical_labelings(base, base, dual=True, fixed=fixed)
        oracle = [float(p) for p in exact_p_law_fraction(y, pairs)]
        assert np.array_equal(audit_p_values(report), oracle)

    @pytest.mark.parametrize(
        "y",
        [
            generator_for(0).standard_normal(8),
            generator_for(0).standard_normal(8) + 5e3,
            np.array([8e307] + [0.0] * 7),
        ],
        ids=["y", "y+5e3", "huge"],
    )
    def test_p_values_are_those_of_randomization_p_value(self, y):
        # The audit counts the tie rule by sorting, `randomization_p_value`
        # by a scan; both must count the same values for every statistic.
        report = exactness_audit(8, 4, 4, DUAL_FIXED, outcomes=y)
        positions = np.arange(8)
        sample = PanelSample(y=y, time=positions < 4, affected=positions < 4)
        dist = enumerate_null(sample, DUAL_FIXED)
        assert report.statistic_values.tobytes() == dist.values.tobytes()
        scanned = [randomization_p_value(s, dist)[0] for s in report.statistic_values]
        levels, counts = np.unique(scanned, return_counts=True)
        assert report.p_levels.tobytes() == levels.tobytes()
        assert report.level_counts.tobytes() == counts.tobytes()

    def test_space_cap_enforced(self):
        with pytest.raises(SpaceTooLargeError):
            exactness_audit(40, 20, 20, DUAL_FIXED, outcome_seed=0)
