"""Randomizer tests: determinism, margin preservation, and uniformity laws."""

import itertools
import math

import numpy as np
import pytest

from didperm import (
    ENUMERATION_CAP,
    Margins,
    Mode,
    PanelSample,
    RandomizationScheme,
    SpaceTooLargeError,
    derive_seed,
    generator_for,
    simulate_null,
)
from didperm.randomize import (
    _combinations,
    _stream_contract,
    draw_agreement_sets,
    draw_relabelings,
    enumerate_agreement_sets,
    space_size,
)
from helpers import arrangements_fixed, documented_block_rows, kernel_stat, replay_run

SAMPLE = PanelSample(y=[1.0, 2.0, 3.0, 5.0], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
AFFECTED_FIXED = RandomizationScheme(Margins.AFFECTED_ONLY, Mode.FIXED_MARGINS)
AFFECTED_BERNOULLI = RandomizationScheme(Margins.AFFECTED_ONLY, Mode.BERNOULLI)
DUAL_FIXED = RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS)
DUAL_BERNOULLI = RandomizationScheme(Margins.DUAL, Mode.BERNOULLI)


def draw(affected, time, scheme, seed, rows=1):
    """`draw_relabelings` of `rows` relabelings from the stream `seed` = (master, index)."""
    affected = np.asarray(affected, dtype=np.int64)
    time = np.asarray(time, dtype=np.int64)
    return draw_relabelings(generator_for(*seed), affected, time, scheme, rows)


def affected_row(labels, scheme, seed):
    """Relabeled affected vector of a one-row draw from the stream `seed`."""
    return draw(labels, labels, scheme, seed)[0][0]


class TestSeedContract:
    def test_same_stream_reproduces_every_draw(self):
        seed = (99, 123)
        labels = [0, 1, 1, 0, 1]
        assert np.array_equal(
            affected_row(labels, AFFECTED_FIXED, seed), affected_row(labels, AFFECTED_FIXED, seed)
        )
        zeros = np.zeros(64, dtype=np.int64)
        assert np.array_equal(
            affected_row(zeros, AFFECTED_BERNOULLI, seed),
            affected_row(zeros, AFFECTED_BERNOULLI, seed),
        )
        scheme = RandomizationScheme(Margins.DUAL, Mode.BERNOULLI)
        a1, t1 = draw(SAMPLE.affected, SAMPLE.time, scheme, seed)
        a2, t2 = draw(SAMPLE.affected, SAMPLE.time, scheme, seed)
        assert np.array_equal(a1, a2)
        assert np.array_equal(t1, t2)

    def test_different_iterations_differ(self):
        zeros = np.zeros(32, dtype=np.int64)
        draws = {
            affected_row(zeros, AFFECTED_BERNOULLI, (5, k)).tobytes() for k in range(16)
        }
        assert len(draws) == 16

    def test_generator_for_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            generator_for(-1)
        with pytest.raises(ValueError):
            generator_for(2**64)
        with pytest.raises(ValueError):
            generator_for(0, -3)

    def test_run_is_concatenation_of_block_replays(self):
        # Every block is replayed alone from its own fresh generator; the run
        # is their concatenation.  A shorter run of whole blocks is a prefix
        # of it; a partial last block draws fewer rows, so it is not.
        rng = np.random.default_rng(77)
        sample = PanelSample(
            y=rng.normal(size=600), time=rng.integers(0, 2, 600), affected=[0, 1] * 300
        )
        rows = documented_block_rows(sample.n)
        assert rows == 13
        iterations = 3 * rows + 5
        for margins in Margins:
            for mode in Mode:
                scheme = RandomizationScheme(margins, mode)
                dual, fixed = margins is Margins.DUAL, mode is Mode.FIXED_MARGINS
                dist = simulate_null(sample, scheme, iterations=iterations, master_seed=777)
                replayed = [
                    kernel_stat(sample.y, t, a)
                    for labels, _ in replay_run(sample, dual, fixed, 777, iterations)
                    for a, t in labels
                ]
                assert dist.values.tobytes() == np.array(replayed).tobytes()
                prefix = simulate_null(sample, scheme, iterations=2 * rows, master_seed=777)
                assert np.array_equal(prefix.values, dist.values[: 2 * rows])

    def test_derive_seed_is_deterministic_and_spread(self):
        a = derive_seed(42, 1, 2)
        assert a == derive_seed(42, 1, 2)
        assert 0 <= a < 2**64
        seeds = {derive_seed(42, domain, rep) for domain in range(4) for rep in range(64)}
        assert len(seeds) == 256


class TestPermuteFixed:
    """Fixed-margin draws: each row is a uniformly random rearrangement."""

    def test_two_element_space_is_fair(self):
        flips = sum(
            affected_row([1, 0], AFFECTED_FIXED, (0, k))[0] == 0 for k in range(4000)
        )
        # binomial(4000, 1/2): 4 sigma is ~126
        assert abs(flips - 2000) <= 130

    def test_constant_vectors_are_fixed_points(self):
        for labels in ([1, 1, 1], [0, 0, 0, 0]):
            out = affected_row(labels, AFFECTED_FIXED, (3, 9))
            assert np.array_equal(out, labels)

    def test_margin_preserved_on_every_draw(self):
        rng = np.random.default_rng(31)
        for k in range(200):
            labels = rng.integers(0, 2, size=int(rng.integers(2, 30)))
            if labels.sum() in (0, labels.size):
                continue
            out = affected_row(labels, AFFECTED_FIXED, (17, k))
            assert out.sum() == labels.sum()
            assert sorted(out.tolist()) == sorted(labels.tolist())

    def test_uniform_over_all_arrangements(self):
        # C(6,3) = 20 arrangements; 60000 draws, expected 3000 each,
        # sigma = sqrt(60000 * (1/20)(19/20)) ~ 53.4, 4 sigma ~ 214.
        # Drawn as 15 blocks of 4000 rows, the path simulate_null runs.
        labels = np.array([1, 1, 1, 0, 0, 0])
        codes = []
        for b in range(15):
            block, _ = draw(labels, 1 - labels, AFFECTED_FIXED, (1234, b), rows=4000)
            codes.append(block @ (1 << np.arange(6)))
        counts = np.unique(np.concatenate(codes), return_counts=True)[1]
        assert counts.size == 20
        assert np.abs(counts - 3000).max() <= 214


class TestDrawBernoulli:
    """Bernoulli draws: every label an independent fair coin flip."""

    def test_single_draw_is_binary(self):
        for k in range(8):
            assert affected_row([0], AFFECTED_BERNOULLI, (2, k))[0] in (0, 1)

    def test_fair_coin_fraction(self):
        zeros = np.zeros(10000, dtype=np.int64)
        frac = affected_row(zeros, AFFECTED_BERNOULLI, (77, 0)).mean()
        assert 0.48 <= frac <= 0.52


class TestRelabel:
    """(affected, time) relabelings under each margins setting."""

    def test_affected_only_passes_time_through(self):
        for k in range(20):
            seed = (4, k)
            new_affected, new_time = draw(SAMPLE.affected, SAMPLE.time, AFFECTED_FIXED, seed)
            assert np.array_equal(new_time[0], SAMPLE.time)
            assert new_affected[0].sum() == SAMPLE.affected.sum()

    def test_dual_fixed_preserves_both_margins(self):
        scheme = RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS)
        rng = np.random.default_rng(41)
        sample = PanelSample(
            y=rng.normal(size=12),
            time=[0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
            affected=[1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0],
        )
        for k in range(100):
            new_affected, new_time = draw(sample.affected, sample.time, scheme, (8, k))
            assert new_affected[0].sum() == sample.affected.sum()
            assert new_time[0].sum() == sample.time.sum()

    def test_dual_bernoulli_time_vectors_uniform(self):
        # 2^8 = 256 possible time vectors; 80000 draws, expected 312.5,
        # sigma ~ 17.7, 5 sigma ~ 88.  Drawn as 20 blocks of 4000 rows, the
        # path simulate_null runs.
        rng = np.random.default_rng(42)
        sample = PanelSample(
            y=rng.normal(size=8), time=[0, 1] * 4, affected=[0, 0, 1, 1] * 2
        )
        scheme = RandomizationScheme(Margins.DUAL, Mode.BERNOULLI)
        counts = np.zeros(256, dtype=int)
        weights = 1 << np.arange(8)
        for b in range(20):
            _, new_time = draw(sample.affected, sample.time, scheme, (314, b), rows=4000)
            counts += np.bincount(new_time @ weights, minlength=256)
        assert counts.min() > 0
        assert np.abs(counts - 312.5).max() <= 89

    def test_dual_fixed_margins_factorize(self):
        # Joint law over (affected arrangement, time arrangement) should be
        # the product of two uniform laws on 6 arrangements each: chi-square
        # against uniform on 36 cells, df = 35, 99.9% quantile ~ 66.6.
        # Drawn as 9 blocks of 4000 rows, as above.
        scheme = RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS)
        codes = sorted(
            np.array(v) @ (1 << np.arange(4)) for v in set(itertools.permutations([0, 0, 1, 1]))
        )
        arrangement = np.zeros(16, dtype=int)
        arrangement[codes] = np.arange(6)
        joint = np.zeros(36, dtype=int)
        draws = 36000
        for b in range(9):
            new_affected, new_time = draw(
                SAMPLE.affected, SAMPLE.time, scheme, (2718, b), rows=4000
            )
            a_code = arrangement[new_affected @ (1 << np.arange(4))]
            t_code = arrangement[new_time @ (1 << np.arange(4))]
            joint += np.bincount(6 * a_code + t_code, minlength=36)
        expected = draws / 36
        chi2 = float(((joint - expected) ** 2 / expected).sum())
        assert chi2 < 66.6


class TestSchemeAndSpaceSize:
    def test_scheme_coerces_strings(self):
        scheme = RandomizationScheme("dual", "bernoulli")
        assert scheme.margins is Margins.DUAL and scheme.mode is Mode.BERNOULLI
        assert scheme == DUAL_BERNOULLI

    def test_space_just_past_the_cap_is_sized_exactly_and_refused(self):
        # C(27, 13) = 20,058,300: its log-size lies within one nat of the
        # cap's, so the size is settled in integers before it is refused.
        size = math.comb(27, 13)
        assert ENUMERATION_CAP < size and math.log(size) < math.log(ENUMERATION_CAP) + 1
        with pytest.raises(SpaceTooLargeError) as err:
            space_size(27, 13, 13, AFFECTED_FIXED)
        assert err.value.log_size == math.log(size)
        assert err.value.cap == ENUMERATION_CAP


    def test_space_of_exactly_the_cap_is_enumerable_and_one_more_is_not(self):
        assert space_size(ENUMERATION_CAP, 1, 1, AFFECTED_FIXED) == ENUMERATION_CAP
        with pytest.raises(SpaceTooLargeError):
            space_size(ENUMERATION_CAP + 1, 1, 1, AFFECTED_FIXED)


class TestEnumerationWalk:
    @pytest.mark.parametrize("n, ones, block_rows", [(7, 3, 4), (6, 0, 3), (8, 4, 70), (8, 4, 1)])
    def test_combination_blocks_are_lexicographic(self, n, ones, block_rows):
        blocks = list(_combinations(n, ones, block_rows))
        assert [len(b) for b in blocks[:-1]] == [block_rows] * (len(blocks) - 1)
        assert np.concatenate(blocks).tolist() == [list(c) for c in itertools.combinations(range(n), ones)]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_agreement_sets_and_counts_match_the_labelings(self, n):
        # Each set of 2c members is the agreement set of as many balanced
        # (affected, time) pairs as `enumerate_agreement_sets` gives it, its
        # mask read straight off the pair's labels (bit i = observation i);
        # a set of odd size is the agreement set of none, and is not given.
        rows = np.array(arrangements_fixed(n, n // 2))
        bits = 1 << np.arange(n)
        masks = ((rows[:, None, :] == rows[None, :, :]) @ bits).ravel()
        c, sets, relabelings = enumerate_agreement_sets(n)
        assert sets.shape == (1 << (n - 1), n) and np.array_equal(2 * c, sets.sum(axis=1))
        set_masks = sets @ bits
        assert np.all(set_masks[1:] > set_masks[:-1])  # in integer order
        expected = np.zeros(1 << n, dtype=np.int64)
        expected[set_masks] = relabelings
        assert np.array_equal(np.bincount(masks, minlength=1 << n), expected)
        assert relabelings.sum() == math.comb(n, n // 2) ** 2


class TestStreamContract:
    @pytest.mark.parametrize(
        "n, n_affected, n_time, scheme, contract",
        [
            (80, 40, 40, AFFECTED_FIXED, "block-v1"),  # both margins n/2, one relabeled
            (4096, 2048, 2048, DUAL_BERNOULLI, "block-v1"),
            (5000, 1667, 2500, DUAL_FIXED, "block-v2"),
            (5000, 2500, 2500, AFFECTED_BERNOULLI, "block-v2"),
            (80, 40, 40, DUAL_FIXED, "block-v3"),
            (5000, 2500, 2500, DUAL_FIXED, "block-v3"),
        ],
    )
    def test_names_the_rules_of_each_run(self, n, n_affected, n_time, scheme, contract):
        assert _stream_contract(n, n_affected, n_time, scheme) == contract


class TestDrawAgreementSets:
    @pytest.mark.parametrize("n, rows", [(12, 500), (80, 102)])
    def test_multi_row_sets_hold_2c_members(self, n, rows):
        c, inside = draw_agreement_sets(generator_for(4, n), n, rows)
        assert inside.shape == (rows, n)
        assert np.array_equal(inside.sum(axis=1), 2 * c)
        assert 0 <= c.min() and c.max() <= n // 2

    def test_one_row_draws_positions_of_the_smaller_side(self):
        n = 5000
        for k in range(20):
            c, positions = draw_agreement_sets(generator_for(4, k), n, 1)
            assert c.shape == (1,)
            assert positions.ndim == 1
            assert positions.size == min(2 * c[0], n - 2 * c[0])
            assert np.unique(positions).size == positions.size
            assert 0 <= positions.min() and positions.max() < n

    def test_counts_are_hypergeometric(self):
        # n = 8: P(c) = C(4, c)**2 / 70 for c = 0..4.  Chi-square on 5
        # cells, df = 4, 99.9% quantile ~ 18.5.
        c, _ = draw_agreement_sets(generator_for(6), 8, 70_000)
        expected = 70_000 * np.array([math.comb(4, k) ** 2 for k in range(5)]) / 70
        observed = np.bincount(c, minlength=5)
        assert float(((observed - expected) ** 2 / expected).sum()) < 18.5
