"""Estimator tests: cell means, four-means DiD, and the closed-form OLS path."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didperm import (
    CellMeans,
    EmptyCellError,
    PanelSample,
    compute_cell_means,
    did_from_means,
    did_from_ols,
    did_value,
)
from didperm.panel import (
    _agreement_draws,
    _block_cells,
    _centred,
    _product_cells,
    _scaled,
)
from helpers import (
    adversarial_outcomes,
    brute_force_did,
    brute_force_did_fraction,
    labeling_of,
    random_estimable_sample,
    range_outcomes,
)


def make_cells(m00, m01, m10, m11, count=10):
    return CellMeans(
        means=np.array([[m00, m01], [m10, m11]]),
        counts=np.full((2, 2), count),
    )


class TestComputeCellMeans:
    def test_constant_outcome(self):
        s = PanelSample(y=[5, 5, 5, 5], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
        cells = compute_cell_means(s)
        assert np.allclose(cells.means, 5.0)
        assert np.array_equal(cells.counts, np.ones((2, 2), dtype=int))

    def test_one_observation_per_cell(self):
        s = PanelSample(y=[1, 2, 3, 5], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
        cells = compute_cell_means(s)
        assert np.array_equal(cells.means, np.array([[1.0, 2.0], [3.0, 5.0]]))
        assert np.array_equal(cells.counts, np.ones((2, 2), dtype=int))

    def test_empty_cell_is_represented_not_rejected(self):
        s = PanelSample(y=[1, 2, 3, 4], time=[0, 0, 1, 1], affected=[0, 0, 1, 1])
        cells = compute_cell_means(s)
        assert cells.counts[0, 1] == 0 and cells.counts[1, 0] == 0
        assert np.isnan(cells.means[0, 1]) and np.isnan(cells.means[1, 0])

    def test_counts_always_sum_to_n(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_estimable_sample(rng)
            assert compute_cell_means(s).counts.sum() == s.n

    def test_matches_brute_force_grouping(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            s = random_estimable_sample(rng)
            cells = compute_cell_means(s)
            expected = brute_force_did(s.y, s.time, s.affected)
            assert did_from_means(cells) == pytest.approx(expected, rel=1e-12)


class TestDidFromMeans:
    def test_school_program_cells(self):
        est = did_from_means(make_cells(9.7327, 8.4759, 10.1184, 8.9379))
        assert est == pytest.approx(0.076, abs=5e-4)
        assert est == pytest.approx(0.0763, abs=1e-10)

    def test_brand_search_cells(self):
        est = did_from_means(make_cells(1.915, 2.055, 5.681, 10.648))
        assert est == pytest.approx(4.827, abs=1e-10)

    def test_minimum_wage_employment_cells(self):
        est = did_from_means(make_cells(23.3312, 21.1656, 20.4394, 21.0274))
        assert est == pytest.approx(2.7536, abs=1e-10)

    def test_equal_means_give_zero(self):
        assert did_from_means(make_cells(3.3, 3.3, 3.3, 3.3)) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CellMeans(means=np.ones((2, 2)), counts=np.array([[3, 3], [-1, 3]]))

    def test_cells_must_be_two_by_two(self):
        with pytest.raises(ValueError, match="2x2"):
            CellMeans(means=np.ones(4), counts=np.full(4, 3))

    @pytest.mark.parametrize(
        "value",
        [
            lambda: did_from_means(make_cells(0.0, 0.0, 0.0, np.inf)),
            lambda: did_from_means(make_cells(0.0, 0.0, 0.0, np.nan)),
            # finite means whose difference overflows
            lambda: did_from_means(make_cells(0.0, 0.0, -1.5e308, 1.5e308, count=2)),
            # finite outcomes whose sums overflow in both affected cells
            lambda: did_value(
                PanelSample(
                    y=[1e308] * 4 + [0.0] * 4, time=[0, 0, 1, 1] * 2, affected=[1] * 4 + [0] * 4
                )
            ),
        ],
        ids=["inf", "nan", "overflowing-means", "overflowing-sums"],
    )
    def test_non_finite_value_raises(self, value):
        with pytest.raises(ValueError, match="finite"):
            value()

    def test_empty_cell_raises_with_cell_identity(self):
        cells = CellMeans(
            means=np.array([[1.0, 2.0], [np.nan, 4.0]]),
            counts=np.array([[3, 3], [0, 3]]),
        )
        with pytest.raises(EmptyCellError) as err:
            did_from_means(cells)
        assert err.value.affected == 1 and err.value.time == 0


class TestDidFromOls:
    def test_coefficients_read_off_cell_means(self):
        s = PanelSample(y=[1, 2, 3, 5], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
        fit = did_from_ols(s)
        assert (fit.alpha, fit.beta, fit.gamma, fit.delta) == (1.0, 1.0, 2.0, 1.0)
        assert fit.residual_sum_squares == 0.0

    def test_interaction_equals_four_means_did(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            s = random_estimable_sample(rng)
            delta = did_from_ols(s).delta
            # delta is did_value's formula, so the reference is the exact rational DiD
            reference = float(brute_force_did_fraction(s.y, s.time, s.affected))
            assert abs(delta - reference) <= 1e-10 * (1.0 + abs(reference))

    def test_agrees_with_generic_linear_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            s = random_estimable_sample(rng)
            fit = did_from_ols(s)
            design = np.column_stack(
                [np.ones(s.n), s.time, s.affected, s.time * s.affected]
            ).astype(float)
            solution, _, _, _ = np.linalg.lstsq(design, s.y, rcond=None)
            mine = np.array([fit.alpha, fit.beta, fit.gamma, fit.delta])
            assert np.allclose(mine, solution, rtol=1e-10, atol=1e-10)
            resid = s.y - design @ solution
            assert fit.residual_sum_squares == pytest.approx(float(resid @ resid), rel=1e-8, abs=1e-10)

    def test_agrees_with_grid_search_minimizer(self):
        # Independent oracle: iterative grid refinement of the residual sum
        # of squares over (alpha, beta, gamma, delta).
        rng = np.random.default_rng(14)
        y = rng.uniform(0, 1, size=40)
        s = PanelSample(y=y, time=np.tile([0, 1], 20), affected=np.repeat([0, 1], 20))
        design = np.column_stack([np.ones(40), s.time, s.affected, s.time * s.affected])

        center = np.zeros(4)
        width = 2.0
        for _ in range(16):
            axes = [center[i] + np.linspace(-width, width, 9) for i in range(4)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
            rss = ((y[:, None] - design @ grid.T) ** 2).sum(axis=0)
            center = grid[np.argmin(rss)]
            width /= 2.0

        fit = did_from_ols(s)
        assert fit.delta == pytest.approx(center[3], abs=1e-4)

    def test_empty_cell_raises(self):
        s = PanelSample(y=[1, 2, 3, 4], time=[0, 0, 1, 1], affected=[0, 0, 1, 1])
        with pytest.raises(EmptyCellError):
            did_from_ols(s)


class TestProductCells:
    """The enumeration kernel against the Monte Carlo one, on random label blocks."""

    @staticmethod
    def blocks(seed, n=9, ra=6, rt=4):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=n) * 1e3 + 50.0
        affected = (rng.random((ra, n)) < 0.5).astype(np.int8)
        time = (rng.random((rt, n)) < 0.5).astype(np.int8)
        return affected, time, y

    @pytest.mark.parametrize("seed", range(5))
    def test_values_do_not_depend_on_which_side_is_gathered(self, seed):
        # Six affected rows against four time rows are summed along the
        # time rows' ones; one affected row at a time, along its own ones.
        affected, time, y = self.blocks(seed)
        values, estimable = _product_cells(affected, time, *_scaled(y))
        rows = [_product_cells(a[None], time, *_scaled(y)) for a in affected]
        assert np.array_equal(estimable, np.concatenate([e for _, e in rows]))
        by_row = np.concatenate([v for v, _ in rows])
        assert values[estimable].tobytes() == by_row[estimable].tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_block_cells_within_tie_tolerance(self, seed):
        affected, time, y = self.blocks(seed)
        values, estimable = _product_cells(affected, time, *_scaled(y))
        weights = np.tile(y, len(affected) * len(time))  # one row of outcomes per labeling
        expected, expected_estimable = _block_cells(affected[:, None, :], time[None, :, :], weights)
        assert np.array_equal(estimable, expected_estimable)
        assert not np.isfinite(values[~estimable]).any()
        tol = 8 * y.size * np.finfo(np.float64).eps * np.abs(y).max()
        assert np.all(np.abs(values[estimable] - expected[estimable]) <= tol)

    @pytest.mark.parametrize("seed", range(3))
    def test_sums_past_the_float_range_are_scaled_exactly(self, seed):
        # Eleven of twelve outcomes near -2**1021 sum past the float range; the
        # values are those of the outcomes / 2**1021 times 2**1021, bit for bit.
        affected, time, _ = self.blocks(seed, n=12)
        y = np.random.default_rng(seed).uniform(-1.0, -0.9, size=12)
        y[0], y[1] = 1.0, -1.0
        values, estimable = _product_cells(affected, time, *_scaled(y))
        huge, huge_estimable = _product_cells(affected, time, *_scaled(y * 2.0**1021))
        assert np.array_equal(estimable, huge_estimable)
        assert np.isfinite(huge[estimable]).all()
        assert huge[estimable].tobytes() == (values[estimable] * 2.0**1021).tobytes()


def draws_kernel(c, drawn, y, negate=False):
    """`_agreement_draws` on `y` prepared as `inference._simulate_chunk` prepares it."""
    outcomes, scale = _scaled(y)
    weights = np.tile(outcomes, len(c))
    return _agreement_draws(c, drawn, weights, -scale if negate else scale, float(np.sum(outcomes)))


def subsets(masks, n):
    """The 0/1 indicator rows of the sets with the given masks (bit i = observation i)."""
    return (np.asarray(masks)[:, None] >> np.arange(n)) & 1


class TestAgreementCells:
    """The agreement-set kernel on indicator rows, as enumeration calls it, against exact rationals."""

    @pytest.mark.parametrize("kind", ["offset", "powers", "huge"])
    def test_rounding_within_stated_bound(self, kind):
        # 150 random sets of 2c members, 1 <= c <= 9, at n = 20: each value
        # within (n + 5)*eps*max|y - c| of the exact DiD of one relabeling
        # with that agreement set.
        n = 20
        y = adversarial_outcomes(kind, n)
        rng = np.random.default_rng(8)
        sets = subsets(rng.integers(0, 1 << n, 400), n)
        sizes = sets.sum(axis=1)
        sets = sets[(sizes % 2 == 0) & (sizes >= 2) & (sizes <= n - 2)][:150]
        values, estimable = draws_kernel(sets.sum(axis=1) // 2, sets, y)
        assert len(sets) == 150 and estimable.all()
        bound = (n + 5) * np.finfo(np.float64).eps * np.abs(_centred(y)).max()
        for members, value in zip(sets.tolist(), values.tolist()):
            affected, time = labeling_of(members, sum(members) // 2)
            exact = brute_force_did_fraction(y, time, affected)
            assert np.isfinite(value)
            assert abs(Fraction(value) - exact) <= bound

    def test_estimable_sets_and_exact_negation(self):
        # Every set of even size at n = 10; "range" outcomes are summed
        # scaled by a power of two.
        n = 10
        sets = subsets(np.arange(1 << n), n)
        sets = sets[sets.sum(axis=1) % 2 == 0]
        c = sets.sum(axis=1) // 2
        for y in (adversarial_outcomes("offset", n), range_outcomes(n)):
            values, estimable = draws_kernel(c, sets, y)
            assert np.array_equal(estimable, (c >= 1) & (c <= n // 2 - 1))
            assert np.isnan(values[~estimable]).all()
            # A set with count c and its complement with count n/2 - c give
            # values negated bit for bit, and so does a negated scale.
            complements, _ = draws_kernel(n // 2 - c, 1 - sets, y)
            negated, _ = draws_kernel(c, sets, y, negate=True)
            assert values[estimable].tobytes() == (-complements[estimable]).tobytes()
            assert values[estimable].tobytes() == (-negated[estimable]).tobytes()


class TestAgreementDraws:
    """The agreement-set kernel's degenerate rows; its rounding is tested through `simulate_null`."""

    def test_degenerate_counts_are_not_estimable(self):
        y = adversarial_outcomes("offset", 8)
        drawn = np.array([[0] * 8, [1] * 8, [1, 1, 0, 0, 0, 0, 0, 0]], dtype=bool)
        values, ok = draws_kernel(np.array([0, 4, 1]), drawn, y)
        assert ok.tolist() == [False, False, True]
        assert np.isnan(values[:2]).all()
        for c in (0, 4):
            values, ok = draws_kernel(np.array([c]), np.array([], dtype=np.intp), y)
            assert not ok[0] and np.isnan(values[0])


class TestEstimatorProperties:
    def test_affine_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            s = random_estimable_sample(rng)
            a, b = rng.uniform(-3, 3), rng.uniform(-10, 10)
            transformed = PanelSample(y=a * s.y + b, time=s.time, affected=s.affected)
            assert did_value(transformed) == pytest.approx(
                a * did_value(s), rel=1e-10, abs=1e-12
            )

    def test_observation_order_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            s = random_estimable_sample(rng)
            perm = rng.permutation(s.n)
            shuffled = PanelSample(y=s.y[perm], time=s.time[perm], affected=s.affected[perm])
            assert did_value(shuffled) == pytest.approx(did_value(s), rel=1e-12)


# dtype -> (entries that are 0 or 1, entries of any value); every text
# entry, "0" and "1" too, is unequal to 0 and 1.
LABEL_ENTRIES = {
    "bool": (np.bool_, st.booleans(), st.booleans()),
    "int8": (np.int8, st.integers(0, 1), st.integers(-128, 127)),
    "uint8": (np.uint8, st.integers(0, 1), st.integers(0, 255)),
    "int64": (np.int64, st.integers(0, 1), st.integers(-(2**63), 2**63 - 1)),
    "float": (np.float64, st.sampled_from([0.0, -0.0, 1.0]), st.floats()),
    "complex": (np.complex128, st.sampled_from([0j, 1 + 0j]), st.complex_numbers()),
    "object": (
        object,
        st.sampled_from([0, 1, 0.0, 1.0, False, True, Fraction(1)]),
        st.sampled_from([0, 1, 2, -1, 0.5, 1.0, True, Fraction(1, 2), "1", None]),
    ),
    "text": (str, st.sampled_from(["0", "1"]), st.text(max_size=2)),
}


class TestPanelSampleValidation:
    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            PanelSample(y=[1, 2, 3, 4], time=[0, 1, 0, 2], affected=[0, 0, 1, 1])

    @pytest.mark.parametrize("name", ["y", "time", "affected"])
    def test_rejects_two_dimensional_vectors(self, name):
        columns = {"y": [1.0, 2.0, 3.0, 5.0], "time": [0, 1, 0, 1], "affected": [0, 0, 1, 1]}
        columns[name] = [columns[name]] * 2
        with pytest.raises(ValueError, match=f"{name} must be a 1-d vector"):
            PanelSample(**columns)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PanelSample(y=[1, 2, 3], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            PanelSample(y=[1, 2, 3], time=[0, 1, 0], affected=[0, 1, 1])

    def test_rejects_nonfinite_outcomes(self):
        with pytest.raises(ValueError):
            PanelSample(y=[1, np.nan, 3, 4], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])

    def test_vectors_are_frozen(self):
        s = PanelSample(y=[1, 2, 3, 5], time=[0, 1, 0, 1], affected=[0, 0, 1, 1])
        with pytest.raises(ValueError):
            s.y[0] = 99.0

    @pytest.mark.parametrize(
        "labels",
        [[0.0, 1.0, 0.0, 1.0], [False, True, False, True], np.array([0, 1, 0, 1], dtype=object)],
        ids=["float", "bool", "object"],
    )
    def test_accepts_labels_equal_to_zero_and_one(self, labels):
        s = PanelSample(y=[1.0, 2.0, 3.0, 5.0], time=labels, affected=[0, 0, 1, 1])
        assert s.time.dtype == np.int8 and s.time.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize(
        "labels",
        [["0", "1", "0", "1"], [0, 1, 0, 2], [0, 1, 0, 0.5]],
        ids=["text", "two", "half"],
    )
    def test_rejects_labels_other_than_zero_and_one(self, labels):
        with pytest.raises(ValueError, match="time must contain only 0/1 values"):
            PanelSample(y=[1.0, 2.0, 3.0, 5.0], time=labels, affected=[0, 0, 1, 1])

    def test_complex_labels_warn_as_numpy_casts_them(self):
        labels = np.array([0, 1, 0, 1], dtype=complex)
        with pytest.warns(getattr(np, "exceptions", np).ComplexWarning):
            s = PanelSample(y=[1.0, 2.0, 3.0, 5.0], time=labels, affected=[0, 0, 1, 1])
        assert s.time.tolist() == [0, 1, 0, 1]

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_labels_are_accepted_iff_every_entry_is_zero_or_one(self, data):
        dtype, binary, anything = LABEL_ENTRIES[data.draw(st.sampled_from(sorted(LABEL_ENTRIES)))]
        n = data.draw(st.integers(4, 12))
        entries = data.draw(st.lists(data.draw(st.sampled_from([binary, anything])), min_size=n, max_size=n))
        labels = np.array(entries, dtype=dtype)
        panel = dict(y=np.arange(n, dtype=np.float64), time=labels, affected=np.arange(n) % 2)
        if not all(v == 0 or v == 1 for v in labels.tolist()):
            with pytest.raises(ValueError, match="time must contain only 0/1 values"):
                PanelSample(**panel)
            return
        with warnings.catch_warnings():  # complex labels warn as numpy casts them
            warnings.simplefilter("ignore", getattr(np, "exceptions", np).ComplexWarning)
            time = PanelSample(**panel).time
        assert time.dtype == np.int8 and not time.flags.writeable
        assert time.tolist() == labels.tolist()

    def test_read_only_int8_labels_are_kept_without_a_copy(self):
        time, affected = np.array([0, 1, 0, 1], np.int8), np.array([0, 0, 1, 1], np.int8)
        time.flags.writeable = False
        affected.flags.writeable = False
        s = PanelSample(y=[1.0, 2.0, 3.0, 5.0], time=time, affected=affected)
        assert s.time is time and s.affected is affected
        writeable = np.array([0, 1, 0, 1], np.int8)
        s = PanelSample(y=[1.0, 2.0, 3.0, 5.0], time=writeable, affected=affected)
        assert s.time is not writeable and not s.time.flags.writeable


def test_construction_peaks_within_the_sample_size():
    # A read-only float64 outcome vector is kept, and each uint8 label
    # vector is checked as it is and converted to int8 once.
    rng = np.random.default_rng(0)
    n = 300_000
    y = rng.standard_normal(n)
    y.flags.writeable = False
    time, affected = (rng.random((2, n)) < 0.5).astype(np.uint8)
    tracemalloc.start()
    try:
        sample = PanelSample(y=y, time=time, affected=affected)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sample.y.nbytes + sample.time.nbytes + sample.affected.nbytes
    assert sample.y is y
