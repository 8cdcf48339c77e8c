"""Estimator tests: cell means, four-means DiD, and the closed-form OLS path."""

import numpy as np
import pytest

from didperm import (
    CellMeans,
    EmptyCellError,
    PanelSample,
    compute_cell_means,
    did_from_means,
    did_from_ols,
    did_value,
)
from helpers import brute_force_did, brute_force_did_fraction, random_estimable_sample


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
            assert compute_cell_means(s).n == s.n

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


class TestPanelSampleValidation:
    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            PanelSample(y=[1, 2, 3, 4], time=[0, 1, 0, 2], affected=[0, 0, 1, 1])

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
