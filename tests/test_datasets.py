"""Benchmark dataset fixtures: exact cell means and reference decisions."""

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
    compute_cell_means,
    decide,
    did_value,
    make_fixture,
)


class TestFixtures:
    @pytest.mark.parametrize("dataset", ALL_DATASETS, ids=lambda d: d.dataset_id)
    def test_cell_means_match_summary_exactly(self, dataset):
        cells = compute_cell_means(make_fixture(dataset))
        for g in (0, 1):
            for t in (0, 1):
                assert cells.means[g, t] == pytest.approx(
                    dataset.cell_means[g][t], abs=1e-9
                )
        assert np.all(cells.counts == 10)

    @pytest.mark.parametrize("dataset", ALL_DATASETS, ids=lambda d: d.dataset_id)
    @pytest.mark.parametrize("per_cell", [1, 3, 10, 25])
    def test_per_cell_counts_are_configurable(self, dataset, per_cell):
        sample = make_fixture(dataset, per_cell=per_cell)
        cells = compute_cell_means(sample)
        assert np.all(cells.counts == per_cell)
        assert did_value(sample) == pytest.approx(
            dataset.did_from_cell_means(), abs=1e-9
        )

    def test_point_estimates_match_published_values(self):
        expected = {
            INPRESS.dataset_id: (0.076, 1e-3),
            BRAND_SEARCH.dataset_id: (4.827, 1e-3),
            MINWAGE_EMPTOT.dataset_id: (2.7536, 5e-4),
            MINWAGE_WAGE_ST.dataset_id: (0.4814, 5e-4),
            MINWAGE_PMEAL.dataset_id: (0.0794, 5e-4),
            REFUGEE_ARRIVALS.dataset_id: (2.0870, 5e-4),
        }
        for dataset in ALL_DATASETS:
            target, tol = expected[dataset.dataset_id]
            assert did_value(make_fixture(dataset)) == pytest.approx(target, abs=tol)
            assert dataset.observed == target

    def test_reference_decisions_follow_open_interval_rule(self):
        for dataset in ALL_DATASETS:
            for label in ("affected", "dual"):
                ref = dataset.reference[label]
                assert decide(dataset.observed, ref.lower, ref.upper) == ref.rejected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_fixture(INPRESS, per_cell=0)
