"""The public surface written out: a new name or option shows in the diff of this file."""

import dataclasses
import inspect

import didperm

NAMES = [
    "ALL_DATASETS", "BITS_PER_NAT", "BRAND_SEARCH", "BenchmarkDataset", "CellMeans",
    "ColumnMap", "DEFAULT_ITERATIONS", "DidPermError", "ENUMERATION_CAP", "EmptyCellError",
    "EmptyFileError", "INPRESS", "MINWAGE_EMPTOT", "MINWAGE_PMEAL", "MINWAGE_WAGE_ST",
    "MalformedRowError", "Margins", "MissingColumnError", "Mode", "NullDistribution", "OlsFit",
    "PanelSample", "PermutationSpaceStats", "PowerStudyResult", "REFUGEE_ARRIVALS",
    "RandomizationScheme", "ReferenceInference", "Report", "SCHEMA_VERSION", "SchemeRate",
    "Source", "SpaceTooLargeError", "TestResult", "TooManyDegenerateDrawsError",
    "UniformityReport", "binary_entropy", "compute_cell_means", "decide", "derive_seed",
    "did_from_means", "did_from_ols", "did_value", "enumerate_null", "exactness_audit",
    "generator_for", "load_panel", "log_binomial", "make_fixture", "make_histogram",
    "randomization_p_value", "read_report", "run_power_study", "simulate_null", "space_stats",
    "stirling_log_binomial", "summarize", "test_significance", "write_fixture_csv",
    "write_report",
]  # fmt: skip

PARAMETERS = {
    "BenchmarkDataset": ["dataset_id", "description", "cell_means", "observed", "reference"],
    "CellMeans": ["means", "counts"],
    "ColumnMap": ["outcome_column", "time_column", "affected_column"],
    "NullDistribution": [
        "values", "iterations_requested", "scheme", "master_seed",
        "degenerate_draws_discarded", "source", "tie_tolerance",
    ],
    "OlsFit": ["alpha", "beta", "gamma", "delta", "residual_sum_squares"],
    "PanelSample": ["y", "time", "affected"],
    "PermutationSpaceStats": [
        "n", "n_affected", "n_time", "p_affected", "p_time", "log_size_single",
        "log_size_dual", "log_gain", "log_size_bernoulli_dual", "entropy_affected",
        "entropy_time",
    ],
    "PowerStudyResult": [
        "cell_n", "delta", "noise_sd", "replications", "alpha", "iterations", "mode", "rates",
    ],
    "RandomizationScheme": ["margins", "mode"],
    "ReferenceInference": ["lower", "upper", "rejected"],
    "Report": [
        "dataset_id", "scheme", "iterations", "master_seed", "observed", "lower", "upper",
        "alpha", "decision", "p_raw", "p_corrected", "histogram", "space_stats",
    ],
    "SchemeRate": ["margins", "rejections", "replications"],
    "TestResult": [
        "observed", "lower", "upper", "alpha", "reject", "p_value", "p_value_corrected",
    ],
    "UniformityReport": [
        "n", "n_affected", "n_time", "scheme", "total_relabelings", "statistic_values",
        "p_levels", "level_counts",
    ],
    "binary_entropy": ["p"],
    "compute_cell_means": ["sample"],
    "decide": ["observed", "lower", "upper"],
    "derive_seed": ["master_seed", "indices"],
    "did_from_means": ["cells"],
    "did_from_ols": ["sample"],
    "did_value": ["sample"],
    "enumerate_null": ["sample", "scheme"],
    "exactness_audit": ["n", "n_affected", "n_time", "scheme", "outcome_seed", "outcomes"],
    "generator_for": ["master_seed", "stream_index"],
    "load_panel": ["path", "columns"],
    "log_binomial": ["n", "k"],
    "make_fixture": ["dataset", "per_cell"],
    "make_histogram": ["dist", "bins"],
    "randomization_p_value": ["observed", "dist"],
    "read_report": ["path"],
    "run_power_study": [
        "cell_n", "delta", "noise_sd", "replications", "alpha", "iterations", "mode",
        "master_seed",
    ],
    "simulate_null": ["sample", "scheme", "iterations", "master_seed", "workers"],
    "space_stats": ["n", "n_affected", "n_time"],
    "stirling_log_binomial": ["n", "p"],
    "summarize": ["sample"],
    "test_significance": ["observed", "dist", "alpha"],
    "write_fixture_csv": ["path", "sample"],
    "write_report": ["report", "path"],
}  # fmt: skip


def test_public_names():
    assert sorted(didperm.__all__) == NAMES


def test_parameters_of_public_functions_and_dataclasses():
    found = {}
    for name in didperm.__all__:
        obj = getattr(didperm, name)
        if inspect.isfunction(obj) or (inspect.isclass(obj) and dataclasses.is_dataclass(obj)):
            found[name] = list(inspect.signature(obj).parameters)
    assert found == PARAMETERS
