"""Doubly randomized permutation inference for the 2x2 difference-in-differences design.

The package estimates the DiD coefficient of a two-group, two-period
panel, builds its null distribution by relabeling the group and/or period
indicators (by margin-preserving rearrangement or Bernoulli(1/2) redraw),
and delivers quantile decisions, randomization p-values, exact
enumeration for small samples, and combinatorial accounting of the
relabeling space.
"""

from .datasets import (
    ALL_DATASETS,
    BRAND_SEARCH,
    INPRESS,
    MINWAGE_EMPTOT,
    MINWAGE_PMEAL,
    MINWAGE_WAGE_ST,
    REFUGEE_ARRIVALS,
    BenchmarkDataset,
    ReferenceInference,
    make_fixture,
    write_fixture_csv,
)
from .errors import (
    DidPermError,
    EmptyCellError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    SpaceTooLargeError,
    TooManyDegenerateDrawsError,
)
from .inference import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_ITERATIONS,
    NullDistribution,
    Source,
    TestResult,
    UniformityReport,
    decide,
    empirical_quantile,
    enumerate_null,
    exactness_audit,
    randomization_p_value,
    simulate_null,
    test_significance,
)
from .ingest import ColumnMap, load_panel, summarize
from .panel import (
    CellMeans,
    DidEstimate,
    EstimationMethod,
    OlsFit,
    PanelSample,
    compute_cell_means,
    did_from_means,
    did_from_ols,
    did_value,
)
from .power import PowerStudyResult, SchemeRate, run_power_study
from .randomize import (
    Margins,
    Mode,
    RandomizationScheme,
    SeedSpec,
    derive_seed,
    generator_for,
)
from .report import SCHEMA_VERSION, Report, make_histogram, read_report, write_report
from .spaces import (
    BITS_PER_NAT,
    PermutationSpaceStats,
    binary_entropy,
    log_binomial,
    space_stats,
    stirling_log_binomial,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_DATASETS",
    "BITS_PER_NAT",
    "BRAND_SEARCH",
    "BenchmarkDataset",
    "CellMeans",
    "ColumnMap",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_ITERATIONS",
    "DidEstimate",
    "DidPermError",
    "EmptyCellError",
    "EmptyFileError",
    "EstimationMethod",
    "INPRESS",
    "MINWAGE_EMPTOT",
    "MINWAGE_PMEAL",
    "MINWAGE_WAGE_ST",
    "MalformedRowError",
    "Margins",
    "MissingColumnError",
    "Mode",
    "NullDistribution",
    "OlsFit",
    "PanelSample",
    "PermutationSpaceStats",
    "PowerStudyResult",
    "REFUGEE_ARRIVALS",
    "RandomizationScheme",
    "ReferenceInference",
    "Report",
    "SCHEMA_VERSION",
    "SchemeRate",
    "SeedSpec",
    "Source",
    "SpaceTooLargeError",
    "TestResult",
    "TooManyDegenerateDrawsError",
    "UniformityReport",
    "binary_entropy",
    "compute_cell_means",
    "decide",
    "derive_seed",
    "did_from_means",
    "did_from_ols",
    "did_value",
    "empirical_quantile",
    "enumerate_null",
    "exactness_audit",
    "generator_for",
    "load_panel",
    "log_binomial",
    "make_fixture",
    "make_histogram",
    "randomization_p_value",
    "read_report",
    "run_power_study",
    "simulate_null",
    "space_stats",
    "stirling_log_binomial",
    "summarize",
    "test_significance",
    "write_fixture_csv",
    "write_report",
]
