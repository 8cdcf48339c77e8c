"""Command-line frontend binding ingestion, inference, and reporting.

Subcommands: test (Monte Carlo), enumerate (exact), space (relabeling-space
accounting), audit (finite-sample validity), power (size/power study).
Statistical decisions never affect the exit status; only operational
failures do, each class with its own nonzero code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    EmptyCellError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    SpaceTooLargeError,
    TooManyDegenerateDrawsError,
)
from .inference import (
    DEFAULT_ITERATIONS,
    enumerate_null,
    exactness_audit,
    simulate_null,
    test_significance,
)
from .ingest import ColumnMap, load_panel
from .panel import did_value
from .power import run_power_study
from .randomize import Margins, Mode, RandomizationScheme
from .report import DECISION_NOT_REJECTED, DECISION_REJECTED, Report, make_histogram, write_report
from .spaces import PermutationSpaceStats, space_stats, stirling_log_binomial

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_ESTIMATION = 4
EXIT_SPACE = 5
EXIT_DEGENERATE = 6
EXIT_IO = 7


class _UsageError(Exception):
    """Invalid flag combination detected after argparse."""


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1: {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be an unsigned 64-bit integer: {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _add_input_flags(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument("--input", required=required, help="input CSV path")
    sub.add_argument("--outcome-col", default="y", help="outcome column name")
    sub.add_argument("--time-col", default="time", help="time indicator column name")
    sub.add_argument("--affected-col", default="affected", help="affected indicator column name")


def _add_scheme_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--scheme",
        choices=[m.value for m in Margins],
        default=Margins.DUAL.value,
        help="relabel only the affected vector, or both margins (default: dual)",
    )
    _add_mode_flag(sub)


def _add_mode_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default=Mode.FIXED_MARGINS.value,
        help="margin-preserving rearrangement or Bernoulli(1/2) redraw (default: fixed)",
    )


def _add_margin_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_positive_int, help="number of observations")
    sub.add_argument("--n-affected", type=_positive_int, help="count of affected=1 labels")
    sub.add_argument("--n-time", type=_positive_int, help="count of time=1 labels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="didperm",
        description="Doubly randomized significance testing for the 2x2 DiD coefficient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="Monte Carlo significance test")
    _add_input_flags(test)
    _add_scheme_flags(test)
    test.add_argument("--iterations", type=_positive_int, default=DEFAULT_ITERATIONS)
    test.add_argument("--alpha", type=_probability, default=0.05)
    test.add_argument("--seed", type=_seed, default=0)
    test.add_argument("--bins", type=_positive_int, default=50, help="histogram bins")
    test.add_argument("--workers", type=_positive_int, default=1, help="process count")
    test.add_argument("--output", help="report path (default: ./test_report.json)")
    test.set_defaults(func=cmd_test)

    enum = sub.add_parser("enumerate", help="exact test over the full relabeling space")
    _add_input_flags(enum)
    _add_scheme_flags(enum)
    enum.add_argument("--alpha", type=_probability, default=0.05)
    enum.add_argument("--bins", type=_positive_int, default=50)
    enum.add_argument("--output", help="report path (default: ./enumerate_report.json)")
    enum.set_defaults(func=cmd_enumerate)

    space = sub.add_parser("space", help="relabeling-space sizes, gain, and entropies")
    _add_input_flags(space, required=False)
    _add_margin_flags(space)
    space.set_defaults(func=cmd_space)

    audit = sub.add_parser("audit", help="exhaustive finite-sample validity audit")
    _add_scheme_flags(audit)
    _add_margin_flags(audit)
    audit.add_argument("--seed", type=_seed, default=0, help="outcome-draw seed")
    audit.set_defaults(func=cmd_audit)

    power = sub.add_parser("power", help="size/power comparison of both margin settings")
    power.add_argument("--cell-n", type=_positive_int, default=20, help="observations per cell")
    power.add_argument("--delta", type=float, default=0.0, help="treatment effect size")
    power.add_argument("--noise-sd", type=_positive_float, default=1.0)
    power.add_argument("--reps", type=_positive_int, default=500, help="replications")
    power.add_argument(
        "--iterations",
        type=_positive_int,
        default=999,
        help="null draws per replication (smaller default than `test` for tractability)",
    )
    power.add_argument("--alpha", type=_probability, default=0.05)
    power.add_argument("--seed", type=_seed, default=0)
    _add_mode_flag(power)
    power.set_defaults(func=cmd_power)

    return parser


def _columns(args) -> ColumnMap:
    try:
        return ColumnMap(
            outcome_column=args.outcome_col,
            time_column=args.time_col,
            affected_column=args.affected_col,
        )
    except ValueError as exc:  # two flags name the same column
        raise _UsageError(str(exc)) from None


def _scheme(args) -> RandomizationScheme:
    return RandomizationScheme(margins=Margins(args.scheme), mode=Mode(args.mode))


def _emit_report(args, sample, observed: float, dist, default_name: str) -> None:
    result = test_significance(observed, dist, args.alpha)
    report = Report(
        dataset_id=Path(args.input).stem,
        scheme=dist.scheme,
        iterations=dist.iterations_requested,
        master_seed=dist.master_seed or 0,  # an exact run has no seed; schema /1 writes 0
        observed=result.observed,
        lower=result.lower,
        upper=result.upper,
        alpha=result.alpha,
        decision=DECISION_REJECTED if result.reject else DECISION_NOT_REJECTED,
        p_raw=result.p_value,
        p_corrected=result.p_value_corrected,
        histogram=tuple(make_histogram(dist, args.bins)),
        space_stats=space_stats(sample.n, sample.n_affected, sample.n_time),
    )
    path = Path(args.output or default_name)
    write_report(report, path)
    verdict = "rejected" if result.reject else "not rejected"
    print(
        f"H0 {verdict} at alpha={result.alpha:g}: observed DiD {result.observed:.6g}, "
        f"null interval ({result.lower:.6g}, {result.upper:.6g}), "
        f"p={result.p_value:.4g} (corrected {result.p_value_corrected:.4g}); "
        f"report: {path}"
    )


def cmd_test(args) -> int:
    sample = load_panel(args.input, _columns(args))
    observed = did_value(sample)  # an inestimable sample fails before the null is built
    dist = simulate_null(
        sample,
        _scheme(args),
        iterations=args.iterations,
        master_seed=args.seed,
        workers=args.workers,
    )
    _emit_report(args, sample, observed, dist, "test_report.json")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    sample = load_panel(args.input, _columns(args))
    observed = did_value(sample)
    dist = enumerate_null(sample, _scheme(args))
    _emit_report(args, sample, observed, dist, "enumerate_report.json")
    return EXIT_OK


def _space_stats(args) -> PermutationSpaceStats:
    if args.input:
        sample = load_panel(args.input, _columns(args))
        try:
            return space_stats(sample.n, sample.n_affected, sample.n_time)
        except ValueError:
            did_value(sample)  # a constant label column empties a cell: EmptyCellError
            raise
    if args.n is None or args.n_affected is None or args.n_time is None:
        raise _UsageError("either --input or all of --n/--n-affected/--n-time are required")
    try:
        return space_stats(args.n, args.n_affected, args.n_time)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_space(args) -> int:
    stats = _space_stats(args)
    n = stats.n
    rows = [
        ("single margin log size", stats.log_size_single, stirling_log_binomial(n, stats.p_affected)),
        ("dual gain (time margin)", stats.log_gain, stirling_log_binomial(n, stats.p_time)),
        (
            "dual log size",
            stats.log_size_dual,
            stirling_log_binomial(n, stats.p_affected) + stirling_log_binomial(n, stats.p_time),
        ),
    ]
    print(f"n={stats.n}  n_affected={stats.n_affected}  n_time={stats.n_time}")
    print(f"{'quantity':28s}{'exact (nats)':>16s}{'stirling (nats)':>18s}")
    for label, exact, approx in rows:
        print(f"{label:28s}{exact:>16.4f}{approx:>18.4f}")
    print(f"{'bernoulli dual log size':28s}{stats.log_size_bernoulli_dual:>16.4f}")
    print(
        f"entropy: affected margin H({stats.p_affected:.4f}) = {stats.entropy_affected:.6f} nats, "
        f"time margin H({stats.p_time:.4f}) = {stats.entropy_time:.6f} nats"
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.n is None or args.n_affected is None or args.n_time is None:
        raise _UsageError("--n, --n-affected, and --n-time are required")
    try:
        report = exactness_audit(
            args.n, args.n_affected, args.n_time, _scheme(args), outcome_seed=args.seed
        )
    except ValueError as exc:  # margins out of range, or no estimable relabeling
        raise _UsageError(str(exc)) from None
    print(
        f"audited {report.estimable_relabelings} estimable relabelings "
        f"(of {report.total_relabelings} total)"
    )
    print(f"{'alpha':>8s}{'P(p <= alpha)':>16s}{'violation':>12s}")
    for alpha in (0.01, 0.05, 0.10):
        rate = report.rejection_rate(alpha)
        print(f"{alpha:>8.2f}{rate:>16.4f}{rate - alpha:>12.4f}")
    print(f"worst-case violation over attainable levels: {report.worst_violation():.3e}")
    return EXIT_OK


def cmd_power(args) -> int:
    try:
        result = run_power_study(
            cell_n=args.cell_n,
            delta=args.delta,
            noise_sd=args.noise_sd,
            replications=args.reps,
            alpha=args.alpha,
            iterations=args.iterations,
            mode=Mode(args.mode),
            master_seed=args.seed,
        )
    except ValueError as exc:  # a non-finite delta or noise_sd, or outcomes that overflow
        raise _UsageError(str(exc)) from None
    if args.reps == 1:
        print("warning: a single replication yields a 0-or-1 rejection rate", file=sys.stderr)
    print(result.render())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"didperm: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmptyFileError, MalformedRowError, MissingColumnError) as exc:
        print(f"didperm: input error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except EmptyCellError as exc:
        print(f"didperm: estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except SpaceTooLargeError as exc:
        hint = "; try `didperm test`" if args.command == "enumerate" else ""
        print(f"didperm: {exc}{hint}", file=sys.stderr)
        return EXIT_SPACE
    except TooManyDegenerateDrawsError as exc:
        print(f"didperm: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"didperm: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
