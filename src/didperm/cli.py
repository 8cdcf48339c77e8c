"""Command-line frontend binding ingestion, inference, and reporting.

Subcommands: test (Monte Carlo), enumerate (exact), space (relabeling-space
accounting), audit (finite-sample validity), power (size/power study).
Statistical decisions never affect the exit status; only operational
failures do, each class with its own nonzero code.  An argument refused
after argparse, by a flag check here or by the library, raises ValueError,
which `main` alone turns into the usage exit.
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
from .panel import PanelSample, did_value
from .power import run_power_study
from .randomize import Margins, Mode, RandomizationScheme, _stream_contract
from .report import DECISION_NOT_REJECTED, DECISION_REJECTED, Report, make_histogram, write_report
from .spaces import space_stats, stirling_log_binomial

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_ESTIMATION = 4
EXIT_SPACE = 5
EXIT_DEGENERATE = 6
EXIT_IO = 7


def _number(kind, holds, rule: str):
    """An argparse type: `text` read as `kind`, refused with `rule` unless it parses and `holds`."""

    def parse(text: str):
        try:
            if holds(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}: {text}")

    return parse


_probability = _number(float, lambda v: 0.0 < v < 1.0, "must be a number strictly between 0 and 1")
_positive_int = _number(int, lambda v: v >= 1, "must be an integer >= 1")
_seed = _number(int, lambda v: 0 <= v < 2**64, "must be an unsigned 64-bit integer")
_positive_float = _number(float, lambda v: v > 0, "must be a positive number")


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


def _sample(args) -> tuple[PanelSample, float]:
    """The `--input` panel and its observed DiD: an inestimable panel fails here, before any null."""
    sample = load_panel(args.input, ColumnMap(args.outcome_col, args.time_col, args.affected_col))
    return sample, did_value(sample)


def _scheme(args) -> RandomizationScheme:
    return RandomizationScheme(margins=Margins(args.scheme), mode=Mode(args.mode))


def _emit_report(args, sample, observed: float, dist, default_name: str, tail: str = "") -> None:
    """Write the report of `dist` and print the one-line verdict, ending in `tail`."""
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
        histogram=make_histogram(dist, args.bins),
        space_stats=space_stats(sample.n, sample.n_affected, sample.n_time),
    )
    path = Path(args.output or default_name)
    write_report(report, path)
    verdict = "rejected" if result.reject else "not rejected"
    print(
        f"H0 {verdict} at alpha={result.alpha:g}: observed DiD {result.observed:.6g}, "
        f"null interval ({result.lower:.6g}, {result.upper:.6g}), "
        f"p={result.p_value:.4g} (corrected {result.p_value_corrected:.4g}); "
        f"report: {path}{tail}"
    )


def cmd_test(args) -> None:
    sample, observed = _sample(args)
    dist = simulate_null(
        sample,
        _scheme(args),
        iterations=args.iterations,
        master_seed=args.seed,
        workers=args.workers,
    )
    contract = _stream_contract(sample.n, sample.n_affected, sample.n_time, dist.scheme)
    _emit_report(args, sample, observed, dist, "test_report.json", f"; stream contract {contract}")


def cmd_enumerate(args) -> None:
    sample, observed = _sample(args)
    dist = enumerate_null(sample, _scheme(args))
    _emit_report(args, sample, observed, dist, "enumerate_report.json")


def _space_margins(args) -> tuple[int, int, int]:
    """(n, n_affected, n_time) of the `--input` panel, or of the margin flags."""
    if args.input:
        sample, _ = _sample(args)
        return sample.n, sample.n_affected, sample.n_time
    if args.n is None or args.n_affected is None or args.n_time is None:
        raise ValueError("either --input or all of --n/--n-affected/--n-time are required")
    return args.n, args.n_affected, args.n_time


def cmd_space(args) -> None:
    stats = space_stats(*_space_margins(args))
    approx_single = stirling_log_binomial(stats.n, stats.p_affected)
    approx_gain = stirling_log_binomial(stats.n, stats.p_time)
    rows = [
        ("single margin log size", stats.log_size_single, approx_single),
        ("dual gain (time margin)", stats.log_gain, approx_gain),
        ("dual log size", stats.log_size_dual, approx_single + approx_gain),
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


def cmd_audit(args) -> None:
    if args.n is None or args.n_affected is None or args.n_time is None:
        raise ValueError("--n, --n-affected, and --n-time are required")
    report = exactness_audit(
        args.n, args.n_affected, args.n_time, _scheme(args), outcome_seed=args.seed
    )
    print(
        f"audited {report.estimable_relabelings} estimable relabelings "
        f"(of {report.total_relabelings} total)"
    )
    print(f"{'alpha':>8s}{'P(p <= alpha)':>16s}{'violation':>12s}")
    for alpha in (0.01, 0.05, 0.10):
        rate = report.rejection_rate(alpha)
        print(f"{alpha:>8.2f}{rate:>16.4f}{rate - alpha:>12.4f}")
    print(f"worst-case violation over attainable levels: {report.worst_violation():.3e}")
    # The exact p-value falls as |DiD| grows and steps at every |DiD| that
    # the tie rule tells apart, so its distinct values count the support.
    print(
        f"support: {report.p_levels.size:,} distinct |DiD| values within the "
        f"tie tolerance; smallest attainable exact p: {float(report.p_levels[0]):.4g}"
    )


def cmd_power(args) -> None:
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
    if args.reps == 1:
        print("warning: a single replication yields a 0-or-1 rejection rate", file=sys.stderr)
    print(result.render())


# Built once, at import, after the commands it names; main parses every argv with it.
_PARSER = argparse.ArgumentParser(
    prog="didperm",
    description="Doubly randomized significance testing for the 2x2 DiD coefficient.",
)
_commands = _PARSER.add_subparsers(dest="command", required=True)

_test = _commands.add_parser("test", help="Monte Carlo significance test")
_add_input_flags(_test)
_add_scheme_flags(_test)
_test.add_argument("--iterations", type=_positive_int, default=DEFAULT_ITERATIONS)
_test.add_argument("--alpha", type=_probability, default=0.05)
_test.add_argument("--seed", type=_seed, default=0)
_test.add_argument("--bins", type=_positive_int, default=50, help="histogram bins")
_test.add_argument(
    "--workers",
    type=_positive_int,
    default=1,
    help="most processes to use; never more than the blocks or usable CPUs",
)
_test.add_argument("--output", help="report path (default: ./test_report.json)")
_test.set_defaults(func=cmd_test)

_enum = _commands.add_parser("enumerate", help="exact test over the full relabeling space")
_add_input_flags(_enum)
_add_scheme_flags(_enum)
_enum.add_argument("--alpha", type=_probability, default=0.05)
_enum.add_argument("--bins", type=_positive_int, default=50)
_enum.add_argument("--output", help="report path (default: ./enumerate_report.json)")
_enum.set_defaults(func=cmd_enumerate)

_space = _commands.add_parser("space", help="relabeling-space sizes, gain, and entropies")
_add_input_flags(_space, required=False)
_add_margin_flags(_space)
_space.set_defaults(func=cmd_space)

_audit = _commands.add_parser("audit", help="exhaustive finite-sample validity audit")
_add_scheme_flags(_audit)
_add_margin_flags(_audit)
_audit.add_argument("--seed", type=_seed, default=0, help="outcome-draw seed")
_audit.set_defaults(func=cmd_audit)

_power = _commands.add_parser("power", help="size/power comparison of both margin settings")
_power.add_argument("--cell-n", type=_positive_int, default=20, help="observations per cell")
_power.add_argument("--delta", type=float, default=0.0, help="treatment effect size")
_power.add_argument("--noise-sd", type=_positive_float, default=1.0)
_power.add_argument("--reps", type=_positive_int, default=500, help="replications")
_power.add_argument(
    "--iterations",
    type=_positive_int,
    default=999,
    help="null draws per replication (smaller default than `test` for tractability)",
)
_power.add_argument("--alpha", type=_probability, default=0.05)
_power.add_argument("--seed", type=_seed, default=0)
_add_mode_flag(_power)
_power.set_defaults(func=cmd_power)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:  # a flag check, or the library, refused an argument
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
    except KeyboardInterrupt:
        print("didperm: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, what a shell reports for a run ended by Ctrl-C
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
