"""CLI tests: subcommands, reports, exit codes, reproducibility."""

import argparse
import concurrent.futures
import contextlib
import io
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import didperm.inference as inference
from didperm import (
    BRAND_SEARCH,
    ENUMERATION_CAP,
    INPRESS,
    EmptyCellError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    Margins,
    Mode,
    PanelSample,
    RandomizationScheme,
    enumerate_null,
    load_panel,
    make_fixture,
    randomization_p_value,
    read_report,
    did_value,
    write_fixture_csv,
)
from didperm.cli import (
    EXIT_DEGENERATE,
    EXIT_ESTIMATION,
    EXIT_INGEST,
    EXIT_IO,
    EXIT_OK,
    EXIT_SPACE,
    EXIT_USAGE,
    main,
)
from helpers import SPLICES, inline_pool

MINIMAL = "y,time,affected\n1,0,0\n2,1,0\n3,0,1\n5,1,1\n"


def _spliced(edits):
    """MINIMAL with each (position, bytes) insertion applied in turn."""
    data = MINIMAL.encode()
    for position, piece in edits:
        position %= len(data) + 1
        data = data[:position] + piece + data[position:]
    return data


# Each subcommand's flags with values in their domain; a drawn argv takes
# some of them and may overwrite one with a value outside every domain.
# Two column flags may name one column ("x" names none), and any margin
# flag may be missing.
_COLUMN_FLAGS = {
    flag: st.sampled_from(["y", "time", "affected", "x"])
    for flag in ("--outcome-col", "--time-col", "--affected-col")
}
_SCHEME_FLAGS = {
    "--scheme": st.sampled_from(["affected", "dual"]),
    "--mode": st.sampled_from(["fixed", "bernoulli"]),
}
_MARGIN_FLAGS = {
    flag: st.sampled_from(["2", "3", "4", "6"]) for flag in ("--n", "--n-affected", "--n-time")
}
ARGV_FLAGS = {
    "test": {
        **_COLUMN_FLAGS,
        **_SCHEME_FLAGS,
        "--iterations": st.sampled_from(["1", "50"]),
        "--alpha": st.sampled_from(["0.05", "0.5"]),
        "--seed": st.just("7"),
        "--bins": st.just("5"),
        "--workers": st.sampled_from(["1", "2"]),
    },
    "enumerate": {**_COLUMN_FLAGS, **_SCHEME_FLAGS, "--alpha": st.just("0.05"), "--bins": st.just("5")},
    "space": {**_COLUMN_FLAGS, **_MARGIN_FLAGS},
    "audit": {**_SCHEME_FLAGS, **_MARGIN_FLAGS, "--seed": st.just("7")},
    "power": {
        "--cell-n": st.sampled_from(["2", "5"]),
        "--delta": st.sampled_from(["0.5", "-1e308"]),
        "--noise-sd": st.sampled_from(["1", "1e300"]),
        "--reps": st.just("1"),
        "--iterations": st.sampled_from(["9", "50"]),
        "--alpha": st.just("0.05"),
        "--seed": st.just("7"),
        "--mode": _SCHEME_FLAGS["--mode"],
    },
}
OUT_OF_DOMAIN = ["0", "-1", "nan", "inf", "1e308"]
SMALL = ("--iterations", "--reps")  # always given


def _predicted_exits(path):
    """The (test, enumerate) exit codes of `path`, from the library calls behind them."""
    try:
        sample = load_panel(path)
    except (EmptyFileError, MalformedRowError, MissingColumnError):
        return EXIT_INGEST, EXIT_INGEST
    try:
        did_value(sample)
    except EmptyCellError:
        return EXIT_ESTIMATION, EXIT_ESTIMATION
    size = math.comb(sample.n, sample.n_affected) * math.comb(sample.n, sample.n_time)
    return EXIT_OK, EXIT_SPACE if size > ENUMERATION_CAP else EXIT_OK


@pytest.fixture()
def brand_csv(tmp_path):
    return str(write_fixture_csv(tmp_path / "brand_search.csv", make_fixture(BRAND_SEARCH)))


@pytest.fixture()
def inpress_csv(tmp_path):
    return str(write_fixture_csv(tmp_path / "inpress.csv", make_fixture(INPRESS)))


@pytest.fixture()
def minimal_csv(tmp_path):
    path = tmp_path / "minimal.csv"
    path.write_text(MINIMAL, encoding="utf-8")
    return str(path)


class TestCmdTest:
    def test_brand_search_rejects(self, brand_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "test",
                "--input",
                brand_csv,
                "--scheme",
                "dual",
                "--iterations",
                "4000",
                "--seed",
                "7",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = read_report(out)
        assert report.decision == "rejected"
        assert report.observed == pytest.approx(4.827, abs=1e-3)
        assert report.dataset_id == "brand_search"
        assert "rejected" in capsys.readouterr().out

    def test_school_program_not_rejected(self, inpress_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["test", "--input", inpress_csv, "--iterations", "4000", "--output", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report.decision == "not_rejected"
        assert report.observed == pytest.approx(0.076, abs=1e-3)

    def test_single_iteration_degenerate_interval(self, minimal_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["test", "--input", minimal_csv, "--iterations", "1", "--output", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report.lower == report.upper
        assert sum(c for _, _, c in report.histogram) == 1

    def test_histogram_mass_matches_retained(self, minimal_csv, tmp_path):
        out = tmp_path / "report.json"
        main(
            [
                "test",
                "--input",
                minimal_csv,
                "--iterations",
                "250",
                "--bins",
                "9",
                "--output",
                str(out),
            ]
        )
        report = read_report(out)
        assert sum(c for _, _, c in report.histogram) == 250
        assert len(report.histogram) == 9

    def test_null_too_narrow_for_numpy_bins_writes_a_report(self, tmp_path):
        # One nonzero outcome, the least subnormal: every null value lies
        # within an ulp of 0, a span numpy cannot split into 50 bins.
        rows = [f"{'5e-324' if i == 0 else '0'},{i % 2},{i // 2 % 2}" for i in range(8)]
        path = tmp_path / "tiny.csv"
        path.write_text("y,time,affected\n" + "\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        argv = ["test", "--input", str(path), "--iterations", "50", "--output", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        histogram = read_report(out).histogram
        assert len(histogram) == 50 and (histogram[0][0], histogram[-1][1]) == (-0.5, 0.5)
        assert sum(c for _, _, c in histogram) == 50

    def test_byte_identical_across_worker_counts(self, inpress_csv, tmp_path, monkeypatch):
        # Three CPUs are claimed so that 3 workers start 3 processes on any host.
        monkeypatch.setattr(inference, "_usable_cpus", lambda: 3)
        paths = []
        for workers in ("1", "3"):
            out = tmp_path / f"report_{workers}.json"
            code = main(
                [
                    "test",
                    "--input",
                    inpress_csv,
                    "--iterations",
                    "800",
                    "--seed",
                    "123",
                    "--workers",
                    workers,
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_alpha_flag_sets_the_level(self, inpress_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        flags = ["--iterations", "200", "--alpha", "0.1", "--output", str(out)]
        assert main(["test", "--input", inpress_csv, *flags]) == EXIT_OK
        assert "at alpha=0.1:" in capsys.readouterr().out
        assert read_report(out).alpha == 0.1

    def test_workers_past_the_cpus_start_one_process_per_cpu(
        self, inpress_csv, tmp_path, monkeypatch
    ):
        # 2,000 iterations at n = 80 are 20 blocks; the pool stand-in starts
        # no process and records the size that was asked for.
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool(sizes))
        out = str(tmp_path / "report.json")
        flags = ["--iterations", "2000", "--workers", "5000", "--output", out]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["test", "--input", inpress_csv, *flags]) == EXIT_OK
        processes = min(20, inference._usable_cpus())
        assert sizes == ([processes] if processes > 1 else [])

    def test_summary_names_the_stream_contract(self, inpress_csv, minimal_csv, tmp_path, capsys):
        # INPRESS has both margins n/2 = 40; the minimal panel both at 2.
        out = str(tmp_path / "report.json")
        for path, flags, contract in (
            (inpress_csv, [], "block-v4"),
            (minimal_csv, [], "block-v4"),
            (inpress_csv, ["--scheme", "affected"], "block-v4"),
            (inpress_csv, ["--mode", "bernoulli"], "block-v4"),
        ):
            code = main(["test", "--input", path, "--iterations", "50", "--output", out, *flags])
            assert code == 0
            line = capsys.readouterr().out.strip()
            assert line.endswith(f"report: {out}; stream contract {contract}")

    def test_default_report_path_is_in_working_directory(self, minimal_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["test", "--input", minimal_csv, "--iterations", "50"])
        assert code == 0
        assert (tmp_path / "test_report.json").exists()


def _children_file(pid):
    return Path(f"/proc/{pid}/task/{pid}/children")


def _running(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(
    not _children_file(os.getpid()).exists() or inference._usable_cpus() < 2,
    reason="needs /proc child lists and two usable CPUs for a pool of two",
)
def test_terminated_run_ends_its_workers(tmp_path):
    # 60,000 one-row blocks at n = 20,000 keep both workers busy for seconds.
    rng = np.random.default_rng(5)
    n = 20_000
    sample = PanelSample(rng.standard_normal(n), rng.integers(0, 2, n), np.arange(n) % 3 == 0)
    panel = write_fixture_csv(tmp_path / "panel.csv", sample)
    path = [str(Path(inference.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = ["test", "--input", str(panel), "--scheme", "affected", "--iterations", "60000"]
    argv += ["--workers", "2", "--output", str(tmp_path / "report.json")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "didperm.cli", *argv],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 10
        workers = []
        while len(workers) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "no pool of two started"
            time.sleep(0.01)
            workers = _children_file(proc.pid).read_text().split()
        proc.terminate()
        assert proc.wait(timeout=2) == -signal.SIGTERM
        deadline = time.monotonic() + 2
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived its terminated parent"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)


# A parent of a two-worker pool; argv: the start method ("" for the
# platform's default) and the initializer.  It writes a line "workers <pid>
# <pid>", and each worker a line "running" once it runs, in any order; one
# write a line keeps each line whole.
POOL_PARENT = """
import concurrent.futures, multiprocessing, os, sys, time

from didperm.inference import _exit_with_parent


def late_exit_with_parent():
    time.sleep(0.5)
    _exit_with_parent()


def work():
    os.write(1, b"running\\n")
    time.sleep(60)


if __name__ == "__main__":
    context = multiprocessing.get_context(sys.argv[1] or None)
    initializer = globals()[sys.argv[2]]
    pool = concurrent.futures.ProcessPoolExecutor(2, mp_context=context, initializer=initializer)
    for _ in range(2):
        pool.submit(work)
    os.write(1, " ".join(["workers", *map(str, pool._processes)]).encode() + b"\\n")
    time.sleep(60)
"""


def _kill_pool_parent(tmp_path, method, initializer, wait_running):
    """SIGKILL a POOL_PARENT, and fail unless both its workers end within 5 s."""
    script = tmp_path / "pool_parent.py"
    script.write_text(POOL_PARENT)
    path = [str(Path(inference.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, str(script), method, initializer],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
        text=True,
    )
    try:
        workers, running = [], 0
        while not workers or running < (2 if wait_running else 0):
            line = proc.stdout.readline()
            assert line, "the parent ended before its pool ran"
            if line.startswith("workers"):
                workers = [int(pid) for pid in line.split()[1:]]
            running += line == "running\n"
        assert len(workers) == 2, "no pool of two started"
        proc.kill()
        assert proc.wait(timeout=5) == -signal.SIGKILL
        deadline = time.monotonic() + 5
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived its killed parent"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc process states")
class TestPoolWorkersEndWithTheirParent:
    def test_parent_killed_before_the_initializer_runs(self, tmp_path):
        _kill_pool_parent(tmp_path, "", "late_exit_with_parent", wait_running=False)

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_parent_killed_under_each_start_method(self, tmp_path, method):
        _kill_pool_parent(tmp_path, method, "_exit_with_parent", wait_running=True)


class TestCmdEnumerate:
    def test_four_point_panel_affected_only(self, minimal_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "enumerate",
                "--input",
                minimal_csv,
                "--scheme",
                "affected",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = read_report(out)
        assert report.iterations == 6  # C(4,2) relabelings visited
        assert sum(c for _, _, c in report.histogram) == 4  # two are degenerate
        sample = load_panel(minimal_csv)
        dist = enumerate_null(
            sample, RandomizationScheme(Margins.AFFECTED_ONLY, Mode.FIXED_MARGINS)
        )
        raw, corrected = randomization_p_value(did_value(sample), dist)
        assert report.p_raw == raw
        assert report.p_corrected == corrected

    def test_dual_counts_discards(self, minimal_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["enumerate", "--input", minimal_csv, "--scheme", "dual", "--output", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report.iterations == 36
        assert sum(c for _, _, c in report.histogram) == 24

    def test_outcome_near_the_float_range_enumerates(self, tmp_path):
        # The centred outcomes, 4e307 and seven -4e307, sum past the float
        # range although 2 * sum|y| is finite, as ingest requires.
        path = tmp_path / "huge.csv"
        rows = ["8e307,0,0", "0.0,1,0", "0.0,0,1", "0.0,1,1"]
        rows += ["0.0,0,0", "0.0,1,0", "0.0,0,1", "0.0,1,1"]
        path.write_text("y,time,affected\n" + "\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        assert main(["enumerate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        report = read_report(out)
        edges = [x for lo, hi, _ in report.histogram for x in (lo, hi)]
        assert np.isfinite([report.lower, report.upper, *edges]).all()
        assert report.iterations == 4900
        assert report.p_raw == 11 / 17  # as `_block_cells` gives it on every labeling

    def test_space_too_large_exit(self, inpress_csv, tmp_path, capsys):
        code = main(
            [
                "enumerate",
                "--input",
                inpress_csv,
                "--scheme",
                "dual",
                "--output",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == EXIT_SPACE
        assert "didperm test" in capsys.readouterr().err


class TestCmdSpace:
    def test_flags_only_run(self, capsys):
        assert main(["space", "--n", "4", "--n-affected", "2", "--n-time", "2"]) == 0
        out = capsys.readouterr().out
        numbers = [float(x) for x in re.findall(r"\d+\.\d+", out)]
        assert pytest.approx(np.log(6), abs=1e-4) in numbers
        assert pytest.approx(np.log(36), abs=1e-4) in numbers

    def test_stirling_column_close_to_exact(self, capsys):
        assert main(["space", "--n", "100", "--n-affected", "50", "--n-time", "50"]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "gain" in line)
        exact, stirling = [float(x) for x in re.findall(r"\d+\.\d+", row)]
        assert abs(stirling - exact) < 0.004

    def test_margins_from_input(self, minimal_csv, capsys):
        assert main(["space", "--input", minimal_csv]) == 0
        assert "n=4" in capsys.readouterr().out

    def test_gain_maximized_at_balanced_margin(self, capsys):
        gains = {}
        for n_time in (1, 2, 3):
            main(["space", "--n", "4", "--n-affected", "2", "--n-time", str(n_time)])
            row = next(
                line for line in capsys.readouterr().out.splitlines() if "gain" in line
            )
            gains[n_time] = float(re.findall(r"\d+\.\d+", row)[0])
        assert gains[2] == max(gains.values())

    def test_missing_flags_usage_error(self, capsys):
        assert main(["space", "--n", "4"]) == EXIT_USAGE


class TestCmdAudit:
    def test_validity_report(self, capsys):
        code = main(
            [
                "audit",
                "--n",
                "6",
                "--n-affected",
                "3",
                "--n-time",
                "3",
                "--scheme",
                "affected",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "18 estimable" in out and "of 20" in out
        worst = float(re.search(r"worst-case violation.*?(-?\d+\.\d+e?[-+]?\d*)", out).group(1))
        assert worst <= 0.0

    def test_balanced_dual_support(self, capsys):
        # 2**(12 - 2) - 1 distinct |DiD|, as `TestBalancedDualSupport` pins.
        # The smallest p counts the largest |DiD|: an agreement set of 2c
        # members and its complement, 2*C(2c, c)*C(12 - 2c, 6 - c) of the
        # 851,928 estimable relabelings.
        argv = ["audit", "--n", "12", "--n-affected", "6", "--n-time", "6", "--scheme", "dual"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        support = re.search(r"support: ([\d,]+) distinct \|DiD\| values.*exact p: (\S+)", out)
        assert support.group(1) == "1,023"
        classes = {2 * math.comb(2 * c, c) * math.comb(12 - 2 * c, 6 - c) for c in range(1, 6)}
        assert round(float(support.group(2)) * 851_928) in classes

    def test_missing_flags(self):
        assert main(["audit", "--n", "6"]) == EXIT_USAGE

    def test_space_cap(self, capsys):
        code = main(
            ["audit", "--n", "64", "--n-affected", "32", "--n-time", "32", "--scheme", "dual"]
        )
        assert code == EXIT_SPACE
        assert "didperm test" not in capsys.readouterr().err

    def test_space_is_sized_before_any_draw(self, monkeypatch):
        # The margins alone refuse this space; its 2,000,000 outcomes
        # would take 16 MB before it was sized.
        def no_draw(*args):
            raise AssertionError("outcomes drawn before the space was sized")

        monkeypatch.setattr(inference, "generator_for", no_draw)
        argv = ["audit", "--n", "2000000", "--n-affected", "1000000", "--n-time", "1000000"]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_SPACE
        assert peak < 2**20


class TestCmdPower:
    def test_small_run_prints_rates(self, capsys):
        code = main(
            [
                "power",
                "--cell-n",
                "5",
                "--reps",
                "12",
                "--iterations",
                "99",
                "--delta",
                "0",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "affected" in out and "dual" in out

    def test_single_replication_warns(self, capsys):
        code = main(["power", "--cell-n", "4", "--reps", "1", "--iterations", "49"])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        rates = [float(x) for x in re.findall(r"(\d+\.\d{4})", captured.out)]
        assert all(r in (0.0, 1.0) for r in rates[::2])

    def test_mode_flag_shared_with_test(self):
        code = main(
            ["power", "--mode", "bernoulli", "--cell-n", "4", "--reps", "1", "--iterations", "49"]
        )
        assert code == 0

    def test_large_effect_always_rejects(self, capsys):
        code = main(
            [
                "power",
                "--cell-n",
                "6",
                "--reps",
                "8",
                "--iterations",
                "199",
                "--delta",
                "12",
                "--noise-sd",
                "1.0",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("affected", "dual")):
                assert "1.0000" in line


class TestDecisionAgreement:
    def test_monte_carlo_and_exact_agree_away_from_boundary(self, tmp_path):
        # On the same input, `test` and `enumerate` must reach the same
        # decision whenever the corrected Monte Carlo p-value is not within
        # 0.01 of alpha.
        rng = np.random.default_rng(2024)
        checked = 0
        for trial in range(6):
            y = rng.normal(size=10)
            if trial % 2:
                y[-5:] += 4.0  # strong separation -> clear rejection
            sample_path = tmp_path / f"panel_{trial}.csv"
            lines = ["y,time,affected"]
            time_v = [0, 1] * 5
            affected_v = [0] * 5 + [1] * 5
            for yi, ti, ai in zip(y, time_v, affected_v):
                lines.append(f"{float(yi)!r},{ti},{ai}")
            sample_path.write_text("\n".join(lines) + "\n")

            mc_out = tmp_path / f"mc_{trial}.json"
            exact_out = tmp_path / f"exact_{trial}.json"
            assert (
                main(
                    [
                        "test",
                        "--input",
                        str(sample_path),
                        "--scheme",
                        "affected",
                        "--iterations",
                        "4000",
                        "--seed",
                        "55",
                        "--output",
                        str(mc_out),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "enumerate",
                        "--input",
                        str(sample_path),
                        "--scheme",
                        "affected",
                        "--output",
                        str(exact_out),
                    ]
                )
                == 0
            )
            mc = read_report(mc_out)
            exact = read_report(exact_out)
            if abs(mc.p_corrected - mc.alpha) > 0.01:
                assert mc.decision == exact.decision
                checked += 1
        assert checked >= 4


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert main(["test", "--input", str(tmp_path / "nope.csv")]) == EXIT_IO

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,time,affected\n1,0,0\n2,9,0\n3,0,1\n4,1,1\n")
        assert main(["test", "--input", str(path)]) == EXIT_INGEST

    def test_mapped_column_named_twice_names_row_zero(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text("y,affected,time,affected\n1,0,0,1\n2,0,1,1\n3,1,0,0\n4,1,1,0\n")
        argv = ["--input", str(path), "--iterations", "10", "--output", str(tmp_path / "r.json")]
        assert main(["test", *argv]) == EXIT_INGEST
        assert capsys.readouterr().err == (
            "didperm: input error: row 0: column 'affected' appears 2 times in the header\n"
        )

    def test_inestimable_sample(self, tmp_path):
        path = tmp_path / "degenerate.csv"
        path.write_text("y,time,affected\n1,0,0\n2,0,0\n3,1,1\n4,1,1\n")
        assert main(["test", "--input", str(path), "--iterations", "10"]) == EXIT_ESTIMATION
        # a label column that is all 1 has no relabeling space to account for
        path.write_text("y,time,affected\n1,0,1\n2,1,1\n3,0,1\n4,1,1\n")
        assert main(["space", "--input", str(path)]) == EXIT_ESTIMATION

    def test_retry_exhaustion_maps_to_degenerate_exit(self, minimal_csv, monkeypatch):
        import didperm.cli as cli
        from didperm import TooManyDegenerateDrawsError

        def explode(*args, **kwargs):
            raise TooManyDegenerateDrawsError(iteration=3, attempts=1000)

        monkeypatch.setattr(cli, "simulate_null", explode)
        assert main(["test", "--input", minimal_csv]) == EXIT_DEGENERATE

    def test_interrupt_exits_130_with_one_line(self, minimal_csv, monkeypatch, capsys):
        import didperm.cli as cli

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_panel", interrupt)
        try:
            code = main(["test", "--input", minimal_csv])
        except KeyboardInterrupt:  # escaping, it would end the whole session
            pytest.fail("main let KeyboardInterrupt out")
        assert code == 130
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "didperm: interrupted\n")

    def test_invalid_flags_exit_two(self, minimal_csv):
        for argv in (
            ["test", "--input", minimal_csv, "--alpha", "1.5"],
            ["test", "--input", minimal_csv, "--iterations", "0"],
            ["test", "--input", minimal_csv, "--seed", "-1"],
            ["power", "--noise-sd", "0"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, rule",
        [
            (["test", "--alpha", "abc"], "must be a number strictly between 0 and 1: abc"),
            (["test", "--iterations", "2.5"], "must be an integer >= 1: 2.5"),
            (["test", "--seed", "1.5"], "must be an unsigned 64-bit integer: 1.5"),
            (["power", "--noise-sd", "x"], "must be a positive number: x"),
            (["space", "--n", "abc"], "must be an integer >= 1: abc"),
        ],
    )
    def test_unparsable_number_names_its_rule(self, argv, rule, minimal_csv, capsys):
        if argv[0] == "test":
            argv = argv + ["--input", minimal_csv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        stderr = capsys.readouterr().err
        assert f"argument {argv[1]}: {rule}\n" in stderr
        assert "invalid" not in stderr
        assert not any(name in stderr for name in ("_probability", "_positive", "_seed"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--time-col", "y"],
            ["enumerate", "--affected-col", "time"],
            ["space", "--outcome-col", "affected"],
            ["power", "--delta", "nan"],
            ["power", "--noise-sd", "inf"],
            ["power", "--delta", "1e308", "--noise-sd", "1e308"],
        ],
    )
    def test_flags_the_library_rejects_are_usage_errors(self, argv, minimal_csv, capsys):
        if argv[0] == "power":
            argv = argv + ["--reps", "1", "--iterations", "9"]
        else:
            argv = argv + ["--input", minimal_csv]
        assert main(argv) == EXIT_USAGE
        assert "didperm: usage error:" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_any_argv_ends_in_one_documented_refusal(self, tmp_path_factory, data):
        command = data.draw(st.sampled_from(sorted(ARGV_FLAGS)), label="command")
        work = tmp_path_factory.mktemp("argv")
        panel = work / "minimal.csv"
        panel.write_text(MINIMAL)
        argv = [command]
        if command in ("test", "enumerate"):
            argv += ["--input", str(panel), "--output", str(work / "r.json")]
        elif command == "space" and data.draw(st.booleans(), label="--input"):
            argv += ["--input", str(panel)]
        flags = {}
        for flag, values in ARGV_FLAGS[command].items():
            # their defaults, 15,000 iterations and 500 replications, are not small
            value = data.draw(values if flag in SMALL else st.none() | values, label=flag)
            if value is not None:
                flags[flag] = value
        bad = st.tuples(st.sampled_from(sorted(ARGV_FLAGS[command])), st.sampled_from(OUT_OF_DOMAIN))
        bad = data.draw(st.none() | bad, label="out of domain")
        if bad:
            flags[bad[0]] = bad[1]
        for flag, value in flags.items():
            argv += [flag, value]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused a flag's value
                assert exc.code == EXIT_USAGE
                return
        lines = err.getvalue().splitlines()
        if code == EXIT_OK:
            assert not any(line.startswith("didperm: ") for line in lines)
        else:
            assert EXIT_USAGE <= code <= EXIT_IO
            assert len(lines) == 1 and lines[0].startswith("didperm: ")

    def test_too_few_rows_is_an_input_error(self, tmp_path):
        path = tmp_path / "short.csv"
        for rows in ("1,0,0\n", "1,0,0\n2,1,1\n", "1,0,0\n2,1,0\n3,0,1\n"):
            path.write_text("y,time,affected\n" + rows)
            for argv in (
                ["test", "--input", str(path), "--iterations", "10"],
                ["enumerate", "--input", str(path)],
                ["space", "--input", str(path)],
            ):
                assert main(argv) == EXIT_INGEST

    def test_overflowing_outcome_sum_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        out = str(tmp_path / "r.json")
        cases = (
            ("1e308,0,0\n1.7e308,0,0\n1,1,0\n2,0,1\n3,1,1\n", 1),
            ("6e307,0,0\n-5e307,0,0\n1,1,0\n2,0,1\n3,1,1\n", 2),
            # |y| sums to a finite 1e308, but the null values would span
            # about 2e308, more than a histogram or a quantile can take
            ("1e308,1,1\n0,0,0\n0,0,1\n0,1,0\n0,1,1\n", 1),
        )
        for rows, bad_row in cases:
            path.write_text("y,time,affected\n" + rows)
            for argv in (
                ["test", "--input", str(path), "--iterations", "10", "--output", out],
                ["enumerate", "--input", str(path), "--output", out],
            ):
                assert main(argv) == EXIT_INGEST
            assert f"row {bad_row}:" in capsys.readouterr().err

    def test_inestimable_sample_fails_before_the_null_is_built(self, tmp_path, capsys):
        # time == affected empties cells (0, 1) and (1, 0); the relabeling
        # space, C(24, 12)**2, is far above the enumeration cap
        path = tmp_path / "diagonal.csv"
        rows = "".join(f"{k}.5,{k % 2},{k % 2}\n" for k in range(24))
        path.write_text("y,time,affected\n" + rows)
        out = str(tmp_path / "r.json")
        for argv in (
            ["test", "--input", str(path), "--iterations", "10", "--output", out],
            ["enumerate", "--input", str(path), "--output", out],
        ):
            assert main(argv) == EXIT_ESTIMATION
            assert "didperm: estimation error:" in capsys.readouterr().err

    def test_invalid_margins_are_usage_errors(self, capsys):
        errors = []
        for argv in (
            ["audit", "--n", "4", "--n-affected", "5", "--n-time", "2"],
            ["space", "--n", "4", "--n-affected", "5", "--n-time", "2"],
            ["audit", "--n", "5", "--n-affected", "1", "--n-time", "1", "--scheme", "affected"],
        ):
            assert main(argv) == EXIT_USAGE
            errors.append(capsys.readouterr().err)
            assert "didperm: usage error:" in errors[-1]
        assert errors[0] == errors[1]  # one margins rule, one message

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        # an estimable panel of 4-6 rows, cell index 2*affected + time ...
        cells=st.lists(st.integers(0, 3), max_size=2).flatmap(
            lambda extra: st.permutations([0, 1, 2, 3] + extra)
        ),
        outcomes=st.lists(
            st.sampled_from(["0", "1", "-2.5", "0.5", "4e307"]), min_size=6, max_size=6
        ),
        # ... less its first `dropped` rows, with at most one (row, column, token) overwrite
        dropped=st.integers(0, 6),
        edit=st.none()
        | st.tuples(
            st.integers(0, 5),
            st.integers(0, 2),
            st.sampled_from(["0", "1", "true", "nan", "1e308", "-1.7e308", "x", ""]),
        ),
    )
    # Both margins n/2, so `test` draws agreement sets (block-v4); observation
    # 0's labels agree in the first and differ in the second.
    @example(cells=[0, 1, 2, 3], outcomes=["4e307", "0", "1", "-2.5", "0", "0"], dropped=0, edit=None)
    @example(cells=[1, 0, 3, 2], outcomes=["-2.5", "4e307", "0", "4e307", "0", "0"], dropped=0, edit=None)
    def test_any_short_file_ends_in_a_documented_exit(
        self, tmp_path_factory, cells, outcomes, dropped, edit
    ):
        rows = [[y, str(c % 2), str(c // 2)] for y, c in zip(outcomes, cells)][dropped:]
        if rows and edit:
            row, column, token = edit
            rows[row % len(rows)][column] = token
        work = tmp_path_factory.mktemp("fuzz")
        path = work / "panel.csv"
        path.write_text("y,time,affected\n" + "".join(",".join(row) + "\n" for row in rows))
        out = str(work / "r.json")
        test_exit, enumerate_exit = _predicted_exits(path)
        argv = ["--input", str(path), "--output", out]
        assert main(["test", *argv, "--iterations", "20"]) == test_exit
        assert main(["enumerate", *argv]) == enumerate_exit

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        # an estimable panel of 8-10 rows, two or more in each cell ...
        cells=st.lists(st.integers(0, 3), max_size=2).flatmap(
            lambda extra: st.permutations([0, 1, 2, 3] * 2 + extra)
        ),
        outcomes=st.lists(st.sampled_from(["0", "1", "-2.5", "0.5"]), min_size=10, max_size=10),
        # ... with one outcome near the float range, whose centred sums overflow
        huge=st.tuples(st.integers(0, 9), st.floats(5e307, 9e307), st.sampled_from(["", "-"])),
    )
    # Both margins n/2 = 4: agreement sets, observation 0 agreeing, then differing.
    @example(cells=[0, 1, 2, 3] * 2, outcomes=["0", "1", "-2.5", "0.5"] * 2 + ["0"] * 2, huge=(0, 8.5e307, "-"))
    @example(cells=[1, 0, 3, 2] * 2, outcomes=["0", "1", "-2.5", "0.5"] * 2 + ["0"] * 2, huge=(5, 8.5e307, ""))
    def test_any_panel_with_one_huge_outcome_ends_in_a_documented_exit(
        self, tmp_path_factory, cells, outcomes, huge
    ):
        rows = [[y, str(c % 2), str(c // 2)] for y, c in zip(outcomes, cells)]
        row, magnitude, sign = huge
        rows[row % len(rows)][0] = sign + repr(magnitude)
        work = tmp_path_factory.mktemp("huge")
        path = work / "panel.csv"
        path.write_text("y,time,affected\n" + "".join(",".join(r) + "\n" for r in rows))
        out = str(work / "r.json")
        test_exit, enumerate_exit = _predicted_exits(path)
        argv = ["--input", str(path), "--output", out]
        assert main(["test", *argv, "--iterations", "20"]) == test_exit
        assert main(["enumerate", *argv]) == enumerate_exit

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        content=st.binary(max_size=120)
        | st.lists(
            st.tuples(st.integers(0, 200), st.sampled_from(SPLICES)), min_size=1, max_size=3
        ).map(_spliced)
    )
    def test_any_bytes_end_in_a_documented_exit(self, tmp_path_factory, content):
        work = tmp_path_factory.mktemp("bytes")
        path = work / "panel.csv"
        path.write_bytes(content)
        out = str(work / "r.json")
        test_exit, enumerate_exit = _predicted_exits(path)
        argv = ["--input", str(path), "--output", out]
        assert main(["test", *argv, "--iterations", "20"]) == test_exit
        assert main(["enumerate", *argv]) == enumerate_exit

    def test_non_utf8_byte_names_its_row(self, tmp_path, capsys):
        # Rows 1-2000 fill several decoder chunks before the Latin-1 byte.
        rows = "".join(f"{k},{k % 2},{k // 2 % 2}\n" for k in range(2000))
        path = tmp_path / "latin1.csv"
        for content, bad_row in (
            (("y,time,affected\n" + rows).encode() + b"caf\xe9,0,0\n", 2001),
            (b"y,t\xe9me,time,affected\n" + rows.replace("\n", ",0\n").encode(), 0),
        ):
            path.write_bytes(content)
            assert main(["test", "--input", str(path), "--iterations", "10"]) == EXIT_INGEST
            assert f"row {bad_row}: not valid UTF-8 text" in capsys.readouterr().err

    def test_first_fault_in_row_order_is_named(self, tmp_path, capsys):
        # The non-UTF-8 byte at row 4 shares a decoder chunk with row 1.
        path = tmp_path / "faults.csv"
        path.write_bytes(b"y,time,affected\n1.0,9,0\n2.0,1,0\n3.0,0,1\ncaf\xe9,1,1\n5,0,0\n")
        assert main(["test", "--input", str(path), "--iterations", "10"]) == EXIT_INGEST
        assert "row 1: column 'time' must be 0 or 1" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        rows=st.integers(1000, 4000),
        faults=st.lists(
            st.tuples(st.integers(1, 4000), st.sampled_from([b"2", b"x1", b"caf\xe9"])),
            min_size=1,
            max_size=3,
        ),
    )
    def test_long_file_names_its_first_faulty_row(self, tmp_path_factory, rows, faults):
        # Thousands of rows span several 8 KB decoder chunks, so the faults
        # land before, inside and after the chunk that fails to decode.
        records = [[b"%d.5" % k, b"%d" % (k % 2), b"%d" % (k // 2 % 2)] for k in range(rows)]
        for row, token in faults:
            row = (row - 1) % rows
            # a bad label goes in the time column, any other token in y
            records[row][1 if token == b"2" else 0] = token
        path = tmp_path_factory.mktemp("long") / "panel.csv"
        path.write_bytes(b"y,time,affected\n" + b"".join(b",".join(r) + b"\n" for r in records))
        first = min((row - 1) % rows for row, _ in faults) + 1
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["test", "--input", str(path), "--iterations", "10"])
        assert code == EXIT_INGEST
        assert f"input error: row {first}:" in err.getvalue()

    def test_over_long_field_names_its_row(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("y,time,affected\n1,0,0\n2,1,0\n" + "3" * 131_073 + ",0,1\n5,1,1\n")
        for argv in (
            ["test", "--input", str(path), "--iterations", "10"],
            ["enumerate", "--input", str(path)],
        ):
            assert main(argv) == EXIT_INGEST
            assert "row 3: field larger than field limit" in capsys.readouterr().err

    def test_write_failure_maps_to_io(self, minimal_csv, tmp_path):
        code = main(
            [
                "test",
                "--input",
                minimal_csv,
                "--iterations",
                "10",
                "--output",
                str(tmp_path / "no" / "dir" / "r.json"),
            ]
        )
        assert code == EXIT_IO


class TestOneParser:
    def test_main_builds_no_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert main(["space", "--n", "8", "--n-affected", "4", "--n-time", "4"]) == EXIT_OK
        assert built == []

    def test_no_flag_value_carries_over_to_the_next_call(self, brand_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["test", "--input", brand_csv, "--iterations", "200"]
        assert main([*argv, "--seed", "5", "--bins", "7", "--output", "a.json"]) == EXIT_OK
        assert main(argv) == EXIT_OK
        flagged, defaults = read_report(tmp_path / "a.json"), read_report(tmp_path / "test_report.json")
        assert (flagged.master_seed, len(flagged.histogram)) == (5, 7)
        assert (defaults.master_seed, len(defaults.histogram)) == (0, 50)
