"""Tests for the benchmark's output checks.

    python3 -m pytest perfbench/test_checks.py

Every check must pass on the program's real outputs for several seeds,
and each must reject an output with one planted fault.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import didperm  # noqa: E402
from didperm import read_report  # noqa: E402
from didperm.inference import decide  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _run_cycle(workload, cycle=0):
    failures = []
    for op in workload.cycle(cycle):
        output = op.run()
        fails, produced = op.check(output)
        assert produced > 0
        failures += fails
    return failures + workload.finish()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["mc-small", "exact", "power-size"])
def test_real_outputs_pass(name, seed, tmp_path, capsys):
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    cycles = 30 if name == "power-size" else 1
    failures = []
    for k in range(cycles):
        failures += _run_cycle(workload, k)
    assert failures == []


def test_large_output_passes(tmp_path, capsys):
    assert _run_cycle(workloads.McLarge(4, tmp_path)) == []


# ---------------------------------------------------------------------------
# planted faults
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_case(tmp_path_factory):
    """A real `didperm test` report for a null and for a planted panel."""
    workdir = tmp_path_factory.mktemp("mc")
    rng = np.random.default_rng(7)
    cases = {}
    for planted in (False, True):
        panel = workloads.fixture_panel(rng, didperm.INPRESS, 20, planted)
        panel.write_csv(workdir / f"p{planted}.csv")
        out = workdir / f"r{planted}.json"
        argv = ["test", "--input", str(panel.path), "--iterations", "2000", "--seed", "3", "--output", str(out)]
        assert didperm.cli.main(argv) == 0
        cases[planted] = (read_report(out), panel)
    return cases


def _mc_failures(report, panel):
    return checks.check_mc_report(report, panel, 2000, decide)


def test_mc_report_passes(mc_case):
    for report, panel in mc_case.values():
        assert _mc_failures(report, panel) == []


def test_flipped_decision_fails(mc_case):
    report, panel = mc_case[False]
    flipped = "rejected" if report.decision == "not_rejected" else "not_rejected"
    assert any("decision" in f for f in _mc_failures(dataclasses.replace(report, decision=flipped), panel))


def test_p_value_off_by_one_count_fails(mc_case):
    report, panel = mc_case[False]
    bad = dataclasses.replace(report, p_raw=report.p_raw + 1 / 2000)
    assert any("p_corrected" in f for f in _mc_failures(bad, panel))


def test_dropped_histogram_count_fails(mc_case):
    report, panel = mc_case[False]
    histogram = list(report.histogram)
    i = next(k for k, (_, _, c) in enumerate(histogram) if c > 0)
    lo, hi, c = histogram[i]
    histogram[i] = (lo, hi, c - 1)
    bad = dataclasses.replace(report, histogram=tuple(histogram))
    assert any("histogram" in f for f in _mc_failures(bad, panel))


def test_wrong_observed_fails(mc_case):
    report, panel = mc_case[False]
    bad = dataclasses.replace(report, observed=report.observed * (1 + 1e-9) + 1e-9)
    assert any("observed" in f for f in _mc_failures(bad, panel))


def test_unrejected_planted_effect_fails(mc_case):
    report, panel = mc_case[True]
    # Bounds widened past the observed value, so the decision is consistent.
    wide = 2 * abs(report.observed)
    bad = dataclasses.replace(report, lower=-wide, upper=wide, decision="not_rejected")
    assert any("planted" in f for f in _mc_failures(bad, panel))


def test_asymmetric_bounds_fail(mc_case):
    report, panel = mc_case[False]
    shift = 2 * checks.symmetry_tolerance(report.histogram, report.alpha)
    bad = dataclasses.replace(report, upper=report.upper + shift)
    bad = dataclasses.replace(bad, decision="rejected" if decide(bad.observed, bad.lower, bad.upper) else "not_rejected")
    assert [f for f in _mc_failures(bad, panel) if "symmetry" in f]


def test_symmetry_tolerance_matches_quantile_error():
    """On normal draws, lower + upper spreads by about tolerance / SYMMETRY_Z."""
    rng = np.random.default_rng(11)
    sums, tols = [], []
    for _ in range(400):
        values = rng.standard_normal(2000)
        counts, edges = np.histogram(values, bins=50)
        histogram = [(edges[i], edges[i + 1], int(c)) for i, c in enumerate(counts)]
        sums.append(np.quantile(values, 0.025) + np.quantile(values, 0.975))
        tols.append(checks.symmetry_tolerance(histogram, 0.05))
    ratio = np.std(sums) / (np.mean(tols) / checks.SYMMETRY_Z)
    assert 0.6 < ratio < 1.1
    assert max(abs(s) / t for s, t in zip(sums, tols)) < 0.8


# ---------------------------------------------------------------------------
# exact checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exact_case(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("exact")
    rng = np.random.default_rng(5)
    time, affected = workloads._labels(rng, 8, 4)
    panel = workloads.Panel(rng.standard_normal(8), time, affected)
    panel.write_csv(workdir / "p.csv")
    out = workdir / "r.json"
    assert didperm.cli.main(["enumerate", "--input", str(panel.path), "--output", str(out)]) == 0
    rows = checks.fixed_rows(8, 4)
    return read_report(out), panel, checks.oracle_null(panel.y, rows, rows), math.comb(8, 4) ** 2


def test_oracle_matches_brute_force():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(6)
    expected = []
    for a in itertools.product((0, 1), repeat=6):
        for t in itertools.product((0, 1), repeat=6):
            a_, t_ = np.array(a), np.array(t)
            if all(((a_ == i) & (t_ == j)).any() for i in (0, 1) for j in (0, 1)):
                expected.append(checks.reference_did(y, t_, a_)[0])
    rows = checks.bernoulli_rows(6)
    got = checks.oracle_null(y, rows, rows)
    assert got.size == len(expected)
    np.testing.assert_allclose(got, np.sort(expected), rtol=0, atol=1e-12)


def test_exact_report_passes(exact_case):
    report, panel, oracle, size = exact_case
    assert checks.check_exact_report(report, panel, oracle, size, decide) == []


def test_exact_p_value_outside_band_fails(exact_case):
    report, panel, oracle, size = exact_case
    m = oracle.size
    strict, banded = checks.p_value_band(report.observed, oracle)
    for p in (strict - 1 / m, banded + 1 / m):
        bad = dataclasses.replace(report, p_raw=p, p_corrected=(1 + p * m) / (m + 1))
        assert any("oracle range" in f for f in checks.check_exact_report(bad, panel, oracle, size, decide))


def test_exact_discard_count_fails(exact_case):
    report, panel, oracle, size = exact_case
    bad = dataclasses.replace(report, iterations=size + 1)
    assert any("discarded" in f for f in checks.check_exact_report(bad, panel, oracle, size, decide))


def test_exact_quantile_fails(exact_case):
    report, panel, oracle, size = exact_case
    bad = dataclasses.replace(report, lower=report.lower - 1e-6 * abs(report.lower) - 1e-6)
    assert any("lower" in f for f in checks.check_exact_report(bad, panel, oracle, size, decide))


def test_null_values_and_counts(exact_case):
    _, panel, oracle, size = exact_case
    scheme = didperm.RandomizationScheme(didperm.Margins.DUAL, didperm.Mode.FIXED_MARGINS)
    dist = didperm.enumerate_null(panel.sample(), scheme)
    assert checks.check_null(dist, oracle, size) == []
    assert any("space size" in f for f in checks.check_null(dist, oracle, size + 1))
    values = dist.values.copy()
    values[0] += 1e-6 * np.abs(values).max()
    assert any("oracle" in f for f in checks.check_values(values, oracle))
    assert any("oracle has" in f for f in checks.check_values(values[1:], oracle))


def test_audit_violation_fails():
    y = np.random.default_rng(3).standard_normal(6)
    scheme = didperm.RandomizationScheme(didperm.Margins.DUAL, didperm.Mode.FIXED_MARGINS)
    audit = didperm.exactness_audit(6, 3, 3, scheme, outcomes=y)
    rows = checks.fixed_rows(6, 3)
    oracle = checks.oracle_null(y, rows, rows)
    size = math.comb(6, 3) ** 2
    assert checks.check_audit(audit, audit.worst_violation(), oracle, size) == []
    assert any("worst_violation" in f for f in checks.check_audit(audit, 1e-9, oracle, size))


def test_size_bound():
    assert checks.check_size({"dual": 18, "affected": 22}, 0.05, 200) == []
    bound = checks.size_bound(0.05, 200)
    assert checks.check_size({"dual": math.floor(bound) + 1}, 0.05, 200) != []


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_traced_spans_nest_and_unwrap(tmp_path, capsys):
    from tracing import Tracer

    original = didperm.cli.simulate_null
    tracer = Tracer()
    op = workloads.McSmall(6, tmp_path).cycle(0)[0]
    assert op.check(tracer.run_op(0, op.run))[0] == []
    assert didperm.cli.simulate_null is original
    names = {i: span["name"] for i, span in enumerate(tracer.spans)}
    parents = {span["name"]: names.get(span["parent"]) for span in tracer.spans}
    assert parents["op"] is None and parents["cli.main"] == "op"
    for layer in ("ingest.load_panel", "inference.simulate_null", "report.write_report"):
        assert parents[layer] == "cli.main"
    total, own = tracer.durations()
    children = sum(total[name] for name, parent in parents.items() if parent == "op")
    assert abs(total["op"] - children - own["op"]) < 1e-9
    assert tracer.counts["inference.draws"] == workloads.SMALL_ITERATIONS


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def _run(cwd: Path, *args: str):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "mc-small", "--seed", "9", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[key]
    }


def test_refuses_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work", "out"))
    proc = _run(tmp_path, "--workload", "power-size", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_sigterm_stops_a_run_promptly():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "mc-small", "--seed", "1", "--seconds", "120"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        time.sleep(4)  # inside the op loop
        proc.send_signal(signal.SIGTERM)
        start = time.perf_counter()
        stdout, _ = proc.communicate(timeout=30)
        assert time.perf_counter() - start < 10
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM
    assert "correct" not in stdout
    assert not list((HERE / "_work").glob(f"*-{proc.pid}"))
