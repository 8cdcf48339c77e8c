"""didperm benchmark: one workload per process, checked outputs, metrics as JSON.

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 10 --trace 0

Imports didperm from this checkout's src/ and refuses to run otherwise.
Inputs are made from --seed under perfbench/_work/ and removed at the
end.  Ops run in a closed loop with one client for --seconds, always
finishing the current cycle.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  In a traced run every op
runs once untraced and once traced on the same input; the difference is
the tracing overhead, and the spans go to perfbench/out/.  The exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 10
POOL_PROBES = 5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import didperm; print(time.perf_counter() - t); print(didperm.__file__)"
)


def _from_src(path) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_didperm():
    """Import didperm from SRC; exit with an error when it is missing or resolves elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import didperm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import didperm from {SRC}: {exc}")
    if not _from_src(didperm.__file__):
        sys.exit(f"perfbench: didperm resolves to {didperm.__file__}, not under {SRC}")
    return didperm


def git_revision() -> str | None:
    """HEAD of this checkout, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Terminated(BaseException):
    """Raised on SIGTERM; not an Exception, so `_attempt` does not absorb it."""


def _terminate(signum, frame):
    raise Terminated(signum)


def provenance(args, didperm) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "didperm_file": didperm.__file__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def import_time() -> float:
    """Wall time of `import didperm` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )  # fmt: skip
    elapsed, path = out.stdout.split("\n")[:2]
    if not _from_src(path):
        sys.exit(f"perfbench: fresh interpreter imported didperm from {path}")
    return float(elapsed)


def measure_pool_startup(didperm) -> float:
    """Median wall time of simulate_null(workers=2, iterations=2) on an 80-row panel."""
    import numpy as np

    time_ = np.tile(np.repeat([0, 1], 20), 2)
    affected = np.repeat([0, 1], 40)
    sample = didperm.PanelSample(y=np.arange(80.0), time=time_, affected=affected)
    scheme = didperm.RandomizationScheme(didperm.Margins.DUAL, didperm.Mode.FIXED_MARGINS)
    times = []
    for _ in range(POOL_PROBES):
        start = time.perf_counter()
        didperm.simulate_null(sample, scheme, iterations=2, master_seed=1, workers=2)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _attempt(op, sink, tracer=None, op_id=0):
    """Run and check one op -> (wall seconds, failure messages, null values)."""
    sink.seek(0)
    sink.truncate()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            output = op.run() if tracer is None else tracer.run_op(op_id, op.run)
        except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
            return time.perf_counter() - start, [f"op raised {exc!r}: {traceback.format_exc(limit=-3)}"], 0
        elapsed = time.perf_counter() - start
    try:
        failures, values = op.check(output)
    except Exception as exc:  # an unreadable output fails its check
        return elapsed, [f"check raised {exc!r}: {traceback.format_exc(limit=-3)}"], 0
    return elapsed, failures, values


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop over whole cycles until `seconds` have passed and two ops ran.

    Untraced, it also times SETUP_PROBES imports spread evenly over the
    run, between ops, so that set-up time samples the same stretch of
    host speed as the ops do.
    """
    sink = io.StringIO()
    plain, traced, failures, setup = [], [], [], []
    values = failed = cycles = 0
    probes = SETUP_PROBES if tracer is None else 0
    if probes:
        import_time()  # warm-up, not counted
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds or len(plain) < 2:
        for op in workload.cycle(cycles):
            if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
                setup.append(import_time())
            elapsed, fails, produced = _attempt(op, sink)
            plain.append(elapsed)
            values += produced
            failures += fails
            failed += bool(fails)
            if tracer is not None:
                elapsed, fails, _ = _attempt(op, sink, tracer, len(traced))
                traced.append(elapsed)
                failures += fails
                failed += bool(fails)
        cycles += 1
    while len(setup) < probes:
        setup.append(import_time())
    run_failures = workload.finish()
    failures += run_failures
    failed += bool(run_failures)
    return {"plain": plain, "traced": traced, "setup": setup, "values": values, "failures": failures, "failed": failed}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(loop: dict) -> dict:
    lat = loop["plain"]
    return {
        "null_values_per_s": (loop["values"] / sum(lat), "1/s"),
        "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(loop["setup"]), "s"),
    }


def per_layer(loop: dict, tracer, pool_startup_s: float) -> dict:
    ops = len(loop["traced"])
    total, own = tracer.durations()
    counts = tracer.counts

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    sim, enum = total.get("inference.simulate_null", 0.0), total.get("inference.enumerate_null", 0.0)
    draws, relabelings = counts.get("inference.draws", 0), counts.get("inference.relabelings", 0)
    load, rows = total.get("ingest.load_panel", 0.0), counts.get("ingest.rows", 0)
    retained, discarded = counts.get("null.retained", 0), counts.get("null.discarded", 0)
    metrics = {
        "inference.simulate_null.s": (per_op(sim), "s"),
        "inference.us_per_draw": (ratio(sim * 1e6, draws), "us"),
        "inference.draws": (per_op(draws), "count"),
        "inference.pool_startup_s": (pool_startup_s, "s"),
        "inference.draws_discarded": (per_op(counts.get("inference.draws_discarded", 0)), "count"),
        "inference.useful_draw_ratio": (ratio(retained, retained + discarded), "ratio"),
        "inference.enumerate_null.s": (per_op(enum), "s"),
        "inference.us_per_relabeling": (ratio(enum * 1e6, relabelings), "us"),
        "inference.relabelings": (per_op(relabelings), "count"),
        "ingest.load_panel.s": (per_op(load), "s"),
        "ingest.rows_per_s": (ratio(rows, load), "1/s"),
        "ingest.rows": (per_op(rows), "count"),
        "report.bytes": (per_op(counts.get("report.bytes", 0)), "bytes"),
        "cli.main.self_s": (per_op(own.get("cli.main", 0.0)), "s"),
        "power.run_power_study.self_s": (per_op(own.get("power.run_power_study", 0.0)), "s"),
        "trace.op_self_s": (per_op(own.get("op", 0.0)), "s"),
        "trace.overhead_s": (per_op(sum(loop["traced"]) - sum(loop["plain"])), "s"),
    }
    for name in (
        "inference.exactness_audit", "inference.test_significance", "ingest.make_histogram",
        "report.write_report", "panel.did_value", "spaces.space_stats",
    ):  # fmt: skip
        metrics[f"{name}.s"] = (per_op(total.get(name, 0.0)), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc-small", "mc-large", "exact", "power-size"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    didperm = import_didperm()
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import WORKLOADS

    info = provenance(args, didperm)
    # A terminated run still removes its inputs and waits for pool workers.
    signal.signal(signal.SIGTERM, _terminate)
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        loop = run_loop(workload, args.seconds, tracer)
        if tracer is None:
            metrics = end_to_end(loop)
        else:
            metrics = per_layer(loop, tracer, measure_pool_startup(didperm))
            trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop["plain"]) + len(loop["traced"])
    failures = loop["failures"]
    info["ops"] = len(loop["plain"])
    info["op_latencies_s"] = loop["plain"]
    info["setup_probes_s"] = loop["setup"]
    failed = min(loop["failed"], attempted)
    info["failed_ratio"] = failed / attempted
    for message in failures[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"provenance": info}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as exc:
        sys.exit(128 + exc.args[0])
