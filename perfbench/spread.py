"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--out perfbench/out/spread.jsonl]

Runs perfbench/run.py with --trace 0 once per workload of BENCHMARK.json
and seed, each in its own process, sequentially, for BENCHMARK.json's
run_seconds.  For each metric it prints the median and the quartile
spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the metric's bound.  A spread
above a third of its bound is marked.
Each result line, with its provenance, is appended to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path, default=HERE / "out" / "spread.jsonl")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.out.parent.mkdir(parents=True, exist_ok=True)

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]  # fmt: skip
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result, **json.loads(lines[-2])}) + "\n")
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print(f"{workload:11s} {name:30s} median {med:12.6g} spread {spread:7.4f} bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
