"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads planted,long --seeds 1-10 [--out FILE]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median, next to a third of the metric's bound from
BENCHMARK.json.  ``--out`` writes all of it, with the command, the seeds,
the Python and NumPy versions and the CPU count, as a baseline JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report: dict = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(spec, workload, seed, args.trace)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[name] = {"median": median, "spread": spread, "values": values}
            limit = bounds.get(name, float("nan")) / 3
            flag = "" if name not in bounds or name == "setup_s" or spread < limit else "  WIDE"
            steady &= not flag
            print(f"  {name:<44} median {median:>14.6g}  spread {spread:7.4f}  bound/3 {limit:.4f}{flag}")
            if flag:
                print("    runs: " + " ".join(f"{v:.5g}" for v in values))
        report["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print("steady" if steady else "NOT steady: some spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
