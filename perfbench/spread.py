#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload churn_bounded --seeds 1-10

Runs the benchmark once per seed (sequentially, untraced) and prints, for
each end-to-end metric, the median and the distance between the first and
third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json. A spread above a third of the bound is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: run failed")
        row = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={values[name][-1]:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    status = 0
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
        status |= 0 if steady else 1
        print(f"{metric['name']:22s} median {median:12.6g} "
              f"{metric['unit']:10s}"
              f" spread {spread:7.2%}  bound {metric['bound']:.0%}"
              f"{'' if steady else '  <-- above a third of the bound'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
