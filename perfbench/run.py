#!/usr/bin/env python3
"""Builds and runs the PINT collection-path benchmark.

    python3 perfbench/run.py --workload replay_inproc --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first form builds the library and the benchmark from the checkout's
sources (into $CARGO_TARGET_DIR, default .bench_build) and runs one
workload; the last stdout line is the result JSON. `--trace 1` also writes
the run's spans to .bench_out/. The exit code is non-zero when a
correctness check fails or the build does not succeed.

`--selftest` runs every workload at smoke size in both modes, checks that
each metric BENCHMARK.json names is printed with its unit, and checks that
a payload frame with one flipped byte is caught.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not (ROOT / "src" / "pint" / "framework.h").is_file():
        sys.exit("perfbench: the PINT sources (src/) are missing")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"],
    ):
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=True)
        except (OSError, subprocess.SubprocessError) as error:
            sys.exit(f"perfbench: build failed: {error}")
    return out / "perfbench"


def run(binary, args, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, []
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, lines


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def selftest(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        modes = ((0, spec["end_to_end"]), (1, spec["per_layer"]))
        for trace, declared in modes:
            code, lines = run(binary, ["--workload", workload, "--seed", "7",
                                       "--seconds", "1", "--trace", str(trace),
                                       "--smoke"], echo=False)
            result = result_of(lines)
            tag = f"{workload} trace={trace}"
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  f"{tag}: runs clean")
            metrics = (result or {}).get("metrics", {})
            missing = [m["name"] for m in declared
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing and len(metrics) == len(declared),
                  f"{tag}: every metric with its unit {missing or ''}")
        code, lines = run(binary, ["--workload", workload, "--seed", "7",
                                   "--seconds", "1", "--trace", "0",
                                   "--smoke", "--corrupt-frame"], echo=False)
        result = result_of(lines)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0
              and any("CHECK FAILED" in line for line in lines),
              f"{workload}: a flipped payload byte fails the identity check "
              f"and counts as failed")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    bench_args = ["--workload", args.workload, "--seed", args.seed,
                  "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans = f"spans-{args.workload}-seed{args.seed}.jsonl"
        bench_args += ["--spans", str(Path(".bench_out") / spans)]
    code, _ = run(binary, bench_args)
    return code


if __name__ == "__main__":
    sys.exit(main())
