#!/usr/bin/env python3
"""Builds and runs the roadmine benchmark.

    python3 perfbench/run.py --workload <study|network_build|network_rank> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run compiles the library from
src/ and the benchmark binary from perfbench/ into .bench_build/ (or
$CARGO_TARGET_DIR); generated inputs live in .bench_work/ and are removed
after each run. The binary's last stdout line is the result JSON; this
script checks it against BENCHMARK.json before passing it on, and exits
non-zero when the build fails, a check fails, or the result is malformed.
See perfbench/METRICS.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return done.returncode == 0


def build():
    """Compiles roadbench; returns its path, or None when the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("src/CMakeLists.txt not found: run from the root of a roadmine checkout")
        return None
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_checked(["cmake", "--build", build_dir, "--target", "roadbench",
                        "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(build_dir, "roadbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    """The result line has the contract's keys and exactly the listed metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != expected_metrics(trace):
        log("result metrics do not match BENCHMARK.json")
        return False
    return result["correct"] is True and result["failed"] == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    work_dir = os.path.join(ROOT, ".bench_work")
    if args.selftest:
        cmd = [binary, "--selftest", "--work", work_dir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.splitlines()
    if args.selftest:
        print("\n".join(lines), flush=True)
        return done.returncode
    if done.returncode != 0 or not lines or not valid_result(lines[-1], args.trace):
        # Never pass on a result from a failed run.
        print("\n".join(lines[:-1]), flush=True)
        log(f"run failed (exit code {done.returncode})")
        return done.returncode or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
