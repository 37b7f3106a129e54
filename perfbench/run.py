#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb_a_zipf --seed 1 --seconds 10 --trace 0

The library and the benchmark are compiled (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later runs rebuild only what changed.  Build output goes to stderr.
The benchmark's stdout is passed through once it has ended: its last line is
the result object {correct, attempted, failed, metrics}.  The exit status is
the benchmark's (non-zero on a wrong output), or non-zero with no result when
the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ycsb_a_zipf", "read_scan_large", "churn_batched")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if a.seed < 0 or not 0 < a.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        print(f"perfbench: exit {proc.returncode} without a result ({e})", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
