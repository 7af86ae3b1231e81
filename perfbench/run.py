#!/usr/bin/env python3
"""Build and run the end-to-end discovery benchmark.

    python3 perfbench/run.py --workload star_plain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake; build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. --selftest builds and runs the benchmark's own unit tests instead.
The exit code is the benchmark's (0 only when its correctness gate held).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", target]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def check_result(line):
    """The last line must be the result object the benchmark contract fixes."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's unit tests")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.selftest:
        tests = build(build_dir, "perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build(build_dir, "perfbench_e2e")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--span-file", os.path.join(build_dir, f"spans-{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    if not check_result(lines[-1]):
        # Keep the output for diagnosis, but never let it pass as a result.
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited {proc.returncode} without a result", proc.returncode or 4)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
