#!/usr/bin/env python3
"""Builds the DISCO benchmark from source and runs one workload.

    python3 perfbench/run.py --workload lookup|analytics|serve|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench;
build output and the program's diagnostics go to standard error, and the
last line of standard output is the program's JSON result. `all` runs the
three workloads in turn and prints a table of their metrics before each
result line. Traced runs also write their spans to .bench_build/spans/.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The program must finish well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no DISCO sources at %s; run from the root of a checkout"
             % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build of %s failed" % target)
    return os.path.join(BUILD_DIR, target)


def run(command, timeout_s):
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=timeout_s, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (command[0], timeout_s))
    return done


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["lookup", "analytics", "serve", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="test the benchmark's helpers and smoke-run "
                             "every workload")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    workloads = (["lookup", "analytics", "serve"] if args.workload == "all"
                 else [args.workload])
    for workload in workloads:
        line = run_workload(binary, workload, args)
        if len(workloads) > 1:
            result = json.loads(line)
            print("%s: correct=%s attempted=%d failed=%d"
                  % (workload, result["correct"], result["attempted"],
                     result["failed"]))
            for name, metric in result["metrics"].items():
                print("  %-34s %14.6g %s" % (name, metric["value"],
                                              metric["unit"]))
        print(line, flush=True)


def run_workload(binary, workload, args):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.txt" % (workload, args.seed))]
    done = run(command, RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result: %s" % lines[-1])
    return lines[-1]


if __name__ == "__main__":
    main()
