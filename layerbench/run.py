#!/usr/bin/env python3
"""Builds and runs the layered benchmark.

usage: python3 layerbench/run.py --workload <name|all> --seed <n> \
           --seconds <s> --trace <0|1>

Run from the root of a source checkout (a git clone or a plain copy of
the tracked files). The script configures and builds layerbench/ in
Release under .bench_build/layerbench, runs the benchmark's own
self-test, then runs one workload (or, with --workload all, the three
in turn) with its data under .bench_build/layerbench-run. Everything the
program prints goes to stdout; a workload's last line is its JSON result
({"correct", "attempted", "failed", "metrics"}). With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.

Exits non-zero without printing a result when the source tree is
missing, the build or self-test fails, the run fails or times out, or
the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "layerbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "layerbench-run")
WORKLOADS = ("interactive_exact", "served_mixed", "ondisk_ingest")
# Leaves headroom under a 180 s limit per run for the process start.
RUN_TIMEOUT_S = 170


def fail(message):
    print("layerbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("no parisax source tree at " + ROOT)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                       "layerbench", "layerbench_selftest"]):
        fail("build failed")
    if not run_logged([os.path.join(BUILD_DIR, "layerbench_selftest")]):
        fail("the benchmark's self-test failed")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json fixes for this kind of run,
    or None when the checkout has no BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if want is not None and got != want:
        fail("result metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def run_workload(workload, args):
    """Runs one workload, prints its output and returns its exit code."""
    cmd = [os.path.join(BUILD_DIR, "layerbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # Captured output arrives as bytes here even with text=True.
        sys.stderr.write((e.stdout or b"").decode(errors="replace"))
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 and not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail("layerbench exited with %d" % proc.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run_workload(w, args) for w in workloads))


if __name__ == "__main__":
    main()
