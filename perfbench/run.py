#!/usr/bin/env python3
"""Builds streamhist and its load generator from source, then runs one
benchmark workload against a live `streamhist_tool serve` process.

    python3 perfbench/run.py --workload read_warm --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to .bench_build/perfbench
(configured once, then incremental). Build output goes to stderr; the
generator's result JSON is the last line of stdout. The exit code is the
generator's: 0 when every correctness check passed, 1 when one failed,
2 when the run could not be set up. A failed build exits 3 and a run
that overruns its time limit exits 4, and neither prints a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BENCH_DIR, "perfbench")
RUN_LIMIT_S = 170
# Compiler and run temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BENCH_DIR, "tmp"))


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    tag = f"{args.workload}-seed{args.seed}"
    cmd = [os.path.join(BUILD, "perfbench_gen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tool", os.path.join(BUILD, "tools", "streamhist_tool"),
           "--run-dir", os.path.join(BENCH_DIR, "runs", f"{tag}-{os.getpid()}")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BENCH_DIR, "traces", f"{tag}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S, env=ENV)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
