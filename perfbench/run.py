#!/usr/bin/env python3
"""Build and run the rlibm-fastpoly benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the project libraries
it links) into .bench_build/perfbench, pins the library's environment
variables, measures set-up in separate processes, runs the workload, and
prints the run record and, as the last stdout line, the result JSON. Exits
non-zero without a result when the build, a run or an output check cannot
complete. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("eval-inrange", "eval-wholedomain", "generate", "verify")
# Set-up is timed in this many fresh processes before the measured run and
# as many after it; setup_s is the median of all of them and the measured
# run's own set-up.
SETUP_PROCESSES = 10
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no project sources next to perfbench/ (src/CMakeLists.txt)")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def pinned_env():
    """The library's RFP_* knobs, identical for every commit measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RFP_")}
    env["RFP_BATCH_ISA"] = "auto"
    env["RFP_BATCH_PARITY_PROBE"] = "knuth"
    env["RFP_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run(args, env):
    try:
        p = subprocess.run([BINARY] + args, cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("exit %d: %s" % (p.returncode, " ".join(args)))
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if not 1 <= a.seconds <= 60 or a.seed < 0:
        fail("--seconds must be 1..60 and --seed non-negative")

    build()
    env = pinned_env()
    setup = []

    def time_setup():
        if a.trace == 0:
            for _ in range(SETUP_PROCESSES):
                out = run(["--setup-only"], env)[-1]
                setup.append(json.loads(out)["setup_s"])

    time_setup()
    os.makedirs(TRACE_DIR, exist_ok=True)
    lines = run(["--workload", a.workload, "--seed", str(a.seed),
                 "--seconds", str(a.seconds), "--trace", str(a.trace),
                 "--trace-dir", TRACE_DIR], env)
    result = json.loads(lines[-1])
    time_setup()
    if a.trace == 0:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"setup_samples_s": setup}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
