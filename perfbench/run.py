#!/usr/bin/env python3
"""Builds the webcc benchmark program (perfbench) from source and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first call configures and builds the
library and perfbench under .bench_build/perfbench (later calls only check
that the build is current). Its output is passed through; its last
stdout line is the JSON result. Exits non-zero, without printing a result,
when the build or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
STATE_DIR = os.path.join(BUILD_DIR, "state")
GOLDEN = os.path.join(HERE, "golden.txt")
WORKLOADS = ["paper-sweep", "churn-sweep", "chaos-campaign", "serve-overload"]
RUN_LIMIT_S = 170  # a run must finish well inside three minutes


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("build.ninja", "Makefile")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    binary = build()
    if binary is None:
        return 1
    os.makedirs(STATE_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--state-dir", STATE_DIR]
    if os.path.exists(GOLDEN):
        command += ["--golden", GOLDEN]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("run.py: %s did not finish within %d s" % (args.workload, RUN_LIMIT_S),
              file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print("run.py: perfbench exited with code %d" % run.returncode, file=sys.stderr)
        return run.returncode
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys %s" % sorted(result))
    except ValueError as error:
        sys.stderr.write(run.stdout)
        print("run.py: malformed result line: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    print("run.py: %s finished in %.1f s" % (args.workload, time.monotonic() - started),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
