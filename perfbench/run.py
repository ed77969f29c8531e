#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The driver (perfbench.cpp) and the library
sources under src/ are compiled into .bench_build/perfbench, then:

  * setup_s is measured by launching the driver in --setup-only mode several
    times (process start and workload generation) and taking the median
    wall time;
  * the driver runs the workload's closed loop for S seconds with every
    STOCDR_* variable removed from its environment (the library's own
    telemetry stays off) and prints its report.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The exit code is non-zero when the build fails or
any output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "stocdr_perfbench")
SETUP_REPEATS = 15
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "stocdr_perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("STOCDR_")}


def measure_setup(workload, seed, env):
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [DRIVER, "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            env=env, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return None
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    env = clean_env()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
        setup_s = None
    else:
        setup_s = measure_setup(args.workload, args.seed, env)
        if setup_s is None:
            log("perfbench: driver set-up failed")
            return 2

    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log("perfbench: driver exited %d without a result" % proc.returncode)
        return 2
    for line in lines[:-1]:
        print(line)
    if setup_s is not None:
        print("  %-32s %.6g s (median of %d launches)"
              % ("setup_s", setup_s, SETUP_REPEATS))
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
