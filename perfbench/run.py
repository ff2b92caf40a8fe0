#!/usr/bin/env python3
"""Build the CAIS simulator benchmark and run one workload.

    python3 perfbench/run.py --workload sublayer8 --seed 1 --seconds 30 --trace 0

Builds libcais and perfbench_driver from this checkout's sources into
.bench_build/perfbench (CMake, Release), then runs the workload in a child
process with CAIS_JOBS / CAIS_SHARDS removed from its environment. The
driver's report is relayed; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Per-run detail (machine
fingerprint, sim_digest, spans of a traced run) lands in
.bench_build/perfbench/results. Exit code: the driver's (0 when every job
passed its checks), 1 when the build fails or the driver dies.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = BUILD_DIR / "results"
WORKLOADS = ("sublayer8", "tier72", "static_gates")
DRIVER_TIMEOUT_S = 170


def build():
    """Configure and build the driver; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "perfbench_driver"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def failure(reason, attempted=1):
    """Result line of a run whose driver did not report one."""
    sys.stderr.write("perfbench: %s\n" % reason)
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": attempted, "metrics": {}}))
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("CAIS_JOBS", "CAIS_SHARDS")}
    cmd = [str(BUILD_DIR / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(RESULTS_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return failure("driver exceeded %d s" % DRIVER_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        return failure("driver exited with code %d without a result"
                       % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    if proc.returncode != 0 and result["correct"]:
        return failure("driver exited with code %d" % proc.returncode)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
