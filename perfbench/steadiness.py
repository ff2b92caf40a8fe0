#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--workloads sublayer8,tier72] [--seeds 10]

For every workload, runs perfbench/run.py once per seed (1..N) and prints,
per end-to-end metric of BENCHMARK.json, the median of the N values and
their spread: (third quartile - first quartile) / median, quartiles as
statistics.quantiles(values, n=4) gives them. A spread above a third of
the metric's bound is flagged, and makes the exit code 1. Raw values go to
.bench_build/perfbench/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    steady = True
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: FAILED" % (wl, seed))
                steady = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[wl] = values
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = spread > bounds[name] / 3
            steady &= not flag
            print("%-13s %-14s median %12.6g  spread %6.2f%%  bound/3 "
                  "%5.2f%%%s" % (wl, name, med, 100 * spread,
                                 100 * bounds[name] / 3,
                                 "  TOO WIDE" if flag else ""))
            print("    " + " ".join("%.6g" % v for v in vals))
    out = ROOT / ".bench_build" / "perfbench" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
