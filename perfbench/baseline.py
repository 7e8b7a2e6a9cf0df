#!/usr/bin/env python3
"""Measure the benchmark's baseline and its run-to-run spread.

Usage, from the root of the repository:

    python3 perfbench/baseline.py [--runs 10] [--label TEXT] \
        [--workloads node_kernels ...] [--out perfbench/BASELINE.json]

Runs every workload --runs times through perfbench/run.py, each run
with its own seed (1, 2, ...), at BENCHMARK.json's run_seconds, with
tracing off; the workloads take turns so slow drift of the host hits
all of them alike. Then one traced run per workload at the default
seed. For each end-to-end metric it records the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, flags
any spread wider than a third of the metric's bound, and stores the
traced run's per-layer numbers.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("baseline: %s seed %d failed:\n%s%s"
                 % (workload, seed, proc.stdout, proc.stderr))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--label", default="")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            result = run_once(w, i + 1, seconds, 0)
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print("run %d %s: %s" % (i + 1, w, " ".join(
                "%s=%.4g" % (m, values[w][m][-1]) for m in bounds)),
                flush=True)

    out = {
        "label": args.label,
        "measured": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": "%s, %d CPUs" % (platform.processor() or platform.machine(),
                                 os.cpu_count()),
        "run_seconds": seconds,
        "seeds": list(range(1, args.runs + 1)),
        "end_to_end": {},
        "traced_per_layer": {},
    }
    steady = True
    for w in workloads:
        out["end_to_end"][w] = {}
        for m, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread <= bounds[m] / 3
            steady &= ok
            out["end_to_end"][w][m] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": vals}
            print("%-15s %-13s median %.4g spread %.3f (bound %.2f)%s"
                  % (w, m, med, spread, bounds[m], "" if ok else "  WIDE"))
        traced = run_once(w, 1, seconds, 1)
        out["traced_per_layer"][w] = {
            m: v["value"] for m, v in traced["metrics"].items()}

    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s; %s" % (args.out, "steady" if steady else
                            "some spreads exceed a third of their bound"))


if __name__ == "__main__":
    main()
