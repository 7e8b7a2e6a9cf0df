#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

Run from the root of the repository:

    python3 perfbench/selftest.py

Checks, for every workload:
  1. the point list is a pure function of the seed: the same seed
     lists the same points, another seed lists other points;
  2. tracing changes host time only: a traced run's simulated results
     are byte-identical to an untraced run's;
  3. every metric BENCHMARK.json names is printed, with its unit:
     the end-to-end metrics untraced, the per-layer metrics traced.
Runs one short pass per mode (about a minute per workload) and exits
nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build step)

# Not the default seed: results are checked against each other here,
# not against the stored expectation.
SEED = 7


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def pmbench(binary, *args):
    proc = subprocess.run([binary, *args], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        fail("pmbench %s exited %d:\n%s" % (" ".join(args), proc.returncode,
                                             proc.stdout[-2000:]))
    return proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    binary = run.build()
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        for w in (x["name"] for x in bench["workloads"]):
            lists = [pmbench(binary, "--workload", w, "--seed", s,
                             "--list-points") for s in ("1", "1", "2")]
            if lists[0] != lists[1]:
                fail("%s: seed 1 listed two different point lists" % w)
            if lists[0] == lists[2]:
                fail("%s: seeds 1 and 2 listed the same points" % w)

            results = {}
            for trace in ("0", "1"):
                path = os.path.join(tmp, "%s-%s.txt" % (w, trace))
                out = pmbench(binary, "--workload", w, "--seed", str(SEED),
                              "--seconds", "0.1", "--trace", trace,
                              "--results-out", path)
                got = json.loads(out.strip().splitlines()[-1])
                if not got["correct"] or got["failed"]:
                    fail("%s trace %s: %d points failed" % (w, trace,
                                                            got["failed"]))
                units = {k: v["unit"] for k, v in got["metrics"].items()}
                if units != want[trace]:
                    fail("%s trace %s: metrics %s, BENCHMARK.json names %s"
                         % (w, trace, sorted(units), sorted(want[trace])))
                with open(path) as f:
                    results[trace] = f.read()
            if results["0"] != results["1"]:
                fail("%s: traced simulated results differ from untraced" % w)
            print("ok %s" % w, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
