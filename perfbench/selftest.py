#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for about one second on a small input, untraced twice
and traced once, through run.py. Checks that each run exits 0 with
attempted > 0 and failed == 0, that every metric BENCHMARK.json names is
present with its unit, and that the workload fingerprint repeats exactly
across the three same-seed runs. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--points", "100000", "--setup-reps", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.exit("FAIL %s trace=%d: exit %d\n%s"
                 % (workload, trace, proc.returncode, proc.stdout))
    result = json.loads(lines[-1])
    fingerprint = next(l for l in lines if l.startswith("fingerprint:"))
    return result, fingerprint


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        fingerprints = []
        for trace in (0, 0, 1):
            result, fingerprint = run(name, trace)
            fingerprints.append(fingerprint)
            if result["attempted"] < 1 or result["failed"] != 0:
                sys.exit("FAIL %s trace=%d: attempted %d, failed %d"
                         % (name, trace, result["attempted"], result["failed"]))
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    sys.exit("FAIL %s trace=%d: metric %s missing"
                             % (name, trace, m["name"]))
        if len(set(fingerprints)) != 1:
            sys.exit("FAIL %s: fingerprints differ across same-seed runs:\n%s"
                     % (name, "\n".join(fingerprints)))
        print("ok %s: %s" % (name, fingerprints[0]))
    print("selftest passed")


if __name__ == "__main__":
    main()
