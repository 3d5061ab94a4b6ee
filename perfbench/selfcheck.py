#!/usr/bin/env python3
"""The benchmark's own test: exact counts repeat.

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 2]

Runs the traced replay of every workload twice on one seed and checks that
both runs are correct and that every count metric listed under
"exact_counts" in perfbench/layers.json is identical in the two. A later
change may then state one of them as a count claim. (Each traced run also
checks, per replayed request, that the layer self times plus the remainder
equal the round trip, and reports incorrect if not.) Run from the root of a
checkout; exits non-zero on any failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d:\n%s" % (
            workload, done.returncode, done.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(HERE, "layers.json")) as f:
        exact = json.load(f)["exact_counts"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    failures = 0
    for workload in workloads:
        first = traced(workload, args.seed, args.seconds)
        second = traced(workload, args.seed, args.seconds)
        for run in (first, second):
            if not run["correct"] or run["failed"] != 0:
                print("FAIL %s: correct=%s failed=%d" % (
                    workload, run["correct"], run["failed"]))
                failures += 1
        for name in exact:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                print("FAIL %s %s: %r != %r" % (workload, name, a, b))
                failures += 1
        print("%s: %d exact counts compared" % (workload, len(exact)))
    print("PASS" if failures == 0 else "FAILED (%d)" % failures)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
