#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 perfbench/trajectory.py [--workloads point_mix,analytic,store_rw]
        [--seeds 1-10] [--seconds 10] [--trace 0] [--label NAME]
        [--record perfbench/trajectory.json]

For every workload and metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread: the distance between the
quartiles as a share of the median. With --trace 0, a spread above a third
of the metric's bound in BENCHMARK.json is flagged. Every run must be
correct, fail nothing and report exactly the metrics BENCHMARK.json names.
--record appends the summary, with the host descriptor, to a trajectory
file. Run from the root of a checkout. Exits non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    """One run; returns (result object, host descriptor)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d:\n%s%s" % (
            workload, seed, done.returncode, done.stdout, done.stderr[-2000:]))
    host = None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[5:])
            host.pop("seed", None)  # the point records its seeds itself
    return json.loads(lines[-1]), host


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--record", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    ok = True
    host = None
    summary = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            result, host = run_once(workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"] != 0:
                print("FAIL %s seed %d: correct=%s failed=%d" % (
                    workload, seed, result["correct"], result["failed"]))
                ok = False
            if set(result["metrics"]) != set(bounds):
                print("FAIL %s seed %d: metrics differ from BENCHMARK.json: "
                      "%s" % (workload, seed, sorted(
                          set(result["metrics"]) ^ set(bounds))))
                ok = False
            for name in bounds:
                if name in result["metrics"]:
                    values[name].append(result["metrics"][name]["value"])
            print("ran %s seed %d" % (workload, seed), flush=True)
        summary[workload] = {}
        print("\n%s (%d seeds, %g s)" % (workload, len(seeds), seconds))
        for name in bounds:
            if len(values[name]) < 2:
                continue
            s = summarize(values[name])
            s["unit"] = units[name]
            summary[workload][name] = s
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and (
                    s["spread"] > bound / 3):
                flag = "  SPREAD > bound/3 (%.3f)" % (bound / 3)
            print("  %-32s median %14.4f  q1 %14.4f  q3 %14.4f  spread %.4f%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], flag))

    if args.record:
        path = os.path.join(ROOT, args.record)
        trajectory = {"points": []}
        if os.path.exists(path):
            with open(path) as f:
                trajectory = json.load(f)
        trajectory["points"].append({
            "label": args.label, "host": host, "trace": args.trace,
            "seconds": seconds, "seeds": seeds, "workloads": summary})
        with open(path, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
