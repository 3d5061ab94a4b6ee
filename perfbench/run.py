#!/usr/bin/env python3
"""Builds and runs one run of the xmlq benchmark.

    python3 perfbench/run.py --workload point_mix|analytic|store_rw \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the engine and the
benchmark program from source (CMake) under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs only check the build is current.
Build output goes to standard error. The program's report goes to standard
output, and its last line is the result object: {"correct", "attempted",
"failed", "metrics"}.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir, env):
    """Configures and builds the benchmark program; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "xmlq_perfbench"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "xmlq_perfbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the engine's and the benchmark program's sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["point_mix", "analytic", "store_rw"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(os.path.join(build_root, "perfbench"), env)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir",
               os.path.join(build_root, "perfbench-work", args.workload),
               "--commit", source_id()]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("run.py: the run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
