#!/usr/bin/env python3
"""Build the sweep benchmark harness from source and run one workload.

Run from the repository root:

    python3 sweepbench/run.py --workload fig6-cold --seed 0 --seconds 30 --trace 0

The first call configures and builds the araxl library plus the harness in
Release mode under $CARGO_TARGET_DIR/sweepbench (default .bench_build/), so
it can take a minute; later calls only re-check the build. Build output
goes to stderr. The harness prints the result as the last stdout line and
its exit code is passed through (non-zero when a correctness check fails).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6-cold", "scaling-oracle", "cache-churn")


def fail(msg):
    print(f"sweepbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "sweepbench")


def build(bdir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no araxl source tree (CMakeLists.txt, src/) at {ROOT}")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
             # Never reach for the network: a missing dependency fails fast.
             "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "sweepbench_harness",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "sweepbench_harness")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("corrupt-verify", "flip-store-byte"),
                    help="deliberately break one job (gate tests only)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    bdir = build_dir()
    try:
        harness = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(bdir, "work", args.workload)]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
