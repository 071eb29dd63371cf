#!/usr/bin/env python3
"""Write a BENCH_e2e.json trajectory point: parent vs change, end to end.

Runs the unchanged sweep benchmark (sweepbench/run.py) of two source trees,
alternating which tree goes first in each round, on every workload, once
untraced (--trace 0: end-to-end metrics) and once traced (--trace 1:
per-layer metrics) per round. It records the median and quartiles of every
metric on both sides, and for each host-time end-to-end metric the number of
rounds in which the change beat the parent.

    python3 tools/bench_e2e.py --parent ../araxl-parent --change . \\
        --parent-rev <sha> --change-rev <sha> --seed 11 --seconds 6 \\
        --rounds 5 --out BENCH_e2e.json

Each tree builds its harness under <tree>/.bench_build.
Workloads run one at a time on one worker thread, as the benchmark does.

    python3 tools/bench_e2e.py --check BENCH_e2e.json [--tree .]

checks a tree against a committed point instead: it runs every workload
once untraced and once traced at the point's seed, and fails on any
difference in the host-independent counters (simulated cycles, FPU
utilization, job success ratio and the timing engine's work counters) from
the point's change medians. Host times are not checked.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("fig6-cold", "scaling-oracle", "cache-churn")
# End-to-end metrics that are host times (lower is better) or rates (higher
# is better); the rest are deterministic and must match exactly.
HOST_METRICS = {"sweep_s": "lower", "setup_s": "lower",
                "sim_vinstr_per_s": "higher"}
# Counters that --check requires to match the committed point exactly.
EXACT_END_TO_END = ("sim_cycles", "sim_fpu_util", "job_ok_ratio")
EXACT_PER_LAYER = ("machine.batched_iterations", "machine.warmup_projected",
                   "machine.batch_clamps")
EXACT_PER_LAYER_PREFIXES = ("machine.wakeups", "machine.batch_reject.")


def exact(section, name):
    if section == "end_to_end":
        return name in EXACT_END_TO_END
    return name in EXACT_PER_LAYER or name.startswith(EXACT_PER_LAYER_PREFIXES)


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "sweepbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    # Each tree keeps its own build: a shared CARGO_TARGET_DIR would make
    # the two sides rebuild over each other.
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_e2e: {' '.join(cmd)} failed in {tree} "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"bench_e2e: a correctness check failed: {workload} in {tree}")
    return {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}


def summary(values):
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def check(point_path, tree, seconds):
    """Exit status 1 when a gated counter of `tree` differs from the point."""
    with open(point_path) as f:
        point = json.load(f)
    tree = os.path.abspath(tree)
    failures = 0
    for w in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            got = run_once(tree, w, point["seed"], seconds, trace)
            for name, row in point["workloads"][w][section].items():
                if not exact(section, name):
                    continue
                want = row["change"]["median"]
                have = got[name][0] if name in got else None
                if have != want:
                    failures += 1
                    print(f"bench_e2e: {w} {name}: {have} != committed {want}",
                          file=sys.stderr)
            print(f"{w} trace {trace} checked", file=sys.stderr, flush=True)
    if failures:
        print(f"bench_e2e: {failures} counter(s) differ from {point_path}",
              file=sys.stderr)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="POINT",
                    help="check --tree's exact counters against a committed point")
    ap.add_argument("--tree", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
                    help="source tree for --check (default: this repository)")
    ap.add_argument("--parent", help="parent source tree")
    ap.add_argument("--change", help="changed source tree")
    ap.add_argument("--parent-rev")
    ap.add_argument("--change-rev")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.check:
        return check(args.check, args.tree,
                     args.seconds if args.seconds is not None else 1.0)
    missing = [opt for opt in ("parent", "change", "parent_rev", "change_rev",
                               "seed", "seconds", "rounds", "out")
               if getattr(args, opt) is None]
    if missing:
        ap.error("without --check, these are required: " +
                 ", ".join("--" + m.replace("_", "-") for m in missing))

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    # samples[workload][trace][side][metric] = [values]
    samples = {w: {t: {s: {} for s in trees} for t in (0, 1)}
               for w in WORKLOADS}
    units = {}
    for rnd in range(args.rounds):
        order = ("parent", "change") if rnd % 2 == 0 else ("change", "parent")
        for w in WORKLOADS:
            for trace in (0, 1):
                for side in order:
                    metrics = run_once(trees[side], w, args.seed, args.seconds,
                                       trace)
                    for name, (value, unit) in metrics.items():
                        units[name] = unit
                        samples[w][trace][side].setdefault(name, []).append(value)
                print(f"round {rnd + 1}/{args.rounds} {w} trace {trace} done",
                      file=sys.stderr, flush=True)

    out = {
        "generated_by": "python3 tools/bench_e2e.py",
        "benchmark": "python3 sweepbench/run.py",
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "parent_rev": args.parent_rev,
        "change_rev": args.change_rev,
        "workloads": {},
    }
    for w in WORKLOADS:
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rows = {}
            for name in sorted(samples[w][trace]["parent"]):
                p = samples[w][trace]["parent"][name]
                c = samples[w][trace]["change"].get(name, [])
                if not c:
                    continue
                row = {"unit": units[name], "parent": summary(p),
                       "change": summary(c)}
                if trace == 0 and name in HOST_METRICS:
                    lower = HOST_METRICS[name] == "lower"
                    row["change_wins"] = sum(
                        (cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
                rows[name] = row
            entry[section] = rows
        out["workloads"][w] = entry
    with open(args.out, "w") as f:
        f.write(render(out))
    return 0


def render(doc):
    """JSON with one line per metric, so a diff shows which metrics moved."""
    def line(value):
        return json.dumps(value, sort_keys=True)
    head = {k: v for k, v in doc.items() if k != "workloads"}
    parts = [f" {line(k)}: {line(v)}" for k, v in sorted(head.items())]
    workloads = []
    for w, entry in doc["workloads"].items():
        sections = []
        for section, rows in entry.items():
            body = ",\n".join(f"    {line(name)}: {line(row)}"
                              for name, row in rows.items())
            sections.append(f"   {line(section)}: {{\n{body}\n   }}")
        workloads.append(f"  {line(w)}: {{\n" + ",\n".join(sections) + "\n  }")
    parts.append(' "workloads": {\n' + ",\n".join(workloads) + "\n }")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
