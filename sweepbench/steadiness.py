#!/usr/bin/env python3
"""Check that the sweep benchmark's end-to-end metrics are steady.

Run from the repository root:

    python3 sweepbench/steadiness.py [--rounds 10] [--sets 1]

Each round runs every workload in BENCHMARK.json once (untraced, for
run_seconds), each with a fresh seed, so slow drift in host speed lands
evenly on all workloads instead of on whichever ran last. For every
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median beside the
metric's bound from BENCHMARK.json:

    OK      spread <= bound / 3
    WARN    bound / 3 < spread <= bound
    NOISY   spread > bound (the benchmark would be rejected as too noisy)

Every metric is gated, setup_s included. With --sets 2 the rounds are
repeated with new seeds and the drift of each median between the sets is
checked against the bound in the metric's "worse" direction. Exits 1 when any metric is NOISY or DRIFT, or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 100


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {p.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result: {' '.join(cmd)}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # samples[set][workload][metric] -> list of values
    samples = []
    seed = FIRST_SEED
    for s in range(args.sets):
        per_w = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for r in range(args.rounds):
            for w in workloads:
                values = run_once(w, seed, bench["run_seconds"])
                for m in metrics:
                    per_w[w][m["name"]].append(values[m["name"]])
                print(f"set {s + 1} round {r + 1} {w} seed {seed}: " +
                      " ".join(f"{k}={values[k]:.6g}" for k in sorted(values)),
                      file=sys.stderr, flush=True)
            seed += 1
        samples.append(per_w)

    bad = False
    print(f"{'workload':15} {'metric':17} {'set':>3} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, per_w in enumerate(samples):
                med, q1, q3, sp = spread(per_w[w][name])
                medians.append(med)
                if sp > bound:
                    verdict, bad = "NOISY", True
                elif sp > bound / 3:
                    verdict = "WARN"
                else:
                    verdict = "OK"
                print(f"{w:15} {name:17} {s + 1:>3} {med:13.6g} {q1:13.6g} "
                      f"{q3:13.6g} {sp:8.4f} {bound:6.3f}  {verdict}")
            for s in range(1, len(medians)):
                base = medians[0]
                worse = (medians[s] - base if m["better"] == "lower"
                         else base - medians[s])
                drift = worse / base if base else 0.0
                verdict = "DRIFT" if drift > bound else "OK"
                bad = bad or drift > bound
                print(f"{w:15} {name:17} {'d' + str(s + 1):>3} "
                      f"worse by {drift:+.4f} of set-1 median vs bound "
                      f"{bound:.3f}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
