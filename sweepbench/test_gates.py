#!/usr/bin/env python3
"""Prove the sweep benchmark's correctness gates can fail.

Run from the repository root (builds the harness on first use):

    python3 sweepbench/test_gates.py

- A golden-verify failure injected into one fig6-cold job drops
  job_ok_ratio below 1 and makes the benchmark exit non-zero.
- One flipped byte in one cache-churn store line is skipped by the loader
  (store.load_bad_lines = 1) and exactly that job is re-simulated instead
  of replayed (store.hit_ratio = (n - 1) / n; the harness itself checks
  that the one miss is the damaged record's fingerprint).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, trace, inject=None, seed=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return p.returncode, result, metrics


class Gates(unittest.TestCase):
    def test_corrupted_verify_fails_the_run(self):
        code, result, m = bench("fig6-cold", 0, "corrupt-verify")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(m["job_ok_ratio"], 1.0)

    def test_flipped_store_byte_is_resimulated(self):
        code, result, m = bench("cache-churn", 1, "flip-store-byte", seed=5)
        self.assertEqual(code, 0, result)
        self.assertTrue(result["correct"])
        self.assertEqual(m["store.load_bad_lines"], 1)
        n = m["store.records_loaded"] + 1
        self.assertEqual(m["store.hit_ratio"], (n - 1) / n)

    def test_intact_store_replays_everything(self):
        code, result, m = bench("cache-churn", 1)
        self.assertEqual(code, 0, result)
        self.assertEqual(m["store.load_bad_lines"], 0)
        self.assertEqual(m["store.hit_ratio"], 1.0)
        self.assertGreater(m["store.bytes_appended"], 0)


if __name__ == "__main__":
    unittest.main()
