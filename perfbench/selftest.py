#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

Run from the repository root:

    python3 perfbench/selftest.py

* Smoke: each workload, shrunk (--smoke), passes the exactly-once oracle,
  prints the same per-seed digests in two separate processes, and prints
  every metric BENCHMARK.json names, with its unit, untraced and traced.
  Count metrics of two traced runs of one seed are identical. Peak memory
  does not grow with the number of repetitions a run makes.
* Negative: a result whose sink count is off by one, a changed digest on a
  repeat, and the warm-up trap (Scenario::warmup() before the oracle) each
  make the run report correct=false with failed > 0.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

WORKLOADS = ("hybrid_dataplane", "hybrid_control", "chaos_sweep")
SPEC = json.loads(Path("BENCHMARK.json").read_text())


def run(workload, seed=5, trace=0, tamper="none", seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--smoke", "--tamper", tamper]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = sorted(line for line in lines if line.startswith("digest "))
    return result, digests, done.stdout


class Smoke(unittest.TestCase):
    def check_metrics(self, result, section):
        for entry in SPEC[section]:
            self.assertIn(entry["name"], result["metrics"], entry["name"])
            self.assertEqual(result["metrics"][entry["name"]]["unit"], entry["unit"])

    def test_untraced_runs_pass_oracle_and_repeat_digests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, digests1, out = run(workload)
                second, digests2, _ = run(workload)
                self.assertTrue(first["correct"], out)
                self.assertEqual(first["failed"], 0)
                self.assertGreaterEqual(first["attempted"], 2)
                self.assertTrue(digests1)
                self.assertEqual(digests1, digests2)
                self.check_metrics(first, "end_to_end")
                for name, metric in first["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_report_every_layer_and_repeat_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, digests1, out = run(workload, trace=1)
                second, digests2, _ = run(workload, trace=1)
                self.assertTrue(first["correct"], out)
                self.assertEqual(digests1, digests2)
                self.check_metrics(first, "per_layer")
                for entry in SPEC["per_layer"]:
                    if entry["unit"] in ("count", "B") and entry["name"] != "exp.slice_samples":
                        self.assertEqual(first["metrics"][entry["name"]]["value"],
                                         second["metrics"][entry["name"]]["value"],
                                         entry["name"])
                self.assertEqual(first["metrics"]["harness.oracle_fail_frac"]["value"], 0)

    def test_peak_memory_does_not_grow_with_repetitions(self):
        short, _, _ = run("chaos_sweep", seconds=1)
        long, _, out = run("chaos_sweep", seconds=8)
        self.assertIn("repetitions", out)
        self.assertAlmostEqual(short["metrics"]["peak_rss_mb"]["value"],
                               long["metrics"]["peak_rss_mb"]["value"], delta=0.25)


class Negative(unittest.TestCase):
    def check_fails(self, tamper, expect):
        result, _, out = run("hybrid_dataplane", tamper=tamper)
        self.assertFalse(result["correct"], out)
        self.assertGreater(result["failed"], 0)
        self.assertIn(expect, out)

    def test_sink_count_off_by_one_fails(self):
        self.check_fails("sink", "disagree with the oracle")

    def test_changed_digest_fails(self):
        self.check_fails("digest", "differs from the harness driver's")

    def test_warmup_before_oracle_fails(self):
        self.check_fails("warmup", "VIOLATION: sink accepted")


if __name__ == "__main__":
    unittest.main(verbosity=2)
