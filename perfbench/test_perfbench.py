#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

Builds the perfbench binary if needed (see run.py), then checks the tail
rule, the compare tool's verdicts, that the serve window probes leave every
response bitwise unchanged, and that an untraced and a traced run of each
workload, exactly as BENCHMARK.json defines it, pass their output checks and
print exactly the metrics BENCHMARK.json names. Those six runs take several
minutes.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        xs = list(range(1, 37))  # 36 epochs
        value, pct = run.tail(xs)
        self.assertEqual(value, 26)
        self.assertEqual(sum(x > value for x in xs), 10)
        self.assertAlmostEqual(pct, 100 * 25 / 35)

    def test_order_does_not_matter(self):
        xs = [5, 1, 9, 3, 7, 2, 8, 6, 4, 10, 11, 0]
        self.assertEqual(run.tail(xs), run.tail(sorted(xs)))

    def test_smallest_sample_count(self):
        value, pct = run.tail(range(11))
        self.assertEqual((value, pct), (0, 0.0))
        with self.assertRaises(ValueError):
            run.tail(range(10))


class CompareVerdicts(unittest.TestCase):
    LOWER = {"name": "t", "better": "lower", "bound": 0.1}
    HIGHER = {"name": "r", "better": "higher", "bound": 0.1}

    def test_within_bound_is_ok(self):
        self.assertEqual(compare.verdict(self.LOWER, [10, 10.1, 9.9, 10], [10.5] * 4), "ok")

    def test_worse_beyond_bound(self):
        self.assertEqual(compare.verdict(self.LOWER, [10] * 4, [11.5] * 4), "worse")
        self.assertEqual(compare.verdict(self.HIGHER, [10] * 4, [8.5] * 4), "worse")

    def test_wide_spread_is_unresolved(self):
        noisy = [6, 10, 14, 8, 12]
        self.assertEqual(compare.verdict(self.LOWER, noisy, noisy), "unresolved")

    def test_wide_spread_but_always_better_is_ok(self):
        self.assertEqual(compare.verdict(self.LOWER, [20, 30, 40], [5, 8, 11]), "ok")


class Program(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.config = run.load_config()

    def test_serve_window_probes_are_bitwise_invisible(self):
        out = subprocess.run([str(self.binary), "--selftest", "serve-probes",
                              "--seed", "5", "--work", str(run.OUT_DIR)],
                             capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("serve-probes: ok", out.stdout)

    def test_every_metric_for_every_workload(self):
        for w in self.config["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
                         w["name"], "--seed", "2", "--seconds",
                         str(self.config["run_seconds"]), "--trace", str(trace)],
                        capture_output=True, text=True, timeout=180)
                    self.assertEqual(out.returncode, 0, out.stdout[-4000:] + out.stderr[-4000:])
                    lines = out.stdout.strip().splitlines()
                    last = json.loads(lines[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(last["correct"], True)
                    self.assertEqual(last["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.config[section]}
                    got = {k: v["unit"] for k, v in last["metrics"].items()}
                    self.assertEqual(got, want)
                    human = "\n".join(lines[:-1])
                    for name in want:
                        self.assertIn(name, human)
                    self.assertGreaterEqual(last["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
