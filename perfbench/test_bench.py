#!/usr/bin/env python3
"""The benchmark's own test.  Run from the root of a checkout:

    python3 perfbench/test_bench.py

- On one small and one heavy app (SharedDP, Pinterest), the traced pass's
  per-layer composition serializes exactly the report Pipeline.analyze
  does.
- The metric names run.py prints on the paper-39 workload, in both modes,
  are exactly the ones BENCHMARK.json declares, with its units, and
  spec.json documents each of them.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TRACE = os.path.join(ROOT, "_build", "default", "perfbench", "trace.exe")


def load(path):
    with open(path) as f:
        return json.load(f)


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/trace.exe"],
                       check=True, cwd=ROOT)
        cls.declared = load(os.path.join(ROOT, "BENCHMARK.json"))
        cls.spec = load(os.path.join(BENCH, "spec.json"))

    def test_composition_matches_pipeline(self):
        p = subprocess.run([TRACE, "selftest", "SharedDP", "Pinterest"],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def bench(self, trace):
        """The benchmark on its smallest workload, for as few runs as it makes."""
        p = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "paper-39",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.splitlines()[-1])

    def test_printed_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = self.bench(trace)
            self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            self.assertEqual(
                [(k, v["unit"]) for k, v in out["metrics"].items()],
                [(m["name"], m["unit"]) for m in self.declared[section]])
            self.assertEqual(sorted(self.spec[section]), sorted(out["metrics"]))


if __name__ == "__main__":
    unittest.main()
