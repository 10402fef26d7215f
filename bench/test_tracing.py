"""The traced run reports the per-layer metrics BENCHMARK.json names.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402


class TracedRun(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        reported = {name: unit for name, (_, unit) in tracing.Tracer().metrics().items()}
        reported.update({"traced.items": "count", "traced.items_per_s": "1/s"})
        self.assertEqual(declared, reported)

    def test_cdindex_control_counts(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cdindex",
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertTrue(result["correct"])
        self.assertEqual(metrics["traced.items"], result["attempted"])
        self.assertEqual(metrics["posets.cd_extract.calls"], result["attempted"])
        self.assertEqual(metrics["complexes.gf2_rank.calls"], 0)
        self.assertGreater(metrics["cli.main.s"], 0)


if __name__ == "__main__":
    unittest.main()
