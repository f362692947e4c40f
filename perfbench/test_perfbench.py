#!/usr/bin/env python3
"""Benchmark-local checks: the generator is a pure function of the seed,
and BENCHMARK.json names exactly the metrics run.py prints.

    python3 perfbench/test_perfbench.py      (builds .bench_build if needed)
"""

import json
import subprocess
import unittest
from pathlib import Path

import run


def digest(workload, seed):
    out = subprocess.run([str(run.BUILD / "perfbench_loadgen"), "--workload", workload,
                          "--seed", str(seed), "--digest"],
                         check=True, stdout=subprocess.PIPE)
    return out.stdout.decode().strip()


class GeneratorDigest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_one_seed_gives_one_digest(self):
        for workload in ("ingest", "query", "coldtier"):
            self.assertEqual(digest(workload, 7), digest(workload, 7), workload)

    def test_two_seeds_give_two_digests(self):
        for workload in ("ingest", "query", "coldtier"):
            self.assertNotEqual(digest(workload, 7), digest(workload, 8), workload)


class BenchmarkJson(unittest.TestCase):
    def test_metrics_match_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
