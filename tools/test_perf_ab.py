#!/usr/bin/env python3
"""Canned cases for tools/perf_ab.py's per-metric verdict.

    python3 tools/test_perf_ab.py

Needs no build and no perfbench run: it imports `verdict` and feeds it
fixed (base, change) pairs. Exits non-zero on the first failing case.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402

QPS = {"name": "qps", "better": "higher", "bound": 0.25}
P99 = {"name": "p99_us", "better": "lower", "bound": 0.25}


class VerdictTest(unittest.TestCase):
    def test_wins_inside_the_iqr_are_no_gain(self):
        # The change wins 9 of 10 pairs, each by a hair, but its median
        # moves less than the base's interquartile range.
        base = [90, 95, 100, 100, 100, 100, 100, 100, 105, 110]
        head = [b + 0.5 for b in base[:9]] + [base[9] - 0.5]
        v = perf_ab.verdict(QPS, list(zip(base, head)))
        self.assertEqual(v["wins"], 9)
        self.assertFalse(v["gain"])
        self.assertEqual(v["past"], "ok")

    def test_lower_is_better_metric_worse_past_its_bound(self):
        # p99 rose 30% in every pair: past a 25% bound, and no gain even
        # though the medians differ by far more than the IQR.
        base = [100, 101, 99, 100, 102, 98, 100, 100, 101, 99]
        head = [b * 1.3 for b in base]
        v = perf_ab.verdict(P99, list(zip(base, head)))
        self.assertEqual(v["wins"], 0)
        self.assertEqual(v["past"], "PAST")
        self.assertFalse(v["gain"])

    def test_higher_is_better_metric_can_gain(self):
        base = [400, 405, 395, 400, 410, 390, 400, 402, 398, 400]
        head = [b * 1.2 for b in base]
        v = perf_ab.verdict(QPS, list(zip(base, head)))
        self.assertEqual(v["wins"], 10)
        self.assertEqual(v["past"], "ok")
        self.assertTrue(v["gain"])


if __name__ == "__main__":
    unittest.main()
