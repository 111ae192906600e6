#!/usr/bin/env python3
"""Tests for bench/e2e/compare.py: python3 bench/e2e/test_compare.py"""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "deal_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "deals_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "wal.append_us", "unit": "us", "better": "lower"},
    ],
}


def result(values, correct=True, failed=0):
    metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": metrics}


def verdict(parent, change, better, bound):
    return compare.classify(parent, change, better, bound)["verdict"]


class ClassifyTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [v * 0.8 for v in parent]
        row = compare.classify(parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "improved")
        self.assertEqual(row["wins"], 10)

    def test_higher_is_better_direction(self):
        parent = [100.0 + i for i in range(10)]
        change = [130.0 + i for i in range(10)]
        self.assertEqual(verdict(parent, change, "higher", 0.1), "improved")
        self.assertEqual(verdict(change, parent, "higher", 0.1), "regressed")

    def test_eight_of_ten_wins_is_no_gain(self):
        parent = [10.0] * 10
        change = [9.0] * 8 + [11.0] * 2
        row = compare.classify(parent, change, "lower", 0.1)
        self.assertEqual(row["wins"], 8)
        self.assertNotEqual(row["verdict"], "improved")

    def test_ties_count_for_neither_side(self):
        parent = [10.0] * 10
        change = [10.0] * 9 + [9.0]
        row = compare.classify(parent, change, "lower", 0.1)
        self.assertEqual(row["wins"], 1)
        self.assertEqual(row["verdict"], "unchanged")

    def test_gap_within_parent_spread_is_no_gain(self):
        # Every pair wins, but the medians differ by less than the parent's
        # interquartile range.
        parent = [10.0, 12.0, 8.0, 11.0, 9.0, 10.5, 9.5, 11.5, 8.5, 10.0]
        change = [v - 0.5 for v in parent]
        row = compare.classify(parent, change, "lower", 0.5)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "unchanged")

    def test_worse_beyond_bound_is_regressed(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        change = [v * 1.2 for v in parent]
        self.assertEqual(verdict(parent, change, "lower", 0.1), "regressed")

    def test_worse_within_bound_is_unchanged(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        change = [v * 1.05 for v in parent]
        self.assertEqual(verdict(parent, change, "lower", 0.1), "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
        change = [v + 0.2 for v in parent]
        self.assertEqual(verdict(parent, change, "lower", 0.1), "unresolved")

    def test_spread_wider_than_bound_but_every_run_better(self):
        # The gain rule cannot fire (gap < parent IQR), yet every change run
        # beats every parent run: that resolves the wide spread.
        parent = [10.0] * 5 + [18.0] * 5
        change = [9.5] * 10
        row = compare.classify(parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "unchanged")

    def test_per_layer_metrics_have_no_bound(self):
        parent = [80.0 + i * 0.1 for i in range(10)]
        doubled = [v * 2 for v in parent]
        halved = [v / 2 for v in parent]
        self.assertEqual(verdict(parent, doubled, "lower", None), "worsened")
        self.assertEqual(verdict(parent, halved, "lower", None), "improved")
        self.assertEqual(verdict(parent, parent, "lower", None), "unchanged")


class CommandTest(unittest.TestCase):
    def write(self, d, name, workload, res):
        path = Path(d) / name
        path.write_text(f"workload {workload} seed 1 seconds 20 trace 0\n"
                        f"metric deal_ms_p50 1 ms\n{json.dumps(res)}\n")
        return str(path)

    def run_compare(self, files):
        with tempfile.TemporaryDirectory() as d:
            bench = Path(d) / "BENCHMARK.json"
            bench.write_text(json.dumps(BENCH))
            paths = [self.write(d, f"r{i}", w, r)
                     for i, (w, r) in enumerate(files)]
            out = io.StringIO()
            with redirect_stdout(out):
                code = compare.main(["--bench", str(bench), "--pairs", *paths])
            return code, out.getvalue()

    def pairs(self, parent_ms, change_ms, workload="sim-committee-64", **kw):
        files = []
        for p, c in zip(parent_ms, change_ms):
            files.append((workload, result({"deal_ms_p50": p,
                                            "deals_per_s": 1000 / p})))
            files.append((workload, result({"deal_ms_p50": c,
                                            "deals_per_s": 1000 / c}, **kw)))
        return files

    def test_no_regression_exits_zero(self):
        ms = [6.0 + 0.01 * i for i in range(10)]
        code, out = self.run_compare(self.pairs(ms, ms))
        self.assertEqual(code, 0, out)
        self.assertIn("unchanged", out)

    def test_regression_exits_one(self):
        ms = [6.0 + 0.01 * i for i in range(10)]
        code, out = self.run_compare(self.pairs(ms, [v * 1.3 for v in ms]))
        self.assertEqual(code, 1, out)
        self.assertIn("regressed", out)

    def test_failed_unit_fails_the_gate(self):
        ms = [6.0 + 0.01 * i for i in range(10)]
        code, out = self.run_compare(
            self.pairs(ms, ms, failed=1, correct=False))
        self.assertEqual(code, 2, out)
        self.assertIn("fail_ratio gate: FAILED", out)

    def test_workloads_are_reported_separately(self):
        ms = [6.0 + 0.01 * i for i in range(10)]
        files = (self.pairs(ms, [v * 0.7 for v in ms], "sim-committee-64") +
                 self.pairs(ms, ms, "node-committee-unix"))
        code, out = self.run_compare(files)
        self.assertEqual(code, 0, out)
        rows = [l for l in out.splitlines() if l.startswith(("sim-", "node-"))
                and "deal_ms_p50" in l]
        self.assertEqual(len(rows), 2)
        self.assertTrue(any("sim-committee-64" in r and "improved" in r
                            for r in rows))
        self.assertTrue(any("node-committee-unix" in r and "unchanged" in r
                            for r in rows))

    def test_odd_file_count_is_bad_input(self):
        ms = [6.0]
        files = self.pairs(ms, ms)[:1]
        code, _ = self.run_compare(files)
        self.assertEqual(code, 3)

    def test_mixed_workloads_in_a_pair_is_bad_input(self):
        files = [("sweep-matrix", result({"deal_ms_p50": 1.0})),
                 ("sim-committee-64", result({"deal_ms_p50": 1.0}))]
        code, _ = self.run_compare(files)
        self.assertEqual(code, 3)


if __name__ == "__main__":
    unittest.main()
