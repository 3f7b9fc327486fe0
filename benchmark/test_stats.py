"""Tests of the benchmark's own arithmetic.

  python3 -m unittest discover -s benchmark -p "test_*.py"
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_stay_beyond_the_reported_value(self):
        value, pct, beyond = stats.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(beyond, 10)

    def test_eleven_samples_report_the_smallest(self):
        value, pct, beyond = stats.tail([5, 1, 4, 2, 3, 11, 10, 9, 8, 7, 6])
        self.assertEqual(value, 1)
        self.assertAlmostEqual(pct, 100.0 / 11)
        self.assertEqual(beyond, 10)

    def test_order_of_samples_does_not_matter(self):
        xs = [float(i % 37) for i in range(200)]
        self.assertEqual(stats.tail(xs), stats.tail(sorted(xs)))

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([(0, 10, -1)]), [10])

    def test_children_are_subtracted_once_even_when_they_overlap(self):
        spans = [(0, 100, -1), (10, 30, 0), (20, 50, 0), (60, 70, 0)]
        self.assertEqual(stats.self_times(spans), [50, 20, 30, 10])

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [(0, 100, -1), (10, 60, 0), (20, 30, 1)]
        self.assertEqual(stats.self_times(spans), [50, 40, 10])

    def test_child_time_outside_the_parent_is_ignored(self):
        spans = [(10, 20, -1), (0, 15, 0)]
        self.assertEqual(stats.self_times(spans)[0], 5)


class Verdicts(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_faster_on_every_pair_is_improved(self):
        new = [x * 0.8 for x in self.base]
        self.assertEqual(stats.verdict(self.base, new, "lower", 0.1),
                         "improved")

    def test_higher_is_better_metrics_flip_the_direction(self):
        new = [x * 1.2 for x in self.base]
        self.assertEqual(stats.verdict(self.base, new, "higher", 0.1),
                         "improved")
        self.assertEqual(stats.verdict(self.base, new, "lower", 0.1), "worse")

    def test_a_median_worse_than_the_bound_is_worse(self):
        new = [x * 1.15 for x in self.base]
        self.assertEqual(stats.verdict(self.base, new, "lower", 0.1), "worse")

    def test_within_the_bound_and_steady_is_unchanged(self):
        new = [x * 1.02 for x in self.base]
        self.assertEqual(stats.verdict(self.base, new, "lower", 0.1),
                         "unchanged")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        self.assertEqual(stats.verdict(noisy, noisy[::-1], "lower", 0.1),
                         "unresolved")

    def test_wide_spread_but_every_run_better_is_not_unresolved(self):
        base = [100.0, 140.0, 120.0, 160.0]
        new = [90.0, 95.0, 85.0, 99.0]
        self.assertNotEqual(stats.verdict(base, new, "lower", 0.1),
                            "unresolved")


def run_record(per_window):
    """An untraced record: window w holds `count` back-to-back ops of `ms`
    each and one set-up sample of w + 1 seconds."""
    rec = {"op_ms": [], "op_window": [], "setup_s": [], "failed": 0,
           "attempted": 0, "values": {}, "peak_rss_mb": 10.0}
    for w, (count, ms) in enumerate(per_window):
        rec["setup_s"].append(w + 1.0)
        for _ in range(count):
            rec["op_ms"].append(ms)
            rec["op_window"].append(w)
    rec["attempted"] = len(rec["op_ms"])
    return rec


class Windows(unittest.TestCase):
    def test_figures_are_medians_over_the_windows(self):
        per_window = [(40, 10.0), (40, 10.0), (40, 5.0), (40, 10.0)]
        m, extra = stats.end_to_end(run_record(per_window))
        self.assertEqual(m["op_p50_ms"], 10.0)
        self.assertEqual(m["op_tail_ms"], 10.0)
        self.assertAlmostEqual(m["ops_per_s"], 100.0)
        self.assertEqual(m["setup_s"], 2.5)
        self.assertEqual(extra["window"], "median of 4 windows")
        self.assertEqual(extra["ops"], 40)

    def test_the_tail_is_taken_within_each_window(self):
        rec = run_record([])
        rec["setup_s"].append(1.0)
        for w in range(3):
            for ms in range(1, 41):
                rec["op_ms"].append(float(ms + w))
                rec["op_window"].append(w)
        m, extra = stats.end_to_end(rec)
        self.assertEqual(m["op_tail_ms"], 31.0)
        self.assertEqual(extra["op_tail_pct"], 75.0)
        self.assertEqual(extra["op_tail_beyond"], 10)

    def test_one_slow_window_does_not_move_the_figures(self):
        m, _ = stats.end_to_end(run_record([(40, 4.0)] * 3 + [(40, 40.0)]))
        self.assertEqual(m["op_p50_ms"], 4.0)
        self.assertEqual(m["op_tail_ms"], 4.0)
        self.assertAlmostEqual(m["ops_per_s"], 250.0)

    def test_windows_with_too_few_ops_are_left_out(self):
        m, extra = stats.end_to_end(run_record([(40, 10.0)] * 4 + [(5, 1.0)]))
        self.assertEqual(m["op_p50_ms"], 10.0)
        self.assertEqual(extra["window"], "median of 4 windows")

    def test_sparse_windows_fall_back_to_the_whole_run(self):
        m, extra = stats.end_to_end(run_record([(5, 10.0)] * 4 + [(5, 5.0)] * 4))
        self.assertEqual(m["op_p50_ms"], 7.5)
        self.assertEqual(m["setup_s"], 4.5)
        self.assertAlmostEqual(m["ops_per_s"], 40 / 0.3)
        self.assertEqual(extra["window"], "whole run")


class PerLayer(unittest.TestCase):
    record = {
        "span_names": ["op", "linalg.refactor", "server.run.dc"],
        "spans": [[0, 0, 10_000_000, -1, 0], [1, 1_000_000, 3_000_000, 0, 0],
                  [1, 4_000_000, 8_000_000, 0, 0], [2, 0, 5_000_000, -1, 1]],
        "counts": {"linalg.analyses": 1},
        "values": {"pool.lot_ms.1": [30.0, 32.0, 31.0],
                   "pool.lot_ms.2": [20.0, 20.0, 21.0]},
    }

    def test_metrics_come_from_counts_samples_and_spans(self):
        got = stats.per_layer(self.record, [
            "linalg.analyses", "linalg.refactor_ms", "server.run_ms.dc",
            "pool.efficiency", "lab.ctor_ms"])
        self.assertEqual(got["linalg.analyses"], 1)
        self.assertEqual(got["linalg.refactor_ms"], 3.0)
        self.assertEqual(got["server.run_ms.dc"], 5.0)
        self.assertAlmostEqual(got["pool.efficiency"], 31.0 / 40.0)
        self.assertEqual(got["lab.ctor_ms"], 0.0)

    def test_layer_split_sums_self_time_per_layer(self):
        split = stats.layer_split(self.record, in_ops=True)
        self.assertAlmostEqual(split["benchmark"], 4.0)
        self.assertAlmostEqual(split["linalg.sparse"], 6.0)
        self.assertAlmostEqual(split["server"], 5.0)


if __name__ == "__main__":
    unittest.main()
