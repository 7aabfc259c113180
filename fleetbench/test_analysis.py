"""Self-tests of the fleet benchmark's statistics and accounting.

    python3 fleetbench/test_analysis.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import analysis  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_median_nearest_rank(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 3, 2]), 2)
        self.assertEqual(analysis.median([7]), 7)

    def test_percentile_bounds(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 0.99), 99)
        self.assertEqual(analysis.percentile(values, 1.0), 100)
        self.assertEqual(analysis.percentile(values, 0.0), 1)
        with self.assertRaises(ValueError):
            analysis.percentile([], 0.5)

    def test_tail_needs_ten_samples_beyond(self):
        # 1000 samples: p99 leaves exactly 10 above it; p99.9 only 1.
        q, value, n = analysis.tail(list(range(1000)))
        self.assertEqual((q, value, n), (0.99, 989, 1000))
        # 999 samples: p99 would leave 9 beyond, so fall back to p95.
        q, _, n = analysis.tail(list(range(999)))
        self.assertEqual((q, n), (0.95, 999))
        # 20000 samples reach p99.9 (20 beyond).
        self.assertEqual(analysis.tail(list(range(20000)))[0], 0.999)
        # Capped at p99 for a metric named p99.
        self.assertEqual(analysis.tail(list(range(20000)), highest=0.99)[:2], (0.99, 19799))
        # Too few for anything above the median.
        self.assertEqual(analysis.tail([5, 1, 3])[:2], (0.5, 3))


class OpenLoopTest(unittest.TestCase):
    def test_due_times(self):
        self.assertEqual(analysis.due_ms(100.0, 500.0, 0), 100.0)
        self.assertEqual(analysis.due_ms(100.0, 500.0, 3), 106.0)

    def test_latency_counts_from_due_time(self):
        # 1000 rps: request k is due at 10 + k ms. Request 1 was sent 4 ms
        # late because request 0 stalled; its latency includes that wait.
        requests = [(0, True, 10.0, 15.0), (1, True, 15.0, 15.5), (2, True, 12.0, 12.5)]
        acct = analysis.StageAccount(10.0, 1000.0, 3, requests)
        self.assertEqual(acct.latency_ms, [5.0, 4.5, 0.5])
        self.assertEqual(acct.lateness_ms, [0.0, 4.0, 0.0])
        self.assertTrue(acct.kept_up(backlog_limit_ms=1.0))

    def test_failed_request_misses_every_limit(self):
        acct = analysis.StageAccount(0.0, 100.0, 2, [(0, True, 0.0, 1.0), (1, False, 10.0, 11.0)])
        self.assertEqual(acct.failed, 1)
        self.assertTrue(math.isinf(acct.latency_ms[1]))
        self.assertFalse(acct.kept_up(backlog_limit_ms=100.0))

    def test_growing_backlog_and_unsent_requests(self):
        # Each request takes 2 ms at a 1 ms schedule: lateness grows.
        requests = [(k, True, 2.0 * k, 2.0 * k + 2.0) for k in range(200)]
        acct = analysis.StageAccount(0.0, 1000.0, 200, requests)
        self.assertAlmostEqual(acct.lateness_ms[-1], 199.0)
        self.assertFalse(acct.kept_up(backlog_limit_ms=100.0))
        # A stage cut short (generator gave up) did not keep up.
        short = analysis.StageAccount(0.0, 1000.0, 300, requests)
        self.assertFalse(short.kept_up(backlog_limit_ms=1000.0))


class SelfTimeTest(unittest.TestCase):
    def test_union_of_overlapping_children(self):
        self.assertEqual(analysis.covered_ms(0, 10, [(1, 4), (3, 6), (8, 12)]), 7)
        self.assertEqual(analysis.covered_ms(0, 10, []), 0)
        self.assertEqual(analysis.covered_ms(5, 6, [(0, 2)]), 0)

    def test_self_time_subtracts_children_once(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 6.0, 0),      # overlaps a: 1..6 covered once
            ("a.leaf", 1.5, 2.0, 1),
        ]
        self.assertEqual(analysis.self_times(spans), [5.0, 2.5, 3.0, 0.5])
        table = analysis.layer_table(spans)
        self.assertEqual(table["root"], [1, 5.0, 10.0])
        self.assertEqual(table["a"], [1, 2.5, 3.0])

    def test_tick_layers_add_up_to_the_tick(self):
        # 4 shards: 8 ms of shard busy time is 2 ms of the tick's wall time.
        row = (0.0, 3.0, 2.5, 8.0, 6.0, 4.0, 1.0, 2.0)
        spans = analysis.tick_spans(row, 4, ["decide", "drain"])
        own = dict(zip([s[0] for s in spans], analysis.self_times(spans)))
        self.assertAlmostEqual(own["tick"], 0.5)                 # residual
        self.assertAlmostEqual(own["service.step_batch"], 0.5)   # 2.5 - 8/4
        self.assertAlmostEqual(own["service.shard_lanes"], 0.5)  # (8-6)/4
        self.assertAlmostEqual(own["integration.secured_step"], 0.5)
        self.assertAlmostEqual(own["sim.worksite_step"], 0.25)   # (4-3)/4
        self.assertAlmostEqual(own["sim.phase.drain"], 0.5)
        self.assertAlmostEqual(sum(own.values()), 3.0)


if __name__ == "__main__":
    unittest.main()
