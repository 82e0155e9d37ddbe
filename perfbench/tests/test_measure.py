"""Tests for the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from measure import (  # noqa: E402
    Distribution,
    OperationLedger,
    conditioned_schedule,
    due_latencies,
    lateness,
    median,
    percentile,
    samples_beyond,
    self_times,
)
from tracer import SpanRecorder  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sibling_children(self):
        # root A [0, 100) has children B [10, 40) and C [50, 90);
        # B has child D [15, 25); C has children E [55, 60) and F [70, 80).
        names = [0, 1, 2, 3, 2, 2]  # A, B, C, D, E, F (E and F share a name)
        parents = [-1, 0, 0, 1, 2, 2]
        starts = [0, 10, 50, 15, 55, 70]
        ends = [100, 40, 90, 25, 60, 80]
        totals, root_ns = self_times(names, parents, starts, ends)
        self.assertEqual(root_ns, 100)
        self.assertEqual(totals[0].self_ns, 100 - 30 - 40)
        self.assertEqual(totals[1].self_ns, 30 - 10)
        self.assertEqual(totals[3].self_ns, 10)
        # C (40 - 15 of children = 25) plus its two children (5 + 10).
        self.assertEqual(totals[2].calls, 3)
        self.assertEqual(totals[2].total_ns, 40 + 5 + 10)
        self.assertEqual(totals[2].self_ns, 25 + 5 + 10)
        # Self times partition the roots' time exactly.
        self.assertEqual(sum(entry.self_ns for entry in totals.values()), root_ns)

    def test_roots_sum_across_the_forest(self):
        totals, root_ns = self_times([0, 0], [-1, -1], [0, 10], [5, 12])
        self.assertEqual(root_ns, 7)
        self.assertEqual(totals[0].calls, 2)
        self.assertEqual(totals[0].self_ns, 7)

    def test_recorder_nests_wrapped_calls(self):
        recorder = SpanRecorder()
        inner = recorder.wrap(lambda: None, "layer.inner")
        outer = recorder.wrap(lambda: [inner(), inner()], "layer.outer")
        other = recorder.wrap(lambda: inner(), "other.entry")
        outer()
        other()
        self.assertEqual(list(recorder.parents), [-1, 0, 0, -1, 3])
        totals, _ = recorder.totals()
        self.assertEqual(totals["layer.inner"].calls, 3)
        self.assertEqual(totals["layer.outer"].calls, 1)
        # Calls into "layer." from outside it: outer, and inner under other.
        self.assertEqual(recorder.outermost_calls("layer."), 2)
        recorder.clear()
        self.assertEqual(recorder.span_count, 0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 95), 95)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile([7.0], 95), 7.0)
        self.assertEqual(percentile([3, 1, 2], 50), 2)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 0)

    def test_sample_count_and_tail_support(self):
        self.assertEqual(samples_beyond(100, 95), 5)
        self.assertEqual(samples_beyond(200, 95), 10)
        small = Distribution.of([list(range(100))])
        self.assertEqual((small.count, small.groups), (100, 1))
        self.assertFalse(small.p95_supported)
        large = Distribution.of([list(range(200))])
        self.assertEqual((large.p50, large.p95, large.count), (99, 189, 200))
        self.assertTrue(large.p95_supported)

    def test_percentiles_are_medians_over_groups(self):
        calm = list(range(200))
        stalled = [value + 1000 for value in range(200)]
        distribution = Distribution.of([calm, calm, stalled, []])
        # One spoiled group of three moves neither percentile.
        self.assertEqual((distribution.p50, distribution.p95), (99, 189))
        self.assertEqual((distribution.count, distribution.groups), (600, 3))
        # Every group must support its own p95.
        self.assertFalse(Distribution.of([calm, list(range(50))]).p95_supported)
        with self.assertRaises(ValueError):
            Distribution.of([[]])

    def test_median(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 2, 3]), 2.5)


class OpenLoopTest(unittest.TestCase):
    def test_stall_counts_against_due_time(self):
        # Ticks due every 100 ms; the generator stalls 300 ms at the
        # third tick, then catches up by sending the fourth at once.
        due = [0.0, 0.1, 0.2, 0.3]
        sent = [0.0, 0.1, 0.5, 0.5]
        late = lateness(due, sent)
        for got, want in zip(late, [0.0, 0.0, 0.3, 0.2]):
            self.assertAlmostEqual(got, want)
        # Each delivery takes 10 ms after its send.
        deliveries = [(f"t{index}", at + 0.01) for index, at in enumerate(sent)]
        latencies = due_latencies(
            {f"t{index}": when for index, when in enumerate(due)}, deliveries
        )
        for got, want in zip(latencies, [0.01, 0.01, 0.31, 0.21]):
            self.assertAlmostEqual(got, want)
        # Timed from the send instead, the stall would vanish.
        self.assertLess(max(at - s for (_, at), s in zip(deliveries, sent)), 0.011)

    def test_early_send_is_not_negative_lateness(self):
        self.assertEqual(lateness([1.0], [0.9]), [0.0])
        with self.assertRaises(ValueError):
            lateness([1.0], [])

    def test_unknown_requests_are_ignored(self):
        self.assertEqual(due_latencies({"a": 1.0}, [("b", 2.0), ("a", 1.5)]), [0.5])

    def test_conditioned_schedule_fixes_count_and_window(self):
        times = [0.2, 0.5, 1.6, 2.0]
        schedule = conditioned_schedule(times, 10.0)
        self.assertEqual(len(schedule), 4)
        self.assertAlmostEqual(schedule[-1], 10.0)
        self.assertAlmostEqual(schedule[0], 1.0)
        self.assertEqual(schedule, sorted(schedule))


class OperationLedgerTest(unittest.TestCase):
    def test_missing_pairs_fail(self):
        ledger = OperationLedger()
        ledger.record(4, [0.1, 0.2, 0.3])
        self.assertEqual((ledger.attempted, ledger.failed), (4, 1))
        self.assertAlmostEqual(ledger.delivered_fraction, 0.75)

    def test_late_pairs_fail_under_a_limit(self):
        ledger = OperationLedger(limit=1.0)
        ledger.record(3, [0.5, 1.0, 1.5])
        self.assertEqual((ledger.attempted, ledger.failed), (3, 1))

    def test_raised_publish_fails_every_pair(self):
        ledger = OperationLedger()
        ledger.record(2, [0.1, 0.1])
        ledger.record_raised(5)
        self.assertEqual((ledger.attempted, ledger.failed), (7, 5))

    def test_more_deliveries_than_receivers_is_an_error(self):
        with self.assertRaises(ValueError):
            OperationLedger().record(1, [0.1, 0.2])
        with self.assertRaises(ValueError):
            OperationLedger().delivered_fraction


class VocabularyTest(unittest.TestCase):
    """BENCHMARK.json and the runner name the same metrics and units."""

    def test_benchmark_json_matches_runner(self):
        sys.path.insert(0, str(BENCH.parent / "src"))
        import layers
        from run import END_TO_END

        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        declared = {
            metric["name"]: (metric["unit"], metric["better"])
            for metric in spec["end_to_end"]
        }
        self.assertEqual(declared, END_TO_END)
        declared = {
            metric["name"]: (metric["unit"], metric["better"])
            for metric in spec["per_layer"]
        }
        self.assertEqual(declared, layers.per_layer_units())


if __name__ == "__main__":
    unittest.main()
