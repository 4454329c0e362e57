"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import os
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from reference import sequence_error  # noqa: E402
from run import END_TO_END  # noqa: E402
from stats import TAIL_LADDER, p50_and_tail, samples_beyond, tail_percentile  # noqa: E402
from tracing import LAYER_METRICS, self_times  # noqa: E402
from workloads import STREAM_SAMPLE, make_inputs  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_are_merged_and_clipped(self):
        # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] sticks out
        starts, ends, parents = [0, 1, 2, 8], [10, 3, 5, 12], [-1, 0, 0, 0]
        own = self_times(starts, ends, parents)
        self.assertEqual(own[0], 10 - (5 - 1) - (10 - 8))
        self.assertEqual(own[1:], [2, 3, 4])

    def test_only_direct_children_count(self):
        # root [0, 10] > child [2, 6] > grandchild [3, 5]
        own = self_times([0, 2, 3], [10, 6, 5], [-1, 0, 1])
        self.assertEqual(own, [6, 2, 2])
        self.assertEqual(sum(own), 10)

    def test_sequential_children(self):
        own = self_times([0, 1, 4, 7], [10, 2, 6, 9], [-1, 0, 0, 0])
        self.assertAlmostEqual(own[0], 10 - 1 - 2 - 2)


class TailPercentileTest(unittest.TestCase):
    def test_workload_sample_counts(self):
        self.assertEqual(tail_percentile(283), 95.0)  # certify: 14 reports beyond
        self.assertEqual(samples_beyond(283, 95.0), 14)
        self.assertEqual(samples_beyond(283, 98.0), 5)
        self.assertEqual(tail_percentile(650), 98.0)  # numbers
        self.assertEqual(tail_percentile(9677), 99.5)  # stream
        self.assertEqual(samples_beyond(9677, 99.5), 48)
        self.assertEqual(tail_percentile(21500), 99.9)
        self.assertEqual(samples_beyond(21500, 99.9), 21)

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(20, 3000):
            p = tail_percentile(n)
            self.assertGreaterEqual(samples_beyond(n, p), 10)
            for higher in TAIL_LADDER[: TAIL_LADDER.index(p)]:
                self.assertLess(samples_beyond(n, higher), 10)

    def test_too_few_samples(self):
        self.assertEqual(tail_percentile(20), 50.0)
        with self.assertRaises(ValueError):
            tail_percentile(19)

    def test_values(self):
        p50, tail, p = p50_and_tail([float(v) for v in range(100, 0, -1)])
        self.assertEqual((p50, tail, p), (50.5, 90.0, 90.0))


class InputTest(unittest.TestCase):
    def test_stream_sample_is_determined_by_the_seed(self):
        first, again, other = (make_inputs("stream", s) for s in (3, 3, 4))
        self.assertEqual(first, again)
        self.assertNotEqual(first["picks"], other["picks"])
        self.assertEqual(first["total"], 30062)
        picks = first["picks"]
        self.assertEqual(len(set(picks)), STREAM_SAMPLE)
        self.assertEqual(picks, sorted(picks))
        self.assertTrue(0 <= picks[0] and picks[-1] < first["total"])

    def test_numbers_order_is_determined_by_the_seed(self):
        first, again, other = (make_inputs("numbers", s)["requests"] for s in (5, 5, 6))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        self.assertEqual(first[:361], other[:361])  # the C table stays in c_table order


class ReferenceValidatorTest(unittest.TestCase):
    VALID = {"m": 0, "k": 1, "n": 1, "elements": [
        {"bar": {"color": "red", "label": 0}},
        {"pair": {"blue": [1], "red": [1], "extra": False}},
        {"pair": {"blue": [], "red": [], "extra": True}},
    ]}

    def replaced(self, index, element):
        data = json.loads(json.dumps(self.VALID))
        data["elements"][index] = element
        return data

    def test_valid(self):
        self.assertIsNone(sequence_error(self.VALID))

    def test_mutants(self):
        bar_last = json.loads(json.dumps(self.VALID))
        bar_last["elements"] = bar_last["elements"][1:] + bar_last["elements"][:1]
        mutants = [
            bar_last,
            self.replaced(0, {"bar": {"color": "red", "label": 1}}),
            self.replaced(1, {"pair": {"blue": [1], "red": [], "extra": False}}),
            self.replaced(2, {"pair": {"blue": [1], "red": [], "extra": True}}),
        ]
        for data in mutants:
            self.assertIsNotNone(sequence_error(data), data)


class SpecTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [tuple(m) for m in LAYER_METRICS])


if __name__ == "__main__":
    unittest.main()
