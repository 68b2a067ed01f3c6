"""Tests of the harness's own code: `python3 -m unittest discover perfbench`."""

import json
import unittest
from pathlib import Path

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class MetricNames(unittest.TestCase):
    def test_end_to_end_metrics_match_benchmark_json(self):
        listed = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        self.assertEqual(listed, run.E2E_METRICS)

    def test_per_layer_metrics_match_benchmark_json(self):
        listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
        self.assertEqual(listed, run.LAYER_METRICS)

    def test_traced_run_prints_every_per_layer_metric(self):
        # One steady window with a child span, one serve call, one counter.
        spans = [
            {"span": 0, "name": "window", "start_ns": 0, "end_ns": 10_000_000, "parent": -1,
             "id": 1},
            {"span": 1, "name": "core.tier.advance", "start_ns": 1_000_000,
             "end_ns": 7_000_000, "parent": 0, "id": 1},
            {"span": 2, "name": "serve.handle_line", "start_ns": 0, "end_ns": 500_000,
             "parent": -1, "id": 0},
        ]
        path = Path(__file__).resolve().parent / ".test-spans.jsonl"
        counters = [{"counter": "core.tier.dirty_fraction", "id": 1, "value": 0.5}]
        path.write_text("".join(json.dumps(r) + "\n" for r in spans + counters))
        try:
            loaded, counts = run.load_spans(path)
        finally:
            path.unlink()
        summary = {"traced_window_ms": [10.0], "untraced_window_ms": [8.0]}
        values = run.layer_metrics(loaded, counts, [("rank", "{}")], summary)
        self.assertEqual(sorted(values), sorted(n for n, _, _ in run.LAYER_METRICS))
        self.assertAlmostEqual(values["core.tier.advance_ms"], 6.0)
        self.assertAlmostEqual(values["trace.window_self_ms"], 4.0)
        self.assertAlmostEqual(values["serve.handle_line_ms"], 0.5)
        self.assertAlmostEqual(values["core.tier.dirty_fraction"], 0.5)
        self.assertAlmostEqual(values["trace.overhead_pct"], 25.0)


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile([1, 2, 3, 4, 5], 90), 4.6)
        self.assertEqual(run.percentile([7], 99), 7)


class Checks(unittest.TestCase):
    def test_every_differing_or_missing_line_counts(self):
        self.assertEqual(run.compare_lines(["a", "b"], ["a", "b"]), 0)
        self.assertEqual(run.compare_lines(["a", "x"], ["a", "b"]), 1)
        self.assertEqual(run.compare_lines(["a"], ["a", "b", "c"]), 2)


if __name__ == "__main__":
    unittest.main()
