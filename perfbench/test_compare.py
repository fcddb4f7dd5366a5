"""Tests for compare.py: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import json
import os
import tempfile
import unittest

import compare


class VerdictTest(unittest.TestCase):
    def test_regression_beyond_the_bound_is_worse(self):
        old = [100, 101, 99, 100, 102]
        new = [130, 131, 129, 130, 132]
        self.assertEqual(compare.verdict(old, new, 0.2, "lower"), "worse")
        self.assertEqual(compare.verdict(new, old, 0.2, "higher"), "worse")

    def test_gain_beyond_the_old_spread_is_better(self):
        old = [100, 101, 99, 100, 102]
        new = [90, 91, 89, 90, 92]
        self.assertEqual(compare.verdict(old, new, 0.2, "lower"), "better")

    def test_small_change_is_within_bound(self):
        old = [100, 110, 90, 105, 95]
        new = [104, 114, 94, 109, 99]
        self.assertEqual(compare.verdict(old, new, 0.2, "lower"), "within bound")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        old = [60, 100, 140, 80, 120]
        new = [65, 105, 145, 85, 125]
        self.assertEqual(compare.verdict(old, new, 0.2, "lower"), "unresolved")
        # ... unless every new run beats every old run.
        self.assertEqual(compare.verdict(old, [10, 20, 30, 15, 25], 0.2, "lower"), "better")

    def test_spread_uses_python_quartiles(self):
        v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q3 = compare.quartiles(v)
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(compare.spread(v), 5.5 / 5.5)


class MainTest(unittest.TestCase):
    def test_compare_prints_a_row_per_workload_and_metric(self):
        with open(compare.BENCHMARK_JSON) as f:
            bench = json.load(f)
        def record(workload, trace, scale):
            names = bench["end_to_end"] if trace == "0" else bench["per_layer"]
            metrics = {m["name"]: {"value": scale * (i + 1), "unit": m["unit"]}
                       for i, m in enumerate(names)}
            return {"workload": workload, "seed": "1", "trace": trace,
                    "result": {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for side, scale in (("old", 1.0), ("new", 1.01)):
                path = os.path.join(d, side + ".jsonl")
                with open(path, "w") as f:
                    for w in bench["workloads"]:
                        for trace in ("0", "1"):
                            f.write(json.dumps(record(w["name"], trace, scale)) + "\n")
                paths.append(path)
            import contextlib
            import io
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(compare.main(paths), 0)
            text = out.getvalue()
            verdicts = ("within bound", "better", "worse", "unresolved")
            rows = [l for l in text.splitlines() if l.endswith(verdicts)]
            self.assertEqual(len(rows), len(bench["workloads"]) * len(bench["end_to_end"]))
            # One value per side: no spread, so a 1% gain in a higher-is-better
            # metric reads as better and a 1% loss elsewhere as within bound.
            for row in rows:
                expected = "better" if " queries_per_s " in row else "within bound"
                self.assertTrue(row.endswith(expected), row)
            self.assertIn("per-layer medians", text)


if __name__ == "__main__":
    unittest.main()
