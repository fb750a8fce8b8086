"""Unit tests for bench/e2e/compare.py, the A/B judge.

Pins the A/B rules on synthetic pairs: a gain needs 9/10
pair wins and a median gap wider than the parent's quartile spread; a
median worse by more than the bound regresses; a spread wider than the
bound is unresolved unless the change dominates; more failed operations
or an incorrect run fails the comparison.

  python3 -m unittest discover -s bench/e2e -p 'test_*.py'   (or pytest)
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "compare", os.path.join(HERE, "compare.py"))
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

DICTIONARY = {
    "completions_per_s": {"unit": "1/s", "better": "higher", "bound": 0.1,
                          "kind": "end_to_end", "layer": "end-to-end",
                          "workloads": ["fleet_inline"]},
    "makespan_p95_s": {"unit": "s", "better": "lower", "bound": 0.1,
                       "kind": "end_to_end", "layer": "end-to-end",
                       "workloads": ["fleet_inline"]},
    "scheduler.steals": {"unit": "count", "better": "lower", "bound": None,
                         "kind": "per_layer", "layer": "scheduler",
                         "workloads": ["fleet_inline"]},
}


def make_runs(parent, change, metric="completions_per_s", failed=(0, 0),
              correct=(True, True)):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value, fail, ok in (("parent", p, failed[0], correct[0]),
                                      ("change", c, failed[1], correct[1])):
            runs.append({"side": side, "pair": pair, "workload": "fleet_inline",
                         "seed": pair + 1, "metrics": {metric: value},
                         "correct": ok, "attempted": 100, "failed": fail})
    return runs


class JudgeTest(unittest.TestCase):
    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [p + 10 for p in parent]
        row = compare.judge(parent, change, "higher", 0.1)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "gain")

    def test_eight_wins_is_not_a_gain(self):
        parent = [100] * 10
        change = [110] * 8 + [90] * 2
        row = compare.judge(parent, change, "higher", 0.25)
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["verdict"], "unchanged")

    def test_small_gap_inside_parent_spread_is_not_a_gain(self):
        parent = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        change = [p + 1 for p in parent]
        row = compare.judge(parent, change, "higher", 0.25)
        self.assertEqual(row["wins"], 10)
        self.assertNotEqual(row["verdict"], "gain")

    def test_ties_count_for_neither_side(self):
        row = compare.judge([5] * 10, [5] * 10, "lower", 0.1)
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["verdict"], "unchanged")

    def test_lower_is_better_regression(self):
        parent = [1.0, 1.01, 0.99, 1.0, 1.0, 1.02, 0.98, 1.0, 1.0, 1.0]
        change = [v * 1.2 for v in parent]
        row = compare.judge(parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "regressed")

    def test_wide_spread_is_unresolved(self):
        parent = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
        change = [p - 5 for p in reversed(parent)]
        row = compare.judge(parent, change, "higher", 0.1)
        self.assertEqual(row["verdict"], "unresolved")

    def test_domination_resolves_a_wide_spread(self):
        parent = [50, 60, 70, 80, 90, 55, 65, 75, 85, 95]
        change = [200, 210, 220, 230, 240, 205, 215, 225, 235, 245]
        row = compare.judge(parent, change, "higher", 0.05)
        self.assertEqual(row["verdict"], "gain")

    def test_per_layer_metrics_have_no_bound(self):
        row = compare.judge([10] * 10, [20] * 10, "lower", None)
        self.assertEqual(row["verdict"], "-")


class EvaluateTest(unittest.TestCase):
    def test_regression_fails_the_comparison(self):
        runs = make_runs([100] * 10, [80] * 10)
        rows, failures = compare.evaluate(runs, DICTIONARY)
        self.assertEqual(rows[0]["verdict"], "regressed")
        self.assertTrue(any("regressed" in f for f in failures))

    def test_more_failed_operations_fails(self):
        runs = make_runs([100] * 10, [100] * 10, failed=(0, 3))
        _, failures = compare.evaluate(runs, DICTIONARY)
        self.assertTrue(any("failed operations rose" in f for f in failures))

    def test_incorrect_run_fails(self):
        runs = make_runs([100] * 10, [100] * 10, correct=(True, False))
        _, failures = compare.evaluate(runs, DICTIONARY)
        self.assertTrue(any("incorrect change run" in f for f in failures))

    def test_one_row_per_workload_and_metric(self):
        runs = make_runs([100] * 10, [100] * 10)
        rows, failures = compare.evaluate(runs, DICTIONARY)
        self.assertEqual([(r["workload"], r["metric"]) for r in rows],
                         [("fleet_inline", "completions_per_s")])
        self.assertEqual(failures, [])

    def test_unpaired_runs_are_ignored(self):
        runs = make_runs([100] * 10, [100] * 10)
        runs = [r for r in runs
                if not (r["side"] == "change" and r["pair"] == 3)]
        rows, _ = compare.evaluate(runs, DICTIONARY)
        self.assertEqual(rows[0]["pairs"], 9)


class CliTest(unittest.TestCase):
    def run_load(self, runs):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "runs.json")
            with open(path, "w") as f:
                json.dump({"runs": runs}, f)
            out = io.StringIO()
            old = sys.argv
            sys.argv = ["compare.py", "--load", path]
            try:
                with redirect_stdout(out):
                    try:
                        compare.main()
                        code = 0
                    except SystemExit as err:
                        code = err.code
            finally:
                sys.argv = old
            return code, out.getvalue()

    def test_load_unchanged_exits_zero(self):
        code, out = self.run_load(
            make_runs([100] * 10, [101] * 10, metric="rss_peak_mb"))
        self.assertEqual(code, 0)
        self.assertIn("rss_peak_mb", out)

    def test_load_regression_exits_one(self):
        code, out = self.run_load(
            make_runs([100] * 10, [150] * 10, metric="rss_peak_mb"))
        self.assertEqual(code, 1)
        self.assertIn("FAIL:", out)

    def test_parse_output_reads_metric_lines_and_result(self):
        text = ("# machine {}\n"
                "fleet_inline completions_per_s 123.5 1/s\n"
                "fleet_inline makespan_p95_s 1.5 s n=512\n"
                '{"correct":true,"attempted":5,"failed":0,"metrics":{}}\n')
        metrics, result = compare.parse_output(text, "fleet_inline")
        self.assertEqual(metrics, {"completions_per_s": 123.5,
                                   "makespan_p95_s": 1.5})
        self.assertTrue(result["correct"])


class DigestTest(unittest.TestCase):
    def make_tree(self, root, source):
        base = os.path.join(root, "bench", "e2e")
        os.makedirs(os.path.join(base, "results"))
        with open(os.path.join(base, "run.sh"), "w") as f:
            f.write(source)
        return base

    def test_bytecode_and_results_do_not_change_the_digest(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            self.make_tree(a, "echo same\n")
            base_b = self.make_tree(b, "echo same\n")
            os.makedirs(os.path.join(base_b, "__pycache__"))
            with open(os.path.join(base_b, "__pycache__",
                                   "compare.cpython-312.pyc"), "wb") as f:
                f.write(b"\x00bytecode")
            with open(os.path.join(base_b, "results", "new.json"), "w") as f:
                f.write("{}")
            self.assertEqual(compare.bench_digest(a), compare.bench_digest(b))

    def test_a_source_edit_changes_the_digest(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            self.make_tree(a, "echo same\n")
            self.make_tree(b, "echo edited\n")
            self.assertNotEqual(compare.bench_digest(a),
                                compare.bench_digest(b))


class DictionaryTest(unittest.TestCase):
    def test_readme_dictionary_covers_benchmark_json(self):
        dictionary = compare.load_dictionary()
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        for kind in ("end_to_end", "per_layer"):
            for metric in bench[kind]:
                self.assertIn(metric["name"], dictionary)
                entry = dictionary[metric["name"]]
                self.assertEqual(entry["unit"], metric["unit"])
                self.assertEqual(entry["better"], metric["better"])
                self.assertEqual(entry["kind"], kind, metric["name"])
                self.assertEqual(entry["workloads"], compare.WORKLOADS,
                                 metric["name"] + " must apply everywhere")
                if kind == "end_to_end":
                    self.assertEqual(entry["bound"], metric["bound"])


if __name__ == "__main__":
    unittest.main()
