"""Smoke test for the end-to-end benchmark: runs `run.sh --smoke` (tiny
sizes, every workload, traced) and checks the printed metrics against the
two places metric names live — BENCHMARK.json and the metric dictionary in
README.md — so code, JSON and documentation cannot drift apart.

Also checks that run.sh refuses to produce a result when the program's
sources are absent (a directory holding only BENCHMARK.json and
bench/e2e).

  python3 -m unittest discover -s bench/e2e -p 'test_*.py'   (or pytest)
"""

import importlib.util
import json
import os
import shutil
import subprocess
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
_spec = importlib.util.spec_from_file_location(
    "compare", os.path.join(HERE, "compare.py"))
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = subprocess.run(["bash", os.path.join(HERE, "run.sh"),
                                   "--smoke"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=1800)
        cls.printed = {}
        cls.results = []
        for line in cls.proc.stdout.splitlines():
            parts = line.split()
            if line.startswith("{"):
                cls.results.append(json.loads(line))
            elif len(parts) >= 4 and parts[0] in compare.WORKLOADS:
                cls.printed[(parts[0], parts[1])] = parts[3]
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.dictionary = compare.load_dictionary()

    def test_exits_zero(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr[-4000:])

    def test_one_correct_result_line_per_workload(self):
        self.assertEqual(len(self.results), len(compare.WORKLOADS))
        per_layer = {m["name"] for m in self.bench["per_layer"]}
        for result in self.results:
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), per_layer)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         compare.WORKLOADS)

    def test_benchmark_json_metrics_printed_with_unit_everywhere(self):
        for kind in ("end_to_end", "per_layer"):
            for metric in self.bench[kind]:
                for w in compare.WORKLOADS:
                    self.assertEqual(
                        self.printed.get((w, metric["name"])), metric["unit"],
                        "%s %s" % (w, metric["name"]))

    def test_dictionary_metrics_printed_on_their_workloads(self):
        for name, entry in self.dictionary.items():
            for w in entry["workloads"]:
                self.assertEqual(self.printed.get((w, name)), entry["unit"],
                                 "%s %s" % (w, name))

    def test_every_printed_metric_is_documented(self):
        for (w, name), unit in self.printed.items():
            self.assertIn(name, self.dictionary, name + " is undocumented")
            self.assertIn(w, self.dictionary[name]["workloads"],
                          "%s is printed on %s but not documented there" %
                          (name, w))

    def test_readme_lists_the_benchmark_json_bounds(self):
        for metric in self.bench["end_to_end"]:
            self.assertEqual(self.dictionary[metric["name"]]["bound"],
                             metric["bound"], metric["name"])


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "bench", "e2e"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                ["bash", "bench/e2e/run.sh", "--workload", "fleet_inline",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
