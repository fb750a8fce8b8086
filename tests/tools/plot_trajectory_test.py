"""Unit tests for bench/plot_trajectory.py's --ledger view.

A synthetic two-file ledger (BENCH_<pr>.json as `bench/e2e/compare.py
--save` writes it) pins the rows: one per PR, workload and end-to-end
metric of the repo's BENCHMARK.json, with both sides' medians and the
ratio.

Run via ctest (`tools_lint_metrics_pytest`) or directly:
  python3 -m unittest discover -s tests/tools -p '*_test.py'
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SCRIPT = os.path.join(_REPO_ROOT, "bench", "plot_trajectory.py")

_spec = importlib.util.spec_from_file_location("plot_trajectory", _SCRIPT)
plot_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plot_trajectory)

def run(side, workload, pair, **metrics):
    return {"side": side, "workload": workload, "pair": pair,
            "metrics": dict(metrics, completions_per_s=1.0),
            "correct": True, "attempted": 1, "failed": 0}


class LedgerTest(unittest.TestCase):

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name
        # Ordered by number: BENCH_9 comes before BENCH_10.
        self.write("BENCH_10.json", {"runs": [
            run("parent", "fleet_inline", 0, setup_s=2.0, rss_peak_mb=100),
            run("change", "fleet_inline", 0, setup_s=1.0, rss_peak_mb=100),
            run("parent", "fleet_inline", 1, setup_s=4.0, rss_peak_mb=300),
            run("change", "fleet_inline", 1, setup_s=2.0, rss_peak_mb=100),
        ]})
        self.write("BENCH_9.json", {"runs": [
            run("parent", "http_ingest", 0, setup_s=1.0),
            run("change", "http_ingest", 0, setup_s=3.0),
        ]})
        self.write("bench_fig1.json", {"bench": "not a ledger file"})

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        with open(os.path.join(self.dir, name), "w") as f:
            json.dump(doc, f)

    def test_rows_per_pr_workload_and_metric(self):
        self.assertEqual(list(plot_trajectory.ledger_rows(self.dir)), [
            (9, "http_ingest", "setup_s", 1.0, 3.0),
            (10, "fleet_inline", "setup_s", 3.0, 1.5),
            (10, "fleet_inline", "rss_peak_mb", 200, 100),
        ])

    def test_prints_medians_and_ratio(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = plot_trajectory.print_ledger(self.dir)
        self.assertEqual(status, 0)
        lines = out.getvalue().splitlines()
        self.assertEqual(len(lines), 4)
        self.assertEqual(lines[1].split(),
                         ["9", "http_ingest", "setup_s", "1", "3", "3.000"])
        self.assertEqual(lines[2].split(),
                         ["10", "fleet_inline", "setup_s", "3", "1.5",
                          "0.500"])

    def test_metric_filter_and_empty_ledger(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            plot_trajectory.print_ledger(self.dir, "rss_peak_mb")
        self.assertEqual(len(out.getvalue().splitlines()), 2)
        with tempfile.TemporaryDirectory() as empty:
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(plot_trajectory.print_ledger(empty), 1)


if __name__ == "__main__":
    unittest.main()
