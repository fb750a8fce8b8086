"""Unit tests for tools/lint_metrics.py's README metrics-table check.

The table must document exactly the registered series, in both
directions, so these tests build a one-file source tree and a README
and pin each way the two can drift.

Run via ctest (`tools_lint_metrics_pytest`) or directly:
  python3 -m unittest discover -s tests/tools -p '*_test.py'
"""

import contextlib
import importlib.util
import io
import os
import tempfile
import unittest

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SCRIPT = os.path.join(_REPO_ROOT, "tools", "lint_metrics.py")

_spec = importlib.util.spec_from_file_location("lint_metrics", _SCRIPT)
lint_metrics = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_metrics)

SOURCE = """
auto* a = registry.GetCounter("incentag_persist_widgets_total",
                              "Widgets made", "reason=\\"malformed\\"");
auto* b = registry.GetCounter("incentag_persist_widgets_total",
                              "Widgets made", "reason=\\"oversized\\"");
auto* c = registry.GetGauge("incentag_service_depth", "Queue depth");
"""

ROWS = {
    "widgets": "| `incentag_persist_widgets_total` | counter | "
               "`reason` (`malformed`/`oversized`) | widgets |",
    "depth": "| `incentag_service_depth` | gauge | | depth |",
}


class ReadmeTableTest(unittest.TestCase):

    def lint(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "src")
            os.mkdir(src)
            with open(os.path.join(src, "widgets.cc"), "w") as f:
                f.write(SOURCE)
            readme = os.path.join(tmp, "README.md")
            with open(readme, "w") as f:
                f.write("| metric | type | labels | meaning |\n")
                f.write("| --- | --- | --- | --- |\n")
                f.write("\n".join(rows) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = lint_metrics.main(
                    ["lint_metrics.py", "--readme", readme, src])
            return code, err.getvalue()

    def test_matching_table_is_clean(self):
        code, err = self.lint([ROWS["widgets"], ROWS["depth"]])
        self.assertEqual(code, 0, err)

    def test_registered_series_without_row_fails(self):
        code, err = self.lint([ROWS["widgets"]])
        self.assertEqual(code, 1)
        self.assertIn("incentag_service_depth", err)
        self.assertIn("missing from the metrics table", err)

    def test_row_without_registered_series_fails(self):
        code, err = self.lint([
            ROWS["widgets"], ROWS["depth"],
            "| `incentag_persist_gone_total` | counter | | removed |"])
        self.assertEqual(code, 1)
        self.assertIn("no call site registers", err)

    def test_wrong_type_fails(self):
        code, err = self.lint([
            ROWS["widgets"],
            "| `incentag_service_depth` | counter | | depth |"])
        self.assertEqual(code, 1)
        self.assertIn("registered as gauge", err)

    def test_label_values_must_match(self):
        code, err = self.lint([
            "| `incentag_persist_widgets_total` | counter | "
            "`reason` (`malformed`) | widgets |", ROWS["depth"]])
        self.assertEqual(code, 1)
        self.assertIn("oversized", err)

    def test_label_key_must_match(self):
        code, err = self.lint([
            "| `incentag_persist_widgets_total` | counter | | widgets |",
            ROWS["depth"]])
        self.assertEqual(code, 1)
        self.assertIn("documents label none", err)


if __name__ == "__main__":
    unittest.main()
