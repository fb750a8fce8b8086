#!/usr/bin/env python3
"""Turn the accumulated per-commit perf artifacts into a series.

Every CI run uploads its bench JSONs as an artifact named
`bench-perf-json-<sha>` (see .github/workflows/ci.yml). Download the
artifacts you want to plot into one directory (for example with
`gh run download --dir trajectory/` across runs, or unzipped by hand),
then:

  bench/plot_trajectory.py trajectory/            # table + sparklines
  bench/plot_trajectory.py trajectory/ --csv out.csv
  bench/plot_trajectory.py trajectory/ --metric max_tasks_per_sec

Layout expectations are loose: any subdirectory (or the directory
itself) holding bench_*.json files counts as one sample; the commit sha
is taken from the `bench-perf-json-<sha>` directory-name convention when
present, else the directory name itself. Samples are ordered by git
history (`git rev-list` on HEAD) when the shas are known to the current
repository, otherwise by file modification time — so the script also
works on a bare pile of downloaded artifacts.

The metrics tracked are exactly the gated ones (check_regression.GATES)
plus their derived inputs, so the trajectory shows the same numbers the
perf gate enforces.

With --ledger it reads the repo's benchmark ledger instead: every
BENCH_<pr>.json (raw `bench/e2e/compare.py --save` runs) in the given
directory, ordered by PR number. It prints one row per PR, workload and
end-to-end metric of the repo's BENCHMARK.json, with the parent's and the
change's median and their ratio:

  bench/plot_trajectory.py --ledger .
"""

import argparse
import collections
import json
import math
import os
import re
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_regression import GATES, derive_metrics  # noqa: E402

ARTIFACT_RE = re.compile(r"bench-perf-json-([0-9a-f]{7,40})$")
LEDGER_RE = re.compile(r"^BENCH_(\d+)\.json$")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def find_samples(root):
    """Yields (label, dirpath) for every directory holding bench JSONs."""
    for dirpath, _dirnames, filenames in os.walk(root):
        if not any(f.startswith("bench_") and f.endswith(".json")
                   for f in filenames):
            continue
        base = os.path.basename(os.path.abspath(dirpath))
        match = ARTIFACT_RE.search(base)
        yield (match.group(1) if match else base), dirpath


def git_order(labels):
    """Maps sha -> position in history (older = smaller); {} offline."""
    try:
        out = subprocess.run(
            ["git", "rev-list", "--reverse", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (subprocess.CalledProcessError, OSError):
        return {}
    order = {}
    for i, line in enumerate(out.stdout.split()):
        order[line] = i
    resolved = {}
    for label in labels:
        for sha, position in order.items():
            if sha.startswith(label):
                resolved[label] = position
                break
    return resolved


def load_sample(dirpath):
    """Reads every bench JSON of one sample into {bench: doc}."""
    docs = {}
    for name in sorted(os.listdir(dirpath)):
        if not (name.startswith("bench_") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(dirpath, name)) as f:
                doc = derive_metrics(json.load(f))
        except (json.JSONDecodeError, OSError) as error:
            print(f"  skip {name}: {error}", file=sys.stderr)
            continue
        bench = doc.get("bench")
        if bench:
            # First file of a bench wins (the journaled throughput
            # variant shares its bench name with the plain run).
            docs.setdefault(bench, doc)
    return docs


def get_path(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def sparkline(values):
    real = [v for v in values if v is not None]
    if not real:
        return ""
    lo, hi = min(real), max(real)
    span = hi - lo
    out = []
    for v in values:
        if v is None:
            out.append(" ")
        elif span == 0 or math.isclose(lo, hi):
            out.append(SPARK_CHARS[3])
        else:
            idx = int((v - lo) / span * (len(SPARK_CHARS) - 1))
            out.append(SPARK_CHARS[idx])
    return "".join(out)


def ledger_rows(directory):
    """Yields (pr, workload, metric, parent median, change median) for every
    BENCH_<pr>.json in `directory` and every end-to-end metric that the
    file's runs of a workload recorded on both sides."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    ledger = sorted((int(m.group(1)), name)
                    for name in os.listdir(directory)
                    for m in [LEDGER_RE.match(name)] if m)
    for pr, name in ledger:
        with open(os.path.join(directory, name)) as f:
            runs = json.load(f)["runs"]
        for workload in workloads:
            for metric in metrics:
                values = {"parent": [], "change": []}
                for run in runs:
                    if (run["workload"] == workload and
                            metric in run["metrics"]):
                        values[run["side"]].append(run["metrics"][metric])
                if values["parent"] and values["change"]:
                    yield (pr, workload, metric,
                           statistics.median(values["parent"]),
                           statistics.median(values["change"]))


def print_ledger(directory, only_metric=None):
    rows = [r for r in ledger_rows(directory)
            if only_metric in (None, r[2])]
    if not rows:
        print(f"no BENCH_<pr>.json under {directory}", file=sys.stderr)
        return 1
    print(f"{'pr':>4} {'workload':<14} {'metric':<14} {'parent':>12} "
          f"{'change':>12} {'ratio':>7}")
    for pr, workload, metric, parent, change in rows:
        ratio = f"{change / parent:7.3f}" if parent else f"{'-':>7}"
        print(f"{pr:>4} {workload:<14} {metric:<14} {parent:>12.4g} "
              f"{change:>12.4g} {ratio}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("directory", nargs="?",
                        help="directory of downloaded per-sha artifacts")
    source.add_argument("--ledger", metavar="DIR",
                        help="read the BENCH_<pr>.json ledger in DIR")
    parser.add_argument("--csv", metavar="FILE",
                        help="also write the full series as CSV")
    parser.add_argument("--metric",
                        help="only this metric (dotted path)")
    args = parser.parse_args()
    if args.ledger:
        sys.exit(print_ledger(args.ledger, args.metric))

    samples = list(find_samples(args.directory))
    if not samples:
        print(f"no bench_*.json under {args.directory}", file=sys.stderr)
        sys.exit(1)

    positions = git_order([label for label, _ in samples])
    samples.sort(key=lambda s: (
        positions.get(s[0], float("inf")),
        os.path.getmtime(s[1])))

    # series[(bench, metric)] = [value-or-None per sample]
    series = collections.defaultdict(list)
    labels = []
    for label, dirpath in samples:
        labels.append(label[:10])
        docs = load_sample(dirpath)
        for bench, gates in GATES.items():
            doc = docs.get(bench)
            for metric, _direction, _kind in gates:
                if args.metric and metric != args.metric:
                    continue
                series[(bench, metric)].append(
                    get_path(doc, metric) if doc else None)

    print(f"{len(samples)} samples: {labels[0]} .. {labels[-1]}")
    print(f"{'bench':<20} {'metric':<34} {'first':>12} {'last':>12}  trend")
    for (bench, metric), values in sorted(series.items()):
        real = [v for v in values if v is not None]
        if not real:
            continue
        print(f"{bench:<20} {metric:<34} {real[0]:>12.4g} {real[-1]:>12.4g}"
              f"  {sparkline(values)}")

    if args.csv:
        with open(args.csv, "w") as f:
            f.write("sha,bench,metric,value\n")
            for (bench, metric), values in sorted(series.items()):
                for label, value in zip(labels, values):
                    if value is None:
                        continue
                    f.write(f"{label},{bench},{metric},{value}\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
