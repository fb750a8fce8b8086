#!/usr/bin/env python3
"""A/B comparison of two checkouts on the end-to-end benchmark.

Runs bench/e2e/run.sh in a parent and a change checkout as interleaved
pairs (same seed on both sides of a pair, alternating which side runs
first), then judges every metric of every workload:

  * gain        the change wins at least 9 of 10 pairs (ties count for
                neither side) and the medians differ by more than the
                parent's own quartile spread;
  * regressed   the change's median is worse than the parent's by more
                than the metric's bound;
  * unresolved  a side's quartile spread exceeds the bound, unless every
                change run beats every parent run;
  * unchanged   otherwise. Per-layer metrics have no bound and only
                report "gain" or "-".

The run fails (exit 1) on any regression, any incorrect run, or when the
share of failed operations rose.

  bench/e2e/compare.py --parent ../parent --change . --pairs 10
  bench/e2e/compare.py --load build-e2e/ab.json     # re-judge saved runs

Bounds and directions come from the metric dictionary in README.md, which
the smoke test keeps in step with BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fleet_inline", "fleet_durable", "http_ingest", "http_mixed"]
GAIN_SHARE = 0.9


# ------------------------------------------------------------ dictionary

def load_dictionary(readme=os.path.join(HERE, "README.md")):
    """Parses the README metric table: name -> {unit, better, bound, kind,
    layer, workloads}. `bound` is None for per-layer metrics."""
    rows = {}
    with open(readme) as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) < 7 or not cells[0].startswith("`"):
                continue
            name = cells[0].strip("`")
            bound = cells[3]
            workloads = cells[5]
            end_to_end = cells[4] == "end-to-end"
            rows[name] = {
                "unit": cells[1].strip("`"),
                "better": cells[2],
                "bound": (float(bound) if re.match(r"^[0-9.]+$", bound)
                          else None),
                "kind": "end_to_end" if end_to_end else "per_layer",
                "layer": cells[4],
                "workloads": (list(WORKLOADS) if workloads == "all"
                              else [w.strip() for w in workloads.split(",")]),
            }
    return rows


# ------------------------------------------------------------ statistics

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(quartile_triple):
    """Interquartile range over the median; inf for a zero median."""
    q1, med, q3 = quartile_triple
    return (q3 - q1) / abs(med) if med else float("inf")


def judge(parent, change, better, bound):
    """One metric on one workload. `parent` and `change` are per-pair
    values (same length, pair i on both sides). Returns a row dict."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    row = {
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "wins": wins,
        "pairs": pairs,
    }
    gain = (wins >= GAIN_SHARE * pairs and
            sign * (c_med - p_med) > (p_q3 - p_q1))
    if bound is None:
        row["verdict"] = "gain" if gain else "-"
        return row
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    worse = -sign * (c_med - p_med)
    if gain:
        row["verdict"] = "gain"
    elif p_med and worse > bound * abs(p_med):
        row["verdict"] = "regressed"
    elif (max(spread(row["parent"]), spread(row["change"])) > bound
          and not dominates):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def evaluate(runs, dictionary):
    """Judges every (workload, metric) of `runs` (dicts with side, pair,
    workload, metrics, correct, attempted, failed). Returns (rows,
    failures)."""
    rows = []
    failures = []
    for run in runs:
        if not run["correct"]:
            failures.append("incorrect %s run: %s pair %d" %
                            (run["side"], run["workload"], run["pair"]))
    workloads = [w for w in WORKLOADS if any(r["workload"] == w for r in runs)]
    for w in workloads:
        by_pair = {}
        for r in runs:
            if r["workload"] == w:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = sorted(p for p, sides in by_pair.items() if len(sides) == 2)
        if not pairs:
            continue

        def failed_share(side):
            runs_of_side = [by_pair[p][side] for p in pairs]
            return statistics.median(r["failed"] / max(1, r["attempted"])
                                     for r in runs_of_side)

        if failed_share("change") > failed_share("parent"):
            failures.append("%s: the share of failed operations rose" % w)
        for name, spec in dictionary.items():
            if w not in spec["workloads"]:
                continue
            have = [p for p in pairs
                    if name in by_pair[p]["parent"]["metrics"] and
                    name in by_pair[p]["change"]["metrics"]]
            if not have:
                continue
            row = judge([by_pair[p]["parent"]["metrics"][name] for p in have],
                        [by_pair[p]["change"]["metrics"][name] for p in have],
                        spec["better"], spec["bound"])
            row.update({"workload": w, "metric": name, "unit": spec["unit"],
                        "kind": spec["kind"]})
            rows.append(row)
            if row["verdict"] == "regressed":
                failures.append("%s %s regressed" % (w, name))
    return rows, failures


def render(rows):
    out = []
    line = "%-14s %-42s %-34s %-34s %7s %6s  %s"
    out.append(line % ("workload", "metric", "parent median [q1, q3]",
                       "change median [q1, q3]", "spread", "wins",
                       "verdict"))
    for r in rows:
        worst = max(spread(r["parent"]), spread(r["change"]))
        out.append(line % (
            r["workload"], r["metric"] + " (" + r["unit"] + ")",
            "%.6g [%.6g, %.6g]" % (r["parent"][1], r["parent"][0],
                                   r["parent"][2]),
            "%.6g [%.6g, %.6g]" % (r["change"][1], r["change"][0],
                                   r["change"][2]),
            "%.3f" % worst if worst != float("inf") else "-",
            "%d/%d" % (r["wins"], r["pairs"]), r["verdict"]))
    return "\n".join(out)


# ------------------------------------------------------------ running

def parse_output(text, workload):
    """Metric lines and the closing result line of one run.sh run; the
    machine record, when printed, is returned under result["machine"]."""
    metrics = {}
    result = None
    machine = None
    for line in text.splitlines():
        parts = line.split()
        if line.startswith("# machine "):
            machine = json.loads(line[len("# machine "):])
        elif len(parts) >= 4 and parts[0] == workload:
            try:
                metrics[parts[1]] = float(parts[2])
            except ValueError:
                pass
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        raise ValueError("no result line for %s" % workload)
    result["machine"] = machine
    return metrics, result


def bench_digest(checkout):
    """Hash of the benchmark's sources under bench/e2e: recorded results
    and Python bytecode caches (which embed source mtimes, so they differ
    between identical checkouts) are left out."""
    digest = hashlib.sha256()
    base = os.path.join(checkout, "bench", "e2e")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in ("results", "__pycache__"))
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_one(checkout, workload, seed, seconds):
    proc = subprocess.run(
        ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    metrics, result = parse_output(proc.stdout, workload)
    return {"metrics": metrics, "correct": bool(result["correct"]) and
            proc.returncode == 0, "attempted": result["attempted"],
            "failed": result["failed"], "machine": result["machine"]}


def run_pairs(args):
    if bench_digest(args.parent) != bench_digest(args.change):
        sys.exit("compare: bench/e2e differs between the checkouts; a change "
                 "that claims a gain may not edit the benchmark")
    runs = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for w in args.workloads:
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                run = run_one(checkout, w, seed, args.seconds)
                run.update({"side": side, "pair": pair, "workload": w,
                            "seed": seed})
                runs.append(run)
                print("pair %d %s %s seed %d: %s" % (
                    pair, side, w, seed, "ok" if run["correct"] else "WRONG"),
                    file=sys.stderr)
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent checkout")
    ap.add_argument("--change", help="change checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS)
    ap.add_argument("--save", help="write the raw runs here")
    ap.add_argument("--load", help="judge saved runs instead of running")
    args = ap.parse_args()
    if args.load:
        with open(args.load) as f:
            runs = json.load(f)["runs"]
    else:
        if not args.parent or not args.change:
            ap.error("--parent and --change are required unless --load")
        if args.pairs < 10:
            print("compare: fewer than 10 pairs cannot support a gain claim",
                  file=sys.stderr)
        runs = run_pairs(args)
        if args.save:
            with open(args.save, "w") as f:
                json.dump({"runs": runs}, f, indent=1)
    rows, failures = evaluate(runs, load_dictionary())
    print(render(rows))
    for failure in failures:
        print("FAIL: " + failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
