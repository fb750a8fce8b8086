#!/usr/bin/env python3
"""Lint obs::Registry call sites against src/obs/README.md conventions.

Walks a source tree for GetCounter/GetGauge/GetHistogram registrations
and enforces, at the call site, the rules the README states for review:

  naming      incentag_<layer>_<what>_<unit-or-total>; layer is one of
              core / scheduler / service / persist / http
  counters    end in _total
  histograms  end in their unit: _seconds, _bytes, or _batch_size
  gauges      a plain noun -- must NOT carry a counter/histogram suffix
  base units  seconds and bytes only; _ms/_us/_kb style tokens are errors
  help        one sentence, starts with a capital letter, no trailing
              period, and identical across every site registering the
              same (name, labels) pair
  labels      preformatted `key="value"`; bounded enums only (see
              BOUNDED_LABELS below: class, route, reason)
  kind        a name is one kind everywhere (no counter/gauge collisions)

Metric names and labels must be string literals at the call site --
a computed name defeats both this linter and Prometheus cardinality
review, so it is rejected outright.

With --readme, the README's metrics table (rows starting
"| `incentag_") must document exactly the registered series, in both
directions: every registered name has a row and every row names a
registered series, with the same type and label key. A row that lists
label values -- `key` (`a`/`b`) -- must list exactly the values the
call sites register.

Usage: lint_metrics.py [--readme README.md] <source-root> [...more roots]
Exit status: 0 clean, 1 violations (listed as file:line: message),
2 usage/IO error. Run by ctest (`tools_lint_metrics`) and the
`lint-metrics` CI job.
"""

import os
import re
import sys

# "fault" is the fail-point harness (src/util/fail_point.cc): injection
# accounting lives outside any one I/O layer because a single armed
# point can fire in persist, http, and service paths alike.
LAYERS = ("core", "scheduler", "service", "persist", "http", "fault")
NAME_RE = re.compile(r"^incentag_(%s)_[a-z][a-z0-9_]*$" % "|".join(LAYERS))
# Non-base units; \Z-anchored alternation so e.g. `_used_total` survives
# but `_ms_total`, `_latency_us`, `_size_kb` do not.
BAD_UNIT_RE = re.compile(
    r"(_ms|_msec|_millis(?:econds)?|_us|_usec|_micros(?:econds)?"
    r"|_ns|_nanos(?:econds)?|_kb|_mb|_gb)(_|$)")
HIST_SUFFIXES = ("_seconds", "_bytes", "_batch_size")
LABEL_RE = re.compile(r'^([a-z_][a-z0-9_]*)="([^"\\]*)"$')
BOUNDED_LABELS = {
    "class": {"critical", "background"},
    # HTTP edge (ISSUE 8): one series per REST endpoint...
    "route": {"submit", "status", "list", "completions", "tasks",
              "metrics"},
    # ...and per edge-rejection cause ("degraded" = fleet storage-health
    # shedding, ISSUE 10).
    "reason": {"malformed", "oversized", "invalid_body",
               "unknown_campaign", "degraded"},
}

CALL_RE = re.compile(r"\bGet(Counter|Gauge|Histogram)\s*\(")

# One README metrics-table row: name, type, labels cell.
README_ROW_RE = re.compile(
    r"^\|\s*`(incentag_[a-z0-9_]+)`\s*\|\s*([a-z]+)\s*\|([^|]*)\|")
BACKTICKED_RE = re.compile(r"`([^`]*)`")

# The registry's own declaration/definition files: GetCounter(...) there
# is the API, not a registration site.
SKIP_FILES = {
    os.path.join("obs", "metrics.h"),
    os.path.join("obs", "metrics.cc"),
}


def split_top_level_args(text):
    """Split a balanced-paren argument string on top-level commas."""
    args, depth, current, in_str = [], 0, [], False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_str:
            if ch == "\\":
                current.append(text[i:i + 2])
                i += 2
                continue
            if ch == '"':
                in_str = False
            current.append(ch)
        elif ch == '"':
            in_str = True
            current.append(ch)
        elif ch in "([{":
            depth += 1
            current.append(ch)
        elif ch in ")]}":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
        i += 1
    tail = "".join(current).strip()
    if tail:
        args.append(tail)
    return args


def extract_call(text, open_paren):
    """Return (args_text, end_index) for the call starting at '('. """
    depth, in_str, i = 0, False, open_paren
    while i < len(text):
        ch = text[i]
        if in_str:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_str = False
        elif ch == '"':
            in_str = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i], i
        i += 1
    return None, len(text)


STRING_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def parse_string_literal(arg):
    """Concatenate adjacent C++ string literals; None if not a literal."""
    pieces = STRING_LITERAL_RE.findall(arg)
    if not pieces:
        return None
    # Anything outside the quotes other than whitespace means the arg is
    # an expression (e.g. absl::StrCat), not a literal.
    remainder = STRING_LITERAL_RE.sub("", arg).strip()
    if remainder:
        return None
    return "".join(p.replace('\\"', '"') for p in pieces)


class Linter:
    def __init__(self):
        self.errors = []
        self.sites = 0
        # name -> (kind, file, line); (name, labels) -> (help, file, line)
        self.kind_of = {}
        self.help_of = {}
        # name -> set of preformatted label strings ("" when unlabeled)
        self.labels_of = {}

    def error(self, path, line, message):
        self.errors.append("%s:%d: %s" % (path, line, message))

    def check_site(self, kind, name, help_text, labels, path, line):
        self.sites += 1
        if not NAME_RE.match(name):
            self.error(path, line,
                       "metric name %r must match "
                       "incentag_<layer>_<what>_<suffix> with layer in %s"
                       % (name, "/".join(LAYERS)))
        if BAD_UNIT_RE.search(name):
            self.error(path, line,
                       "metric name %r uses a non-base unit; use seconds "
                       "or bytes (render-side math converts)" % name)
        if kind == "Counter" and not name.endswith("_total"):
            self.error(path, line,
                       "counter %r must end in _total" % name)
        if kind == "Histogram" and not name.endswith(HIST_SUFFIXES):
            self.error(path, line,
                       "histogram %r must end in one of %s"
                       % (name, ", ".join(HIST_SUFFIXES)))
        if kind == "Gauge" and (name.endswith("_total")
                                or name.endswith(HIST_SUFFIXES)):
            self.error(path, line,
                       "gauge %r must be a plain noun (no _total or "
                       "unit suffix)" % name)

        if help_text is not None:
            if not help_text:
                self.error(path, line, "help for %r is empty" % name)
            elif help_text.endswith("."):
                self.error(path, line,
                           "help for %r has a trailing period" % name)
            elif not help_text[0].isupper():
                self.error(path, line,
                           "help for %r must start with a capital letter"
                           % name)
            if help_text and ". " in help_text:
                self.error(path, line,
                           "help for %r must be one sentence" % name)

        if labels:
            match = LABEL_RE.match(labels)
            if not match:
                self.error(path, line,
                           'labels %r for %r must be preformatted '
                           'key="value"' % (labels, name))
            else:
                key, value = match.groups()
                if key not in BOUNDED_LABELS:
                    self.error(path, line,
                               "label key %r for %r is not a known "
                               "bounded enum (allowed: %s)"
                               % (key, name,
                                  ", ".join(sorted(BOUNDED_LABELS))))
                elif value not in BOUNDED_LABELS[key]:
                    self.error(path, line,
                               "label %s=%r for %r outside the bounded "
                               "enum %s"
                               % (key, value, name,
                                  sorted(BOUNDED_LABELS[key])))

        self.labels_of.setdefault(name, set()).add(labels or "")
        previous = self.kind_of.setdefault(name, (kind, path, line))
        if previous[0] != kind:
            self.error(path, line,
                       "%r registered as %s here but as %s at %s:%d"
                       % (name, kind, previous[0], previous[1],
                          previous[2]))
        if help_text is not None:
            key = (name, labels or "")
            prior = self.help_of.setdefault(key,
                                            (help_text, path, line))
            if prior[0] != help_text:
                self.error(path, line,
                           "help for %r diverges from %s:%d (%r vs %r)"
                           % (name, prior[1], prior[2], help_text,
                              prior[0]))

    def lint_file(self, path):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for match in CALL_RE.finditer(text):
            kind = match.group(1)
            line = text.count("\n", 0, match.start()) + 1
            args_text, _ = extract_call(text, match.end() - 1)
            if args_text is None:
                self.error(path, line,
                           "unbalanced parentheses in Get%s call" % kind)
                continue
            args = split_top_level_args(args_text)
            if not args:
                continue
            name = parse_string_literal(args[0])
            if name is None:
                self.error(path, line,
                           "Get%s name must be a string literal at the "
                           "call site (computed names defeat cardinality "
                           "review)" % kind)
                continue
            help_text = (parse_string_literal(args[1])
                         if len(args) > 1 else None)
            if len(args) > 1 and help_text is None:
                self.error(path, line,
                           "help for %r must be a string literal" % name)
            labels_index = 3 if kind == "Histogram" else 2
            labels = None
            if len(args) > labels_index:
                labels = parse_string_literal(args[labels_index])
                if labels is None:
                    self.error(path, line,
                               "labels for %r must be a string literal"
                               % name)
            self.check_site(kind, name, help_text, labels, path, line)


    def check_readme(self, path):
        """Diff the README metrics table against the registered series."""
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        documented = set()
        for number, text in enumerate(lines, 1):
            match = README_ROW_RE.match(text)
            if not match:
                continue
            name, kind, labels_cell = match.groups()
            if name in documented:
                self.error(path, number, "%r documented twice" % name)
            documented.add(name)
            if name not in self.kind_of:
                self.error(path, number,
                           "%r is documented but no call site registers "
                           "it" % name)
                continue
            want_kind = self.kind_of[name][0].lower()
            if kind != want_kind:
                self.error(path, number,
                           "%r documented as %s but registered as %s"
                           % (name, kind, want_kind))
            registered = [match.groups() for match in
                          map(LABEL_RE.match, self.labels_of[name]) if match]
            keys = {key for key, _ in registered}
            cell = BACKTICKED_RE.findall(labels_cell)
            doc_key = cell[0] if cell else None
            if keys != ({doc_key} if doc_key else set()):
                self.error(path, number,
                           "%r documents label %s but call sites register "
                           "%s" % (name, doc_key or "none",
                                   ", ".join(sorted(keys)) or "none"))
            elif len(cell) > 1:
                doc_values = set(cell[1:])
                values = {value for _, value in registered}
                if doc_values != values:
                    self.error(path, number,
                               "%r documents %s values %s but call sites "
                               "register %s"
                               % (name, doc_key, sorted(doc_values),
                                  sorted(values)))
        for name in sorted(set(self.kind_of) - documented):
            kind, site_path, site_line = self.kind_of[name]
            self.error(site_path, site_line,
                       "%r is registered but missing from the metrics "
                       "table in %s" % (name, path))


def main(argv):
    args = argv[1:]
    readme = None
    if len(args) >= 2 and args[0] == "--readme":
        readme, args = args[1], args[2:]
    roots = args
    if not roots:
        print("usage: lint_metrics.py [--readme README.md] <source-root> "
              "[...more roots]", file=sys.stderr)
        return 2
    linter = Linter()
    files = []
    for root in roots:
        if not os.path.isdir(root):
            print("lint_metrics.py: not a directory: %s" % root,
                  file=sys.stderr)
            return 2
        for dirpath, _, names in os.walk(root):
            for filename in sorted(names):
                if not filename.endswith((".h", ".cc")):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root)
                if rel in SKIP_FILES:
                    continue
                files.append(path)
    try:
        for path in sorted(files):
            linter.lint_file(path)
        if readme is not None:
            linter.check_readme(readme)
    except OSError as err:
        print("lint_metrics.py: %s" % err, file=sys.stderr)
        return 2
    for message in linter.errors:
        print(message, file=sys.stderr)
    if linter.errors:
        print("lint_metrics.py: %d violation(s) across %d site(s)"
              % (len(linter.errors), linter.sites), file=sys.stderr)
        return 1
    print("lint_metrics.py: %d site(s) clean" % linter.sites)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
