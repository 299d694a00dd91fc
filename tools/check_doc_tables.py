#!/usr/bin/env python3
"""Fail when a number in a document's table differs from its bin's golden.

Scans the markdown tables of the documents listed in DOCS. A table is
checked when its nearest heading names, in backticks, a bin that has a
pinned stdout in GOLDEN (`crates/bench/tests/golden/<bin>.txt`); e.g.
the table under "## Figure 8 — the headline speedups (`fig8`)" is
checked against `fig8.txt`. Other tables, fenced code blocks and prose
are not read.

For each data row, the golden line whose first field equals the row's
label (its first cell, bold marks removed) is the row's counterpart,
and each numeric cell must equal the counterpart's field in the same
column, character for character. A `–` cell is skipped. A row with no
counterpart, or with a numeric cell that differs, is a failure.

Exits nonzero listing every failure. Run from the repository root:
`python3 tools/check_doc_tables.py`.
"""

import os
import re
import sys

DOCS = ["EXPERIMENTS.md", "README.md", "DESIGN.md"]

GOLDEN = "crates/bench/tests/golden"

BIN = re.compile(r"`([A-Za-z0-9_]+)`")
NUMBER = re.compile(r"[+-]?\d+(?:\.\d+)?[%x]?")


def cells(line):
    """The cells of a table row, stripped of padding and bold marks."""
    return [c.strip().replace("**", "") for c in line.strip().strip("|").split("|")]


def golden_bin(heading):
    """The first bin named in backticks in `heading` that has a golden."""
    for name in BIN.findall(heading):
        if os.path.exists(os.path.join(GOLDEN, f"{name}.txt")):
            return name
    return None


def tables(path):
    """Yield (heading, first line number, rows) for each table in `path`."""
    heading, rows, start, fenced = "", [], 0, False
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for n, line in enumerate(lines + [""], 1):
        if line.startswith("|") and not fenced:
            if not rows:
                start = n
            rows.append(line)
            continue
        if rows:
            yield heading, start, rows
            rows = []
        if line.startswith("```"):
            fenced = not fenced
        elif line.startswith("#") and not fenced:
            heading = line


def check_table(doc, start, rows, golden_lines):
    """Failures of one table's data rows against its golden lines."""
    failures = []
    checked = 0
    # rows[0] is the header, rows[1] the `|---|` separator.
    for offset, row in enumerate(rows[2:], 2):
        where = f"{doc}:{start + offset}"
        label, *values = cells(row)
        match = next((g[1:] for g in golden_lines if g and g[0] == label), None)
        if match is None:
            failures.append(f"{where}: row '{label}' has no golden row")
            continue
        for col, value in enumerate(values):
            if value == "–" or not NUMBER.fullmatch(value):
                continue
            checked += 1
            want = match[col] if col < len(match) else "<missing>"
            if value != want:
                failures.append(
                    f"{where}: '{label}' column {col + 1} reads {value}, golden has {want}"
                )
    return failures, checked


def main() -> int:
    failures = []
    checked_tables = checked_cells = 0
    for doc in DOCS:
        if not os.path.exists(doc):
            failures.append(f"{doc}: the document itself is missing")
            continue
        for heading, start, rows in tables(doc):
            name = golden_bin(heading)
            if name is None:
                continue
            with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as f:
                golden_lines = [line.split() for line in f]
            found, checked = check_table(doc, start, rows, golden_lines)
            failures += [f"{f} ({GOLDEN}/{name}.txt)" for f in found]
            checked_tables += 1
            checked_cells += checked
    for failure in failures:
        print(f"doc table mismatch: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"checked {checked_tables} tables in {len(DOCS)} documents: "
        f"all {checked_cells} numeric cells match their goldens"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
