#!/usr/bin/env python3
"""Fail when a number in a document's table or excerpt differs from its golden.

Scans the markdown tables and fenced code blocks of the documents listed
in DOCS. A table or fenced block is checked when its nearest heading
names, in backticks, a bin that has a pinned stdout in GOLDEN
(`crates/bench/tests/golden/<bin>.txt`); e.g. the table under
"## Figure 8 — the headline speedups (`fig8`)" is checked against
`fig8.txt`. Other tables and fenced blocks are not read.

For each data row of a table, the golden line whose first field equals
the row's label (its first cell, bold marks removed) is the row's
counterpart, and each numeric cell must equal the counterpart's field in
the same column, character for character. A `–` cell is skipped. A row
with no counterpart, or with a numeric cell that differs, is a failure.

A fenced block is an excerpt: each of its lines must be a line of the
golden, verbatim (trailing spaces aside), and the lines must appear in
the golden's order. Blank lines are skipped. A line that is not in the
golden, or that comes before an earlier excerpt line in the golden, is
a failure.

Prose is not read. The headline figures README.md ("Reproducing the
paper's evaluation") and DESIGN.md (§4, "Experiment index") state in
sentences stay unchecked; keep them equal to EXPERIMENTS.md's Figure 8
table by hand.

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


def blocks(path):
    """Yield (kind, heading, first line number, lines) for each table
    (kind "table") and fenced block (kind "fence") in `path`."""
    heading, rows, start, fence = "", [], 0, None
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for n, line in enumerate(lines + [""], 1):
        if fence is not None:
            if line.startswith("```"):
                yield "fence", heading, start, fence
                fence = None
            else:
                fence.append(line)
            continue
        if line.startswith("|"):
            if not rows:
                start = n
            rows.append(line)
            continue
        if rows:
            yield "table", heading, start, rows
            rows = []
        if line.startswith("```"):
            fence, start = [], n + 1
        elif line.startswith("#"):
            heading = line


def check_table(doc, start, rows, golden):
    """Failures of one table's data rows against its golden lines."""
    golden_fields = [line.split() for line in golden]
    failures = []
    checked = 0
    # rows[0] is the header, rows[1] the `|---|` separator.
    for offset, row in enumerate(rows[2:], 2):
        where = f"{doc}:{start + offset}"
        label, *values = cells(row)
        match = next((g[1:] for g in golden_fields if g and g[0] == label), None)
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


def check_fence(doc, start, lines, golden):
    """Failures of one fenced excerpt's lines against its golden lines."""
    failures = []
    checked = 0
    at = 0  # golden lines before `at` are behind the excerpt
    for offset, line in enumerate(lines):
        line = line.rstrip()
        if not line:
            continue
        where = f"{doc}:{start + offset}"
        if line in golden[at:]:
            at = golden.index(line, at) + 1
            checked += 1
        elif line in golden:
            failures.append(f"{where}: '{line.strip()}' is out of the golden's order")
        else:
            failures.append(f"{where}: '{line.strip()}' is not a golden line")
    return failures, checked


def main() -> int:
    failures = []
    checked_tables = checked_cells = checked_fences = checked_lines = 0
    for doc in DOCS:
        if not os.path.exists(doc):
            failures.append(f"{doc}: the document itself is missing")
            continue
        for kind, heading, start, lines in blocks(doc):
            name = golden_bin(heading)
            if name is None:
                continue
            with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as f:
                golden = [line.rstrip() for line in f]
            if kind == "table":
                found, checked = check_table(doc, start, lines, golden)
                checked_tables += 1
                checked_cells += checked
            else:
                found, checked = check_fence(doc, start, lines, golden)
                checked_fences += 1
                checked_lines += checked
            failures += [f"{f} ({GOLDEN}/{name}.txt)" for f in found]
    for failure in failures:
        print(f"doc mismatch: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"checked {checked_tables} tables and {checked_fences} excerpts in "
        f"{len(DOCS)} documents: all {checked_cells} numeric cells and "
        f"{checked_lines} excerpt lines match their goldens"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
