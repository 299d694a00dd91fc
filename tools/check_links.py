#!/usr/bin/env python3
"""Fail on dead relative links and dead code paths in the repo's docs.

Scans the documents listed in DOCS for two kinds of reference:

* markdown links `[text](target)`: absolute URLs (http/https/mailto)
  and pure in-page anchors are ignored; every relative target (with any
  #anchor stripped) must exist on disk relative to the linking file;
* backticked repository paths: a code span that is a path under one of
  ROOTS, optionally followed by `:line` or `:from-to` (hyphen or en
  dash), e.g. `crates/sim/src/engine.rs:421`, must exist relative to
  the repository root.

Exits nonzero listing every dead reference. Run from the repository
root: `python3 tools/check_links.py`.
"""

import os
import re
import sys

DOCS = [
    "README.md",
    "ARCHITECTURE.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ENGINE.md",
    "docs/SERVE.md",
    "docs/TUNING.md",
]

ROOTS = ("crates", "docs", "perfbench", "tests", "tools", "examples")

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_PATH = re.compile(r"`((?:" + "|".join(ROOTS) + r")/[^\s:`]*)(?::\d+(?:[-–]\d+)?)?`")


def main() -> int:
    dead = []
    paths = 0
    for doc in DOCS:
        if not os.path.exists(doc):
            dead.append((doc, "<the document itself is missing>"))
            continue
        base = os.path.dirname(doc)
        with open(doc, encoding="utf-8") as f:
            text = f.read()
        for target in LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not os.path.exists(os.path.join(base, path)):
                dead.append((doc, target))
        for path in CODE_PATH.findall(text):
            paths += 1
            if not os.path.exists(path):
                dead.append((doc, f"`{path}`"))
    for doc, target in dead:
        print(f"dead link in {doc}: {target}", file=sys.stderr)
    if dead:
        return 1
    print(
        f"checked {len(DOCS)} documents, no dead relative links, "
        f"all {paths} backticked repository paths exist"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
