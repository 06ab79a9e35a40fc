#!/usr/bin/env python3
"""Count non-test lines of Rust under crates/*/src.

Counts every line of every `.rs` file that `git ls-files 'crates/*/src/**'`
lists, except column-0 `#[cfg(test)]` items. An excluded item runs from
the doc comments and attributes directly above its `#[cfg(test)]` through
its closing column-0 `}` (or through its own line, for a one-line item such
as `#[cfg(test)] use ...;`). Test items in the middle of a file are
excluded and the real code after them is counted.

    scripts/nontest_lines.py              the working tree
    scripts/nontest_lines.py --rev REV    the tree at git revision REV
    scripts/nontest_lines.py --files      also one line per file

Prints one line per crate and a total.
"""

import argparse
import subprocess
import sys
from collections import defaultdict


def git(*args):
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def nontest_lines(text):
    """Lines of `text` outside column-0 `#[cfg(test)]` items."""
    lines = text.splitlines()
    excluded = [False] * len(lines)
    i = 0
    while i < len(lines):
        if not lines[i].startswith("#[cfg(test)]"):
            i += 1
            continue
        start = i
        while start > 0 and lines[start - 1].startswith(("///", "#[")):
            start -= 1
        # The item's first line after its attributes.
        end = i + 1
        while end < len(lines) and lines[end].startswith("#["):
            end += 1
        header = lines[end].rstrip() if end < len(lines) else ""
        one_line = header.endswith(";") or (header.endswith("}") and "{" in header)
        if not one_line:
            end += 1
            while end < len(lines) and not lines[end].startswith("}"):
                end += 1
        for k in range(start, min(end + 1, len(lines))):
            excluded[k] = True
        i = end + 1
    return sum(1 for x in excluded if not x)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="count the tree at this git revision")
    parser.add_argument("--files", action="store_true", help="print every file")
    args = parser.parse_args()

    if args.rev:
        paths = git("ls-tree", "-r", "--name-only", args.rev, "--", "crates").split()
        paths = [p for p in paths if p.split("/")[2:3] == ["src"]]
    else:
        paths = git("ls-files", "crates/*/src/**").split()
    per_crate = defaultdict(int)
    for path in sorted(p for p in paths if p.endswith(".rs")):
        if args.rev:
            text = git("show", f"{args.rev}:{path}")
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        n = nontest_lines(text)
        per_crate[path.split("/")[1]] += n
        if args.files:
            print(f"{n:7} {path}")
    for crate, n in sorted(per_crate.items()):
        print(f"{n:7} crates/{crate}/src")
    print(f"{sum(per_crate.values()):7} total")


if __name__ == "__main__":
    sys.exit(main())
