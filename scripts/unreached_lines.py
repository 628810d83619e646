#!/usr/bin/env python3
"""Print the lines of src/cantorapprox that the tier-1 suite never runs,
and check them against the lines left unreached on purpose.

    python scripts/unreached_lines.py [PYTEST_ARGS...]

Runs the tier-1 suite in this process, with any extra pytest arguments
(CI passes `-k "not straddle"`), under a `sys.settrace` tracer that
follows only frames of code in src/cantorapprox.  Then it prints, module
by module, every line that a code object of the module can run (from
`co_lines`) but none did, and a count per module.  Tests that run the
CLI in a subprocess are not traced.  A traced run takes about three
times as long as a plain one.

`unreached_lines.txt`, next to this script, lists the lines left
unreached on purpose, each group under its reason, one line a row keyed
by module file name and stripped line text, so that edits elsewhere do
not move the keys.  Exits with pytest's exit code, or 1 when the lines
unreached differ from that list.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cantorapprox"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
EXPECTED = Path(__file__).with_name("unreached_lines.txt")


def expected_lines() -> Counter:
    """(module, line text) of each line listed in EXPECTED, with repeats."""
    rows = (row.strip() for row in EXPECTED.read_text(encoding="utf-8").splitlines())
    return Counter(tuple(row.split(None, 1)) for row in rows if row and not row.startswith("#"))


def runnable_lines(path: Path) -> set[int]:
    """Every line number some code object compiled from the file can run."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    reached: defaultdict[str, set[int]] = defaultdict(set)

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None  # no line events in frames outside the package
        lines = reached[frame.f_code.co_filename]
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(TIER1 + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    unreached: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(runnable_lines(path) - reached[str(path)])
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} unreached")
        for line in missed:
            print(f"  {line:4d}  {source[line - 1].strip()}")
            unreached[path.name, source[line - 1].strip()] += 1
    print(f"total: {total} unreached")
    expected = expected_lines()
    for label, rows in (("unreached but not listed", unreached - expected),
                        ("listed but reached", expected - unreached)):
        for (module, text), count in sorted(rows.items()):
            print(f"{label}: {module}  {text}" + (f" (x{count})" if count > 1 else ""))
    return int(status) or int(unreached != expected)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
