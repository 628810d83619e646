#!/usr/bin/env python3
"""What compiling the package costs, module by module, and what one
command-line call loads of it.

    python scripts/compile_cost.py [CLI_ARGV...]

Prints, for each module of src/cantorapprox, its AST node count and the
best of 60 `compile()` times of its source in ms, then their total.
Given a CLI argv (without the program name), it runs that call in a
fresh interpreter, with its report discarded, and prints the same two
columns for the package modules the call loaded, their total and the
call's exit code.  The times are those of this machine; compare them
only with times taken on the same machine, best of several runs.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from timeit import repeat

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cantorapprox"
REPEATS = 60

# runs the argv through `cli.main` with its output discarded, then prints
# the exit code and every package module loaded
PROBE = """
import contextlib, io, sys
from cantorapprox.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'cantorapprox'))
"""


def module_cost(path: Path) -> tuple[int, float]:
    """(AST node count, best-of-REPEATS compile() time in ms) of one file."""
    source = path.read_text(encoding="utf-8")
    nodes = sum(1 for _ in ast.walk(ast.parse(source)))
    best = min(repeat(lambda: compile(source, str(path), "exec"), number=1, repeat=REPEATS))
    return nodes, best * 1000


def file_of(module: str) -> str:
    """The file name of a package module: cantorapprox.x is x.py."""
    _, _, name = module.partition(".")
    return f"{name or '__init__'}.py"


def loaded_modules(argv: list[str]) -> tuple[str, list[str]]:
    """(exit code, package modules loaded) of one CLI call in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, timeout=600, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    code, *modules = proc.stdout.split()
    return code, modules


def print_table(title: str, costs: dict[str, tuple[int, float]]) -> None:
    print(title)
    print(f"  {'module':<16} {'nodes':>7} {'compile_ms':>11}")
    for name, (nodes, ms) in costs.items():
        print(f"  {name:<16} {nodes:>7,} {ms:>11.2f}")
    print(f"  {'total':<16} {sum(n for n, _ in costs.values()):>7,} "
          f"{sum(ms for _, ms in costs.values()):>11.2f}")


def main(argv: list[str]) -> int:
    costs = {path.name: module_cost(path) for path in sorted(PACKAGE.glob("*.py"))}
    print_table(f"src/cantorapprox, best of {REPEATS} compile() calls", costs)
    if argv:
        code, modules = loaded_modules(argv)
        print()
        print_table(f"loaded by `{' '.join(argv)}` (exit {code})",
                    {file_of(m): costs[file_of(m)] for m in modules})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
