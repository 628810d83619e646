"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cantorapprox"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of the module -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "EnclosureSource"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_unused_import_is_detected():
    tree = ast.parse("from typing import Any, Optional\nx: Optional[int] = None\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"Any"}


def _nested_imports(tree: ast.Module) -> list[str]:
    """Imports inside a function body, as "function (line N)"."""
    return sorted(f"{fn.name} (line {node.lineno})" for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))


# cli.py alone imports inside a function: run_command loads the handler module
# of the command it runs, and the enclosure layer only for --precision-budget,
# so a call compiles only the code it runs
@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    nested = _nested_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not nested, f"{path.name} imports inside functions: {', '.join(nested)}"


def test_nested_import_is_detected():
    tree = ast.parse("import os\ndef f():\n    def g():\n        from math import gcd\n")
    assert _nested_imports(tree) == ["f (line 4)", "g (line 4)"]


def _foreign_private_reads(tree: ast.Module) -> list[str]:
    """Reads of `obj._name` (obj not self or cls) of a private name the
    module does not define, as "_name (line N)"."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            defined.add(node.attr)
    return sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr.startswith("_") and not node.attr.endswith("__")
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                  and node.attr not in defined)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    foreign = _foreign_private_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not foreign, f"{path.name} reads private names of other modules: {', '.join(foreign)}"


def test_foreign_private_read_is_detected():
    tree = ast.parse("class A:\n    _own = 1\n    def f(self, o):\n"
                     "        return self._x, o._own, o._other, o.__class__\n")
    assert _foreign_private_reads(tree) == ["_other (line 4)"]
