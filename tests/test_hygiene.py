"""Source hygiene checks that need only the standard library."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cantorapprox"
# the calibration constants live beside the tests that check them, but are
# held to the same source rules as the package modules
CALIBRATION = ROOT / "tests" / "calibration.py"
MODULES = sorted([*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), CALIBRATION])
TRACER = ROOT / "perfbench" / "trace_op.py"


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


@pytest.mark.parametrize("path", sorted([*PACKAGE.glob("*.py"), CALIBRATION]), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    nested = _nested_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not nested, f"{path.name} imports inside functions: {', '.join(nested)}"


def test_nested_import_is_detected():
    tree = ast.parse("import os\ndef f():\n    def g():\n        from math import gcd\n")
    assert _nested_imports(tree) == ["f (line 4)", "g (line 4)"]


# the one lazy import: `cli` loads a command's handler module on first use,
# and the package its PEP 562 exports
LAZY_IMPORTS = {"cli.py": {"_handler_of"}, "__init__.py": {"__getattr__"}}


def _import_module_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each call of `import_module`, the innermost
    function that holds it or "<module>"."""
    calls = {node: "<module>" for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "import_module"}
    for fn in ast.walk(tree):  # outer functions first, so an inner one names its calls
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if node in calls:
                    calls[node] = fn.name
    return sorted((name, node.lineno) for node, name in calls.items())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_import_module_is_called_only_by_the_lazy_loaders(path):
    """A module imported inside a handler is a load path of its own, which
    `tests/test_startup.py` pins only for the argvs it runs."""
    calls = _import_module_calls(ast.parse(path.read_text(), filename=str(path)))
    stray = [f"{name} (line {line})" for name, line in calls
             if name not in LAZY_IMPORTS.get(path.name, ())]
    assert not stray, f"{path.name} calls import_module outside its loader: {', '.join(stray)}"


def test_import_module_call_is_detected():
    tree = ast.parse("from importlib import import_module\nm = import_module('a')\n"
                     "def f(x):\n    return importlib.import_module('.b', x).g\n"
                     "def _handler_of(args):\n    return import_module(args)\n")
    assert _import_module_calls(tree) == [("<module>", 2), ("_handler_of", 6), ("f", 4)]


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


def _missing_traced_names(source: str) -> list[str]:
    """The entries of a tracer's `FUNCTIONS` that are not attributes of
    their `cantorapprox` module, and of its `METHODS` that are not in
    `vars()` of their class, read from its source without running it."""
    tables = {node.targets[0].id: node.value for node in ast.parse(source).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    missing = []
    functions = tables["FUNCTIONS"]
    for key, names in zip(functions.keys, functions.values):
        module = import_module(f"cantorapprox.{key.id}")
        missing += [f"{key.id}.{name.value}" for name in names.elts
                    if not hasattr(module, name.value)]
    methods = tables["METHODS"]
    for entries in methods.values:
        for entry in entries.elts:
            owner, name = entry.elts[0], entry.elts[1].value
            cls = getattr(import_module(f"cantorapprox.{owner.value.id}"), owner.attr, None)
            if cls is None or name not in vars(cls):
                missing.append(f"{owner.value.id}.{owner.attr}.{name}")
    return missing


def test_every_traced_name_still_exists():
    """A name the benchmark tracer wraps that was removed or moved fails here,
    not first in the traced benchmark run."""
    missing = _missing_traced_names(TRACER.read_text())
    assert not missing, f"perfbench/trace_op.py traces names that are gone: {', '.join(missing)}"


def test_missing_traced_name_is_detected():
    source = ("FUNCTIONS = {digitsets: ['cantor_cdf', 'no_such_function']}\n"
              "METHODS = {digitsets: [(digitsets.MissingDigitSet, 'prefix_allowed'),\n"
              "                       (digitsets.MissingDigitSet, 'no_such_method'),\n"
              "                       (digitsets.NoSuchClass, 'prefix_allowed')]}\n")
    assert _missing_traced_names(source) == [
        "digitsets.no_such_function", "digitsets.MissingDigitSet.no_such_method",
        "digitsets.NoSuchClass.prefix_allowed"]


RENDERERS = {"rational_json", "value_json", "rat_str", "int_str"}


def _renderer_uses(tree: ast.Module) -> list[str]:
    """Uses of a JSON, rational or integer renderer of `render`, called or
    passed on, as "name (line N)"."""
    uses = sorted((node.lineno, name) for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and (name := getattr(node, "id", getattr(node, "attr", None))) in RENDERERS)
    return [f"{name} (line {line})" for line, name in uses]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "render.py"],
                         ids=lambda p: p.name)
def test_rationals_are_rendered_only_in_render(path):
    """A handler returns its numbers, and `render` alone writes them in the
    report format chosen; a rational or an integer rendered before then is
    paid for by either format and can refuse a report that never holds it."""
    uses = _renderer_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name} renders values itself: {', '.join(uses)}"


def test_renderer_use_is_detected():
    tree = ast.parse("render.value_json(v)\nrat_str(x)\nrender.value_csv(v)\n"
                     "';'.join(map(render.int_str, ks))\nrender.check_int(n)\n")
    assert _renderer_uses(tree) == ["value_json (line 1)", "rat_str (line 2)",
                                    "int_str (line 4)"]


def _print_limit_reads(tree: ast.Module) -> list[str]:
    """Reads of the interpreter's int-to-str limit, as "line N"."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) == "get_int_max_str_digits"
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "get_int_max_str_digits" for alias in node.names))]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "render.py"],
                         ids=lambda p: p.name)
def test_the_print_limit_is_read_only_in_render(path):
    """`render.int_str` refuses an integer past the limit and
    `render.check_int` tests one against it; a copy of that rule elsewhere
    can drift from the refusal the report gives."""
    reads = _print_limit_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not reads, f"{path.name} reads the int-to-str limit: {', '.join(reads)}"


def test_print_limit_read_is_detected():
    tree = ast.parse("import sys\nd = sys.get_int_max_str_digits()\n"
                     "from sys import get_int_max_str_digits\nsys.set_int_max_str_digits(0)\n")
    assert _print_limit_reads(tree) == ["line 2", "line 3"]


def _formatted_operands(tree: ast.Module) -> list[str]:
    """`check_bits` calls whose operand is not a string constant, such as an
    f-string formatted before the check, as "line N"."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check_bits"
            and not (len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                     and isinstance(node.args[1].value, str))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_check_bits_operands_are_templates(path):
    """check_bits formats its operand's numbers only when it refuses; a name
    built before the call is paid by every check and can fail to print."""
    eager = _formatted_operands(ast.parse(path.read_text(), filename=str(path)))
    assert not eager, f"{path.name} names check_bits operands eagerly: {', '.join(eager)}"


def test_formatted_operand_is_detected():
    tree = ast.parse('check_bits(n, "base^{}", p)\ncheck_bits(n, f"base^{p}")\n'
                     'errors.check_bits(n, "e^" + str(k))\n')
    assert _formatted_operands(tree) == ["line 2", "line 3"]
