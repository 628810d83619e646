"""What the package and a command-line call load, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantorapprox

SRC = Path(__file__).resolve().parent.parent / "src"
FAMILIES = {"cantorapprox.layers", "cantorapprox.contfrac", "cantorapprox.sparse"}
# every library module a command may load besides its family and handler
# modules
CORE = {"cantorapprox", "cantorapprox.cli", "cantorapprox.digitsets",
        "cantorapprox.enclosures", "cantorapprox.errors", "cantorapprox.intervals",
        "cantorapprox.records", "cantorapprox.render"}
LAYERS = {"cantorapprox.layers"}
CONTFRAC = {"cantorapprox.contfrac"}
SPARSE = {"cantorapprox.sparse"}
XI = ["--tau", "3", "--terms", "4"]

# every command (cf and exponent on --x xi), and cf and exponent on the other
# kinds of --x, with the family modules each runs
COMMANDS = {
    "measure": (["measure", "--window", "0:1"], set()),
    "measure --precision-budget": (["measure", "--window", "0:1", "--precision-budget", "3"],
                                   set()),
    "layer": (["layer", "--psi", "pow:2", "--n", "3"], LAYERS),
    "pairwise": (["pairwise", "--psi", "pow:2", "--m", "1", "--n", "2"], LAYERS),
    "quasi-scan": (["quasi-scan", "--psi", "pow:2", "--nmax", "3"], LAYERS),
    "series": (["series", "--psi", "pow:2", "--f", "pow:gamma", "--nmax", "5"], LAYERS),
    "tail": (["tail", "--psi", "pow:2", "--f", "pow:gamma", "--n0", "2", "--nmax", "5"],
             LAYERS),
    "bc-ratio": (["bc-ratio", "--psi", "pow:2", "--q", "3"], LAYERS),
    "dim-estimate": (["dim-estimate", "--tau", "2", "--n", "2"], LAYERS),
    "xi-build": (["xi-build", *XI], CONTFRAC | SPARSE),
    "xi-verify": (["xi-verify", *XI], CONTFRAC | SPARSE),
    "cf": (["cf", "--x", "xi", *XI, "--depth", "10"], CONTFRAC | SPARSE),
    "cf --x golden": (["cf", "--x", "golden", "--depth", "10"], CONTFRAC | SPARSE),
    "cf --x gamma": (["cf", "--x", "gamma", "--depth", "10"], CONTFRAC | SPARSE),
    "exponent": (["exponent", "--x", "xi", *XI, "--depth", "20"], CONTFRAC | SPARSE),
    "exponent --x sqrt:1/2": (["exponent", "--x", "sqrt:1/2", "--depth", "20"],
                              CONTFRAC | SPARSE),
    "cf-interval": (["cf-interval", "--quotients", "1,1", "--depth", "4"], set()),
    "full-cover": (["full-cover", "--n", "3"], set()),
}
# what no command and no parser loads: the stdlib modules behind the argv
# parser and the report writer, which are the package's own, and those behind
# generated value types
NEVER_LOADED = {"argparse", "json", "gettext", "locale", "dataclasses", "inspect"}
HANDLERS = {"cantorapprox.cli_layers", "cantorapprox.cli_contfrac"}
# what neither the parser nor the set-only commands may load
NOT_IN_SET_ONLY = FAMILIES | HANDLERS | {"cantorapprox.enclosures"}

# prints the exit code, then every module the statement after `before` loaded
PROBE = """
import os, sys
before = set(sys.modules)
{statement}
print(code, *sorted(set(sys.modules) - before))
"""


def _loaded(statement: str, *argv: str) -> tuple[str, set]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(statement=statement), *argv],
                          capture_output=True, text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    code, *modules = proc.stdout.split()
    return code, set(modules)


def _run(argv: list[str]) -> tuple[str, set]:
    return _loaded("from cantorapprox.cli import main\n"
                   "code = main(sys.argv[1:] + ['--out', os.devnull])", *argv)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_only_its_family(name):
    argv, family = COMMANDS[name]
    code, loaded = _run(argv)
    assert code == "0"
    assert not loaded & NEVER_LOADED
    assert loaded & FAMILIES == family
    library = {m for m in loaded if m.partition(".")[0] == "cantorapprox"}
    assert library - HANDLERS <= CORE | family


# the four commands of the continued-fraction family, cf and exponent on --x xi
# and on --x golden, load one handler module
@pytest.mark.parametrize("name", ["xi-build", "xi-verify", "cf", "exponent", "cf --x golden"])
def test_a_command_loads_only_its_handler_modules(name):
    _, loaded = _run(COMMANDS[name][0])
    assert {m for m in loaded if m.startswith("cantorapprox.cli_")} == {
        "cantorapprox.cli_contfrac"}


@pytest.mark.parametrize("name", ["measure", "measure --precision-budget", "full-cover",
                                  "cf-interval"])
def test_set_only_commands_load_no_enclosures_and_no_handler_module(name):
    _, loaded = _run(COMMANDS[name][0])
    assert not loaded & NOT_IN_SET_ONLY


def test_parser_loads_no_enclosures_and_no_handler_module():
    _, loaded = _loaded("from cantorapprox.cli import build_parser\nbuild_parser()\ncode = 0")
    assert "cantorapprox.cli" in loaded
    assert not loaded & (NOT_IN_SET_ONLY | NEVER_LOADED)


# runs `module` as `python -m` does, counting the executions of cli.py
RUN_AS_MAIN = """
import runpy
runs = []
sys.addaudithook(lambda event, args: event == "exec"
                 and runs.append(getattr(args[0], "co_filename", "")))
try:
    runpy.run_module(%r, run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = f"{exc.code}:{sum(f.endswith(os.path.join('cantorapprox', 'cli.py')) for f in runs)}"
"""


def test_python_dash_m_cantorapprox_runs_the_cli_once():
    argv = ["cf", "--x", "golden", "--depth", "5"]
    code, loaded = _loaded(RUN_AS_MAIN % "cantorapprox", *argv, "--out", os.devnull)
    assert code == "0:1"
    assert "cantorapprox.cli" in loaded
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    reports = [subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, timeout=120, check=True,
                              env=dict(os.environ, PYTHONPATH=path)).stdout
               for module in ("cantorapprox", "cantorapprox.cli")]
    assert reports[0] == reports[1] and '"command": "cf"' in reports[0]


def test_package_loads_submodules_on_first_use():
    _, loaded = _loaded("import cantorapprox\ncode = 0")
    assert {m for m in loaded if m.startswith("cantorapprox.")} == set()
    _, loaded = _loaded("from cantorapprox import MissingDigitSet\ncode = 0")
    assert "cantorapprox.digitsets" in loaded and not loaded & FAMILIES


def test_every_exported_name_resolves():
    namespace = {}
    exec("from cantorapprox import *", namespace)
    for name in cantorapprox.__all__:
        value = getattr(cantorapprox, name)
        assert namespace[name] is value
        assert value.__module__.startswith("cantorapprox.")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        cantorapprox.no_such_name
    with pytest.raises(ImportError):
        from cantorapprox import no_such_name  # noqa: F401
