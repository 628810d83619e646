"""What the package and a command-line call load, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantorapprox

SRC = Path(__file__).resolve().parent.parent / "src"
FAMILIES = {"cantorapprox.layers", "cantorapprox.contfrac", "cantorapprox.sparse"}
# every library module a command loaded before the handlers moved out of
# cli.py, besides its family modules
CORE = {"cantorapprox", "cantorapprox.calibration", "cantorapprox.cli",
        "cantorapprox.digitsets", "cantorapprox.enclosures", "cantorapprox.errors",
        "cantorapprox.intervals", "cantorapprox.records", "cantorapprox.render"}
LAYERS = {"cantorapprox.layers"}
CONTFRAC = {"cantorapprox.contfrac"}
SPARSE = {"cantorapprox.sparse"}
XI = ["--tau", "3", "--terms", "4"]

# every command (cf and exponent on --x xi), and cf and exponent on the other
# kinds of --x, with the family modules each runs
COMMANDS = {
    "measure": (["measure", "--window", "0:1"], set()),
    "layer": (["layer", "--psi", "pow:2", "--n", "3"], LAYERS),
    "pairwise": (["pairwise", "--psi", "pow:2", "--m", "1", "--n", "2"], LAYERS),
    "quasi-scan": (["quasi-scan", "--psi", "pow:2", "--nmax", "3"], LAYERS),
    "series": (["series", "--psi", "pow:2", "--f", "pow:gamma", "--nmax", "5"], LAYERS),
    "tail": (["tail", "--psi", "pow:2", "--f", "pow:gamma", "--n0", "2", "--nmax", "5"],
             LAYERS),
    "bc-ratio": (["bc-ratio", "--psi", "pow:2", "--q", "3"], LAYERS),
    "dim-estimate": (["dim-estimate", "--tau", "2", "--n", "2"], LAYERS),
    "xi-build": (["xi-build", *XI], SPARSE),
    "xi-verify": (["xi-verify", *XI, "--cf-depth", "25"], CONTFRAC | SPARSE),
    "cf": (["cf", "--x", "xi", *XI, "--depth", "10"], CONTFRAC | SPARSE),
    "cf --x golden": (["cf", "--x", "golden", "--depth", "10"], CONTFRAC),
    "cf --x gamma": (["cf", "--x", "gamma", "--depth", "10"], CONTFRAC),
    "exponent": (["exponent", "--x", "xi", *XI, "--depth", "20"], CONTFRAC | SPARSE),
    "exponent --x sqrt:1/2": (["exponent", "--x", "sqrt:1/2", "--depth", "20"], CONTFRAC),
    "cf-interval": (["cf-interval", "--quotients", "1,1", "--depth", "4"], CONTFRAC),
    "full-cover": (["full-cover", "--n", "3"], set()),
}
HANDLERS = {"cantorapprox.cli_layers", "cantorapprox.cli_contfrac",
            "cantorapprox.cli_sparse", "cantorapprox.cli_xi"}
# what neither the parser nor measure and full-cover may load
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
    assert not loaded & {"dataclasses", "inspect"}
    assert loaded & FAMILIES == family
    library = {m for m in loaded if m.partition(".")[0] == "cantorapprox"}
    assert library - HANDLERS <= CORE | family


@pytest.mark.parametrize("name", ["measure", "full-cover"])
def test_set_only_commands_load_no_enclosures_and_no_handler_module(name):
    _, loaded = _run(COMMANDS[name][0])
    assert not loaded & NOT_IN_SET_ONLY


def test_parser_loads_no_enclosures_and_no_handler_module():
    _, loaded = _loaded("from cantorapprox.cli import build_parser\nbuild_parser()\ncode = 0")
    assert "cantorapprox.cli" in loaded
    assert not loaded & NOT_IN_SET_ONLY


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
