"""What the package and a command-line call load, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantorapprox

SRC = Path(__file__).resolve().parent.parent / "src"
FAMILIES = {"cantorapprox.layers", "cantorapprox.contfrac", "cantorapprox.sparse"}

# one command per family, and the family modules it runs
COMMANDS = {
    "cf-interval": (["cf-interval", "--quotients", "1,1", "--depth", "4"],
                    {"cantorapprox.contfrac"}),
    "exponent": (["exponent", "--x", "xi", "--tau", "3", "--terms", "4", "--depth", "20"],
                 {"cantorapprox.contfrac", "cantorapprox.sparse"}),
    "layer": (["layer", "--psi", "pow:2", "--n", "3"], {"cantorapprox.layers"}),
    "full-cover": (["full-cover", "--n", "3"], set()),
}

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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_only_its_family(name):
    argv, family = COMMANDS[name]
    code, loaded = _loaded("from cantorapprox.cli import main\n"
                           "code = main(sys.argv[1:] + ['--out', os.devnull])", *argv)
    assert code == "0"
    assert not loaded & {"dataclasses", "inspect"}
    assert loaded & FAMILIES == family


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
