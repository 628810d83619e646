"""Batch command-line front end.

Every run emits a deterministic report: identical argv produces
byte-identical output (keys sorted, rationals as exact num/den strings
with decimal renderings).  Wall-clock timing is only included with
--timing, which is documented as non-deterministic.

This module holds the dispatch, the options every subcommand shares, the
parse helpers more than one family uses, and the handlers of measure and
full-cover.  The other handlers live in one module per command family
(`cli_layers`, `cli_contfrac`, `cli_sparse` and `cli_xi`), which
`run_command` imports on first use, so that a call compiles only the
code of its command.  The enclosure layer is imported the same way, and
only for --precision-budget.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from importlib import import_module
from typing import Optional

from . import calibration, render
from .digitsets import MissingDigitSet, cantor_measure, full_cover_check
from .errors import InputError, PrecisionError, ResourceBudgetError
from .intervals import RatInterval

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def parse_set(text: str) -> MissingDigitSet:
    try:
        base_s, digits_s = text.split(":")
        return MissingDigitSet(int(base_s), tuple(int(d) for d in digits_s.split(",")))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad set spec {text!r}; expected BASE:D1,D2,...") from exc


def parse_window(text: str) -> RatInterval:
    try:
        lo_s, hi_s = text.split(":")
    except ValueError as exc:
        raise InputError(f"bad window {text!r}; expected LO:HI") from exc
    return RatInterval.make(parse_fraction(lo_s), parse_fraction(hi_s))


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (results, csv_rows)
# ---------------------------------------------------------------------------

def cmd_measure(args, dset):
    iv = parse_window(args.window)
    mv = cantor_measure(dset, iv)
    results = {"window": {"lo": render.rational_json(iv.lo),
                          "hi": render.rational_json(iv.hi)},
               "measure": render.value_json(mv)}
    rows = [{"lo": render.rat_str(iv.lo), "hi": render.rat_str(iv.hi),
             "measure": render.value_csv(mv), "approx_lossy": render.lossy_float(mv.lo)}]
    return results, rows


def cmd_full_cover(args, dset):
    window = parse_window(args.window)
    ok = full_cover_check(dset, args.n, window)
    results = {"n": args.n, "window": {"lo": render.rational_json(window.lo),
                                       "hi": render.rational_json(window.hi)},
               "full_cover": ok}
    rows = [{"n": args.n, "lo": render.rat_str(window.lo),
             "hi": render.rat_str(window.hi), "full_cover": ok}]
    return results, rows


# the module of every other command's handler `cmd_<name>`; cf and exponent
# on --x xi run in `cli_xi`, so the other values of --x load no sparse numbers
FAMILY_MODULES = {
    "layer": "cli_layers", "pairwise": "cli_layers", "quasi-scan": "cli_layers",
    "series": "cli_layers", "tail": "cli_layers", "bc-ratio": "cli_layers",
    "dim-estimate": "cli_layers",
    "xi-build": "cli_sparse", "xi-verify": "cli_xi",
    "cf": "cli_contfrac", "exponent": "cli_contfrac", "cf-interval": "cli_contfrac",
}


def _handler_of(args):
    """The handler of args.command, importing its family module on first use."""
    name = "cmd_" + args.command.replace("-", "_")
    module = FAMILY_MODULES.get(args.command)
    if module is None:
        return globals()[name]
    if getattr(args, "x", None) == "xi":
        module = "cli_xi"
    return getattr(import_module(f".{module}", __package__), name)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--set", default="3:0,2", help="BASE:D1,D2,... (default middle thirds)")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; every command runs serially")
    p.add_argument("--precision-budget", type=int, default=None,
                   help="override the enclosure refinement step cap")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing (non-deterministic)")


def _add_psi(p):
    p.add_argument("--psi", required=True, help="pow:T | powlog:A,B | table:n=v,...")
    p.add_argument("--trunc", default=None, help="truncation constant c for min(c/r, psi)")


def _add_window(p):
    p.add_argument("--window", default="0:1", help="LO:HI window interval")
    p.add_argument("--coprime", action=argparse.BooleanOptionalAction, default=True)


def _add_xi(p):
    p.add_argument("--rule", choices=("pow", "factorial"), default="pow")
    p.add_argument("--tau", default="3")
    p.add_argument("--lam", default="1")
    p.add_argument("--coeff", type=int, default=2)
    p.add_argument("--terms", type=int, default=5)
    p.add_argument("--base-override", type=int, default=None,
                   help="base for the sparse number (defaults to 3)")


_N = ("--n", {"type": int, "required": True})
_NMAX = ("--nmax", {"type": int, "required": True})
_DEPTH = ("--depth", {"type": int, "required": True})

# each subcommand's shared option groups, then its own options, in help order
SUBCOMMAND_OPTIONS = {
    "measure": ((), [("--window", {"required": True, "help": "LO:HI interval to measure"})]),
    "layer": ((_add_psi, _add_window), [_N]),
    "pairwise": ((_add_psi, _add_window), [("--m", {"type": int, "required": True}), _N]),
    "quasi-scan": ((_add_psi, _add_window), [_NMAX, ("--mmin", {"type": int, "default": 1})]),
    "series": ((_add_psi,), [("--f", {"required": True, "help": "pow:S | table:n=v,..."}),
                             _NMAX]),
    "tail": ((_add_psi,), [("--f", {"required": True}),
                           ("--n0", {"type": int, "required": True}), _NMAX]),
    "bc-ratio": ((_add_psi, _add_window), [("--q", {"type": int, "required": True})]),
    "dim-estimate": ((), [("--tau", {"required": True}), _N,
                          ("--coprime", {"action": argparse.BooleanOptionalAction,
                                         "default": True})]),
    "xi-build": ((_add_xi,), []),
    "xi-verify": ((_add_xi,), [
        ("--depth", {"type": int, "default": None,
                     "help": "membership depth (default: the last exponent)"}),
        ("--cf-depth", {"type": int, "default": 60,
                        "help": "continued-fraction depth, doubled while a Legendre-"
                                "certified truncation is not among the convergents"})]),
    "cf": ((_add_xi,), [("--x", {"required": True,
                                 "help": "golden | gamma | sqrt:N | xi | rational"}), _DEPTH]),
    "exponent": ((_add_xi,), [("--x", {"required": True}), _DEPTH,
                              ("--min-q", {"type": int, "default": 2})]),
    "cf-interval": ((), [("--quotients", {"required": True,
                                          "help": "comma-separated positive integers"}),
                         _DEPTH]),
    "full-cover": ((), [_N, ("--window", {"default": "0:1"})]),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, or with only `command`'s."""
    top = argparse.ArgumentParser(prog="cantorapprox",
                                  description=__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)
    for name in SUBCOMMAND_OPTIONS if command is None else (command,):
        groups, options = SUBCOMMAND_OPTIONS[name]
        p = subs.add_parser(name)
        _add_common(p)
        for add_group in groups:
            add_group(p)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return top


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice key=value file entries in as flags ahead of explicit ones."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise InputError("--config needs a path")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    extra: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.lower() in ("true", "false") and key in ("coprime", "timing"):
            extra.append(f"--{key}" if value.lower() == "true" else f"--no-{key}")
        else:
            extra.extend([f"--{key}", value])
    return argv[:1] + extra + argv[1:]


def _calibration_payload() -> dict:
    env = {str(k): {"lo": render.rational_json(v[0]), "hi": render.rational_json(v[1])}
           for k, v in calibration.MU_RATIO_ENVELOPE.items()}
    return {"c_fix": render.rational_json(calibration.C_FIX),
            "mu_ratio_envelope": env}


def run_command(argv: list[str]) -> tuple[str, Optional[str]]:
    """Returns (report text, output path or None)."""
    argv = _apply_config_file(argv)
    # the named subcommand is argv[0]; anything else (help, an unknown
    # command) needs the full parser and its list of choices
    named = argv[0] if argv and argv[0] in SUBCOMMAND_OPTIONS else None
    args = build_parser(named).parse_args(argv)
    if args.precision_budget is not None and args.precision_budget < 1:
        raise InputError("precision budget must be >= 1")
    dset = parse_set(args.set)
    handler = _handler_of(args)
    saved_steps = None
    if args.precision_budget is not None:
        from . import enclosures
        saved_steps = enclosures.MAX_REFINE_STEPS
        enclosures.MAX_REFINE_STEPS = args.precision_budget
    try:
        start = time.monotonic()
        results, rows = handler(args, dset)
        elapsed_ms = int((time.monotonic() - start) * 1000)
    finally:
        if saved_steps is not None:
            enclosures.MAX_REFINE_STEPS = saved_steps
    if args.output == "csv":
        return render.dump_csv(rows), args.out
    echo = {k: (v if isinstance(v, (int, bool, float)) or v is None else str(v))
            for k, v in sorted(vars(args).items())
            if k not in ("config", "out", "output", "timing")}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config_echo": echo,
        "results": results,
        "calibration_constants_used": _calibration_payload(),
        "timing_ms": elapsed_ms if args.timing else None,
    }
    return render.dump_report(report), args.out


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        text, out_path = run_command(argv)
        if out_path:
            _write(out_path, text)
        else:
            sys.stdout.write(text)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceBudgetError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
