"""Batch command-line front end.

Every run emits a deterministic report: identical argv produces
byte-identical output (keys sorted, rationals as exact num/den strings
with decimal renderings).  Wall-clock timing is only included with
--timing, which is documented as non-deterministic.

This module holds the dispatch, the options every subcommand shares, the
parse helpers more than one family uses, and the handlers of the
commands that need only the digit set and rational intervals: measure,
full-cover and cf-interval.  The other handlers live in one module per
command family (`cli_layers`, `cli_contfrac` for cf and exponent on every
--x, `cli_sparse` for xi-build and `cli_xi` for xi-verify), which
`run_command` imports on first use, so that a call compiles only the
code of its command.  Each call runs in its own copy of the context,
where --precision-budget sets the `steps` of `errors.BUDGET`, so a
budget never reaches the next call.
"""

from __future__ import annotations

import re
import sys
import time
from contextvars import copy_context
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace
from typing import Optional

from . import render
from .digitsets import (MissingDigitSet, cantor_measure, full_cover_check,
                        prefix_interval_disjoint_from)
from .errors import (BUDGET, Budget, InputError, PrecisionError, ResourceBudgetError,
                     check_bits, power_bits)
from .intervals import RatInterval, cf_prefix_interval

SCHEMA_VERSION = "2"


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

# a decimal with an exponent as `Fraction` reads it, such as 1.5e-7, .5E+3 or 1_000e2
_EXPONENT = (r"(?i)\s*[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
             r"e([-+]?\d+(?:_\d+)*)\s*")


def parse_fraction(text: str) -> Fraction:
    """The rational `Fraction` reads from text, whose power of 10 is held to
    the bit budget before `Fraction` builds it."""
    try:
        if decimal := re.fullmatch(_EXPONENT, text):
            e = abs(int(decimal[1]))
            check_bits(power_bits(10, e), "10^{}", e)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def parse_set(text: str) -> MissingDigitSet:
    try:
        base_s, digits_s = text.split(":")
        base, digits = int(base_s), tuple(int(d) for d in digits_s.split(","))
    except ValueError as exc:
        raise InputError(f"bad set spec {text!r}; expected BASE:D1,D2,...") from exc
    return MissingDigitSet(base, digits)


def parse_window(text: str) -> RatInterval:
    try:
        lo_s, hi_s = text.split(":")
    except ValueError as exc:
        raise InputError(f"bad window {text!r}; expected LO:HI") from exc
    return RatInterval.make(parse_fraction(lo_s), parse_fraction(hi_s))


def parse_quotients(text: str) -> list[int]:
    try:
        return [int(a) for a in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad quotients {text!r}; expected comma-separated positive "
                         "integers") from exc


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (results, csv_rows) of numbers,
# which `run_command` renders in the format asked for (see `render`)
# ---------------------------------------------------------------------------

def cmd_measure(args, dset):
    iv = parse_window(args.window)
    mv = cantor_measure(dset, iv)
    results = {"window": {"lo": iv.lo, "hi": iv.hi}, "measure": mv}
    rows = [{"lo": iv.lo, "hi": iv.hi, "measure": mv,
             "approx_lossy": render.lossy_float(mv.lo)}]
    return results, rows


def cmd_full_cover(args, dset):
    window = parse_window(args.window)
    ok = full_cover_check(dset, args.n, window)
    results = {"n": args.n, "window": {"lo": window.lo, "hi": window.hi}, "full_cover": ok}
    rows = [{"n": args.n, "lo": window.lo, "hi": window.hi, "full_cover": ok}]
    return results, rows


def cmd_cf_interval(args, dset):
    quotients = parse_quotients(args.quotients)
    pi = cf_prefix_interval(quotients)
    disjoint = prefix_interval_disjoint_from(pi, dset, args.depth)
    results = {
        "quotients": quotients,
        "interval": {"lo": pi.lo, "hi": pi.hi,
                     "lo_closed": pi.lo_closed, "hi_closed": pi.hi_closed},
        "depth": args.depth,
        "disjoint_from_set": disjoint,
        "verdict": "not_in_set" if disjoint else "undetermined_at_depth",
    }
    rows = [{"quotients": quotients, "lo": pi.lo, "hi": pi.hi, "lo_closed": pi.lo_closed,
             "hi_closed": pi.hi_closed, "disjoint_from_set": disjoint}]
    return results, rows


# the module of every other command's handler `cmd_<name>`
FAMILY_MODULES = {
    "layer": "cli_layers", "pairwise": "cli_layers", "quasi-scan": "cli_layers",
    "series": "cli_layers", "tail": "cli_layers", "bc-ratio": "cli_layers",
    "dim-estimate": "cli_layers",
    "xi-build": "cli_sparse", "xi-verify": "cli_xi",
    "cf": "cli_contfrac", "exponent": "cli_contfrac",
}


def _handler_of(args):
    """The handler of args.command, importing its family module on first use."""
    name = "cmd_" + args.command.replace("-", "_")
    module = FAMILY_MODULES.get(args.command)
    if module is None:
        return globals()[name]
    return getattr(import_module(f".{module}", __package__), name)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# An option is (flag, kind, default, help).  Its kind is str or int, a tuple
# of the values it accepts, FLAG (--name alone, True when given) or TOGGLE
# (--name / --no-name).
FLAG, TOGGLE = "flag", "toggle"
REQUIRED = ...  # the default of an option that every call must give

COMMON_OPTIONS = (
    ("--set", str, "3:0,2", "BASE:D1,D2,... (default middle thirds); xi is built in BASE"),
    ("--config", str, None, "key=value config file"),
    ("--out", str, None, "output path (default stdout)"),
    ("--output", ("json", "csv"), "json", None),
    ("--workers", int, 1, "accepted for compatibility; every command runs serially"),
    ("--precision-budget", int, None, "override the enclosure refinement step cap"),
    ("--timing", FLAG, False, "include wall-clock timing (non-deterministic)"),
)
_PSI = (("--psi", str, REQUIRED, "pow:T | powlog:A,B | table:n=v,..."),
        ("--trunc", str, None, "truncation constant c for min(c/r, psi)"))
_WINDOW = (("--window", str, "0:1", "LO:HI window interval"),
           ("--coprime", TOGGLE, True, None))
_XI = (("--rule", ("pow", "factorial"), "pow", None),
       ("--tau", str, "3", None),
       ("--lam", str, "1", None),
       ("--coeff", int, None, "the digit c of xi (default: the least nonzero digit of "
                              "--set prime to its base)"),
       ("--terms", int, 5, None))
_N = ("--n", int, REQUIRED, None)
_NMAX = ("--nmax", int, REQUIRED, None)
_DEPTH = ("--depth", int, REQUIRED, None)
_X = ("--x", str, REQUIRED, "golden | gamma | sqrt:Q (0<Q<1) | xi | rational")

# each subcommand's options after COMMON_OPTIONS, in help order
SUBCOMMAND_OPTIONS = {
    "measure": (("--window", str, REQUIRED, "LO:HI interval to measure"),),
    "layer": _PSI + _WINDOW + (_N,),
    "pairwise": _PSI + _WINDOW + (("--m", int, REQUIRED, None), _N),
    "quasi-scan": _PSI + _WINDOW + (_NMAX, ("--mmin", int, 1, None)),
    "series": _PSI + (("--f", str, REQUIRED, "pow:S | table:n=v,..."), _NMAX),
    "tail": _PSI + (("--f", str, REQUIRED, None), ("--n0", int, REQUIRED, None), _NMAX),
    "bc-ratio": _PSI + _WINDOW + (("--q", int, REQUIRED, None),),
    "dim-estimate": (("--tau", str, REQUIRED, None), _N, ("--coprime", TOGGLE, True, None)),
    "xi-build": _XI,
    "xi-verify": _XI + (
        ("--depth", int, None, "membership depth (default: the last exponent)"),),
    "cf": _XI + (_X, _DEPTH),
    "exponent": _XI + (_X, _DEPTH, ("--min-q", int, 2, None)),
    "cf-interval": (("--quotients", str, REQUIRED, "comma-separated positive integers"),
                    _DEPTH),
    "full-cover": (_N, ("--window", str, "0:1", None)),
}

_HELP_FLAGS = {"-h": None, "--help": None}
# a token of this form is a negative number, read as a value
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


class _ArgvError(Exception):
    """A malformed command line; the parser prints its usage and this message."""


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _spec(option) -> str:
    """The option as the usage line shows it."""
    flag, kind = option[:2]
    if kind == FLAG:
        return flag
    if kind == TOGGLE:
        return f"{flag} | --no-{flag[2:]}"
    return f"{flag} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                         else _dest(flag).upper())


def _read_option(token: str, flags: dict):
    """What `token` is among `flags`: None for a value, (None, None) for an
    unknown option, else (flag, the text after = or None)."""
    if not token.startswith("-"):
        return None
    if token in flags:
        return token, None
    if len(token) == 1:
        return None
    prefix, eq, value = token.partition("=")
    if eq and prefix in flags:
        return prefix, value
    if token[1] == "-":
        matches = [(flag, value if eq else None) for flag in flags if flag.startswith(prefix)]
    else:  # -h, the one short flag, runs into the text after it, as in -hh
        matches = [(token[:2], token[2:])] if token[:2] in flags else []
    if len(matches) > 1:
        raise _ArgvError(f"ambiguous option: {token} could match "
                         + ", ".join(flag for flag, _ in matches))
    if matches:
        return matches[0]
    if re.match(_NEGATIVE_NUMBER, token) or " " in token:
        return None
    return None, None


def _refuse_value(flag: str, value: Optional[str], option) -> None:
    """Reject text after = on an option that takes no value; -hh is -h twice."""
    if value is None:
        return
    rest = value.lstrip("h") if flag == "-h" else value
    if rest or not value:
        name = "-h/--help" if option is None else _spec(option).replace(" | ", "/")
        raise _ArgvError(f"argument {name}: ignored explicit argument {rest!r}")


def _convert(option, text: str):
    flag, kind = option[:2]
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _ArgvError(f"argument {flag}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        raise _ArgvError(f"argument {flag}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
    return text


def _config_flags(path: str, options) -> list[str]:
    """The entries of a key=value config file, as flags of `options`: true
    and false give --key and nothing for a FLAG, --key and --no-key for a
    TOGGLE, and any other value --key=value, so that a value starting
    with - reads as given.  A line with no = or an empty key is refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    kinds = {option[0][2:]: option[1] for option in options}
    flags: list[str] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not (eq and key):
            raise InputError(f"config line {number}: {line!r} is not KEY=VALUE")
        kind = kinds.get(key)
        if kind in (FLAG, TOGGLE) and value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(f"--{key}")
            elif kind == TOGGLE:
                flags.append(f"--no-{key}")
        else:
            flags.append(f"--{key}={value}")
    return flags


class Parser:
    """The command line: a subcommand, then its options.

    An option is given as `--flag value`, `--flag=value` or with any unique
    prefix of its flag, and the last of repeated flags wins.  The entries
    of a --config file are read ahead of the explicit flags, which win.  A
    bad command line prints the usage and one error line and raises
    SystemExit(2); -h/--help prints the help and raises SystemExit(0).
    """

    def parse_args(self, argv: list[str]) -> SimpleNamespace:
        """`command` and one attribute per option of the command."""
        try:
            command, rest, extras = self._split_command(argv)
        except _ArgvError as exc:
            raise self._fail(None, exc) from None
        try:
            values, more = self._read_options(command, rest)
        except _ArgvError as exc:
            raise self._fail(command, exc) from None
        if extras or more:
            raise self._fail(None, "unrecognized arguments: " + " ".join(extras + more))
        return SimpleNamespace(command=command, **values)

    def _split_command(self, argv: list[str]) -> tuple[str, list[str], list[str]]:
        """The subcommand, the tokens after it and the unknown options before it."""
        extras = []
        for i, token in enumerate(argv):
            if token == "--":
                if i + 1 < len(argv):  # a "--" with tokens after it names the subcommand
                    break
                continue
            read = _read_option(token, _HELP_FLAGS)
            if read is None:
                break
            if read[0] is None:
                extras.append(token)
            else:
                _refuse_value(read[0], read[1], None)
                raise self._help(None)
        else:
            raise _ArgvError("the following arguments are required: command")
        if token not in SUBCOMMAND_OPTIONS:
            raise _ArgvError(f"argument command: invalid choice: {token!r} "
                             f"(choose from {', '.join(map(repr, SUBCOMMAND_OPTIONS))})")
        return token, argv[i + 1:], extras

    def _read_options(self, command: str, argv: list[str]) -> tuple[dict, list[str]]:
        """The option values of `command`, and the tokens that are no option."""
        options = COMMON_OPTIONS + SUBCOMMAND_OPTIONS[command]
        flags = dict(_HELP_FLAGS)
        for option in options:
            flags[option[0]] = option
            if option[1] == TOGGLE:
                flags["--no-" + option[0][2:]] = option
        values, extras = self._walk(command, options, flags, argv)
        if values["config"] is not None:
            values, extras = self._walk(command, options, flags,
                                        _config_flags(values["config"], options) + argv)
        missing = [o[0] for o in options if values[_dest(o[0])] is REQUIRED]
        if missing:
            raise _ArgvError("the following arguments are required: " + ", ".join(missing))
        return values, extras

    def _walk(self, command: str, options, flags: dict, argv: list[str]):
        # every token before "--" is read first, so an ambiguous prefix
        # fails before any value is checked; no token from "--" on is an
        # option
        end = argv.index("--") if "--" in argv else len(argv)
        reads = [_read_option(token, flags) for token in argv[:end]]
        values = {_dest(o[0]): o[2] for o in options}
        extras = []
        i = 0
        while i < end:
            read = reads[i]
            i += 1
            if read is None or read[0] is None:
                extras.append(argv[i - 1])
                continue
            flag, value = read
            option = flags[flag]
            if option is None or option[1] in (FLAG, TOGGLE):
                _refuse_value(flag, value, option)
                if option is None:
                    raise self._help(command)
                values[_dest(option[0])] = option[1] == FLAG or not flag.startswith("--no-")
                continue
            if value is None:
                if i == end or reads[i] is not None:
                    raise _ArgvError(f"argument {option[0]}: expected one argument")
                value = argv[i]
                i += 1
            values[_dest(option[0])] = _convert(option, value)
        return values, extras + argv[end:]

    def _usage(self, command: Optional[str]) -> str:
        if command is None:
            return f"usage: cantorapprox [-h] {{{','.join(SUBCOMMAND_OPTIONS)}}} ...\n"
        return " ".join([f"usage: cantorapprox {command} [-h]"] + [
            _spec(o) if o[2] is REQUIRED else f"[{_spec(o)}]"
            for o in COMMON_OPTIONS + SUBCOMMAND_OPTIONS[command]]) + "\n"

    def _help(self, command: Optional[str]) -> SystemExit:
        options = () if command is None else COMMON_OPTIONS + SUBCOMMAND_OPTIONS[command]
        sys.stdout.write(f"{self._usage(command)}\n{__doc__.splitlines()[0]}\n\n"
                         "  -h, --help  show this help message and exit\n" + "".join(
                             f"  {_spec(o)}  {o[3] or ''}".rstrip() + "\n" for o in options))
        return SystemExit(0)

    def _fail(self, command: Optional[str], message) -> SystemExit:
        prog = "cantorapprox" if command is None else f"cantorapprox {command}"
        sys.stderr.write(f"{self._usage(command)}{prog}: error: {message}\n")
        return SystemExit(2)


def build_parser() -> Parser:
    """The CLI parser, with every subcommand."""
    return Parser()


def run_command(argv: list[str]) -> tuple[str, Optional[str]]:
    """Returns (report text, output path or None)."""
    args = build_parser().parse_args(argv)
    if args.precision_budget is not None and args.precision_budget < 1:
        raise InputError("precision budget must be >= 1")
    dset = parse_set(args.set)
    handler = _handler_of(args)
    context = copy_context()  # the budget set here ends with the call
    if args.precision_budget is not None:
        budget = BUDGET.get()
        context.run(BUDGET.set, Budget(args.precision_budget, budget.bits, budget.cells))
    start = time.monotonic()
    results, rows = context.run(handler, args, dset)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    if args.output == "csv":
        return render.dump_csv(rows), args.out
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("config", "out", "output", "timing")}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config_echo": echo,
        "results": results,
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
