"""Deterministic report rendering: exact rationals first, decimals second.

Every decimal string is derived from the exact rational by integer
arithmetic (round half away from zero, 15 significant digits), so two
runs can never disagree in the last bit.  Floats appear only in the
clearly-labelled lossy CSV convenience column.  The command handlers return
numbers, which only `dump_report` and `dump_csv` turn into text.  Only
`int_str` and `check_int` read the int-to-str limit.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence

from .digitsets import CantorMeasureValue
from .errors import ResourceBudgetError

DECIMAL_SIG_DIGITS = 15

# integers beyond this bit size are summarized, not printed (int->str is
# quadratic and capped by the interpreter)
RENDER_INT_BITS = 12_000

_TEN_SIG = 10 ** DECIMAL_SIG_DIGITS
_TEN_SIG_1 = 10 ** (DECIMAL_SIG_DIGITS - 1)


def decimal_str(x: Fraction) -> str:
    """Positional decimal, DECIMAL_SIG_DIGITS significant digits, half away from zero.

    `x` is a Fraction or an int; only its numerator and denominator are read.
    """
    sig = DECIMAL_SIG_DIGITS
    num, den = x.numerator, x.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    # log2(num/den) lies within 1 of the difference of the bit lengths, and
    # 1233/4096 is log10(2) to 5 digits, so e is the decimal exponent or
    # one off it; q then has sig digits exactly when 10^e <= num/den < 10^(e+1)
    e = (num.bit_length() - den.bit_length()) * 1233 >> 12
    while True:
        shift = sig - 1 - e
        scaled_den = den if shift >= 0 else den * 10 ** -shift
        q, r = divmod(num * 10 ** shift if shift >= 0 else num, scaled_den)
        if q >= _TEN_SIG:
            e += 1
        elif q < _TEN_SIG_1:
            e -= 1
        else:
            break
    if 2 * r >= scaled_den:
        q += 1
    digits = str(q)
    if len(digits) > sig:  # carry overflowed into a new leading digit
        digits = digits[:sig]
        e += 1
    if -6 <= e <= sig + 2:
        if e >= sig - 1:
            return sign + digits + "0" * (e - sig + 1)
        if e >= 0:
            return sign + digits[:e + 1] + "." + digits[e + 1:]
        return sign + "0." + "0" * (-e - 1) + digits
    return sign + digits[0] + "." + digits[1:] + "e" + str(e)


def int_str(n: int) -> str:
    """str(n), or ResourceBudgetError past the int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        raise ResourceBudgetError("the report holds an integer of more than "
                                  f"{sys.get_int_max_str_digits()} digits, the "
                                  "int-to-str limit") from None


def check_int(n: int) -> int:
    """n, or `int_str`'s refusal of it past the int-to-str limit d, tested
    only past 3.3 d bits (below that, n < 10^d)."""
    if n.bit_length() > sys.get_int_max_str_digits() * 33 // 10:
        int_str(n)
    return n


def rat_str(fr: Fraction) -> str:
    """"num/den" of a Fraction or an int, or ResourceBudgetError past the
    int-to-str digit limit."""
    return f"{int_str(fr.numerator)}/{int_str(fr.denominator)}"


def rational_json(fr: Fraction) -> dict:
    return {"rat": rat_str(fr), "dec": decimal_str(fr)}


def _bounds(v) -> tuple[Fraction, Fraction]:
    """(lo, hi) of a Fraction or an int, a (lo, hi) pair or a CantorMeasureValue."""
    if isinstance(v, CantorMeasureValue):
        return v.lo, v.hi
    return v if isinstance(v, tuple) else (v, v)


def value_json(v) -> dict:
    """Exact-or-bounds value as exact and decimal bounds."""
    lo, hi = _bounds(v)
    return {"lo": rational_json(lo), "hi": rational_json(hi), "exact": lo == hi}


class Value(tuple):
    """An exact-or-bounds (lo, hi): JSON writes it by `value_json`, CSV by `value_csv`."""


class Digits(int):
    """An integer that a JSON report writes as a string of its digits."""


def lossy_float(fr: Fraction) -> float:
    try:
        return float(fr)
    except OverflowError:
        return float(decimal_str(fr).replace("e", "E"))


def value_csv(v) -> str:
    """Exact num/den string; bounds render as "lo..hi"."""
    lo, hi = _bounds(v)
    if lo == hi:
        return rat_str(lo)
    return f"{rat_str(lo)}..{rat_str(hi)}"


class _JsonEscapes(dict):
    """The `str.translate` table of JSON's ASCII-only string escapes: the
    ASCII characters are entries, the others are escaped on lookup."""

    def __missing__(self, c: int) -> str:
        if c < 0x10000:
            return f"\\u{c:04x}"
        c -= 0x10000
        return f"\\u{0xd800 | c >> 10:04x}\\u{0xdc00 | c & 0x3ff:04x}"


_ESCAPES = _JsonEscapes({c: chr(c) if 32 <= c < 127 else f"\\u{c:04x}" for c in range(128)})
_ESCAPES.update(str.maketrans({'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f",
                               "\n": "\\n", "\r": "\\r", "\t": "\\t"}))


def _json_str(s: str) -> str:
    """`s` as a JSON string literal, escaped to ASCII as json.dumps does."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + s.translate(_ESCAPES) + '"'


def _write_json(value, indent: str, out: list) -> None:
    """Append `value` to `out` as json.dumps(value, sort_keys=True, indent=2)
    would, nested `indent` deep, with each `Fraction`, `Value`,
    `CantorMeasureValue` and `Digits` in it rendered first.  Dict keys are
    str or int."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _json_str(key if isinstance(key, str) else int_str(key)) + ": ")
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (Value, CantorMeasureValue)):
        _write_json(value_json(value), indent, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, Fraction):
        _write_json(rational_json(value), indent, out)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, Digits):
        out.append('"' + int_str(value) + '"')
    elif isinstance(value, int):
        out.append(int_str(value))
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


def dump_report(report: dict) -> str:
    """The report as json.dumps(report, sort_keys=True, indent=2) plus a newline."""
    out: list[str] = []
    _write_json(report, "", out)
    return "".join(out) + "\n"


def _csv_cell(v) -> str:
    """A value by `value_csv`, an int or a list of ints (";"-joined) by `int_str`, else str()."""
    if isinstance(v, (Fraction, Value, CantorMeasureValue)):
        return value_csv(v)
    if isinstance(v, int):
        return int_str(v)
    if isinstance(v, list):
        return ";".join(map(int_str, v))
    return str(v)


def dump_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return "\n"
    lines = [",".join(rows[0])] + [",".join(map(_csv_cell, row.values())) for row in rows]
    return "\n".join(lines) + "\n"
