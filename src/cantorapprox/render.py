"""Deterministic report rendering: exact rationals first, decimals second.

Every decimal string is derived from the exact rational by integer
arithmetic (round half away from zero, 15 significant digits), so two
runs can never disagree in the last bit.  Floats appear only in the
clearly-labelled lossy CSV convenience column.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Sequence

from .digitsets import CantorMeasureValue
from .errors import ResourceBudgetError

DECIMAL_SIG_DIGITS = 15

# integers beyond this bit size are summarized, not printed (int->str is
# quadratic and capped by the interpreter)
RENDER_INT_BITS = 12_000


def decimal_str(fr: Fraction) -> str:
    """Positional decimal, DECIMAL_SIG_DIGITS significant digits, half away from zero."""
    sig = DECIMAL_SIG_DIGITS
    fr = Fraction(fr)
    if fr == 0:
        return "0"
    sign = "-" if fr < 0 else ""
    a = -fr if fr < 0 else fr
    num, den = a.numerator, a.denominator
    e = len(str(num)) - len(str(den))
    while 10 ** max(e, 0) * den > num * 10 ** max(-e, 0):
        e -= 1
    while 10 ** max(e + 1, 0) * den <= num * 10 ** max(-(e + 1), 0):
        e += 1
    # now 10^e <= a < 10^(e+1)
    shift = sig - 1 - e
    if shift >= 0:
        q, r = divmod(num * 10 ** shift, den)
    else:
        q, r = divmod(num, den * 10 ** (-shift))
    if 2 * r >= (den if shift >= 0 else den * 10 ** (-shift)):
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


def _unprintable() -> ResourceBudgetError:
    return ResourceBudgetError("the report holds an integer of more than "
                               f"{sys.get_int_max_str_digits()} digits, the int-to-str limit")


def int_str(n: int) -> str:
    """str(n), or ResourceBudgetError past the int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        raise _unprintable() from None


def rat_str(fr: Fraction) -> str:
    fr = Fraction(fr)
    return f"{fr.numerator}/{fr.denominator}"


def rational_json(fr: Fraction) -> dict:
    return {"rat": rat_str(fr), "dec": decimal_str(fr)}


def _bounds(v) -> tuple[Fraction, Fraction]:
    """(lo, hi) of a Fraction, a (lo, hi) pair or a CantorMeasureValue."""
    if isinstance(v, CantorMeasureValue):
        return v.lo, v.hi
    return v if isinstance(v, tuple) else (Fraction(v), Fraction(v))


def value_json(v) -> dict:
    """Exact-or-bounds value as exact and decimal bounds."""
    lo, hi = _bounds(v)
    return {"lo": rational_json(lo), "hi": rational_json(hi), "exact": lo == hi}


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


def dump_report(report: dict) -> str:
    try:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    except ValueError:  # an int, such as a quotient, past the int-to-str limit
        raise _unprintable() from None


def dump_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return "\n"
    lines = [",".join(rows[0])] + [",".join(str(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"
