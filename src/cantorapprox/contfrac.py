"""Rigorous continued fractions: certified quotients, Legendre checks,
and finite-window irrationality-exponent estimates.  The prefix
intervals of cf-interval live in `intervals` and `digitsets`, which load
no enclosure code, and are re-exported here (see `__all__`).

For rational inputs the expansion is the exact Euclidean one.  For
enclosure-valued reals a quotient is emitted only once the current
enclosure pins it down uniquely; otherwise the input is refined and the
extraction replayed, which is what prevents the classic
wrong-quotient-from-rounding failure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .digitsets import prefix_interval_disjoint_from
from .enclosures import (Iv, LogRatioSource, RealEnclosure, as_enclosure,
                         iv_abs, iv_sub, iv_exact)
from .errors import InputError, PrecisionError
from .intervals import PrefixInterval, cf_prefix_interval, convergents_from_quotients
from .records import Record

__all__ = ["ContinuedFraction", "ExponentEstimate", "PrefixInterval", "cf_prefix_interval",
           "continued_fraction_expand", "convergents_from_quotients",
           "irrationality_exponent_estimate", "legendre_is_convergent",
           "prefix_interval_disjoint_from"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

RATIO_BITS = 48  # width 2^-RATIO_BITS of each log q_{k+1} / log q_k enclosure


class ContinuedFraction(Record):
    """Quotients a_1..a_N of a number in (0,1) (a_0 = 0 implicit) plus the
    convergents (p_k, q_k) from the standard recurrence."""

    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    exact: bool = False       # complete finite expansion of a rational
    exhausted: bool = False   # refinement budget ended before the target depth

    @property
    def certified_depth(self) -> int:
        return len(self.quotients)


def _expand_rational(x: Fraction, depth: int) -> ContinuedFraction:
    num, den = x.numerator, x.denominator
    quotients = []
    a, b = den, num  # start from 1/x
    while b and len(quotients) < depth:
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    return ContinuedFraction(tuple(quotients), convergents_from_quotients(quotients),
                             exact=(b == 0), exhausted=(b != 0))


def _extract_certified(iv: Iv, depth: int) -> list[int]:
    """Quotients of every number in the interval, for as long as they agree."""
    lo, hi = iv
    quotients: list[int] = []
    while len(quotients) < depth:
        if lo <= 0:
            break  # remainder could vanish: the next quotient is unbounded
        inv_lo, inv_hi = 1 / hi, 1 / lo
        a_lo, a_hi = inv_lo.__floor__(), inv_hi.__floor__()
        if a_lo != a_hi or a_lo < 1:
            break
        quotients.append(a_lo)
        lo, hi = inv_lo - a_lo, inv_hi - a_lo
    return quotients


def continued_fraction_expand(x: Union[Fraction, RealEnclosure, int],
                              depth: int) -> ContinuedFraction:
    """Certified expansion of x in (0,1) to at most `depth` quotients."""
    if depth < 1:
        raise InputError("depth must be >= 1")
    enc = as_enclosure(x.enclosure() if hasattr(x, "enclosure") else x)
    # an exact x has lo = hi in (0,1); a wider enclosure lies in [0,1]
    if not (_ZERO <= enc.lo < _ONE and _ZERO < enc.hi <= _ONE):
        raise InputError("x must lie in (0,1)")
    while not enc.is_exact:
        quotients = _extract_certified(enc.as_iv(), depth)
        if len(quotients) == depth:
            break
        try:
            enc = enc.refine()
        except PrecisionError:  # at the cap, without a source, or out of the source's budget
            break
    else:  # x is rational, or refinement collapsed to a rational
        return _expand_rational(enc.lo, depth)
    return ContinuedFraction(tuple(quotients), convergents_from_quotients(quotients),
                             exact=False, exhausted=len(quotients) < depth)


def legendre_is_convergent(p: int, q: int, x: Union[Fraction, RealEnclosure],
                           cf: Optional[ContinuedFraction] = None) -> str:
    """"yes" when |x - p/q| < 1/(2 q^2) is certified (then p/q is a convergent);
    "not_implied" when the bound is certified to fail.  Not a disproof."""
    if q < 1:
        raise InputError("q must be >= 1")
    if gcd(p, q) != 1:
        raise InputError("p/q must be reduced")
    if hasattr(x, "enclosure"):
        x = x.enclosure()
    target = Fraction(p, q)
    bound = Fraction(1, 2 * q * q)

    def verdict(enc: RealEnclosure) -> Optional[str]:
        diff = iv_abs(iv_sub(enc.as_iv(), iv_exact(target)))
        if diff[1] < bound:
            return "yes"
        if diff[0] >= bound:
            return "not_implied"
        return None
    result = as_enclosure(x).decide(verdict)  # PrecisionError once refinement runs out
    if result == "yes" and cf is not None and (p, q) not in cf.convergents:
        raise InputError(f"certified Legendre bound but ({p},{q}) not among the convergents")
    return result


class ExponentEstimate(Record):
    """Finite-window estimate 1 + max(log q_{k+1} / log q_k) of the
    approximation order, as a certified enclosure.

    This is a lower-order surrogate computed from the convergents seen in
    the window; it makes no claim about the limsup over all convergents.
    Ratios with q_k below `min_denominator` are excluded as small-sample
    artifacts.
    """

    lo: Fraction
    hi: Fraction
    witnesses: tuple[tuple[int, int], ...]
    window: int
    min_denominator: int


def irrationality_exponent_estimate(cf: ContinuedFraction,
                                    min_denominator: int = 2) -> ExponentEstimate:
    if len(cf.convergents) < 3:
        raise InputError("need at least 3 convergents")
    floor_q = max(2, min_denominator)
    width = Fraction(1, 1 << RATIO_BITS)
    ratios: list[tuple[Iv, tuple[int, int]]] = []
    for (_, q0), (_, q1) in zip(cf.convergents, cf.convergents[1:]):
        if q0 < floor_q:
            continue
        if q1 == q0:
            continue
        enc = RealEnclosure.from_source(
            LogRatioSource(Fraction(q1), Fraction(q0))).refined_to(width)
        ratios.append((enc.as_iv(), (q0, q1)))
    if not ratios:
        raise InputError("no usable convergent pairs above the denominator floor")
    best_lo = max(iv[0] for iv, _ in ratios)
    best_hi = max(iv[1] for iv, _ in ratios)
    witnesses = tuple(w for iv, w in ratios if iv[1] == best_hi)
    return ExponentEstimate(lo=1 + best_lo, hi=1 + best_hi, witnesses=witnesses,
                            window=len(cf.convergents), min_denominator=floor_q)
