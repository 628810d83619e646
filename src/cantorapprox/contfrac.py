"""Rigorous continued fractions: certified quotients, Legendre checks,
finite-window irrationality-exponent estimates, and prefix intervals.

For rational inputs the expansion is the exact Euclidean one.  For
enclosure-valued reals a quotient is emitted only once the current
enclosure pins it down uniquely; otherwise the input is refined and the
extraction replayed, which is what prevents the classic
wrong-quotient-from-rounding failure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

from .digitsets import MissingDigitSet
from .enclosures import (Iv, LogRatioSource, RealEnclosure, as_enclosure,
                         iv_abs, iv_sub, iv_exact)
from .errors import InputError, PrecisionError
from .records import Record

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


def convergents_from_quotients(quotients: Sequence[int]) -> tuple[tuple[int, int], ...]:
    p_prev, q_prev = 1, 0   # (p_-1, q_-1)
    p_cur, q_cur = 0, 1     # (p_0, q_0) for a_0 = 0
    out = []
    for a in quotients:
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        out.append((p_cur, q_cur))
    return tuple(out)


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
    if hasattr(x, "enclosure"):
        x = x.enclosure()
    if not isinstance(x, RealEnclosure):
        x = Fraction(x)
        if not (_ZERO < x < _ONE):
            raise InputError("x must lie in (0,1)")
        return _expand_rational(x, depth)
    if x.is_exact:
        if not (_ZERO < x.lo < _ONE):
            raise InputError("x must lie in (0,1)")
        return _expand_rational(x.lo, depth)
    enc = x
    if not (_ZERO <= enc.lo and enc.hi <= _ONE):
        raise InputError("x must lie in (0,1)")
    quotients = _extract_certified(enc.as_iv(), depth)
    exhausted = False
    while len(quotients) < depth:
        try:
            enc = enc.refine()
        except PrecisionError:
            exhausted = True
            break
        if enc.is_exact:  # refinement collapsed to a rational
            return _expand_rational(enc.lo, depth)
        quotients = _extract_certified(enc.as_iv(), depth)
    return ContinuedFraction(tuple(quotients), convergents_from_quotients(quotients),
                             exact=False, exhausted=exhausted)


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
    enc = as_enclosure(x)
    target = Fraction(p, q)
    bound = Fraction(1, 2 * q * q)
    while True:
        diff = iv_abs(iv_sub(enc.as_iv(), iv_exact(target)))
        if diff[1] < bound:
            if cf is not None and (p, q) not in cf.convergents:
                raise InputError(
                    f"certified Legendre bound but ({p},{q}) not among the convergents")
            return "yes"
        if diff[0] >= bound:
            return "not_implied"
        enc = enc.refine()  # PrecisionError at the cap


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


# ---------------------------------------------------------------------------
# prefix intervals
# ---------------------------------------------------------------------------

class PrefixInterval(Record):
    """All x in (0,1) whose continued fraction starts with the given quotients.

    One endpoint (the final convergent itself) is included, the other
    (the mediant with the previous convergent) is excluded; which side is
    which depends on the parity of the prefix length.
    """

    quotients: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool


def cf_prefix_interval(quotients: Sequence[int]) -> PrefixInterval:
    qs = tuple(int(a) for a in quotients)
    if not qs or any(a < 1 for a in qs):
        raise InputError("quotients must be positive integers")
    convs = convergents_from_quotients(qs)
    p_n, q_n = convs[-1]
    p_prev, q_prev = convs[-2] if len(convs) >= 2 else (0, 1)
    anchor = Fraction(p_n, q_n)
    mediant = Fraction(p_n + p_prev, q_n + q_prev)
    if anchor <= mediant:
        return PrefixInterval(qs, anchor, mediant, True, False)
    return PrefixInterval(qs, mediant, anchor, False, True)


def prefix_interval_disjoint_from(pi: PrefixInterval, dset: MissingDigitSet,
                                  depth: int) -> bool:
    """True when the prefix interval misses every level-depth basic interval.

    Only the cells [k, k+1]/b^depth that meet [lo, hi] are visited:
    ceil(lo b^depth) - 1 <= k <= floor(hi b^depth).
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    scale = dset.base ** depth
    first = -((-pi.lo * scale).__floor__()) - 1
    last = (pi.hi * scale).__floor__()
    for k in dset.allowed_prefixes(depth, first, last):
        cell_lo, cell_hi = Fraction(k, scale), Fraction(k + 1, scale)
        lo = max(pi.lo, cell_lo)
        hi = min(pi.hi, cell_hi)
        if lo > hi:
            continue
        if lo < hi:
            return False  # positive-length overlap
        # single touching point: it intersects only if that endpoint is included
        if lo == pi.lo and not pi.lo_closed:
            continue
        if lo == pi.hi and not pi.hi_closed:
            continue
        return False
    return True
