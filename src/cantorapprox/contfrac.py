"""Rigorous continued fractions: certified quotients, Legendre checks,
and finite-window irrationality-exponent estimates.  The prefix
intervals of cf-interval live in `intervals` and `digitsets`, which load
no enclosure code, and are re-exported here (see `__all__`).

One Euclid serves every input: a quotient is emitted only once the
current enclosure pins it down uniquely, the Euclidean algorithms of the
two endpoints running in lockstep on integers until their quotients
part.  A rational x is the point enclosure [x, x], whose two runs never
part, so its expansion is the exact Euclidean one.  Otherwise the input
is refined and the extraction replayed, which is what prevents the
classic wrong-quotient-from-rounding failure.  An exponent estimate
takes each convergent denominator's log once.
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


def _extract_certified(iv: Iv, depth: int) -> list[int]:
    """Quotients of every number in the interval, for as long as they agree:
    the Euclidean algorithms of both endpoints' numerators and denominators
    in lockstep, which swap ends at each step."""
    (n_lo, d_lo), (n_hi, d_hi) = ((x.numerator, x.denominator) for x in iv)
    quotients: list[int] = []
    while len(quotients) < depth and n_lo > 0:  # else the next quotient is unbounded
        a, r_hi = divmod(d_hi, n_hi)
        b, r_lo = divmod(d_lo, n_lo)
        if a != b or a < 1:
            break
        quotients.append(a)
        n_lo, d_lo, n_hi, d_hi = r_hi, n_hi, r_lo, n_lo
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
    while True:
        quotients = _extract_certified(enc.as_iv(), depth)
        if enc.is_exact or len(quotients) == depth:
            break
        try:
            enc = enc.refine()
        except PrecisionError:  # at the cap, without a source, or out of the source's budget
            break
    convergents = convergents_from_quotients(quotients)
    # a rational x is expanded completely when its last convergent is x
    exact = enc.is_exact and convergents[-1] == (enc.lo.numerator, enc.lo.denominator)
    return ContinuedFraction(tuple(quotients), convergents, exact=exact,
                             exhausted=not exact if enc.is_exact else len(quotients) < depth)


def legendre_is_convergent(p: int, q: int, x: Union[Fraction, RealEnclosure]) -> str:
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
    return as_enclosure(x).decide(verdict)  # PrecisionError once refinement runs out


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
    logs: dict = {}  # each q's log, taken once per precision
    ratios: list[tuple[Iv, tuple[int, int]]] = []
    for (_, q0), (_, q1) in zip(cf.convergents, cf.convergents[1:]):
        if q0 < floor_q or q1 == q0:
            continue
        iv = LogRatioSource(Fraction(q1), Fraction(q0)).within(RATIO_BITS, logs)
        ratios.append((iv, (q0, q1)))
    if not ratios:
        raise InputError("no usable convergent pairs above the denominator floor")
    best_lo = max(iv[0] for iv, _ in ratios)
    best_hi = max(iv[1] for iv, _ in ratios)
    witnesses = tuple(w for iv, w in ratios if iv[1] == best_hi)
    return ExponentEstimate(lo=1 + best_lo, hi=1 + best_hi, witnesses=witnesses,
                            window=len(cf.convergents), min_denominator=floor_q)
