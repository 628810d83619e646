"""Independent oracles the tests check the library against.

These deliberately use different mechanisms from the implementation:
block counting instead of per-digit weights for the measure, integer
power comparisons instead of log enclosures for exponent inequalities,
a `Fraction` digit walk and a per-cell scan for membership,
`Fraction` ball endpoints for the layer unions and the natural cover
the library builds on an integer grid, and a per-cell `prefix_allowed`
scan for the box count the library takes from prefix ranks.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import Optional

import pytest

from cantorapprox import (Layer, MembershipResult, MissingDigitSet, PrecisionError,
                          RatInterval, enumerate_centers, layers, measure_union)
from cantorapprox.digitsets import measure_pair
from cantorapprox.intervals import clip_union, merge_pairs

try:
    import mpmath
except ImportError:  # mpmath is a test extra
    mpmath = None
needs_mpmath = pytest.mark.skipif(mpmath is None, reason="needs mpmath")

ZERO = Fraction(0)
ONE = Fraction(1)


def _mp_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def mp_interval(f, prec: int) -> tuple[Fraction, Fraction]:
    """mpmath's interval for f(iv) at `prec` bits, as a pair of Fractions."""
    saved = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        lo, hi = f(mpmath.iv)._mpi_
    finally:
        mpmath.iv.prec = saved
    return _mp_fraction(lo), _mp_fraction(hi)


def oracle_cdf(dset: MissingDigitSet, x: Fraction, level: int = 10) -> Fraction:
    """mu([0, x]) by summing whole level-`level` blocks below x and recursing
    into the single boundary block, with geometric cycle closing."""
    if x <= 0:
        return ZERO
    if x >= 1:
        return ONE
    prefixes = dset.allowed_prefixes(level)
    prefix_set = set(prefixes)
    block_mass = Fraction(1, dset.digit_count ** level)
    scale = dset.base ** level
    acc = ZERO
    weight = ONE
    seen: dict[Fraction, tuple[Fraction, Fraction]] = {}
    while True:
        if x <= 0:
            return acc
        if x >= 1:
            return acc + weight
        prev = seen.get(x)
        if prev is not None:
            acc0, w0 = prev
            ratio = weight / w0
            return acc0 + (acc - acc0) / (1 - ratio)
        seen[x] = (acc, weight)
        k = (x * scale).__floor__()
        acc += weight * block_mass * bisect_left(prefixes, k)
        if k not in prefix_set:
            return acc
        weight *= block_mass
        x = x * scale - k


def oracle_measure(dset: MissingDigitSet, lo: Fraction, hi: Fraction,
                   level: int = 10) -> Fraction:
    if hi <= lo:
        return ZERO
    return oracle_cdf(dset, hi, level) - oracle_cdf(dset, lo, level)


def gamma_cmp(p: int, q: int) -> int:
    """Sign of log(2)/log(3) - p/q via exact integer powers (q > 0)."""
    lhs, rhs = 2 ** q, 3 ** p
    return (lhs > rhs) - (lhs < rhs)


def power_series_converges(s: Fraction, tau: Fraction, base: int, count: int) -> bool:
    """Closed-form rule for f=r^s, psi=r^-tau: convergent iff s*tau > gamma,
    decided by cross-multiplied integer powers."""
    st = Fraction(s) * Fraction(tau)
    # s*tau > log(count)/log(base)  <=>  base^(num) > count^(den)
    return base ** st.numerator > count ** st.denominator


def _badic_digit_length(q: int, b: int) -> Optional[int]:
    """Smallest n with q | b^n, or None when no power of b works."""
    n = 0
    while q > 1:
        g = gcd(q, b)
        if g == 1:
            return None
        q //= g
        n += 1
    return n


def _digits_of(p: int, n: int, b: int) -> list[int]:
    """The n base-b digits of the integer p < b**n, most significant first."""
    out = []
    for _ in range(n):
        p, d = divmod(p, b)
        out.append(d)
    return out[::-1]


def rational_in_set(dset: MissingDigitSet, x: Fraction) -> bool:
    """Exact membership for any rational in [0,1] via its digit stream(s).

    A b-adic rational has two expansions (terminating and repeating
    base-1); it belongs to the set when either stays inside the digit
    alphabet.  Other rationals have one eventually periodic expansion,
    walked on Fractions until a remainder repeats.
    """
    b, allowed = dset.base, set(dset.digits)
    if x == 0:
        return 0 in allowed
    if x == 1:
        return b - 1 in allowed
    n = _badic_digit_length(x.denominator, b)
    if n is not None:
        digits = _digits_of(x.numerator * (b ** n // x.denominator), n, b)
        term_ok = all(d in allowed for d in digits) and 0 in allowed
        alt_ok = (all(d in allowed for d in digits[:-1])
                  and (digits[-1] - 1) in allowed and (b - 1) in allowed)
        return term_ok or alt_ok
    rem = x
    seen = set()
    while rem not in seen:
        seen.add(rem)
        rem *= b
        d = rem.__floor__()
        rem -= d
        if d not in allowed:
            return False
    return True  # full cycle scanned without a bad digit


def enclosure_status(dset: MissingDigitSet, lo: Fraction, hi: Fraction,
                     depth: int, cell_budget: int = 1 << 16) -> MembershipResult:
    """Verdict shared by all points of [lo, hi] (lo < hi) up to `depth`,
    scanning every cell that meets [lo, hi] one by one."""
    scale = 1
    for level in range(1, depth + 1):
        scale *= dset.base
        k_start = (lo * scale).__floor__()
        if lo * scale == k_start and k_start > 0:
            k_start -= 1  # cell touching lo from the left
        k_end = min((hi * scale).__floor__(), scale - 1)
        if k_end - k_start + 1 > cell_budget:
            return MembershipResult("undetermined", level)
        any_allowed = False
        interior_bad = False
        for k in range(k_start, k_end + 1):
            if dset.prefix_allowed(k, level):
                any_allowed = True
            elif max(lo, Fraction(k, scale)) < min(hi, Fraction(k + 1, scale)):
                interior_bad = True
        if not any_allowed:
            return MembershipResult("out")
        if interior_bad:
            return MembershipResult("undetermined", level)
    return MembershipResult("in")


def layer_ball_pairs(layer: Layer, radius: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The layer's balls of the given radius around its centers, clipped to
    its window, as `Fraction` pairs; balls the clip empties are dropped."""
    w_lo, w_hi = layer.window.lo, layer.window.hi
    out = []
    for c in layer.centers:
        lo, hi = max(c - radius, w_lo), min(c + radius, w_hi)
        if lo <= hi:
            out.append((lo, hi))
    return out


def layer_union_pairs(layer: Layer, radius: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The merged union of `layer_ball_pairs`."""
    return merge_pairs(layer_ball_pairs(layer, radius))


def box_count(dset: MissingDigitSet, tau: Fraction, n: int, coprime: bool) -> int:
    """The number of level-ceil(tau n) cells that the radius-b^(-tau n) balls
    around the level-n centers meet, found by testing every cell near every
    ball with `Fraction` bounds and `prefix_allowed`.

    The radius comes from `layers.rational_pow`, looked up when called,
    and a cell range that its two bounds disagree on is a PrecisionError.
    """
    tau = Fraction(tau)
    level = -((-tau * n).__floor__())
    b = dset.base
    bn = b ** n
    scale = b ** level
    radius = layers.rational_pow(Fraction(b), -tau * n, layers.RADIUS_BITS)
    hit: set[int] = set()
    for p in enumerate_centers(dset, n, coprime):
        c_scaled = p * (scale // bn)
        k_lo_iv = (c_scaled - radius[1] * scale, c_scaled - radius[0] * scale)
        k_hi_iv = (c_scaled + radius[0] * scale, c_scaled + radius[1] * scale)
        k_first = -((-k_lo_iv[0]).__floor__()) - 1
        k_first_hi = -((-k_lo_iv[1]).__floor__()) - 1
        k_last = k_hi_iv[1].__floor__()
        k_last_lo = k_hi_iv[0].__floor__()
        if k_first != k_first_hi or k_last != k_last_lo:
            raise PrecisionError("counting boundary undecided")
        for k in range(max(k_first, 0), min(k_last, scale - 1) + 1):
            if k not in hit and dset.prefix_allowed(k, level):
                hit.add(k)
    return len(hit)


def full_cover_fraction_balls(dset: MissingDigitSet, n: int, window: RatInterval) -> bool:
    """The natural cover check with `Fraction` balls (p -+ 1)/b^n around the
    centers near the window, merged, clipped and measured on Fractions."""
    bn = dset.base ** n
    r = Fraction(1, bn)
    first = max(-((-window.lo * bn).__floor__()) - 2, 0)
    last = min((window.hi * bn).__floor__() + 1, bn)
    balls = [(Fraction(p, bn) - r, Fraction(p, bn) + r)
             for p in enumerate_centers(dset, n, False, first, last)]
    clipped = clip_union(merge_pairs(balls), window.pair())
    return measure_union(dset, clipped) == measure_pair(dset, window.lo, window.hi)


def full_cover_closed_form(dset: MissingDigitSet, window: RatInterval) -> bool:
    """The natural cover covers the window in measure iff 0 or b-1 is a digit
    (an end of every allowed cylinder is then a center, and its ball holds
    the cylinder), or the window has measure 0 (with neither digit no
    p/b^n is in the set, so there are no balls)."""
    return (0 in dset.digits or dset.base - 1 in dset.digits
            or oracle_measure(dset, window.lo, window.hi, level=3) == 0)
