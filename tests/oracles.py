"""Independent oracles the tests check the library against.

These deliberately use different mechanisms from the implementation:
block counting instead of per-digit weights for the measure, integer
power comparisons instead of log enclosures for exponent inequalities,
a `Fraction` digit walk and a per-cell scan for membership,
`Fraction` ball endpoints for the layer unions and the natural cover
the library builds on an integer grid, a per-cell `prefix_allowed`
scan for the box count the library takes from prefix ranks, argparse
for the command line the library parses from its option tables, a
decimal exponent found from digit counts for the rendered decimals,
`Fraction` interval division for the log ratios the library divides on
grid numerators, a `Fraction` Euclid for the continued-fraction
quotients the library reads off integer pairs in lockstep, one
gcd divided out a step for the pre-period the library strips in
squared chunks, one digit a step for the leading zeros the digit walk
reads in one, and a power sum per index for the sparse truncations
the library builds by one recurrence.
`under_budget` runs a call under a chosen per-call `Budget`.
"""

import argparse
from bisect import bisect_left
from contextvars import copy_context
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional

import pytest

from cantorapprox import (AffineSource, Layer, MembershipResult, MissingDigitSet,
                          PrecisionError, RatInterval, SqrtSource, cli, enumerate_centers,
                          layers, measure_union)
from cantorapprox.digitsets import _prefix_rank, measure_pair
from cantorapprox.enclosures import BASE_BITS, Iv, _round_out, iv_div, ln_interval
from cantorapprox.errors import BUDGET, Budget
from cantorapprox.records import Record
from cantorapprox.intervals import clip_union, merge_pairs

try:
    import mpmath
except ImportError:  # mpmath is a test extra
    mpmath = None
needs_mpmath = pytest.mark.skipif(mpmath is None, reason="needs mpmath")


def under_budget(budget: Budget, call, *args):
    """call(*args) in a copy of the context whose budget is `budget`: the
    budget ends with the call, as that of a CLI call does."""
    def run():
        BUDGET.set(budget)
        return call(*args)
    return copy_context().run(run)


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


def mp_real(x, iv):
    """x, a Fraction or a source built from SqrtSource and AffineSource, as
    an mpmath interval in the context `iv` (for use inside `mp_interval`)."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / x.denominator
    if isinstance(x, SqrtSource):
        return iv.sqrt(mp_real(x.radicand, iv))
    if isinstance(x, AffineSource):
        return mp_real(x.base, iv) * mp_real(x.mul, iv) + mp_real(x.add, iv)
    raise TypeError(f"no mpmath form for {type(x).__name__}")


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


def preperiod_by_steps(q: int, b: int) -> tuple[int, int]:
    """`digitsets._preperiod` one step a division: gcd(rest, b) is divided
    out of rest until it is 1, and s counts the steps."""
    s, rest = 0, q
    g = gcd(rest, b)
    while g > 1:
        rest //= g
        s += 1
        g = gcd(rest, b)
    return s, rest


def digit_walk_by_digits(dset: MissingDigitSet, r: int, q: int,
                         s: int) -> tuple[int, int, int, bool]:
    """`digitsets._digit_walk` as it read every digit after the prefix, the
    leading zeros too, one `divmod` a digit."""
    b, m = dset.base, dset.digit_count
    k, r = divmod(r * b ** s, q)
    acc, inside = _prefix_rank(dset, k, s)
    if not inside or r == 0:
        return acc, acc, 0, inside
    r_s, acc_s = r, acc
    period = 0
    while True:
        d, r = divmod(r * b, q)
        acc = acc * m + sum(1 for c in dset.digits if c < d)
        period += 1
        if d not in dset.digits or r == r_s:
            return acc_s, acc, period, d in dset.digits


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


def sparse_power_sum(x, s: int) -> tuple[int, int]:
    """(p, q) with p/q the s-th truncation of a SparseDigitNumber x, as the
    power sum p = c sum_{n<=s} b^(e_s - e_n) over q = b^(e_s), unreduced."""
    e_s = x.exponent(s)
    return (x.coefficient * sum(x.base ** (e_s - x.exponent(n)) for n in range(1, s + 1)),
            x.base ** e_s)


def sparse_tail_sum(x, s: int) -> tuple[Fraction, Fraction]:
    """x - p_s/q_s for a SparseDigitNumber x, bounded by adding its terms
    s+1 .. t (t = max(terms, s + 1)) one Fraction at a time, plus the
    remainder bound c b^(-e_(t+1)) b/(b-1)."""
    t = max(x.terms, s + 1)
    partial = ZERO
    for n in range(s + 1, t + 1):
        partial += Fraction(x.coefficient, x.base ** x.exponent(n))
    rem = Fraction(x.coefficient * x.base, (x.base - 1) * x.base ** x.exponent(t + 1))
    return (partial, partial + rem)


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


def argparse_parser() -> argparse.ArgumentParser:
    """The command-line parser as argparse builds it from the option tables
    of `cli`."""
    top = argparse.ArgumentParser(prog="cantorapprox", description=cli.__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)
    for name in cli.SUBCOMMAND_OPTIONS:
        sub = subs.add_parser(name)
        for flag, kind, default, about in cli.COMMON_OPTIONS + cli.SUBCOMMAND_OPTIONS[name]:
            kwargs = {"help": about}
            if default is cli.REQUIRED:
                kwargs["required"] = True
            else:
                kwargs["default"] = default
            if kind is int:
                kwargs["type"] = int
            elif kind == cli.FLAG:
                kwargs["action"] = "store_true"
            elif kind == cli.TOGGLE:
                kwargs["action"] = argparse.BooleanOptionalAction
            elif kind is not str:
                kwargs["choices"] = kind
            sub.add_argument(flag, **kwargs)
    return top


def decimal_str(fr: Fraction, sig: int = 15) -> str:
    """Positional decimal with `sig` significant digits, half away from zero,
    its exponent found from the digit counts of numerator and denominator."""
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


class FractionLogRatioSource(Record):
    """log(num)/log(den) with each level the `Fraction` quotient of the two
    logs' enclosures on the 2^-(bits+8) grid, rounded outward to the
    2^-bits grid (bits = BASE_BITS * 2^level)."""

    num: Fraction
    den: Fraction

    def interval(self, level: int) -> Iv:
        bits = BASE_BITS << level
        if self.num == 1:
            return (ZERO, ZERO)
        return _round_out(iv_div(ln_interval(self.num, bits + 8),
                                 ln_interval(self.den, bits + 8)), bits)


def extract_certified(iv: Iv, depth: int) -> list[int]:
    """The continued-fraction quotients every number in [lo, hi] shares, at
    most `depth` of them, by one `Fraction` Euclid step per quotient."""
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


def sqrt_quotients(q: Fraction, count: int) -> list[int]:
    """The quotients a_1.. of sqrt(q) = [0; a_1, ..] for 0 < q < 1, at most
    `count` of them, by the classical PQa recurrence on (P + sqrt D)/Q:
    a = floor((P + sqrt D)/Q), P' = a Q - P, Q' = (D - P'^2)/Q, from
    sqrt(q) = sqrt(D)/den with D = num * den.  Q' = 0 ends a rational
    root."""
    d, qq = q.numerator * q.denominator, q.denominator
    root, p = isqrt(d), 0
    quotients: list[int] = []
    while len(quotients) <= count and qq:
        a = (p + root) // qq  # floor((P + sqrt D)/Q), as Q > 0
        quotients.append(a)
        p = a * qq - p
        qq = (d - p * p) // qq
    return quotients[1:]  # without a_0 = 0


def _drop_zero_quotients(quotients: list[int]) -> list[int]:
    """[.., a, 0, b, ..] = [.., a + b, ..], applied until no zero is left
    inside the list."""
    out: list[int] = []
    for a in quotients:
        if out and out[-1] == 0:
            out.pop()
            out[-1] += a
        else:
            out.append(a)
    return out


def folded_sparse_quotients(base: int, exponents: list[int]) -> list[int]:
    """Quotients a_1.. of sum_n base^(-e_n) over the given exponents, by the
    folding lemma alone (van der Poorten & Shallit, J. Number Theory 1992):
    if p/q = [0; a_1, .., a_n] with n even, then p/q + 1/(y q^2) =
    [0; a_1, .., a_n, y - 1, 1, a_n - 1, a_(n-1), .., a_1].

    The truncation with e_1..e_t has q = base^e_t, so the next term is
    1/(y q^2) with y = base^(e_(t+1) - 2 e_t), which needs
    e_(t+1) >= 2 e_t.  The list has even length, so its last quotient
    may be 1 (the other expansion ends in a_n + 1)."""
    quotients = [base ** exponents[0] - 1, 1]  # 1/b^e = [0; b^e - 1, 1]
    for prev, e in zip(exponents, exponents[1:]):
        if e < 2 * prev:
            raise ValueError("folding needs e_(t+1) >= 2 e_t")
        y = base ** (e - 2 * prev)
        quotients = _drop_zero_quotients(
            quotients + [y - 1, 1, quotients[-1] - 1] + quotients[-2::-1])
    return quotients
