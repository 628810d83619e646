"""Independent oracles the tests check the library against.

These deliberately use different mechanisms from the implementation:
block counting instead of per-digit weights for the measure, integer
power comparisons instead of log enclosures for exponent inequalities,
a `Fraction` digit walk, a per-cell scan and a depth-first search of the
allowed cells for membership, `Fraction` ball endpoints for the layer
unions the library builds on an integer grid, the intersection of two
layers' unions for the pair measures the library reads off their union
by inclusion-exclusion, merged and measured balls for the natural cover
the library reads off the digits, a listing for the centers and a second
one for the ranks of the union ends where `build_layer` reads both off
one, a per-cell `prefix_allowed` scan for the box count the library
takes from prefix ranks, argparse for the command line the library
parses from its option tables, floors and ceilings on the grid of the
ball ends for the cells a level's balls list, which the library takes
from `_cells_meeting`, a decimal exponent found from digit
counts for the rendered decimals, `Fraction` interval division for the
log ratios the library divides on grid numerators, a `Fraction` Euclid
for the continued-fraction quotients the library reads off integer
pairs in lockstep, one gcd divided out a step for the pre-period the
library strips in squared chunks, one digit a step for the leading
zeros the digit walk reads in one, and a power sum per index for the
sparse truncations the library builds by one recurrence.
`under_budget` runs a call under a chosen per-call `Budget`.
"""

import argparse
from bisect import bisect_left
from contextvars import copy_context
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional

import pytest

from cantorapprox import (AffineSource, CantorMeasureValue, InputError, Layer, MembershipResult,
                          MissingDigitSet, PrecisionError, RatInterval, SqrtSource, cli,
                          enumerate_centers, layers, measure_union)
from cantorapprox.digitsets import _prefix_rank, cantor_cdf, carried_measure, measure_pair
from cantorapprox.enclosures import (BASE_BITS, Iv, _round_out, iv_div, iv_is_exact,
                                     ln_interval)
from cantorapprox.errors import BUDGET, Budget
from cantorapprox.records import Record
from cantorapprox.intervals import clip_union, intersect_unions, merge_pairs

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


def _meets_allowed_cell(dset: MissingDigitSet, lo: Fraction, hi: Fraction, depth: int,
                        k: int = 0, level: int = 0) -> bool:
    """Whether an allowed level-depth cell below the level-`level` cell k
    meets [lo, hi], searched depth first through the allowed cells that do."""
    if level == depth:
        return True
    scale = dset.base ** (level + 1)
    return any(_meets_allowed_cell(dset, lo, hi, depth, c, level + 1)
               for c in (k * dset.base + d for d in dset.digits)
               if Fraction(c, scale) <= hi and Fraction(c + 1, scale) >= lo)


def enclosure_status(dset: MissingDigitSet, lo: Fraction, hi: Fraction,
                     depth: int, cell_budget: int = 1 << 16) -> MembershipResult:
    """Verdict shared by all points of [lo, hi] (lo < hi) up to `depth`:
    out when a search through the allowed cells finds none at `depth` that
    meets [lo, hi], else from scanning every cell that meets [lo, hi] one
    by one, level by level."""
    if not _meets_allowed_cell(dset, lo, hi, depth):
        return MembershipResult("out")
    scale = 1
    for level in range(1, depth + 1):
        scale *= dset.base
        k_start = (lo * scale).__floor__()
        k_end = min((hi * scale).__floor__(), scale - 1)
        if k_end - k_start + 1 > cell_budget:
            return MembershipResult("undetermined", level)
        for k in range(k_start, k_end + 1):
            if (not dset.prefix_allowed(k, level)
                    and max(lo, Fraction(k, scale)) < min(hi, Fraction(k + 1, scale))):
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


def pairwise_by_intersection(layer_m: Layer, layer_n: Layer) -> CantorMeasureValue:
    """`layers.pairwise_measure` as it was before it read the union of the
    two layers: both layers' carried unions rescaled to the lcm of their
    grids and of their CDF denominators, intersected, and the intersection
    measured, at the inner radius bounds and, when a radius is inexact,
    the outer ones."""
    if layer_m.dset != layer_n.dset or layer_m.window != layer_n.window:
        raise InputError("layers must share their set and window")
    grid = lcm(layer_m.grid, layer_n.grid)
    den = lcm(layer_m.unions[2], layer_n.unions[2])

    def rescaled(layer: Layer, i: int) -> list:
        k, j = grid // layer.grid, den // layer.unions[2]
        return [((lo * k, c_lo * j), (hi * k, c_hi * j))
                for (lo, c_lo), (hi, c_hi) in layer.unions[i]]

    def meet(i: int) -> Fraction:
        return carried_measure(intersect_unions(rescaled(layer_m, i), rescaled(layer_n, i)), den)

    lo = meet(0)
    exact = iv_is_exact(layer_m.radius) and iv_is_exact(layer_n.radius)
    return CantorMeasureValue(lo, lo if exact else meet(1))


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


def box_count(dset: MissingDigitSet, tau: Fraction, n: int, coprime: bool,
              exact_floor: bool = False) -> int:
    """The number of level-ceil(tau n) cells that the radius-b^(-tau n) balls
    around the level-n centers meet, found by testing every cell near every
    ball with `Fraction` bounds and `prefix_allowed`.

    The radius comes from `layers.rational_pow`, looked up when called,
    and a cell range that its two bounds disagree on is a PrecisionError.
    With `exact_floor`, a ball around the center c/S, S = b^L, meets the
    cells c - f - 1..c + f for f = floor(b^(L - tau n)), the largest k
    with k^q <= b^p for L - tau n = p/q: no enclosure.
    """
    tau = Fraction(tau)
    level = -((-tau * n).__floor__())
    b = dset.base
    bn = b ** n
    scale = b ** level
    if exact_floor:
        x = level - tau * n
        f = max(k for k in range(1, b + 1) if k ** x.denominator <= b ** x.numerator)
    else:
        radius = layers.rational_pow(Fraction(b), -tau * n, layers.RADIUS_BITS)
    hit: set[int] = set()
    for p in enumerate_centers(dset, n, coprime):
        c_scaled = p * (scale // bn)
        if exact_floor:
            k_first, k_last = c_scaled - f - 1, c_scaled + f
        else:
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


def window_t0_by_division(window: RatInterval, base: int) -> int:
    """`layers.window_t0` as a loop: b^-t divided by b, one `Fraction`
    division a level, until it is below the window's radius."""
    if window.radius <= 0:
        raise InputError("window must have positive length")
    t0, r = 0, Fraction(1)
    while r >= window.radius:
        r /= base
        t0 += 1
    return t0


def listed_twice_ball_unions(dset: MissingDigitSet, n: int, coprime: bool, grid: int,
                             window: tuple[int, int], radii: list[int],
                             with_window: bool = False) -> tuple[list[int], list, int]:
    """The ball unions of `layers.build_layer` as they were composed before
    it ranked from its own listing: `enumerate_centers` lists the centers
    near the window, their balls are merged and clipped, and `grid_cdf`
    then lists the cells its points fall in again, ranking them from one
    walk at the least cell.  The same (centers, carried unions, CDF denominator);
    `with_window` puts the window first, as `full_cover_check` had it."""
    step, u = grid // dset.base ** n, max(radii)
    centers = enumerate_centers(dset, n, coprime, -((u - window[0]) // step),
                                (window[1] + u) // step)
    unions = [clip_union(merge_pairs([(p * step - r, p * step + r) for p in centers]), window)
              for r in radii]
    if with_window:
        unions.insert(0, [window])
    split = {x: divmod(x, step) for union in unions for pair in union for x in pair}
    local = {f: cantor_cdf(dset, f, step) for f in {f for _, f in split.values()} if f}
    scale = lcm(*(c.denominator for c in local.values()))
    cells = sorted({k for k, _ in split.values()})
    listed = dset.allowed_prefixes(n, cells[0], cells[-1]) if cells else []
    first = _prefix_rank(dset, cells[0], n)[0] if cells else 0
    cdf = {}
    for x, (k, f) in split.items():
        i = bisect_left(listed, k)
        inside = i < len(listed) and listed[i] == k
        cdf[x] = (first + i) * scale + (
            local[f].numerator * (scale // local[f].denominator) if inside and f else 0)
    return centers, [tuple(((lo, cdf[lo]), (hi, cdf[hi])) for lo, hi in union)
                     for union in unions], dset.digit_count ** n * scale


def ball_cells_on_the_grid(dset: MissingDigitSet, n: int, window: tuple[Fraction, Fraction],
                           radii: list[Fraction]) -> tuple[int, int]:
    """The cells `layers.build_layer` listed before it asked
    `_cells_meeting`: on the integer grid of the ball ends, with step =
    grid / b^n and u the largest radius, the centers ceil((wl - u)/step)
    through floor((wh + u)/step), and the cell before the first."""
    bn = dset.base ** n
    grid = lcm(bn, *(x.denominator for x in (*window, *radii)))
    wl, wh, u = (x.numerator * (grid // x.denominator) for x in (*window, max(radii)))
    step = grid // bn
    return -((u - wl) // step) - 1, (wh + u) // step


def full_cover_cells_by_floors(dset: MissingDigitSet, n: int,
                               window: RatInterval) -> tuple[int, int]:
    """The cells `digitsets.full_cover_check` counted before it asked
    `_cells_meeting`: ceil(lo b^n) - 2 through floor(hi b^n) + 1."""
    bn, (lo, hi) = dset.base ** n, window.pair()
    return -(-lo.numerator * bn // lo.denominator) - 2, hi.numerator * bn // hi.denominator + 1


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


def full_cover_by_the_kernel(dset: MissingDigitSet, n: int, window: RatInterval) -> bool:
    """`digitsets.full_cover_check` as it was while it measured the balls:
    the radius-b^-n balls around the centers near the window merged and
    clipped on the integer grid of `build_layer`, the window carried with
    them, and the two measured from one listing, whose `cells` check
    refuses what that one refused."""
    if n < 1:
        raise InputError("level must be >= 1")
    bn = dset.base ** n
    grid = lcm(bn, window.lo.denominator, window.hi.denominator)
    ends = tuple(x.numerator * (grid // x.denominator) for x in window.pair())
    _, (whole, pieces), _ = listed_twice_ball_unions(dset, n, False, grid, ends, [grid // bn],
                                                     with_window=True)
    return (sum(c_hi - c_lo for (_, c_lo), (_, c_hi) in pieces)
            == sum(c_hi - c_lo for (_, c_lo), (_, c_hi) in whole))


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
