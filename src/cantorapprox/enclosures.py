"""Exact rationals and directed-rounded real enclosures.

Certified values are either `fractions.Fraction` (exact) or two-sided
rational enclosures [lo, hi] that provably contain the true real.  The
only approximation ever made is an explicit series/root truncation with
an explicit tail bound, so every enclosure is sound by construction.
Endpoint arithmetic is exact, with one exception: `ln_interval` sums its
series in fixed-point integers rounded down in one pass and up in the
other, and returns that result only when both passes round to the same
output endpoints; otherwise it uses the exact `Fraction` sum.  Either
way it returns the same enclosure.  `LogRatioSource` divides two logs
on their grid numerators.  Binary floating point is never used here.

A `RealEnclosure` couples the current [lo, hi] with a refinable source.
Refinement doubles the working precision per step.  Every decision on
an enclosure goes through `RealEnclosure.decide`, which refines until
its test answers (`LogRatioSource.within` skips the levels that cannot
answer).  The steps are capped by the `steps` of `errors.BUDGET` (default
12); an enclosure at the cap or without a source raises `PrecisionError`
rather than guessing or looping, and an ln operand over its `bits`
raises `ResourceBudgetError`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt
from typing import TYPE_CHECKING, Callable, Optional, Protocol, TypeVar, Union

from .errors import (BUDGET, InputError, PrecisionError, ResourceBudgetError,
                     UndecidableFloorError)
from .records import Record

if TYPE_CHECKING:
    from .digitsets import MissingDigitSet

# Interval = (lo, hi) pair of Fractions with lo <= hi.
Iv = tuple[Fraction, Fraction]
T = TypeVar("T")

BASE_BITS = 32

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def canonicalize_rational(numerator: int, denominator: int) -> Fraction:
    """Exact rational n/d, gcd-reduced with positive denominator."""
    if denominator == 0:
        raise InputError("zero denominator")
    return Fraction(numerator, denominator)


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a non-negative integer."""
    if n < 0:
        raise InputError("iroot of a negative integer")
    if k < 1:
        raise InputError("iroot order must be >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << (-(-n.bit_length() // k))  # 2^ceil(bits/k) >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# interval helpers (plain (lo, hi) pairs)
# ---------------------------------------------------------------------------

def iv_exact(x: Fraction) -> Iv:
    return (x, x)


def iv_is_exact(a: Iv) -> bool:
    return a[0] == a[1]


def iv_add(a: Iv, b: Iv) -> Iv:
    return (a[0] + b[0], a[1] + b[1])


def iv_sub(a: Iv, b: Iv) -> Iv:
    return (a[0] - b[1], a[1] - b[0])


def iv_neg(a: Iv) -> Iv:
    return (-a[1], -a[0])


def iv_mul(a: Iv, b: Iv) -> Iv:
    c = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(c), max(c))


def iv_recip(a: Iv) -> Iv:
    if a[0] <= 0 <= a[1]:
        raise InputError("interval reciprocal across zero")
    return (1 / a[1], 1 / a[0])


def iv_div(a: Iv, b: Iv) -> Iv:
    return iv_mul(a, iv_recip(b))


def iv_abs(a: Iv) -> Iv:
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return iv_neg(a)
    return (_ZERO, max(-a[0], a[1]))


def iv_intpow(a: Iv, k: int) -> Iv:
    if k == 0:
        return iv_exact(_ONE)
    if k < 0:
        return iv_recip(iv_intpow(a, -k))
    lo, hi = a[0] ** k, a[1] ** k
    if a[0] >= 0 or k % 2 == 1:
        return (min(lo, hi), max(lo, hi))
    # even power of a sign-crossing interval
    return (_ZERO, max(lo, hi))


def iv_intersect(a: Iv, b: Iv) -> Iv:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo > hi:
        raise InputError("empty interval intersection (inconsistent enclosures)")
    return (lo, hi)


def iv_scale(a: Iv, q: Fraction) -> Iv:
    if q >= 0:
        return (a[0] * q, a[1] * q)
    return (a[1] * q, a[0] * q)


def iv_cmp(a: Iv, b: Iv) -> Optional[int]:
    """-1 when a lies below b, +1 when above, None when they overlap."""
    if a[1] < b[0]:
        return -1
    if a[0] > b[1]:
        return 1
    return None


def _round_out(a: Iv, bits: int) -> Iv:
    """Round endpoints outward onto the 2^-bits dyadic grid (keeps sizes tame)."""
    g = 1 << bits
    lo = Fraction((a[0] * g).__floor__(), g)
    hi = Fraction(-((-a[1] * g).__floor__()), g)
    return (lo, hi)


# ---------------------------------------------------------------------------
# certified elementary enclosures
# ---------------------------------------------------------------------------

def sqrt_interval(x: Fraction, bits: int) -> Iv:
    """Enclosure of sqrt(x) with width <= 2^-bits (x >= 0)."""
    if x < 0:
        raise InputError("sqrt of a negative value")
    return nthroot_interval(x, 2, bits)


def _atanh_interval(z: Fraction, terms: int) -> Iv:
    """Enclosure of atanh(z) for 0 <= z < 1 from `terms` series terms."""
    total = _ZERO
    zsq = z * z
    power = z
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= zsq
    # remaining terms are positive and dominated by a geometric series
    tail = power / ((2 * terms + 1) * (1 - zsq))
    return (total, total + tail)


@cache
def _ln2_interval(bits: int) -> Iv:
    # ln 2 = 2 atanh(1/3); terms shrink by 9x so ~bits/3 terms suffice
    terms = bits // 3 + 4
    return _round_out(iv_scale(_atanh_interval(Fraction(1, 3), terms), Fraction(2)), bits + 8)


# Guard bits of the fixed-point ln series.  Its rounding error is a few
# units of 2^-(bits+_GUARD) per term, so with 64 guard bits an output
# endpoint is undecided only when the exact one lies within about
# 2^-(bits+40) of the 2^-bits grid.
_GUARD = 64


def _scaled_floor_ceil(x: Fraction, shift: int) -> tuple[int, int]:
    """floor and ceil of x * 2^shift."""
    n = x.numerator << shift
    return n // x.denominator, -(-n // x.denominator)


def _ln_fixed(num: int, den: int, e: int, ln2: Iv, terms: int, bits: int) -> Optional[Iv]:
    """The enclosure `ln_interval` rounds to the 2^-bits grid, or None if undecided.

    With z = num/den in [0, 1/3), T the first `terms` atanh(z) terms and
    tail their geometric tail bound, the exact path rounds
    [2 T + e ln2_lo, 2 (T + tail) + e ln2_hi] outward.  Here the same sums
    run on integers scaled by 2^(bits+_GUARD), once with every step rounded
    down and once rounded up, which brackets each endpoint between two
    integers.  If both integers of a bracket round to the same grid point,
    that point is the exact path's endpoint.  ResourceBudgetError when
    num * 2^(bits+_GUARD) would pass the `bits` of `errors.BUDGET`.
    """
    w = bits + _GUARD
    if (size := num.bit_length() + w) > (cap := BUDGET.get().bits):
        raise ResourceBudgetError(f"ln operand of {size:,} bits over the {cap:,}-bit budget")
    one = 1 << w
    z_lo, z_hi = (num << w) // den, -(-(num << w) // den)
    zsq_lo, zsq_hi = z_lo * z_lo >> w, -(-(z_hi * z_hi) >> w)
    t_lo = t_hi = 0
    p_lo, p_hi = z_lo, z_hi  # z^(2k+1)
    for k in range(terms):
        t_lo += p_lo // (2 * k + 1)
        t_hi -= -p_hi // (2 * k + 1)
        p_lo = p_lo * zsq_lo >> w
        p_hi = -(-(p_hi * zsq_hi) >> w)
    d = 2 * terms + 1
    tail_lo = (p_lo << w) // (d * (one - zsq_lo))
    tail_hi = -(-(p_hi << w) // (d * (one - zsq_hi)))
    a_lo, a_hi = _scaled_floor_ceil(ln2[0] * e, w)
    b_lo, b_hi = _scaled_floor_ceil(ln2[1] * e, w)
    lo = (2 * t_lo + a_lo) >> _GUARD
    hi = -(-(2 * (t_hi + tail_hi) + b_hi) >> _GUARD)
    if ((2 * t_hi + a_hi) >> _GUARD != lo
            or -(-(2 * (t_lo + tail_lo) + b_lo) >> _GUARD) != hi):
        return None
    g = 1 << bits
    return (Fraction(lo, g), Fraction(hi, g))


def ln_interval(x: Fraction, bits: int) -> Iv:
    """Enclosure of ln(x) with endpoints on the 2^-bits grid (x > 0).

    The exact enclosure is narrower than 2^-bits while |log2 x| < 2^15,
    but rounding it outward can straddle a grid point, so the result is
    at most two grid steps, 2^(1-bits), wide.  Callers ask for guard bits
    beyond the width they need.
    """
    if x <= 0:
        raise InputError("log of a non-positive value")
    if x == 1:
        return iv_exact(_ZERO)
    if x < 1:
        return iv_neg(ln_interval(1 / x, bits))
    # reduce to y = x / 2^e in [1, 2)
    e = (x.numerator // x.denominator).bit_length() - 1
    y = x / (1 << e)
    work = bits + 8
    terms = work // 3 + 4
    ln2 = _ln2_interval(work) if e else iv_exact(_ZERO)
    fast = _ln_fixed(y.numerator - y.denominator, y.numerator + y.denominator,
                     e, ln2, terms, bits)
    if fast is not None:
        return fast
    # an exact endpoint on (or extremely near) the grid: sum exactly
    z = (y - 1) / (y + 1)  # in [0, 1/3)
    res = iv_scale(_atanh_interval(z, terms), Fraction(2))
    if e:
        res = iv_add(res, iv_scale(ln2, Fraction(e)))
    return _round_out(res, bits)


@cache
def _e_interval(bits: int) -> Iv:
    total = _ONE
    term = _ONE
    k = 1
    while term.denominator.bit_length() < bits + 8:
        term /= k
        total += term
        k += 1
    return _round_out((total, total + 2 * term / k), bits + 8)


def _exp_point(x: Fraction, bits: int) -> Iv:
    """Enclosure of e^x for rational x."""
    if x < 0:
        return iv_recip(_exp_point(-x, bits))
    n0 = x.__floor__()
    r = x - n0
    res = iv_intpow(_e_interval(bits + 8), n0) if n0 else iv_exact(_ONE)
    if r:
        total = _ONE
        term = _ONE
        k = 1
        while True:
            term = term * r / k
            total += term
            k += 1
            if term < Fraction(1, 1 << (bits + 8)) and k > 2:
                break
        # tail <= term * r/(k)/(1 - r) <= 2*term for r in (0,1)
        res = iv_mul(res, (total, total + 2 * term))
    return _round_out(res, bits)


def exp_interval(a: Iv, bits: int) -> Iv:
    lo = _exp_point(a[0], bits)[0]
    hi = _exp_point(a[1], bits)[1]
    return (lo, hi)


def nthroot_interval(x: Fraction, k: int, bits: int) -> Iv:
    """Enclosure of x^(1/k) for x >= 0 and integer k >= 1."""
    if x < 0:
        raise InputError("even root of a negative value")
    p, q = x.numerator, x.denominator
    # x^(1/k) = (p q^(k-1))^(1/k) / q
    scaled = p * q ** (k - 1) << (k * bits)
    r = iroot(scaled, k)
    den = q << bits
    if r ** k == scaled:
        return iv_exact(Fraction(r, den))
    return (Fraction(r, den), Fraction(r + 1, den))


_SMALL_ROOT_LIMIT = 64


def rational_pow(base: Fraction, expo: Fraction, bits: int) -> Iv:
    """Enclosure of base**expo for base > 0; exact whenever the power is rational."""
    if base <= 0:
        raise InputError("power of a non-positive base")
    p, q = expo.numerator, expo.denominator
    if q == 1:
        return iv_exact(base ** p)
    if q <= _SMALL_ROOT_LIMIT:
        root = nthroot_interval(base, q, bits + 8)
        return _round_out(iv_intpow(root, p), bits)
    # huge-denominator exponents go through exp(expo * ln base)
    lnb = ln_interval(base, bits + expo.__ceil__().bit_length() + 16)
    return exp_interval(iv_scale(lnb, expo), bits)


def pow_interval(base: Iv, expo: Iv, bits: int) -> Iv:
    """Enclosure of base**expo for an interval base > 0 and interval exponent."""
    if base[0] <= 0:
        raise InputError("interval power needs a positive base")
    if iv_is_exact(expo):
        lo = rational_pow(base[0], expo[0], bits)
        hi = rational_pow(base[1], expo[0], bits)
        if expo[0] >= 0:
            return (lo[0], hi[1])
        return (hi[0], lo[1])
    work = bits + 16
    lnb = (ln_interval(base[0], work)[0], ln_interval(base[1], work)[1])
    return exp_interval(iv_mul(lnb, expo), bits)


# ---------------------------------------------------------------------------
# refinable sources and RealEnclosure
# ---------------------------------------------------------------------------

class EnclosureSource(Protocol):
    """Anything that can produce a sound enclosure at a given refinement level."""

    def interval(self, level: int) -> Iv: ...


def _level_bits(level: int) -> int:
    return BASE_BITS << level


class SqrtSource(Record):
    """sqrt(radicand) for a non-negative rational radicand."""

    radicand: Fraction

    def interval(self, level: int) -> Iv:
        return sqrt_interval(self.radicand, _level_bits(level))


def _ln_numerators(x: Fraction, w: int, logs: dict) -> tuple[int, int]:
    key = (x.numerator, x.denominator, w)
    if key not in logs:
        logs[key] = tuple((v.numerator << w) // v.denominator for v in ln_interval(x, w))
    return logs[key]


class LogRatioSource(Record):
    """log(num)/log(den) for positive rationals, den != 1.  Level k rounds it
    outward to the 2^-bits grid, bits = BASE_BITS * 2^k, by the floor and the
    ceiling of the endpoint quotients of the logs' 2^-(bits+8) grid numerators."""

    num: Fraction
    den: Fraction

    def __post_init__(self):
        if self.num <= 0 or self.den <= 0:
            raise InputError("log of a non-positive value")
        if self.den == 1:
            raise InputError("log-ratio denominator log(1) = 0")

    def _grid(self, level: int, logs: dict) -> tuple[int, int]:
        """Level `level` over 2^bits.  `logs` maps (p, q, w) to ln_interval(p/q, w)
        over 2^w."""
        bits = _level_bits(level)
        if self.num == 1:
            return (0, 0)
        w = bits + 8
        (a0, a1), (b0, b1) = (_ln_numerators(x, w, logs) for x in (self.num, self.den))
        if b0 <= 0 <= b1:
            raise InputError("interval reciprocal across zero")
        if b1 < 0:  # a/b = (-a)/(-b)
            a0, a1, b0, b1 = -a1, -a0, -b1, -b0
        return ((a0 << bits) // (b1 if a0 >= 0 else b0),
                -(-(a1 << bits) // (b0 if a1 >= 0 else b1)))

    def interval(self, level: int) -> Iv:
        lo, hi = self._grid(level, {})
        g = 1 << _level_bits(level)
        return (Fraction(lo, g), Fraction(hi, g))

    def within(self, bits: int, logs: Optional[dict] = None) -> Iv:
        """`RealEnclosure.from_source(self).refined_to(2^-bits).as_iv()`, from
        the fewest levels it depends on.  The ratio lies strictly inside each
        level, whose ends are on its grid, and the grids are nested.  So no
        level with a step over 2^-bits is narrow enough, and a coarser level
        cuts only where one of its grid points lies inside.  A den in (1/2, 2)
        starts at level 0, where its log may round across zero (InputError).
        Calls may share `logs`."""
        logs = {} if logs is None else logs
        level = 0
        while (_level_bits(level) < bits and level < BUDGET.get().steps
               and not _HALF < self.den < 2):
            level += 1
        lo, hi = self._grid(level, logs)
        top = _level_bits(level)
        for coarse in reversed(range(level)):
            shift = top - _level_bits(coarse)
            if ((lo >> shift) + 1) << shift >= hi:
                break
            c_lo, c_hi = self._grid(coarse, logs)
            lo, hi = max(lo, c_lo << shift), min(hi, c_hi << shift)
        iv = (Fraction(lo, 1 << top), Fraction(hi, 1 << top))
        if (hi - lo) << bits <= 1 << top:
            return iv
        # still wider than asked: refine on, or raise at the cap, as `refined_to` does
        return RealEnclosure(*iv, self, level).refined_to(Fraction(1, 1 << bits)).as_iv()


class AffineSource(Record):
    """add + mul * base, the only compound form the constants here need."""

    base: "EnclosureSource"
    mul: Fraction = _ONE
    add: Fraction = _ZERO

    def interval(self, level: int) -> Iv:
        lo, hi = iv_scale(self.base.interval(level), self.mul)
        return (lo + self.add, hi + self.add)


class RealEnclosure(Record):
    """A rational interval certified to contain one real number.

    `source is None` marks an exact rational (lo == hi).  `refine()`
    produces a nested enclosure at the next precision level.
    """

    lo: Fraction
    hi: Fraction
    source: Optional[EnclosureSource] = None
    level: int = 0

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError("enclosure with lo > hi")

    @staticmethod
    def exact(value) -> "RealEnclosure":
        v = Fraction(value)
        return RealEnclosure(v, v)

    @staticmethod
    def from_source(source: EnclosureSource) -> "RealEnclosure":
        lo, hi = source.interval(0)
        return RealEnclosure(lo, hi, source)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def as_iv(self) -> Iv:
        return (self.lo, self.hi)

    def can_refine(self) -> bool:
        """Whether `refine` can take a step: there is a source, and the
        level is below the `steps` of `errors.BUDGET`."""
        return self.source is not None and self.level < BUDGET.get().steps

    def refine(self) -> "RealEnclosure":
        """The nested enclosure at the next level; PrecisionError when
        there is no source or the cap is reached."""
        if not self.can_refine():
            source = "no source" if self.source is None else type(self.source).__name__
            w = self.width  # bounded by bit lengths: str() of a huge Fraction can fail
            raise PrecisionError(
                f"enclosure undecided ({source}) at refinement level {self.level} of cap "
                f"{BUDGET.get().steps}, width < 2^"
                f"{w.numerator.bit_length() - w.denominator.bit_length() + 1}")
        lo, hi = iv_intersect(self.source.interval(self.level + 1), self.as_iv())
        return RealEnclosure(lo, hi, self.source, self.level + 1)

    def decide(self, test: Callable[["RealEnclosure"], Optional[T]]) -> T:
        """The first result of `test` that is not None, on this enclosure
        and then on each refinement of it (PrecisionError when refinement
        runs out first)."""
        enc = self
        while (result := test(enc)) is None:
            enc = enc.refine()
        return result

    def refined_to(self, width_target: Fraction) -> "RealEnclosure":
        if width_target <= 0:
            raise InputError("width target must be positive")
        return self.decide(lambda enc: enc if enc.width <= width_target else None)

    def cmp_rational(self, x) -> int:
        """-1/0/+1 comparison against a rational, refining until decided.

        Returns 0 only for an exact equal rational; an inexact enclosure that
        keeps straddling x raises PrecisionError once it cannot be refined.
        """
        x = Fraction(x)
        return self.decide(lambda enc: 0 if enc.is_exact and enc.lo == x
                           else iv_cmp(enc.as_iv(), (x, x)))


Real = Union[Fraction, RealEnclosure]


def as_enclosure(x: Real) -> RealEnclosure:
    if isinstance(x, RealEnclosure):
        return x
    return RealEnclosure.exact(x)


def enclose_real(spec: Union[EnclosureSource, Fraction, int], width_target) -> RealEnclosure:
    """Enclosure of the real described by `spec`, no wider than `width_target`."""
    width_target = Fraction(width_target)
    if width_target <= 0:
        raise InputError("width target must be positive")
    if isinstance(spec, (Fraction, int)):
        return RealEnclosure.exact(spec)
    return RealEnclosure.from_source(spec).refined_to(width_target)


def floor_power(lam: Real, tau: Real, n: int) -> int:
    """Exact floor(lam * tau**n); refines until the floor is certain, at once for exact inputs."""
    if n < 1:
        raise InputError("floor_power needs n >= 1")
    lam_e, tau_e = as_enclosure(lam), as_enclosure(tau)
    if lam_e.lo <= 0:
        raise InputError("floor_power needs lam > 0")
    if tau_e.cmp_rational(1) <= 0:
        raise InputError("floor_power needs tau > 1")
    while True:
        val = iv_mul(lam_e.as_iv(), iv_intpow(tau_e.as_iv(), n))
        flo, fhi = val[0].__floor__(), val[1].__floor__()
        if flo == fhi:
            return flo
        lam_can, tau_can = lam_e.can_refine(), tau_e.can_refine()
        if not (lam_can or tau_can):
            raise UndecidableFloorError(
                f"floor(lam*tau^{n}) straddles an integer at refinement levels "
                f"{lam_e.level} and {tau_e.level}, where neither enclosure can be refined")
        lam_e = lam_e.refine() if lam_can else lam_e
        tau_e = tau_e.refine() if tau_can else tau_e


def golden_ratio_source() -> AffineSource:
    """(sqrt(5) - 1)/2."""
    return AffineSource(SqrtSource(Fraction(5)), mul=Fraction(1, 2), add=Fraction(-1, 2))


def exponent_enclosure(dset: MissingDigitSet) -> RealEnclosure:
    """The similarity dimension log(#digits)/log(base) of a digit set."""
    exact = dset.exponent_fraction
    if exact is not None:
        return RealEnclosure.exact(exact)
    return RealEnclosure.from_source(
        LogRatioSource(Fraction(dset.digit_count), Fraction(dset.base)))
