"""Missing-digit sets K in base b and their exact self-similar measure.

The measure is normalized so the whole set has mass 1; every level-n
basic interval (the closed interval over an allowed n-digit prefix)
then carries mass (#digits)^-n.  `cantor_cdf` evaluates the cumulative
distribution exactly for any rational r/q on integers alone: the
remainder r stays an integer mod q and the mass below x accumulates as
an integer over a power of #digits.  The digit stream of r/q is periodic
after a pre-period s read off from q (the number of times gcd(q, b) can
be divided out), so the cycle closes the first time the remainder
returns to its value at step s, with a geometric-series identity.  The
measure of any rational interval is therefore an exact Fraction.

Every enumeration of level-n basic intervals (cylinders) goes through
`MissingDigitSet.allowed_prefixes`, which descends one digit at a time
and keeps only the prefixes whose cylinders can still meet the target
range of cells.  It refuses, with ResourceBudgetError, to return more
than ENUM_BUDGET cells, and it detects that early.  The b-adic centers
p/b^n in the set are read off the allowed prefixes: p/b^n ends in 0s
after the digits of p, or in (b-1)s after the digits of p - 1.  The
natural cover check `full_cover_check` and the continued-fraction
prefix test `prefix_interval_disjoint_from` are built on these; the box
count of `layers.box_dimension_estimate` counts cells by prefix rank
and enumerates none but the centers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import InputError, ResourceBudgetError
from .intervals import Pair, PrefixInterval, RatInterval, clip_union, merge_pairs
from .records import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)

ENUM_BUDGET = 1 << 22  # most cells one enumeration may return


def _mult_dependent_exponent(count: int, base: int) -> Optional[Fraction]:
    """log(count)/log(base) as an exact fraction, when one exists.

    Two integers >= 2 have a rational log-ratio exactly when both are
    powers of a common integer g.
    """
    for g in range(2, min(count, base) + 1):
        i = j = 0
        x = 1
        while x < base:
            x *= g
            i += 1
        if x != base:
            continue
        x = 1
        while x < count:
            x *= g
            j += 1
        if x == count:
            return Fraction(j, i)
    return None


class MissingDigitSet(Record):
    """Reals in [0,1] admitting a base-b expansion using only the given digits."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 3:
            raise InputError("base must be >= 3")
        ds = tuple(sorted(set(self.digits)))
        object.__setattr__(self, "digits", ds)
        if not all(0 <= d < self.base for d in ds):
            raise InputError("digits must lie in [0, base-1]")
        if not 2 <= len(ds) <= self.base - 1:
            raise InputError("need a proper digit set with at least 2 digits")

    @staticmethod
    def middle_thirds() -> "MissingDigitSet":
        return MissingDigitSet(3, (0, 2))

    @property
    def digit_count(self) -> int:
        return len(self.digits)

    @property
    def non_adjacent(self) -> bool:
        return all(d + 1 not in self.digits for d in self.digits)

    @property
    def exponent_fraction(self) -> Optional[Fraction]:
        """Exact value of log(#digits)/log(base) when it is rational."""
        return _mult_dependent_exponent(self.digit_count, self.base)

    def digit_mass_pow(self, k: int) -> Fraction:
        """base**(k * exponent) collapses exactly to digit_count**k."""
        return Fraction(self.digit_count) ** k

    def prefix_allowed(self, p: int, n: int) -> bool:
        for _ in range(n):
            p, d = divmod(p, self.base)
            if d not in self._digitset:
                return False
        return True

    @cached_property
    def _digitset(self) -> frozenset:
        return frozenset(self.digits)

    @cached_property
    def _below(self) -> tuple[int, ...]:
        """Number of allowed digits strictly below each digit 0..b-1."""
        return tuple(sum(1 for j in self.digits if j < d) for d in range(self.base))

    def allowed_prefixes(self, level: int, first: int = 0,
                         last: Optional[int] = None) -> list[int]:
        """Sorted prefixes p of the level-n basic intervals with first <= p <= last.

        Descends one digit at a time, keeping a prefix only while its
        block of level-n cells still meets [first, last].  Every kept
        prefix but the two outermost has its whole block inside, so
        (kept - 2) * m^(levels left) cells are certain to come back.
        """
        b, m = self.base, self.digit_count
        if last is None:
            last = b ** level - 1
        out = [0]
        block = b ** level
        for left in range(level - 1, -1, -1):
            block //= b
            out = [v for v in (p * b + d for p in out for d in self.digits)
                   if v * block <= last and (v + 1) * block > first]
            certain = len(out) if left == 0 else (len(out) - 2) * m ** left
            if certain > ENUM_BUDGET:
                raise ResourceBudgetError(
                    f"more than {ENUM_BUDGET} level-{level} basic intervals "
                    f"in cells {first}..{last}")
        return out


class MembershipResult(Record):
    kind: str  # "in" | "out" | "undetermined"
    depth: Optional[int] = None

    @property
    def is_in(self) -> bool:
        return self.kind == "in"

    @property
    def is_out(self) -> bool:
        return self.kind == "out"


IN = MembershipResult("in")
OUT = MembershipResult("out")


def _preperiod(q: int, b: int) -> tuple[int, int]:
    """(s, rest): rest = q / gcd(q, b^s) is coprime to b for the least such s, so
    the digits of r/q repeat from the (s+1)-th on; r/q is b-adic iff rest == 1."""
    s, rest = 0, q
    g = gcd(rest, b)
    while g > 1:
        rest //= g
        s += 1
        g = gcd(rest, b)
    return s, rest


def _rational_status(dset: MissingDigitSet, x: Fraction) -> MembershipResult:
    """Membership of x in [0,1]: a b-adic x = p/b^s by the rule of
    `enumerate_centers`, any other by its pre-period and first period."""
    b, allowed = dset.base, dset._digitset
    r, q = x.numerator, x.denominator
    s, rest = _preperiod(q, b)
    if rest == 1:
        p = r * (b ** s // q)
        then_0s = 0 in allowed and p < b ** s and dset.prefix_allowed(p, s)
        then_top = b - 1 in allowed and p > 0 and dset.prefix_allowed(p - 1, s)
        return IN if then_0s or then_top else OUT
    r_s = r * pow(b, s, q) % q  # the remainder after the pre-period
    k = 0
    while True:
        d, r = divmod(r * b, q)
        k += 1
        if d not in allowed:
            return OUT
        if k > s and r == r_s:
            return IN


def _enclosure_status(dset: MissingDigitSet, lo: Fraction, hi: Fraction,
                      depth: int) -> MembershipResult:
    """Shared verdict of all points of [lo, hi] at the given level, if any.

    Width-zero enclosures never reach here (they take the exact rational
    path), so a point failing to be covered always shows up as a
    positive-length overlap with a removed cell: one of the cells a..e.
    """
    scale = 1
    for level in range(1, depth + 1):
        scale *= dset.base
        a, lo_rem = divmod(lo.numerator * scale, lo.denominator)  # floor(lo * scale)
        f, hi_rem = divmod(hi.numerator * scale, hi.denominator)  # floor(hi * scale)
        e = f if hi_rem else f - 1                                # ceil(hi * scale) - 1
        first = a - 1 if lo_rem == 0 and a > 0 else a
        cells = dset.allowed_prefixes(level, first, min(f, scale - 1))
        if not cells:
            return OUT
        inside = len(cells) - (cells[0] < a) - (cells[-1] > e)
        if inside < e - a + 1:
            return MembershipResult("undetermined", level)
    return IN


def membership(x, dset: MissingDigitSet, depth: int = 1) -> MembershipResult:
    """Verdict for a rational (exact), enclosure, or sparse digit stream."""
    if depth < 1:
        raise InputError("depth must be >= 1")
    if hasattr(x, "digit_verdict"):  # sparse digit numbers decide symbolically
        return x.digit_verdict(dset, depth)
    if hasattr(x, "is_exact"):  # a RealEnclosure, which this module does not import
        if x.is_exact:
            x = x.lo
        else:
            if not (_ZERO <= x.lo and x.hi <= _ONE):
                return OUT if (x.hi < 0 or x.lo > 1) else MembershipResult("undetermined", 0)
            return _enclosure_status(dset, x.lo, x.hi, depth)
    x = Fraction(x)
    if x < 0 or x > 1:
        return OUT
    return _rational_status(dset, x)


def enumerate_centers(dset: MissingDigitSet, n: int, coprime: bool, first: int = 0,
                      last: Optional[int] = None) -> list[int]:
    """Sorted p with p/b^n in the set (optionally with gcd(p, b^n) = 1),
    read off the allowed level-n prefixes in [first, last].

    p/b^n has the expansions "digits of p, then 0s" and, for p >= 1,
    "digits of p - 1, then (b-1)s".  So it lies in the set exactly when
    p is an allowed level-n prefix and 0 is a digit, or p - 1 is one and
    b - 1 is a digit.  Every center with first < p <= last is returned;
    first and last + 1 may be too.  The allowed prefixes count toward
    ENUM_BUDGET.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    prefixes = dset.allowed_prefixes(n, first, last)
    centers: set[int] = set()
    if 0 in dset._digitset:
        centers.update(prefixes)
    if dset.base - 1 in dset._digitset:
        centers.update(p + 1 for p in prefixes)
    return sorted(p for p in centers if not coprime or gcd(p, dset.base) == 1)


def center_count(dset: MissingDigitSet, n: int) -> int:
    """#{0 <= p <= b^n : p/b^n in K}; closed form for non-adjacent digit sets."""
    if dset.non_adjacent and 0 in dset.digits and dset.base - 1 in dset.digits:
        return 2 * dset.digit_count ** n
    return len(enumerate_centers(dset, n, coprime=False))


# ---------------------------------------------------------------------------
# exact measure
# ---------------------------------------------------------------------------

class CantorMeasureValue(Record):
    """Measure of a set; exact when lo == hi, else certified two-sided bounds."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (_ZERO <= self.lo <= self.hi <= _ONE):
            raise InputError("measure bounds outside [0,1]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise InputError("measure is only known as bounds")
        return self.lo


def cantor_cdf(dset: MissingDigitSet, x: Fraction | int, den: int = 1) -> Fraction:
    """mu([0, x/den]) exactly, for rational x and a positive integer den.

    Walks the digit stream of x/den = r/q with the remainder r kept as an
    integer mod q; each digit d adds the mass of the allowed cells
    strictly below d at that level, accumulated as the integer A over
    m^k (m = #digits, k digits read).  Dividing gcd(q, b) out of q until
    it is 1 counts the pre-period s: from step s on the remainders are
    purely periodic.  When r first returns to its step-s value, k = s + L
    and the tail repeats the same L digits forever, which sums to
    (A - A_s) / (m^s (m^L - 1)).  A stream that terminates or reads a
    disallowed digit ends at A / m^k.  An integer x over a layer's shared
    grid den need not be in lowest terms: gcd(x, den) is divided out first.
    """
    r, q = x.numerator, x.denominator * den
    if r <= 0:
        return _ZERO
    if r >= q:
        return _ONE
    g = gcd(r, q)
    r, q = r // g, q // g
    b, m = dset.base, dset.digit_count
    below, allowed = dset._below, dset._digitset
    s, _ = _preperiod(q, b)
    acc = 0
    for k in range(1, s + 1):
        d, r = divmod(r * b, q)
        acc = acc * m + below[d]
        if d not in allowed:
            return Fraction(acc, m ** k)
    if r == 0:
        return Fraction(acc, m ** s)
    r_s, acc_s = r, acc
    period = 0
    while True:
        d, r = divmod(r * b, q)
        acc = acc * m + below[d]
        period += 1
        if d not in allowed:
            return Fraction(acc, m ** (s + period))
        if r == r_s:
            return Fraction(acc - acc_s, m ** s * (m ** period - 1))


def measure_pair(dset: MissingDigitSet, lo: Fraction, hi: Fraction) -> Fraction:
    if hi <= lo:
        return _ZERO
    return cantor_cdf(dset, hi) - cantor_cdf(dset, lo)


def measure_union(dset: MissingDigitSet, pairs: Sequence[Pair]) -> Fraction:
    return sum((measure_pair(dset, lo, hi) for lo, hi in merge_pairs(pairs)), _ZERO)


def cantor_measure(dset: MissingDigitSet, iv: RatInterval) -> CantorMeasureValue:
    """Exact normalized measure of a closed rational interval."""
    v = measure_pair(dset, iv.lo, iv.hi)
    return CantorMeasureValue(v, v)


def full_cover_check(dset: MissingDigitSet, n: int, window: RatInterval) -> bool:
    """Whether the radius-b^-n balls around the centers p/b^n in the set
    cover the window in measure.

    Every ball end (p -+ 1)/b^n and both window ends are integers over
    one grid D, the lcm of b^n and the window's denominators, so the
    balls are merged and clipped on integers and each piece is measured
    by `cantor_cdf` over D.  Only the centers within b^-n of the window
    are enumerated, from the prefixes ceil(lo b^n) - 2 .. floor(hi b^n) + 1.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    bn = dset.base ** n
    lo, hi = window.lo, window.hi
    grid = lcm(bn, lo.denominator, hi.denominator)
    step = grid // bn
    wl, wh = lo.numerator * (grid // lo.denominator), hi.numerator * (grid // hi.denominator)
    first = max(-(-wl // step) - 2, 0)
    last = min(wh // step + 1, bn)
    balls = [((p - 1) * step, (p + 1) * step)
             for p in enumerate_centers(dset, n, False, first, last)]
    covered = sum((cantor_cdf(dset, y, grid) - cantor_cdf(dset, x, grid)
                   for x, y in clip_union(merge_pairs(balls), (wl, wh)) if x < y), _ZERO)
    return covered == measure_pair(dset, lo, hi)


def prefix_interval_disjoint_from(pi: PrefixInterval, dset: MissingDigitSet,
                                  depth: int) -> bool:
    """True when the prefix interval misses every level-depth basic interval.

    Only the cells [k, k+1]/b^depth that meet [lo, hi] are visited:
    ceil(lo b^depth) - 1 <= k <= floor(hi b^depth).  Each meets the
    interval in more than a point, except the first when lo b^depth is an
    integer and the last when hi b^depth is one: those meet it only at
    lo or hi, which counts only when that end is closed.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    scale = dset.base ** depth
    minus_ceil_lo, lo_rem = divmod(-pi.lo.numerator * scale, pi.lo.denominator)
    last, hi_rem = divmod(pi.hi.numerator * scale, pi.hi.denominator)
    first = -minus_ceil_lo - 1
    at_open_end = set()
    if lo_rem == 0 and not pi.lo_closed:
        at_open_end.add(first)
    if hi_rem == 0 and not pi.hi_closed:
        at_open_end.add(last)
    return all(k in at_open_end for k in dset.allowed_prefixes(depth, first, last))
