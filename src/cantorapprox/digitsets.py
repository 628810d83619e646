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
measure of any rational interval is therefore an exact Fraction.  The
same walk, `_digit_walk`, decides membership of a rational that is not
b-adic: it is in K exactly when every digit up to the cycle's close is
allowed.

Level-n basic intervals (cylinders) are counted by two prefix ranks,
`_cell_count`, and listed only to read off the b-adic centers p/b^n in
the set (`enumerate_centers`), where p/b^n ends in 0s after the digits
of p, or in (b-1)s after those of p - 1, and the ranks of the cells a
grid's points fall in (`grid_cdf`).  The listing, `allowed_prefixes`, raises
ResourceBudgetError past the `cells` of `errors.BUDGET`, which
`_listing_range` checks on the count before anything is listed.

`ball_unions` is the one level kernel: one listing, of the cells that
`_cells_meeting` finds for the window widened by the radius, gives the
centers, whose balls it merges and clips, and the ranks of `grid_cdf`,
the one CDF evaluator on a grid, that every union end carries.  Only
`layers.build_layer` calls it, for the layers (radius psi(b^n)) and for
the box count of `layers.box_dimension_estimate`, one layer of radius
about b^(-tau n).  Its refusals come first, from sizes, in `check_level`,
which `layers.layer_table` also asks of every level before it builds one.
`full_cover_check` counts those cells and needs no ball: the natural cover
(radius b^-n) holds the set when 0 or b - 1 is a digit, and is empty otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, log2
from typing import Iterable, Optional, Sequence

from .errors import BUDGET, InputError, ResourceBudgetError, check_bits, power_bits, text
from .intervals import Pair, PrefixInterval, RatInterval, clip_union, merge_pairs
from .records import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)

# cap on a level's listed cells times its grid's bit length, about the
# bits of the ball ends `ball_unions` would build
BALL_END_BITS = 1 << 29


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
    def _below(self) -> list[int]:
        """Number of allowed digits strictly below each digit 0..b-1, one run
        a gap between allowed digits; ResourceBudgetError past 2^22 digits."""
        if self.base > (cap := 1 << 22):
            raise ResourceBudgetError(f"base {text(self.base, ',')} over the {cap:,}-entry "
                                      "cap of the prefix-rank table")
        below: list[int] = []
        for i, (lo, hi) in enumerate(zip((-1,) + self.digits, self.digits + (self.base - 1,))):
            below += [i] * (hi - lo)
        return below

    def _listing_range(self, level: int, first: int,
                       last: Optional[int]) -> tuple[int, int, int]:
        """[first, last] clipped to the level-n prefixes, and the count of the
        allowed ones in it, by two rank walks, once within the budget's `cells`."""
        top = self.base ** level - 1
        first, last = max(first, 0), top if last is None else min(last, top)
        if (count := _cell_count(self, level, first, last)) > (cap := BUDGET.get().cells):
            raise ResourceBudgetError(f"{text(count, ',')} level-{level} basic intervals in "
                                      f"cells {text(first)}..{text(last)} over the {cap:,}-cell "
                                      "budget")
        return first, last, count

    def allowed_prefixes(self, level: int, first: int = 0,
                         last: Optional[int] = None) -> list[int]:
        """Sorted prefixes p of the level-n basic intervals with first <= p <= last.

        Their number is checked against the budget's `cells` first
        (`_listing_range`); the descent keeps a prefix while its block of
        cells meets [first, last].
        """
        first, last, _ = self._listing_range(level, first, last)
        b = self.base
        out, block = [0], b ** level
        for _ in range(level):
            block //= b
            out = [v for v in (p * b + d for p in out for d in self.digits)
                   if v * block <= last and (v + 1) * block > first]
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
    the digits of r/q repeat from the (s+1)-th on; r/q is b-adic iff rest == 1.

    That is dividing g = gcd(rest, b) out of rest until it is 1, one step a
    division.  g stays the same while it divides rest, so each pass divides
    out g, g^2, g^4, ... (1, 2, 4, ... steps) while they divide: a pass at
    least halves the power of g left, so O(log s) passes of O(log s)
    divisions each.
    """
    s, rest = 0, q
    g = gcd(rest, b)
    while g > 1:
        power, steps = g, 1
        while not (qr := divmod(rest, power))[1]:
            rest, s = qr[0], s + steps
            power, steps = power * power, 2 * steps
        g = gcd(rest, b)
    return s, rest


def _rational_status(dset: MissingDigitSet, x: Fraction) -> MembershipResult:
    """Membership of x in [0,1]: a b-adic x = p/b^s by the rule of
    `enumerate_centers`, any other by the digit walk of `cantor_cdf`."""
    b, allowed = dset.base, dset._digitset
    r, q = x.numerator, x.denominator
    s, rest = _preperiod(q, b)
    if rest == 1:
        p = r * (b ** s // q)
        then_0s = 0 in allowed and p < b ** s and dset.prefix_allowed(p, s)
        then_top = b - 1 in allowed and p > 0 and dset.prefix_allowed(p - 1, s)
        return IN if then_0s or then_top else OUT
    return IN if _digit_walk(dset, r, q, s)[-1] else OUT


def _enclosure_status(dset: MissingDigitSet, lo: Fraction, hi: Fraction,
                      depth: int) -> MembershipResult:
    """Shared verdict of all points of [lo, hi] up to the given level, if any.

    Out when no allowed level-depth cell meets [lo, hi]: cells are nested,
    so that holds when [lo, hi] is out at any level up to depth.  Else
    undetermined at the first level where a removed cell meets (lo, hi).
    Width-zero enclosures take the exact rational path, so a point not
    covered always shows up as a removed cell among the latter.
    """
    if not _cell_count(dset, depth, *_cells_meeting(lo, hi, dset.base ** depth, True, True)):
        return OUT
    scale = 1
    for level in range(1, depth + 1):
        scale *= dset.base
        a, e = _cells_meeting(lo, hi, scale, False, False)
        if _cell_count(dset, level, a, e) < e - a + 1:
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
                      last: Optional[int] = None, listed: Optional[list[int]] = None
                      ) -> list[int]:
    """Sorted p in [first, last] (last b^n by default) with p/b^n in the set.

    p/b^n has the expansions "digits of p, then 0s" and, for p >= 1,
    "digits of p - 1, then (b-1)s".  So it lies in the set exactly when
    p is an allowed level-n prefix and 0 is a digit, or p - 1 is one and
    b - 1 is a digit.  The centers are read off the allowed prefixes in
    [first - 1, last], `listed` when given, and with `coprime` only those
    prime to b are kept.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    last = dset.base ** n if last is None else last
    prefixes = dset.allowed_prefixes(n, first - 1, last) if listed is None else listed
    centers: set[int] = set()
    if 0 in dset._digitset:
        centers.update(prefixes)
    if dset.base - 1 in dset._digitset:
        centers.update(p + 1 for p in prefixes)
    return sorted(p for p in centers
                  if first <= p <= last and (not coprime or gcd(p, dset.base) == 1))


def center_count(dset: MissingDigitSet, n: int) -> int:
    """#{0 <= p <= b^n : p/b^n in K}, by the rule of `enumerate_centers`:
    m^n for 0 a digit, m^n for b - 1, less the p with p - 1 and p both
    allowed: p - 1 ends in j = 0..n-1 digits b - 1 after one of the adj
    digits d with d + 1 a digit, which gives adj * m^(n-1-j) of them."""
    if n < 1:
        raise InputError("level must be >= 1")
    digits, m = dset._digitset, dset.digit_count
    has_0, has_top = 0 in digits, dset.base - 1 in digits
    adj = sum(d + 1 in digits for d in digits) if has_0 and has_top else 0
    return (has_0 + has_top) * m ** n - adj * (m ** n - 1) // (m - 1)


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


def _prefix_rank(dset: MissingDigitSet, k: int, n: int) -> tuple[int, bool]:
    """(#allowed level-n prefixes below k, whether k is one), 0 <= k <= b^n.

    A prefix below k < b^n agrees with k above some digit i and is
    smaller at i, so it counts below[d_i] * m^i when every digit of k
    above i is allowed.  Reading k from its last digit, a disallowed
    digit therefore discards the count of the digits below it.  All m^n
    prefixes lie below b^n.
    """
    below, allowed, b, m = dset._below, dset._digitset, dset.base, dset.digit_count
    rank, weight, inside = 0, 1, True
    for _ in range(n):
        k, d = divmod(k, b)
        if d in allowed:
            rank += below[d] * weight
        else:
            rank, inside = below[d] * weight, False
        weight *= m
    return (weight, False) if k else (rank, inside)


def _cells_meeting(lo: Fraction, hi: Fraction, scale: int, lo_closed: bool,
                   hi_closed: bool) -> tuple[int, int]:
    """(first, last): the cells [k, k+1]/scale that meet [lo, hi] have
    first <= k <= last, from ceil(lo scale) - 1 to floor(hi scale) less a
    first (last) cell that meets it only at lo (hi) when that end is open."""
    minus_ceil_lo, lo_rem = divmod(-lo.numerator * scale, lo.denominator)
    floor_hi, hi_rem = divmod(hi.numerator * scale, hi.denominator)
    return (-minus_ceil_lo - (lo_closed or lo_rem != 0),
            floor_hi - (not hi_closed and hi_rem == 0))


def _cell_count(dset: MissingDigitSet, n: int, first: int, last: int) -> int:
    """#allowed level-n prefixes p with first <= p <= last, from two rank walks."""
    first, last = max(first, 0), min(last, dset.base ** n - 1)
    if first > last:
        return 0
    return _prefix_rank(dset, last + 1, n)[0] - _prefix_rank(dset, first, n)[0]


def cantor_cdf(dset: MissingDigitSet, x: Fraction | int, den: int = 1) -> Fraction:
    """mu([0, x/den]) exactly, for rational x and a positive integer den.

    Dividing gcd(q, b) out of q (x/den = r/q in lowest terms) until it is
    1 counts the pre-period s.  Its digits are the prefix k = floor(r
    b^s / q), whose rank A_s gives A_s / m^s (m = #digits) when k is not
    allowed or the stream ends there.  Otherwise the walk reads digits on
    the remainder mod q, each d adding the allowed cells below d to the
    integer A over m^(s+L).  When r returns to its step-s value the L
    digits repeat forever, which sums to (A - A_s) / (m^s (m^L - 1)); a
    disallowed digit ends the walk at A / m^(s+L).
    """
    r, q = x.numerator, x.denominator * den
    if r <= 0:
        return _ZERO
    if r >= q:
        return _ONE
    g = gcd(r, q)
    r, q = r // g, q // g
    s, _ = _preperiod(q, dset.base)
    acc_s, acc, period, inside = _digit_walk(dset, r, q, s)
    m = dset.digit_count
    if inside and period:  # the L digits repeat forever
        return Fraction(acc - acc_s, m ** s * (m ** period - 1))
    return Fraction(acc, m ** (s + period))


def _digit_walk(dset: MissingDigitSet, r: int, q: int, s: int) -> tuple[int, int, int, bool]:
    """(A_s, A, L, whether every digit read is allowed): the walk that
    `cantor_cdf` describes, over r/q in lowest terms with pre-period s.
    L = 0 when it stops at the prefix.

    When 0 is a digit of the set, a run of zeros right after the prefix,
    the j digits with r_s b^j < q, is read in one step, A_s m^j over
    m^(s+j), if it is at least 64 bits long; a shorter one costs less
    digit by digit.  Each remainder r_s b^i of the run exceeds r_s, so the
    walk cannot close inside it.  The CDF's denominator m^(s+L) then
    exceeds m^(s+j0), j0 <= j from bit lengths, which is held to the bit
    budget before b^j is built."""
    b, m = dset.base, dset.digit_count
    k, r = divmod(r * b ** s, q)
    acc, inside = _prefix_rank(dset, k, s)
    if not inside or r == 0:
        return acc, acc, 0, inside
    below, allowed = dset._below, dset._digitset
    r_s, acc_s = r, acc
    period = 0
    if 0 in allowed and r << 64 < q:
        # q / r > 2^(D-1), D the bit length of q less that of r, so j0,
        # less one for rounding, is at most j
        j0 = max(int((q.bit_length() - r.bit_length() - 1) / log2(b)) - 1, 0)
        check_bits(power_bits(m, s + j0), "{}^{}", m, s + j0)
        period, r = _zero_run(r, q, b, j0)
        acc *= m ** period
    while True:
        d, r = divmod(r * b, q)
        acc = acc * m + below[d]
        period += 1
        if d not in allowed or r == r_s:
            return acc_s, acc, period, d in allowed


def _zero_run(r: int, q: int, b: int, j: int) -> tuple[int, int]:
    """(j, r b^j) for the largest j with r b^j < q, 0 < r < q, stepping
    up exactly from a given j0 <= j."""
    r *= b ** j
    while (up := r * b) < q:
        r, j = up, j + 1
    return j, r


def grid_cdf(dset: MissingDigitSet, n: int, grid: int, points: Iterable[int], first: int,
             listed: list[int]) -> tuple[dict[int, int], int]:
    """({x: N}, D) with mu([0, x/grid]) = N / D for each point 0 <= x <= grid,
    grid a multiple of b^n, given `listed`, the allowed level-n prefixes
    from cell `first` on through the cell of every point.

    By self-similarity, with x/grid = (k + f)/b^n and 0 <= f < 1,
    mu([0, x/grid]) = (rank(k) + [k allowed] mu([0, f])) / m^n.  The
    ranks come from one rank walk, at `first`, and the listing: rank(k)
    adds the listed prefixes below k, and k is allowed when it is listed.
    Each distinct nonzero f takes one `cantor_cdf` call, and D is m^n
    times the lcm of their denominators.  On the grid b^n, N is the rank.
    """
    step = grid // dset.base ** n
    split = {x: divmod(x, step) for x in points}
    local = {f: cantor_cdf(dset, f, step) for f in {f for _, f in split.values()} if f}
    scale = lcm(*(c.denominator for c in local.values()))
    lifted = {f: c.numerator * (scale // c.denominator) for f, c in local.items()}
    below = _prefix_rank(dset, first, n)[0]
    cdf = {}
    for x, (k, f) in split.items():
        i = bisect_left(listed, k)
        inside = i < len(listed) and listed[i] == k
        cdf[x] = (below + i) * scale + (lifted[f] if inside and f else 0)
    return cdf, dset.digit_count ** n * scale


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


def on_grid(x: Fraction, grid: int) -> int:
    """The numerator of x over `grid`, a multiple of x's denominator."""
    return x.numerator * (grid // x.denominator)


# a carried union: sorted disjoint (lo, hi) pairs with ends (x, N), x an
# integer over a grid and N that of mu([0, x/grid]) over a CDF denominator
GridUnion = tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def carried_measure(union: GridUnion, den: int) -> Fraction:
    """The measure of a carried union whose CDF numerators are over den."""
    return Fraction(sum(c_hi - c_lo for (_, c_lo), (_, c_hi) in union), den)


def check_level(dset: MissingDigitSet, n: int, window: Pair,
                radii: Sequence[Fraction]) -> tuple[int, int, int, int]:
    """(b^n, grid, first, last) of the level-n balls of `radii` in `ball_unions`,
    once b^n is within the bit budget, the allowed cells first..last within
    `cells`, and their count times the bits of `grid`, the lcm of b^n and the
    window's and radii's denominators, within BALL_END_BITS; no cell is listed."""
    check_bits(power_bits(dset.base, n), "{}^{}", dset.base, n)
    bn, r = dset.base ** n, max(radii)
    first, last = _cells_meeting(window[0] - r, window[1] + r, bn, True, True)
    count = dset._listing_range(n, first, last)[2]
    grid = lcm(bn, *(x.denominator for x in (*window, *radii)))
    if count * grid.bit_length() > BALL_END_BITS:
        raise ResourceBudgetError(f"{count:,} level-{n} cells on a "
                                  f"{grid.bit_length():,}-bit grid over the "
                                  f"{BALL_END_BITS:,}-bit cap of their ball ends")
    return bn, grid, first, last


def ball_unions(dset: MissingDigitSet, n: int, coprime: bool, window: Pair,
                radii: Sequence[Fraction]) -> tuple[int, list[int], list[GridUnion], int]:
    """(grid, centers, unions, D): the p of the centers p/b^n in the set
    (prime to b with `coprime`) whose balls of the largest radius meet the
    window, and for each radius the merged union of their balls clipped to
    the window, carried over D.

    The ball of radius r around p/b^n meets the window [lo, hi] when the
    cell [p - 1, p]/b^n meets [lo - r, hi + r], so one listing of the
    cells `_cells_meeting` gives for it, first..last (r the largest
    radius), gives the centers in first + 1..last and the ranks of every
    union end, whose cell lies in that range.  The ball ends p/b^n -+ r
    and the window ends are integers over `grid`, the lcm of b^n and their
    denominators; they take about as many bits as the listed cells times
    the grid's bit length.  `check_level` refuses the level before any
    cell is listed.
    """
    bn, grid, first, last = check_level(dset, n, window, radii)
    listed = dset.allowed_prefixes(n, first, last)
    step, (wl, wh) = grid // bn, (on_grid(x, grid) for x in window)
    centers = enumerate_centers(dset, n, coprime, first + 1, last, listed)
    unions = [clip_union(merge_pairs([(p * step - u, p * step + u) for p in centers]), (wl, wh))
              for u in (on_grid(x, grid) for x in radii)]
    cdf, den = grid_cdf(dset, n, grid, (x for union in unions for pair in union for x in pair),
                        max(first, 0), listed)
    return grid, centers, [tuple(((lo, cdf[lo]), (hi, cdf[hi])) for lo, hi in union)
                           for union in unions], den


def full_cover_check(dset: MissingDigitSet, n: int, window: RatInterval) -> bool:
    """Whether the radius-b^-n balls around the centers p/b^n in the set
    cover the window in measure.

    With 0 a digit, an allowed level-n cell [p, p + 1]/b^n has the center
    p/b^n, and with b - 1 a digit the center (p + 1)/b^n: either ball holds
    the cell, so the balls hold the set.  With neither, no p/b^n lies in
    the set, so there is no ball, and the window is covered exactly when
    its measure is 0.  The cells `ball_unions` would list for these balls
    (`_cells_meeting` on [lo - b^-n, hi + b^-n]) are held to the `cells`
    budget first, with that listing's refusal, and none is listed.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    check_bits(power_bits(dset.base, n), "{}^{}", dset.base, n)
    bn, (lo, hi) = dset.base ** n, window.pair()
    r = Fraction(1, bn)
    dset._listing_range(n, *_cells_meeting(lo - r, hi + r, bn, True, True))
    if 0 in dset._digitset or dset.base - 1 in dset._digitset:
        return True
    return measure_pair(dset, lo, hi) == 0


def prefix_interval_disjoint_from(pi: PrefixInterval, dset: MissingDigitSet,
                                  depth: int) -> bool:
    """True when the prefix interval misses every level-depth basic interval."""
    if depth < 1:
        raise InputError("depth must be >= 1")
    check_bits(power_bits(dset.base, depth), "{}^{}", dset.base, depth)
    first, last = _cells_meeting(pi.lo, pi.hi, dset.base ** depth,
                                 pi.lo_closed, pi.hi_closed)
    return _cell_count(dset, depth, first, last) == 0
