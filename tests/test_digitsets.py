import itertools
import random
import time
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cantorapprox import (InputError, MissingDigitSet, RatInterval, RealEnclosure,
                          ResourceBudgetError, SqrtSource, cantor_cdf, cantor_measure,
                          center_count, enumerate_centers, full_cover_check,
                          measure_union, membership)
from cantorapprox import digitsets, layers
from cantorapprox.digitsets import grid_cdf, measure_pair, on_grid
from cantorapprox.errors import Budget, PrecisionError
from cantorapprox.intervals import clip_union, merge_pairs
from cantorapprox.layers import build_layer

from oracles import (ball_cells_on_the_grid, digit_walk_by_digits, enclosure_status,
                     full_cover_by_the_kernel, full_cover_cells_by_floors,
                     listed_twice_ball_unions, oracle_cdf, oracle_measure, preperiod_by_steps,
                     rational_in_set, under_budget)

K = MissingDigitSet.middle_thirds()

# rationals in [0,1] with denominators up to 3^7 for property tests
small_rat = st.builds(
    lambda num, den: F(num % (den + 1), den),
    st.integers(min_value=0, max_value=3 ** 7),
    st.integers(min_value=1, max_value=3 ** 7),
)


def test_set_validation():
    with pytest.raises(InputError):
        MissingDigitSet(2, (0, 1))
    with pytest.raises(InputError):
        MissingDigitSet(3, (0,))
    with pytest.raises(InputError):
        MissingDigitSet(3, (0, 1, 2))
    with pytest.raises(InputError):
        MissingDigitSet(3, (0, 5))


def test_exponent_rational_detection():
    assert K.exponent_fraction is None
    assert MissingDigitSet(4, (0, 3)).exponent_fraction == F(1, 2)
    assert MissingDigitSet(9, (0, 2, 5)).exponent_fraction == F(1, 2)
    assert MissingDigitSet(8, (0, 3, 5, 7)).exponent_fraction == F(2, 3)


def test_membership_examples():
    assert membership(F(1, 3), K).is_in      # 0.0222... avoids the digit 1
    assert membership(F(1, 2), K).is_out     # 0.111...
    assert membership(F(1, 4), K).is_in      # 0.020202...
    assert membership(F(0), K).is_in and membership(F(1), K).is_in
    assert membership(F(2), K).is_out


def test_membership_without_zero_digit():
    # J = {1, 2} in base 4: 3/8 = 0.12000... = 0.11333... has no valid expansion
    s = MissingDigitSet(4, (1, 2))
    assert membership(F(3, 8), s).is_out
    assert membership(F(0), s).is_out
    # 0.1212... = (4*1+2)/15 = 2/5
    assert membership(F(2, 5), s).is_in


def test_membership_enclosure_verdicts():
    inside = RealEnclosure(F(2, 9) + F(1, 100), F(2, 9) + F(1, 99))
    assert membership(inside, K, 5).is_in
    gap = RealEnclosure(F(2, 5), F(9, 20))
    assert membership(gap, K, 3).is_out
    straddle = RealEnclosure(F(3, 10), F(4, 10))
    assert membership(straddle, K, 4).kind == "undetermined"
    # a point enclosure is its rational; 1/4 = 0.0202... in base 3
    assert membership(RealEnclosure.exact(F(1, 4)), K).is_in
    assert membership(RealEnclosure(F(-2), F(-1)), K).is_out
    assert membership(RealEnclosure(F(1, 2), F(3)), K) == digitsets.MembershipResult(
        "undetermined", 0)


def test_membership_of_an_enclosure_out_below_its_first_split():
    """[3/20, 1/4] splits at level 1 on 5:0,2, but K misses (1/10, 2/5) and
    no allowed level-2 cell meets it: out at depth 2, undetermined at depth 1."""
    dset = MissingDigitSet(5, (0, 2))
    enclosure = RealEnclosure(F(3, 20), F(1, 4), SqrtSource(F(1, 25)))
    assert membership(enclosure, dset, 2).is_out
    assert membership(enclosure, dset, 1) == digitsets.MembershipResult("undetermined", 1)


def test_enumerate_examples():
    assert enumerate_centers(K, 1, False) == [0, 1, 2, 3]
    assert enumerate_centers(K, 2, True) == [1, 2, 7, 8]
    assert enumerate_centers(MissingDigitSet(4, (0, 3)), 1, False) == [0, 1, 3, 4]


@pytest.mark.parametrize("n", range(1, 13))
def test_endpoint_count_nonadjacent(n):
    assert len(enumerate_centers(K, n, False)) == 2 ** (n + 1)
    assert center_count(K, n) == 2 ** (n + 1)


def test_center_levels_below_1_are_rejected():
    with pytest.raises(InputError):
        center_count(K, 0)
    with pytest.raises(InputError):
        enumerate_centers(K, 0, False)


def test_enumerate_post_membership():
    for n in (1, 2, 3, 4):
        for p in enumerate_centers(K, n, False):
            assert membership(F(p, 3 ** n), K).is_in


def test_adjacent_digit_set_dedupes():
    s = MissingDigitSet(3, (0, 1))
    centers = enumerate_centers(s, 2, False)
    assert len(centers) == len(set(centers))
    # shared endpoints make the count fall below 2 * #J^n
    assert len(centers) < 2 * 4 + 1


def test_measure_examples():
    assert cantor_measure(K, RatInterval.unit()).value == 1
    assert cantor_measure(K, RatInterval.make(0, F(1, 3))).value == F(1, 2)
    assert cantor_measure(K, RatInterval.make(F(2, 9), F(4, 9))).value == F(1, 4)
    assert cantor_measure(K, RatInterval.make(F(1, 3), F(2, 3))).value == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_basic_interval_mass(n):
    scale = 3 ** n
    prefixes = K.allowed_prefixes(n)
    expect = F(1, 2 ** n)
    # all levels up to 8 fully; spot-check 64 intervals beyond that
    sample = prefixes if n <= 8 else prefixes[:: max(1, len(prefixes) // 64)]
    for p in sample:
        got = cantor_measure(K, RatInterval.make(F(p, scale), F(p + 1, scale))).value
        assert got == expect


@given(small_rat, small_rat, small_rat, small_rat)
@settings(max_examples=60, deadline=None)
def test_additivity_on_disjoint_pairs(a, b, c, d):
    xs = sorted([a, b, c, d])
    i1 = (xs[0], xs[1])
    i2 = (xs[2], xs[3])
    total = measure_union(K, [i1, i2])
    assert total == (cantor_cdf(K, i1[1]) - cantor_cdf(K, i1[0])
                     + cantor_cdf(K, i2[1]) - cantor_cdf(K, i2[0]))


@given(small_rat, small_rat, st.sampled_from([0, 2]))
@settings(max_examples=60, deadline=None)
def test_self_similarity(a, b, digit):
    lo, hi = min(a, b), max(a, b)
    lo = (lo + digit) / 3
    hi = (hi + digit) / 3  # interval inside cell [digit/3, (digit+1)/3]
    inner = cantor_measure(K, RatInterval.make(lo, hi)).value
    outer = cantor_measure(K, RatInterval.make(3 * lo - digit, 3 * hi - digit)).value
    assert inner == outer / 2


PRIMES = [p for p in range(2, 10_000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
CDF_SETS = (K, MissingDigitSet(4, (0, 3)), MissingDigitSet(5, (0, 2, 3)))


def _block(digits, base: int) -> int:
    v = 0
    for d in digits:
        v = v * base + d
    return v


@st.composite
def set_and_point(draw):
    """A set and a rational whose denominator is a power of its base, a
    prime below 10^4 (digit cycles as long as the base's order mod p),
    or both multiplied; or a point of the set whose expansion is a
    pre-period and a period of up to 60 allowed digits, which is the
    only kind of point whose cycle the CDF has to close."""
    dset = draw(st.sampled_from(CDF_SETS))
    b = dset.base
    kind = draw(st.sampled_from(("power", "prime", "product", "in-set")))
    if kind == "in-set":
        allowed = st.sampled_from(dset.digits)
        pre = draw(st.lists(allowed, max_size=6))
        size = draw(st.integers(min_value=1, max_value=60))
        period = draw(st.lists(allowed, min_size=size, max_size=size))
        cycle = b ** len(period) - 1
        return dset, F(_block(pre, b) * cycle + _block(period, b), b ** len(pre) * cycle)
    den = 1
    if kind != "prime":
        den *= b ** draw(st.integers(min_value=1, max_value=8))
    if kind != "power":
        den *= draw(st.sampled_from(PRIMES))
    return dset, F(draw(st.integers(min_value=0, max_value=den)), den)


@given(set_and_point())
@settings(max_examples=200, deadline=None)
def test_cdf_matches_block_oracle(case):
    dset, x = case
    assert cantor_cdf(dset, x) == oracle_cdf(dset, x, level=3)


@given(set_and_point(), st.sampled_from([1, 2, 7, 10007]),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=200, deadline=None)
def test_cdf_of_an_unreduced_integer_pair_matches_the_reduced_fraction(case, factor, power):
    """cantor_cdf(dset, x, den) reads x/den as a layer grid gives it: both
    scaled by a prime, a power of the base or their product."""
    dset, x = case
    k = factor * dset.base ** power
    assert cantor_cdf(dset, x.numerator * k, x.denominator * k) == cantor_cdf(dset, x)


@given(small_rat, small_rat)
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_property(a, b):
    lo, hi = min(a, b), max(a, b)
    assert (cantor_measure(K, RatInterval.make(lo, hi)).value
            == oracle_measure(K, lo, hi, level=6))


def test_oracle_equivalence_other_base():
    s = MissingDigitSet(4, (0, 2, 3))
    rng = random.Random(7)
    for _ in range(25):
        den = rng.randint(1, 4 ** 5)
        a, b = sorted(F(rng.randint(0, den), den) for _ in range(2))
        assert cantor_measure(s, RatInterval.make(a, b)).value == oracle_measure(s, a, b, level=5)


def _in_level_cover(dset, x: F, depth: int) -> bool:
    scale = dset.base ** depth
    k = (x * scale).__floor__()
    if k <= scale - 1 and dset.prefix_allowed(k, depth):
        return True
    return x * scale == k and k >= 1 and dset.prefix_allowed(k - 1, depth)


def test_membership_duality_badic():
    # digit-expansion membership == lying in some basic interval at every depth
    for n in (2, 3):
        scale = 3 ** n
        for p in range(scale + 1):
            x = F(p, scale)
            covered_all = all(_in_level_cover(K, x, d) for d in range(1, 13))
            assert membership(x, K).is_in == covered_all


@pytest.mark.parametrize("n", range(1, 9))
def test_full_cover(n):
    assert full_cover_check(K, n, RatInterval.unit())


def test_full_cover_subwindow():
    assert full_cover_check(K, 3, RatInterval.make(F(2, 9), F(4, 9)))


# ---------------------------------------------------------------------------
# cylinder enumeration
# ---------------------------------------------------------------------------

BENCH_SETS = [MissingDigitSet(3, (0, 2)), MissingDigitSet(4, (0, 3)),
              MissingDigitSet(5, (0, 2, 3))]


@st.composite
def cell_range(draw, sets=BENCH_SETS):
    """A digit set, a level and a cell range that may overhang [0, b^level)."""
    dset = draw(st.sampled_from(sets))
    level = draw(st.integers(min_value=1, max_value=6))
    top = dset.base ** level
    first = draw(st.integers(min_value=-2, max_value=top + 1))
    last = draw(st.integers(min_value=first - 2, max_value=top + 1))
    return dset, level, first, last


def _brute_prefixes(dset, level, first, last):
    top = dset.base ** level
    return [k for k in range(max(first, 0), min(last, top - 1) + 1)
            if dset.prefix_allowed(k, level)]


@given(cell_range())
@settings(max_examples=150, deadline=None)
def test_allowed_prefixes_match_brute_force(case):
    dset, level, first, last = case
    assert dset.allowed_prefixes(level, first, last) == _brute_prefixes(
        dset, level, first, last)


@pytest.mark.parametrize("dset", BENCH_SETS, ids=str)
def test_allowed_prefixes_default_range_is_every_cylinder(dset):
    for level in range(1, 6):
        want = [k for k in range(dset.base ** level) if dset.prefix_allowed(k, level)]
        assert dset.allowed_prefixes(level) == want
        assert len(want) == dset.digit_count ** level


@given(cell_range(), st.integers(min_value=-40, max_value=3))
@settings(max_examples=150, deadline=None)
def test_enumeration_budget_is_exact(case, offset):
    dset, level, first, last = case
    want = _brute_prefixes(dset, level, first, last)
    budget = max(0, len(want) + offset)
    listing = (dset.allowed_prefixes, level, first, last)
    if len(want) > budget:
        with pytest.raises(ResourceBudgetError):
            under_budget(Budget(cells=budget), *listing)
    else:
        assert under_budget(Budget(cells=budget), *listing) == want


@pytest.mark.parametrize("dset", BENCH_SETS, ids=str)
def test_enumeration_budget_is_exact_at_the_boundary(dset):
    # every cell range at levels 1-3, with the budget at the count and one below
    for level in range(1, 4):
        top = dset.base ** level
        for first in range(-1, top + 1):
            for last in range(first, top + 1):
                want = _brute_prefixes(dset, level, first, last)
                listing = (dset.allowed_prefixes, level, first, last)
                assert under_budget(Budget(cells=len(want)), *listing) == want
                if want:
                    with pytest.raises(ResourceBudgetError):
                        under_budget(Budget(cells=len(want) - 1), *listing)


def test_enumeration_budget_full_range_condition():
    # over the full range the rule is m^level > cells
    level = Budget().cells.bit_length() - 1  # 2^level is the default cells
    with pytest.raises(ResourceBudgetError):
        K.allowed_prefixes(level + 1)
    assert len(under_budget(Budget(cells=2 ** 10), K.allowed_prefixes, 10)) == 2 ** 10
    # the error names the cell count asked for and the cap
    with pytest.raises(ResourceBudgetError, match=r"^2,048 level-11 basic intervals in "
                       r"cells 0\.\.177146 over the 1,024-cell budget$"):
        under_budget(Budget(cells=2 ** 10), K.allowed_prefixes, 11)


@pytest.mark.parametrize("level, count, last", [
    (9100, r"2,360,263,781,966,[\d,]+", "<14,424-bit integer>"),
    (20000, "<20,001-bit integer>", "<31,700-bit integer>")], ids=["9100", "20000"])
def test_enumeration_budget_error_states_sizes_in_bits_past_the_print_limit(level, count, last):
    # the last cell 3^n - 1 has more digits than int-to-str prints from n = 9013
    # on, and the count 2^n from n = 14,285 on: each is written by its bit length
    with pytest.raises(ResourceBudgetError, match=rf"^{count} level-{level} basic intervals in "
                       rf"cells 0\.\.{last} over the 4,194,304-cell budget$"):
        K.allowed_prefixes(level)


@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=200),
       st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 25, 27]), st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=300)
def test_preperiod_matches_one_gcd_a_step(b, s, c, j, k):
    """q = b^s c^j k: with a composite base, gcd(rest, b) changes between
    steps, as for b = 6 once the 3s of q run out before its 2s."""
    q = b ** s * c ** j * k
    assert digitsets._preperiod(q, b) == preperiod_by_steps(q, b)


@given(st.sampled_from([(3, (0, 2)), (5, (0, 2, 3)), (5, (1, 3))]),
       st.integers(min_value=0, max_value=100), st.integers(min_value=1, max_value=20),
       st.sampled_from([-1, 1]), st.sampled_from([1, 7, 11, 13, 49]),
       st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 9))
@example((3, (0, 2)), 50, 1, 1, 1, 0, 0, 1)
@example((3, (0, 2)), 80, 7, -1, 13, 3, 5, 10 ** 9)
@settings(max_examples=300)
def test_the_zero_run_after_the_prefix_reads_as_digit_by_digit(case, j, d, sign, c, t, a, k):
    """x = (a + y) / b^t: a t-digit prefix a, then y = r/q < b^-j with
    q = (b^n -+ 1) c, n = j + d, whose digits repeat within lcm(2n,
    ord_c b) steps.  Past j = 64 / log2(b), r << 64 < q and the run of
    zeros is read in one step.  The walk over x reads as one `divmod` a
    digit."""
    dset = MissingDigitSet(*case)
    b = dset.base
    q = (b ** (j + d) + sign) * c
    y = F(1 + k % (q // b ** j), q)
    assume(y < F(1, b ** j))
    x = (a % b ** t + y) / b ** t
    s, _ = digitsets._preperiod(x.denominator, b)
    assert (digitsets._digit_walk(dset, x.numerator, x.denominator, s)
            == digit_walk_by_digits(dset, x.numerator, x.denominator, s))


def test_a_zero_run_past_the_bit_budget_is_refused_before_it_is_read():
    # 1/10^100 in base 3 has 209 zero digits, then a 1: the CDF is 1/2^210.
    # The bit lengths give a run of at least 207 zeros, and `power_bits`
    # bounds 2^207 by 211 bits
    with pytest.raises(PrecisionError, match=r"^operand of 211 bits \(2\^207\) over the "
                                             r"200-bit budget$"):
        under_budget(Budget(bits=200), cantor_cdf, K, F(1, 10 ** 100))
    assert under_budget(Budget(bits=211), cantor_cdf, K, F(1, 10 ** 100)) == F(1, 2 ** 210)


def test_a_long_preperiod_is_stripped_fast():
    start = time.perf_counter()
    assert digitsets._preperiod(3 ** 100000 * 7, 3) == (100000, 7)
    assert time.perf_counter() - start < 0.25


@given(st.integers(min_value=3, max_value=40).flatmap(
    lambda b: st.tuples(st.just(b), st.sets(st.integers(min_value=0, max_value=b - 1),
                                            min_size=2, max_size=b - 1))))
def test_prefix_rank_table_counts_the_allowed_digits_below(case):
    b, digits = case
    assert MissingDigitSet(b, tuple(digits))._below == [sum(j < d for j in digits)
                                                        for d in range(b)]


def test_a_base_past_the_rank_table_cap_is_refused_when_a_rank_is_read():
    huge = MissingDigitSet(2 ** 22 + 1, (0, 1))
    with pytest.raises(ResourceBudgetError, match=r"^base 4,194,305 over the 4,194,304-entry "
                       r"cap of the prefix-rank table$"):
        cantor_cdf(huge, F(1, 7))
    # a digit test reads no rank
    assert huge.prefix_allowed(1, 1) and not huge.prefix_allowed(2, 1)


def test_a_base_past_the_int_to_str_limit_is_refused_by_its_bit_length():
    with pytest.raises(ResourceBudgetError, match=r"^base <16,610-bit integer> over the "
                       r"4,194,304-entry cap of the prefix-rank table$"):
        cantor_cdf(MissingDigitSet(10 ** 5000, (0, 1)), F(1, 3))


def _centers_by_membership(dset, n, coprime):
    """Cylinder endpoints verified one by one with the digit-walk oracle."""
    bn = dset.base ** n
    candidates = set()
    for p in dset.allowed_prefixes(n):
        candidates.add(p)
        candidates.add(p + 1)
    return [p for p in sorted(candidates)
            if not (coprime and gcd(p, dset.base) != 1)
            and rational_in_set(dset, F(p, bn))]


def test_enumerate_centers_matches_membership_for_every_small_digit_set():
    for base in range(3, 8):
        for size in range(2, base):
            for digits in itertools.combinations(range(base), size):
                dset = MissingDigitSet(base, digits)
                for n in range(1, 4):
                    for coprime in (False, True):
                        assert (enumerate_centers(dset, n, coprime)
                                == _centers_by_membership(dset, n, coprime)), (dset, n)


@given(cell_range(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_enumerate_centers_in_a_prefix_range(case, coprime):
    dset, level, first, last = case
    every = enumerate_centers(dset, level, coprime)
    assert enumerate_centers(dset, level, coprime, first, last) == [
        p for p in every if first <= p <= last]


def _full_cover_every_center(dset, n, window):
    """The cover check with a ball around every p/b^n, 0 <= p <= b^n, that
    the digit-walk oracle puts in the set."""
    bn = dset.base ** n
    r = F(1, bn)
    balls = [(F(p, bn) - r, F(p, bn) + r) for p in range(bn + 1)
             if rational_in_set(dset, F(p, bn))]
    clipped = clip_union(merge_pairs(balls), window.pair())
    return measure_union(dset, clipped) == measure_pair(dset, window.lo, window.hi)


# every proper digit set of the bases 3-7 (213 sets)
ALL_SETS = [MissingDigitSet(b, ds) for b in range(3, 8) for size in range(2, b)
            for ds in itertools.combinations(range(b), size)]
NO_OUTER_DIGIT_SETS = [MissingDigitSet(5, (1, 3)), MissingDigitSet(6, (1, 2, 4)),
                       MissingDigitSet(4, (1, 2)), MissingDigitSet(7, (2, 4, 5))]
RANK_SETS = BENCH_SETS + NO_OUTER_DIGIT_SETS[:2]


@pytest.mark.parametrize("dset", RANK_SETS, ids=str)
@pytest.mark.parametrize("s", [1, 2, 7, 10])
def test_grid_cdf_matches_the_block_oracle_at_every_grid_point(dset, s):
    """Every x in [0, grid] on the grids b^n s: offset 0 only for s = 1, and
    b-adic, purely periodic or pre-periodic offsets f/s, by base, else."""
    for n in range(1, 5):
        grid = dset.base ** n * s
        cdf, den = grid_cdf(dset, n, grid, range(grid + 1), 0, dset.allowed_prefixes(n))
        for x in range(grid + 1):
            assert cdf[x] == oracle_cdf(dset, F(x, grid), level=n) * den, (n, x)


@st.composite
def grid_points(draw):
    """A set of RANK_SETS, a level n, a grid b^n s, some of its points
    (none, one, the top one alone, a run inside one cell, or scattered),
    and a listing of the allowed prefixes from a cell `first` at or below
    theirs through one at or above."""
    dset = draw(st.sampled_from(RANK_SETS))
    n = draw(st.integers(min_value=1, max_value=5))
    s = draw(st.sampled_from([1, 2, 7, 10]))
    bn = dset.base ** n
    grid = bn * s
    point = st.integers(min_value=0, max_value=grid)
    kind = draw(st.sampled_from(["none", "one", "top", "cell", "scattered"]))
    if kind == "cell":  # the points x with x // s = k
        k = draw(st.integers(min_value=0, max_value=bn))
        points = draw(st.lists(st.integers(min_value=k * s, max_value=min(k * s + s - 1, grid)),
                               min_size=1))
    elif kind == "scattered":
        points = draw(st.lists(point, min_size=2, max_size=30))
    else:
        points = {"none": [], "one": [draw(point)], "top": [grid]}[kind]
    cells = [x // s for x in points] or [draw(st.integers(min_value=0, max_value=bn))]
    first = draw(st.integers(min_value=0, max_value=min(min(cells), bn - 1)))
    last = draw(st.integers(min_value=max(cells), max_value=bn))
    return dset, n, grid, points, first, dset.allowed_prefixes(n, first, last)


@given(grid_points())
@settings(max_examples=300, deadline=None)
def test_grid_cdf_matches_the_block_oracle_on_any_points(case):
    """Ranks from the listing it is handed and one rank walk, for any
    number of cells, besides one in each `cantor_cdf` call on an offset."""
    dset, n, grid, points, first, listed = case
    with mock.patch.object(digitsets, "_prefix_rank", wraps=digitsets._prefix_rank) as walks:
        cdf, den = grid_cdf(dset, n, grid, points, first, listed)
    offsets = {x % (grid // dset.base ** n) for x in points} - {0}
    assert walks.call_count <= 1 + len(offsets)
    assert cdf.keys() == set(points)
    for x in points:
        assert cdf[x] == oracle_cdf(dset, F(x, grid), level=n) * den, x


# the sets of the argv corpus
CORPUS_SETS = [MissingDigitSet(3, (0, 2)), MissingDigitSet(4, (0, 3)),
               MissingDigitSet(5, (0, 2, 3)), MissingDigitSet(5, (1, 3)),
               MissingDigitSet(6, (1, 2, 4)), MissingDigitSet(9, (0, 2, 6, 8))]


@st.composite
def kernel_case(draw):
    """A corpus set, a level 1-6, a grid b^n s, window ends on the level-n
    grid or off it, one or two radii up to a few cells or the whole grid,
    and the coprime filter on or off."""
    dset = draw(st.sampled_from(CORPUS_SETS))
    n = draw(st.integers(min_value=1, max_value=6))
    s = draw(st.sampled_from([1, 2, 7, 10]))
    bn = dset.base ** n
    grid = bn * s
    end = st.one_of(st.integers(min_value=0, max_value=bn).map(lambda k: k * s),
                    st.integers(min_value=0, max_value=grid))
    window = tuple(sorted((draw(end), draw(end))))
    radius = st.one_of(st.integers(min_value=1, max_value=3 * s),
                       st.integers(min_value=1, max_value=grid))
    radii = sorted(draw(st.lists(radius, min_size=1, max_size=2)))
    return dset, n, draw(st.booleans()), grid, window, radii


@given(kernel_case())
@settings(max_examples=300, deadline=None)
def test_ball_unions_match_the_composition_that_listed_twice(case):
    """A layer's centers, carried unions and CDF denominator are those of
    its balls merged and clipped, followed by `grid_cdf` with a listing of
    its own, on the layer's grid, a divisor of the one drawn.  One radius
    is an exact radius; two equal ones give one union, as it does."""
    dset, n, coprime, grid, window, radii = case
    layer = build_layer(dset, (F(radii[0], grid), F(radii[-1], grid)), n,
                        RatInterval.make(F(window[0], grid), F(window[1], grid)), coprime)
    k, rest = divmod(grid, layer.grid)
    assert rest == 0
    inner, outer, den = layer.unions
    unions = [tuple(((lo * k, c_lo), (hi * k, c_hi)) for (lo, c_lo), (hi, c_hi) in union)
              for union in (inner, outer)]
    centers, listed_unions, listed_den = listed_twice_ball_unions(dset, n, coprime, grid,
                                                                  window, radii)
    assert (list(layer.center_numerators), unions, den) == (
        centers, [listed_unions[0], listed_unions[-1]], listed_den)


def test_ball_ends_past_their_bit_cap_are_refused_before_they_are_built(monkeypatch):
    """Level 3 of the middle-thirds set lists its 8 cells on the 5-bit grid 27."""
    args = (K, (F(1, 27), F(1, 27)), 3, RatInterval.unit(), False)
    monkeypatch.setattr(digitsets, "BALL_END_BITS", 40)
    assert list(build_layer(*args).center_numerators) == enumerate_centers(K, 3, False)
    monkeypatch.setattr(digitsets, "BALL_END_BITS", 39)
    with mock.patch.object(layers, "enumerate_centers") as centers, \
            pytest.raises(ResourceBudgetError, match="^8 level-3 cells on a 5-bit grid over "
                                                     "the 39-bit cap of their ball ends$"):
        build_layer(*args)
    centers.assert_not_called()


@st.composite
def ball_cells_case(draw):
    """A corpus set, a level 1-8, a window in [0, 1] whose ends lie at 0,
    at 1, inside a gap of the set, on a cell boundary of level up to n + 1
    or anywhere, or coincide, and one radius (exact) or two (inexact
    bounds), each b^-n or any positive rational."""
    dset = draw(st.sampled_from(CORPUS_SETS))
    n = draw(st.integers(min_value=1, max_value=8))
    b = dset.base
    gaps = sorted(set(range(b)) - set(dset.digits))

    def end():
        kind = draw(st.sampled_from(["0", "1", "gap", "boundary", "any"]))
        if kind == "gap":
            j = draw(st.integers(min_value=1, max_value=n + 1))
            k = draw(st.integers(min_value=0, max_value=b ** (j - 1) - 1))
            inside = F(draw(st.integers(min_value=1, max_value=99)), 100)
            return (k * b + draw(st.sampled_from(gaps)) + inside) / b ** j
        if kind == "boundary":
            j = draw(st.integers(min_value=0, max_value=n + 1))
            return F(draw(st.integers(min_value=0, max_value=b ** j)), b ** j)
        return draw(small_rat) if kind == "any" else F(int(kind))

    a = end()
    window = tuple(sorted((a, draw(st.one_of(st.just(a), st.builds(end))))))
    radius = st.one_of(st.just(F(1, b ** n)),
                       st.builds(F, st.integers(min_value=1, max_value=10 ** 4),
                                 st.integers(min_value=1, max_value=10 ** 6)))
    return dset, n, window, sorted(draw(st.lists(radius, min_size=1, max_size=2)))


class _Asked(Exception):
    """Stops a call where it asks for its cells."""


def _cells_asked(name, call, *args):
    """The arguments of the `MissingDigitSet` method `name` that call(*args)
    asks for its cells, the call stopped there."""
    with mock.patch.object(MissingDigitSet, name, side_effect=_Asked) as asked, \
            pytest.raises(_Asked):
        call(*args)
    return asked.call_args.args


@given(ball_cells_case())
@settings(max_examples=300, deadline=None)
def test_a_levels_balls_list_the_cells_that_cells_meeting_gives(case):
    """`build_layer` lists, and `full_cover_check` counts, the cells that
    meet the window widened by the largest radius, by `_cells_meeting`,
    which gives the cells the grid floors gave."""
    dset, n, window, radii = case
    bn, r = dset.base ** n, max(radii)
    cells = digitsets._cells_meeting(window[0] - r, window[1] + r, bn, True, True)
    assert cells == ball_cells_on_the_grid(dset, n, window, radii)
    unit = RatInterval.make(*window)
    assert _cells_asked("allowed_prefixes", build_layer, dset, (radii[0], radii[-1]), n, unit,
                        False) == (n, *cells)
    r = F(1, bn)
    cover = digitsets._cells_meeting(window[0] - r, window[1] + r, bn, True, True)
    assert cover == full_cover_cells_by_floors(dset, n, unit)
    assert _cells_asked("_listing_range", full_cover_check, dset, n, unit) == (n, *cover)


@given(cell_range(RANK_SETS))
@settings(max_examples=200, deadline=None)
def test_cell_count_matches_brute_force(case):
    dset, level, first, last = case
    assert digitsets._cell_count(dset, level, first, last) == len(
        _brute_prefixes(dset, level, first, last))


@pytest.mark.parametrize("dset", ALL_SETS, ids=str)
def test_center_count_matches_membership_for_every_small_digit_set(dset):
    """The closed form, adjacent digits and sets without 0 or b-1 included."""
    for n in range(1, 4 if dset.base == 7 else 5):
        bn = dset.base ** n
        assert center_count(dset, n) == sum(rational_in_set(dset, F(p, bn))
                                            for p in range(bn + 1)), n


@given(st.sampled_from(BENCH_SETS + NO_OUTER_DIGIT_SETS) | st.sampled_from(ALL_SETS),
       st.integers(min_value=1, max_value=4), small_rat, small_rat)
@settings(max_examples=150, deadline=None)
def test_full_cover_matches_every_center_in_the_set(dset, n, a, b):
    window = RatInterval.make(min(a, b), max(a, b))
    assert full_cover_check(dset, n, window) == _full_cover_every_center(dset, n, window)


def test_full_cover_fails_where_no_center_lies_in_the_set():
    # with neither 0 nor b-1 as a digit no p/b^n is in the set: no ball, no cover
    for dset, n, window in [(MissingDigitSet(5, (1, 3)), 4, RatInterval.unit()),
                            (MissingDigitSet(6, (1, 2, 4)), 3, RatInterval.make(F(1, 7), F(5, 7)))]:
        assert enumerate_centers(dset, n, False) == []
        assert not full_cover_check(dset, n, window)
        assert not _full_cover_every_center(dset, n, window)
    # a window inside a gap has measure 0 and counts as covered
    gap = RatInterval.make(F(1, 25), F(1, 5))
    assert full_cover_check(MissingDigitSet(5, (1, 3)), 2, gap)


def test_full_cover_lists_no_cell_and_builds_no_ball():
    """The natural-cover theorem answers: no listing, no ball, no merge; the
    `cells` refusal comes from the count alone."""
    window = RatInterval.make(F(1, 7), F(1))
    with mock.patch.object(MissingDigitSet, "allowed_prefixes") as listings, \
            mock.patch.object(digitsets, "merge_pairs") as merges:
        assert [full_cover_check(dset, 3, window) for dset in CORPUS_SETS] == [
            True, True, True, False, False, True]
        with pytest.raises(ResourceBudgetError, match="level-30 basic intervals in cells"):
            full_cover_check(K, 30, window)
    listings.assert_not_called()
    merges.assert_not_called()


def _outcome(call, *args):
    """call(*args), or the type and text of the error it raises."""
    try:
        return call(*args)
    except (InputError, ResourceBudgetError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def cover_window(draw):
    """A corpus set, a level 1-6 and a window whose ends lie on the level-j
    grid for some j <= 8, or anywhere, or coincide."""
    dset = draw(st.sampled_from(CORPUS_SETS))
    n = draw(st.integers(min_value=1, max_value=6))
    on_cells = st.integers(min_value=0, max_value=8).flatmap(
        lambda j: st.integers(min_value=0, max_value=dset.base ** j).map(
            lambda k: F(k, dset.base ** j)))
    end = st.one_of(on_cells, small_rat)
    a = draw(end)
    b = draw(st.one_of(st.just(a), end))
    return dset, n, RatInterval.make(min(a, b), max(a, b))


@given(cover_window(), st.one_of(st.none(), st.integers(min_value=0, max_value=60)))
@example((K, 0, RatInterval.unit()), None)
@settings(max_examples=300, deadline=None)
def test_full_cover_matches_the_kernel_that_measured_the_balls(case, cells):
    """The same verdict as merging, clipping and measuring the balls and the
    window, or the same refusal, under the default `cells` and lowered ones."""
    dset, n, window = case
    budget = Budget() if cells is None else Budget(cells=cells)
    assert (under_budget(budget, _outcome, full_cover_check, dset, n, window)
            == under_budget(budget, _outcome, full_cover_by_the_kernel, dset, n, window))


# ---------------------------------------------------------------------------
# membership against the digit-walk and cell-scan oracles
# ---------------------------------------------------------------------------

@st.composite
def set_and_rational(draw):
    """A digit set of base 3-7 and a rational in [0,1]: b-adic (p/b^k, also
    p next to an allowed prefix), with a prime denominator below 10^4,
    with both multiplied, or a point whose expansion is a pre-period and
    a period of allowed digits (sometimes with one digit changed)."""
    dset = draw(st.sampled_from(ALL_SETS))
    b = dset.base
    kind = draw(st.sampled_from(("b-adic", "center", "prime", "mixed", "periodic")))
    if kind == "center":
        n = draw(st.integers(min_value=1, max_value=6))
        prefix = draw(st.lists(st.sampled_from(dset.digits), min_size=n, max_size=n))
        return dset, F(_block(prefix, b) + draw(st.integers(0, 1)), b ** n)
    if kind == "periodic":
        digit = st.sampled_from(dset.digits) | st.integers(0, b - 1)
        pre = draw(st.lists(digit, max_size=5))
        period = draw(st.lists(digit, min_size=1, max_size=12))
        cycle = b ** len(period) - 1
        return dset, F(_block(pre, b) * cycle + _block(period, b), b ** len(pre) * cycle)
    den = 1
    if kind != "prime":
        den *= b ** draw(st.integers(min_value=0, max_value=8))
    if kind != "b-adic":
        den *= draw(st.sampled_from(PRIMES))
    return dset, F(draw(st.integers(min_value=0, max_value=den)), den)


@given(set_and_rational())
@settings(max_examples=400, deadline=None)
def test_membership_of_rationals_matches_digit_walk(case):
    dset, x = case
    assert membership(x, dset).kind == ("in" if rational_in_set(dset, x) else "out")


def test_membership_of_small_rationals_matches_digit_walk_for_every_set():
    for dset in ALL_SETS:
        b = dset.base
        xs = {F(p, b ** 3) for p in range(b ** 3 + 1)}
        xs |= {F(p, q) for q in range(1, 15) for p in range(q + 1)}
        for x in xs:
            assert membership(x, dset).kind == (
                "in" if rational_in_set(dset, x) else "out"), (dset, x)


@st.composite
def enclosure_endpoint(draw, b):
    """A point of [0,1] on a cell boundary k/b^L, just off one, or anywhere."""
    level = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=0, max_value=b ** level))
    x = F(k, b ** level)
    kind = draw(st.sampled_from(("boundary", "near", "prime")))
    if kind == "near":
        x += F(draw(st.integers(-3, 3)), draw(st.sampled_from(PRIMES)) * b ** (level + 2))
    elif kind == "prime":
        den = draw(st.sampled_from(PRIMES))
        x = F(draw(st.integers(min_value=0, max_value=den)), den)
    return min(max(x, F(0)), F(1))


@st.composite
def set_and_enclosure(draw):
    dset = draw(st.sampled_from(ALL_SETS))
    lo = draw(enclosure_endpoint(dset.base))
    hi = draw(enclosure_endpoint(dset.base))
    assume(lo != hi)
    return dset, min(lo, hi), max(lo, hi), draw(st.integers(min_value=1, max_value=6))


@given(set_and_enclosure())
@settings(max_examples=400, deadline=None)
def test_membership_of_enclosures_matches_cell_scan(case):
    dset, lo, hi, depth = case
    assert membership(RealEnclosure(lo, hi), dset, depth) == enclosure_status(
        dset, lo, hi, depth)


def test_membership_of_cell_aligned_enclosures_matches_cell_scan():
    # for every set: each [i, j]/b with i < j, and each [i, i + 1]/b^2 and
    # [i, i + b]/b^2 (one level-2 cell, one level-1 width off the grid)
    for dset in ALL_SETS:
        b = dset.base
        pairs = [(F(i, b), F(j, b)) for i in range(b) for j in range(i + 1, b + 1)]
        pairs += [(F(i, b * b), F(i + w, b * b)) for w in (1, b)
                  for i in range(b * b - w + 1)]
        for lo, hi in pairs:
            for depth in (1, 3):
                assert membership(RealEnclosure(lo, hi), dset, depth) == enclosure_status(
                    dset, lo, hi, depth), (dset, lo, hi, depth)


@given(st.sampled_from(ALL_SETS), st.integers(min_value=0, max_value=6), small_rat, small_rat,
       st.integers(min_value=1, max_value=5))
@settings(max_examples=200, deadline=None)
def test_cylinder_scaling(dset, d, x, y, s):
    """mu([0, (d + x)/b]) = (rank(d) + [d in J] mu([0, x]))/m, and
    mu((d + [x, y])/b) = [d in J] mu([x, y])/m: the set is m copies of
    itself scaled by 1/b (Hutchinson, Fractals and self-similarity, 1981).
    Checked on `cantor_cdf`, on `grid_cdf` at level 1 on the grid b q s
    (q the denominator of x), and on `cantor_measure`."""
    b, m = dset.base, dset.digit_count
    d %= b
    inside = d in dset.digits
    rank = sum(j < d for j in dset.digits)
    point = (d + x) / b
    expected = (rank + inside * cantor_cdf(dset, x)) / m
    assert cantor_cdf(dset, point) == expected
    grid = b * x.denominator * s
    at = on_grid(point, grid)
    cdf, den = grid_cdf(dset, 1, grid, [at], 0, dset.allowed_prefixes(1))
    assert F(cdf[at], den) == expected
    assert cantor_measure(dset, RatInterval(F(0), point)).value == expected
    lo, hi = min(x, y), max(x, y)
    scaled = RatInterval((d + lo) / b, (d + hi) / b)
    assert (cantor_measure(dset, scaled).value
            == inside * cantor_measure(dset, RatInterval(lo, hi)).value / m)
