import os
import subprocess
import sys
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorapprox import (AffineSource, InputError, LogRatioSource, PrecisionError,
                          RealEnclosure, ResourceBudgetError, SqrtSource, UndecidableFloorError,
                          canonicalize_rational, enclose_real, floor_power, iroot)
from cantorapprox import enclosures
from cantorapprox.enclosures import (_atanh_interval, _exp_point, _ln2_interval, _ln_fixed,
                                     _round_out, iv_add, iv_intpow, iv_mul, iv_scale,
                                     ln_interval, nthroot_interval, rational_pow, sqrt_interval)
from cantorapprox.errors import BUDGET, Budget

from oracles import (FractionLogRatioSource, gamma_cmp, mp_interval, mp_real, needs_mpmath,
                     under_budget)

SRC = Path(__file__).resolve().parent.parent / "src"

big = st.integers(min_value=-(2 ** 90), max_value=2 ** 90)
nonzero = big.filter(lambda v: v != 0)
fractions = st.builds(F, big, nonzero)


def test_canonicalize_examples():
    assert canonicalize_rational(4, 6) == F(2, 3)
    assert canonicalize_rational(-2, -27) == F(2, 27)
    assert canonicalize_rational(0, 5) == F(0)
    with pytest.raises(InputError):
        canonicalize_rational(1, 0)


@given(fractions, fractions, fractions)
def test_rational_algebra_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(big, nonzero)
def test_canonical_form(n, d):
    r = canonicalize_rational(n, d)
    from math import gcd
    assert gcd(abs(r.numerator), r.denominator) == 1
    assert r.denominator >= 1
    assert r == F(n, d)


@given(st.integers(min_value=0, max_value=10 ** 24), st.integers(min_value=1, max_value=9))
def test_iroot_floor(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_even_power_of_an_interval_across_zero():
    # x^2 over [-1, 2] takes every value in [0, 4]; an odd power keeps the order
    assert iv_intpow((F(-1), F(2)), 2) == (F(0), F(4))
    assert iv_intpow((F(-3), F(2)), 4) == (F(0), F(81))
    assert iv_intpow((F(-3), F(2)), 3) == (F(-27), F(8))


def _sqrt_interval_before(x: F, bits: int):
    """sqrt_interval's former body: isqrt of p q 4^bits over q 2^bits."""
    if x == 0:
        return (F(0), F(0))
    p, q = x.numerator, x.denominator
    scaled = p * q << (2 * bits)
    r = isqrt(scaled)
    den = q << bits
    if r * r == scaled:
        return (F(r, den), F(r, den))
    return (F(r, den), F(r + 1, den))


def test_sqrt_interval_is_the_square_root_case_of_nthroot():
    xs = [F(0), F(1), F(2), F(5), F(1, 4), F(9, 16), F(2, 3), F(35, 74), F(10 ** 20 + 1),
          F(1, 10 ** 30), F(3 ** 40, 2 ** 61), F(49, 4 ** 7)]
    for x in xs:
        for bits in (0, 1, 7, 32, 64, 96, 257):
            assert sqrt_interval(x, bits) == _sqrt_interval_before(x, bits), (x, bits)
    with pytest.raises(InputError, match="sqrt of a negative value"):
        sqrt_interval(F(-1, 3), 32)


def test_sqrt_enclosure_example():
    e = enclose_real(SqrtSource(F(5)), F(1, 100))
    assert e.width <= F(1, 100)
    assert e.lo ** 2 <= 5 <= e.hi ** 2
    # contains 2.2360679...
    assert e.lo < F(223607, 100000) and e.hi > F(223606, 100000)


def test_gamma_enclosure_against_integer_power_oracle():
    g = enclose_real(LogRatioSource(F(2), F(3)), F(1, 10 ** 6))
    assert g.width <= F(1, 10 ** 6)
    # 0.63092 < gamma < 0.63094 by the 2^q vs 3^p oracle
    assert gamma_cmp(63092, 10 ** 5) > 0 and gamma_cmp(63094, 10 ** 5) < 0
    assert F(63092, 10 ** 5) < g.lo and g.hi < F(63094, 10 ** 5)


def test_exact_rational_enclosure():
    e = enclose_real(F(2, 27), F(1, 10))
    assert e.lo == e.hi == F(2, 27)


def test_enclose_rejects_bad_width():
    with pytest.raises(InputError):
        enclose_real(F(1), F(0))


def test_log_of_nonpositive_rejected():
    with pytest.raises(InputError):
        LogRatioSource(F(-1), F(3))
    with pytest.raises(InputError):
        LogRatioSource(F(2), F(1))


@given(st.sampled_from([2, 3, 5, 6, 7, 10]), st.integers(min_value=0, max_value=6))
def test_refinement_nesting(radicand, steps):
    enc = RealEnclosure.from_source(SqrtSource(F(radicand)))
    for _ in range(steps):
        nxt = enc.refine()
        assert enc.lo <= nxt.lo <= nxt.hi <= enc.hi
        enc = nxt
    assert enc.lo ** 2 <= radicand <= enc.hi ** 2


def test_refinement_cap_is_an_error():
    enc = RealEnclosure.from_source(SqrtSource(F(2)))
    # the error names the source, the level, the cap and the width reached
    with pytest.raises(PrecisionError, match=r"^enclosure undecided \(SqrtSource\) at "
                       r"refinement level 3 of cap 3, width < 2\^-255$"):
        under_budget(Budget(steps=3), enc.refined_to, F(1, 2 ** 1000))
    assert BUDGET.get() == Budget()  # the budget set in the copy ends with it


def test_precision_error_states_the_width_in_bits():
    # 10^5000 sqrt 2: str() of its width would pass the int-to-str digit limit
    huge = RealEnclosure.from_source(AffineSource(SqrtSource(F(2)), mul=F(10 ** 5000)))
    with pytest.raises(PrecisionError, match=r"\(AffineSource\) at refinement level 0 of "
                       r"cap 0, width < 2\^\d+$"):
        under_budget(Budget(steps=0), huge.refined_to, F(1))


def test_floor_power_examples():
    assert floor_power(F(1), F(3), 2) == 9
    assert floor_power(F(1), F(5, 2), 2) == 6
    s2p1 = RealEnclosure.from_source(AffineSource(SqrtSource(F(2)), add=F(1)))
    assert floor_power(F(1), s2p1, 3) == 14


def test_floor_power_determinism():
    s2p1 = RealEnclosure.from_source(AffineSource(SqrtSource(F(2)), add=F(1)))
    values = {floor_power(F(1), s2p1, 7) for _ in range(5)}
    assert len(values) == 1


def test_floor_power_straddle_is_an_error():
    # sqrt(5)^2 = 5 exactly: no enclosure can ever resolve the floor
    with pytest.raises(UndecidableFloorError):
        floor_power(F(1), RealEnclosure.from_source(SqrtSource(F(5))), 2)


def test_floor_power_under_a_low_cap_fails_fast():
    sqrt5 = RealEnclosure.from_source(SqrtSource(F(5)))
    with pytest.raises(UndecidableFloorError, match=r"at refinement levels 0 and 2,"):
        under_budget(Budget(steps=2), floor_power, F(1), sqrt5, 2)


@given(st.fractions(min_value=F(1, 50), max_value=F(50)),
       st.fractions(min_value=F(11, 10), max_value=F(9, 2)),
       st.integers(min_value=1, max_value=8))
def test_floor_power_matches_exact_rational(lam, tau, n):
    assert floor_power(lam, tau, n) == (lam * tau ** n).__floor__()


PHI = AffineSource(SqrtSource(F(5)), mul=F(1, 2), add=F(1, 2))  # (1 + sqrt 5)/2


@needs_mpmath
@pytest.mark.parametrize("lam, tau, n", [
    (F(1), PHI, 30),             # phi^30 lies 2^-20.8 below a Lucas number: tau refines
    (SqrtSource(F(2)), F(3), 25),  # lam refines
    (SqrtSource(F(2)), PHI, 40),   # both refine, in lockstep
])
def test_floor_power_refines_until_the_floor_is_certain(lam, tau, n):
    lam_e, tau_e = (x if isinstance(x, F) else RealEnclosure.from_source(x)
                    for x in (lam, tau))
    at_level_0 = iv_mul(enclosures.as_enclosure(lam_e).as_iv(),
                        iv_intpow(enclosures.as_enclosure(tau_e).as_iv(), n))
    assert at_level_0[0].__floor__() < at_level_0[1].__floor__()
    # twice the precision of level 1, plus the bits of lam * tau^n
    lo, hi = mp_interval(lambda iv: mp_real(lam, iv) * mp_real(tau, iv) ** n,
                         2 * (enclosures.BASE_BITS << 1) + 64)
    assert lo.__floor__() == hi.__floor__()
    assert floor_power(lam_e, tau_e, n) == lo.__floor__()


@given(st.fractions(min_value=F(1, 1000), max_value=F(1000)))
@example(F(727, 382000))  # outward rounding straddles a grid point: width 2^-47
@example(F(1))  # ln 1 = 0 exactly
def test_ln_interval_sound(x):
    lo, hi = ln_interval(x, 48)
    assert hi - lo <= F(1, 2 ** 47)
    # soundness by exponential cross-check: e^lo <= x <= e^hi
    elo = _exp_point(lo, 64)
    ehi = _exp_point(hi, 64)
    assert elo[0] <= x <= ehi[1]


def _exact_ln_interval(x: F, bits: int):
    """ln_interval summed in exact Fractions: the reference for the fixed-point path."""
    if x == 1:
        return (F(0), F(0))
    if x < 1:
        lo, hi = _exact_ln_interval(1 / x, bits)
        return (-hi, -lo)
    e = (x.numerator // x.denominator).bit_length() - 1
    y = x / (1 << e)
    if y >= 2:
        y /= 2
        e += 1
    z = (y - 1) / (y + 1)
    work = bits + 8
    terms = work // 3 + 4
    res = iv_scale(_atanh_interval(z, terms), F(2))
    if e:
        res = iv_add(res, iv_scale(_ln2_interval(work), F(e)))
    return _round_out(res, bits)


ln_args = st.one_of(
    st.fractions(min_value=F(1, 10 ** 6), max_value=F(1), max_denominator=10 ** 6),
    st.builds(lambda k, s: 1 + F(s, k), st.integers(min_value=2, max_value=2 ** 200),
              st.sampled_from([-1, 1])),
    st.builds(lambda k: F(2) ** k, st.integers(min_value=-300, max_value=300)),
    st.fractions(min_value=F(1, 1000), max_value=F(10 ** 6), max_denominator=10 ** 9),
)
ln_bits = st.integers(min_value=32, max_value=256)
# the exact reference takes up to ~0.6 s on 5000-bit arguments at 48 bits
big_ints = st.integers(min_value=2 ** 999, max_value=2 ** 5000)
big_bits = st.integers(min_value=32, max_value=48)


@settings(max_examples=150, deadline=None)
@given(ln_args, ln_bits)
def test_ln_fixed_point_matches_exact(x, bits):
    assert ln_interval(x, bits) == _exact_ln_interval(x, bits)


@settings(max_examples=8, deadline=None)
@given(big_ints, big_bits, st.booleans())
def test_ln_fixed_point_matches_exact_on_large_integers(n, bits, invert):
    x = 1 / F(n) if invert else F(n)
    assert ln_interval(x, bits) == _exact_ln_interval(x, bits)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=F(1, 3), max_denominator=2 ** 80).filter(
           lambda z: z < F(1, 3)),
       st.integers(min_value=0, max_value=60),
       st.tuples(*[st.fractions(min_value=0, max_value=F(1, 16), max_denominator=2 ** 40)] * 2),
       st.integers(min_value=1, max_value=12), st.integers(min_value=8, max_value=64))
def test_ln_fixed_is_the_exact_rounding_for_any_term_count(z, e, widen, terms, bits):
    # few terms and a wide ln 2 enclosure make every summand able to move the result
    ln2 = (F(693, 1000) - widen[0], F(693, 1000) + widen[1])
    unrounded = iv_add(iv_scale(_atanh_interval(z, terms), F(2)), iv_scale(ln2, F(e)))
    got = _ln_fixed(z.numerator, z.denominator, e, ln2, terms, bits)
    if got is None:
        # undecided only if an exact endpoint is within 2^-56 grid steps of the grid;
        # the rounding error is below 2^8 units of 2^-(bits+64) for 12 terms
        offsets = [v * 2 ** bits - (v * 2 ** bits).__floor__() for v in unrounded]
        assert any(min(t, 1 - t) < F(1, 2 ** 56) for t in offsets)
    else:
        assert got == _round_out(unrounded, bits)


def test_ln_exact_fallback_when_rounding_undecided(monkeypatch):
    bits = 40
    terms = (bits + 8) // 3 + 4
    undecided = 0
    for k in range(1, 40):
        y = 1 + F(k, 41)
        for guard in (0, 1):
            monkeypatch.setattr(enclosures, "_GUARD", guard)
            got = _ln_fixed(y.numerator - y.denominator, y.numerator + y.denominator, 0,
                            (F(0), F(0)), terms, bits)
            if got is None:
                undecided += 1
            else:  # a decided result is the exact one at any guard
                assert got == _exact_ln_interval(y, bits)
    assert undecided > 0
    monkeypatch.setattr(enclosures, "_GUARD", 0)
    for x in (F(3), F(10, 7), F(1, 3), F(2 ** 40 + 1), F(3) ** 700, F(2) ** 50):
        assert ln_interval(x, bits) == _exact_ln_interval(x, bits)


def _mp_ln(iv, x: F):
    return iv.log(iv.mpf(x.numerator) / iv.mpf(x.denominator))


def _size(*xs: F) -> int:
    return sum(x.numerator.bit_length() + x.denominator.bit_length() for x in xs)


@needs_mpmath
@settings(max_examples=60, deadline=None)
@given(st.one_of(ln_args, big_ints.map(F)), ln_bits)
def test_ln_interval_contains_mpmath_log(x, bits):
    lo, hi = ln_interval(x, bits)
    # twice the precision, and enough to hold x exactly
    mlo, mhi = mp_interval(lambda iv: _mp_ln(iv, x), 2 * bits + _size(x))
    assert lo <= mlo <= mhi <= hi


log_ratio_args = st.one_of(st.integers(min_value=2, max_value=2 ** 5000).map(F),
                           st.fractions(min_value=F(1, 10 ** 6), max_value=F(10 ** 6),
                                        max_denominator=10 ** 6).filter(lambda v: v != 1))


@needs_mpmath
@settings(max_examples=60, deadline=None)
@given(log_ratio_args, log_ratio_args, st.integers(min_value=0, max_value=2))
def test_log_ratio_source_contains_mpmath_ratio(num, den, level):
    lo, hi = LogRatioSource(num, den).interval(level)
    bits = enclosures.BASE_BITS << level
    mlo, mhi = mp_interval(lambda iv: _mp_ln(iv, num) / _mp_ln(iv, den),
                           2 * bits + _size(num, den))
    assert lo <= mlo <= mhi <= hi


def test_ln_operand_over_the_bit_budget_is_a_resource_error():
    # 3^2000 = 2^3169 y: the fixed-point operand is (3^2000 - 2^3169)
    # * 2^(48 + 64), of 3,169 + 112 bits
    x = F(3 ** 2000)
    with pytest.raises(ResourceBudgetError, match=r"^ln operand of 3,281 bits over the "
                       r"3,280-bit budget$"):
        under_budget(Budget(bits=3280), ln_interval, x, 48)
    assert under_budget(Budget(bits=3281), ln_interval, x, 48) == ln_interval(x, 48)


def _outcome(call, *args):
    """("ok", value) or (exception type, message with the oracle's class name
    read as the library's)."""
    try:
        return ("ok", call(*args))
    except (InputError, PrecisionError) as exc:
        return (type(exc), str(exc).replace("FractionLogRatioSource", "LogRatioSource"))


@settings(max_examples=60, deadline=None)
@given(log_ratio_args, log_ratio_args, st.integers(min_value=0, max_value=3))
@example(F(2), F(1) + F(1, 2 ** 50), 0)  # log(den) rounds across zero
@example(F(1), F(5), 2)
def test_log_ratio_levels_match_the_fraction_quotient(num, den, level):
    assert (_outcome(LogRatioSource(num, den).interval, level)
            == _outcome(FractionLogRatioSource(num, den).interval, level))


def _refined(source, bits):
    return RealEnclosure.from_source(source).refined_to(F(1, 2 ** bits)).as_iv()


q_pairs = st.one_of(
    st.lists(st.integers(min_value=2, max_value=2 ** 4096 - 1), min_size=2, max_size=2,
             unique=True).map(sorted),
    # q1 = q0^k: the ratio k is a point of every grid, inside every level
    st.builds(lambda q, k: [q, q ** k], st.integers(min_value=2, max_value=2 ** 500),
              st.integers(min_value=2, max_value=8)))
budgets = st.sampled_from([Budget(), Budget(steps=0), Budget(steps=1)])


@settings(max_examples=80, deadline=None)
@given(st.one_of(q_pairs.map(lambda qs: (F(qs[1]), F(qs[0]))),
                 st.tuples(log_ratio_args, log_ratio_args),
                 log_ratio_args.map(lambda den: (F(1), den))),
       st.sampled_from([48, 96]), budgets)
@example((F(9), F(3)), 48, Budget())
@example((F(3 ** 5), F(3)), 96, Budget(steps=1))
@example((F(1), F(3)), 48, Budget())  # log(1) = 0 exactly
@example((F(2), F(3)), 48, Budget(steps=0))
@example((F(2), F(3)), 96, Budget(steps=1))
@example((F(2), F(1) + F(1, 2 ** 50)), 48, Budget())
def test_log_ratio_within_matches_the_refined_fraction_enclosure(ratio, bits, budget):
    got = _outcome(under_budget, budget, LogRatioSource(*ratio).within, bits)
    want = _outcome(under_budget, budget, _refined, FractionLogRatioSource(*ratio), bits)
    assert got == want


def _grid_levels(levels):
    """A `LogRatioSource._grid` whose levels are the given numerator pairs
    over 2^bits, and an InputError where a level is None."""
    def grid(self, level, logs):
        if levels[level] is None:
            raise InputError("interval reciprocal across zero")
        return levels[level]
    return grid


# levels no log ratio has been seen to give, for the two rules that can
# only matter in them: a level-0 end p/2^32 inside level 1 cuts it, and a
# den near 1 can round to a level 0 across zero under a level 1 that has no
# level-0 grid point inside
@pytest.mark.parametrize("den, levels", [
    (F(3), [(7 << 33, (7 << 33) + 1), ((7 << 65) - 5, (7 << 65) + 3)]),
    (F(1) + F(1, 2 ** 50), [None, ((7 << 64) + 7, (7 << 64) + 9)]),
])
def test_log_ratio_within_intersects_as_refinement_does(monkeypatch, den, levels):
    monkeypatch.setattr(LogRatioSource, "_grid", _grid_levels(levels))
    source = LogRatioSource(F(2), den)
    assert _outcome(source.within, 48) == _outcome(_refined, source, 48)


@given(st.integers(min_value=2, max_value=50), st.integers(min_value=2, max_value=9),
       st.integers(min_value=-7, max_value=7))
def test_rational_pow_agrees_with_roots(base, den, num):
    if num == 0:
        return
    expo = F(num, den)
    a = rational_pow(F(base), expo, 64)
    root = nthroot_interval(F(base), den, 96)
    b = root
    acc = (F(1), F(1))
    for _ in range(abs(num)):
        acc = iv_mul(acc, b)
    if num < 0:
        acc = (1 / acc[1], 1 / acc[0])
    assert max(a[0], acc[0]) <= min(a[1], acc[1])  # enclosures overlap


def test_cmp_rational_refines():
    g = RealEnclosure.from_source(LogRatioSource(F(2), F(3)))
    assert g.cmp_rational(F(63092, 10 ** 5)) == 1
    assert g.cmp_rational(F(63094, 10 ** 5)) == -1
    assert RealEnclosure.exact(F(1, 2)).cmp_rational(F(1, 2)) == 0


def _run_isolated(code: str) -> str:
    """Stdout of `code` in a fresh interpreter, which is killed after 10 s so
    that a hang fails the test instead of stalling the run."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, check=True, env=dict(os.environ, PYTHONPATH=path)).stdout


SOURCELESS = """
from fractions import Fraction as F
from cantorapprox import PrecisionError, RealEnclosure, continued_fraction_expand
from cantorapprox import legendre_is_convergent
x = RealEnclosure(F("{lo}"), F("{hi}"))  # inexact, with no source to refine
try:
    print({call})
except PrecisionError as exc:
    print("PrecisionError:", exc)
"""


# each call looped forever on an inexact enclosure with no source
@pytest.mark.parametrize("call", ["x.cmp_rational(F(2, 5))", "legendre_is_convergent(2, 5, x)"])
def test_sourceless_enclosure_is_a_precision_error(call):
    out = _run_isolated(SOURCELESS.format(lo="1/3", hi="1/2", call=call))
    assert out == ("PrecisionError: enclosure undecided (no source) at refinement "
                   f"level 0 of cap {Budget().steps}, width < 2^-1\n")


def test_sourceless_expansion_keeps_its_certified_quotients():
    # every number in [2/5, 3/7] has first quotient 2, then the quotients part
    out = _run_isolated(SOURCELESS.format(lo="2/5", hi="3/7",
                                          call="continued_fraction_expand(x, 5)"))
    assert out == ("ContinuedFraction(quotients=(2,), convergents=((1, 2),), exact=False, "
                   "exhausted=True)\n")
