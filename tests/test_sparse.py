from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorapprox import (AffineSource, FactorialRule, InputError, MissingDigitSet,
                          PowerRule, RealEnclosure, SqrtSource, build_sparse_number,
                          exceeds_exact_order_threshold, membership,
                          te_inequality_holds, truncation_report,
                          truncation_reports, well_approximable_band)
from cantorapprox.enclosures import BASE_BITS, as_enclosure
from cantorapprox.errors import Budget, PrecisionError, power_bits
from cantorapprox.sparse import (SparseDigitNumber, _cmp_fraction_vs_power, _exponent_compare,
                                 _power_bound_encl)

from oracles import (mp_interval, mp_real, needs_mpmath, sparse_power_sum, sparse_tail_sum,
                     under_budget)

K = MissingDigitSet.middle_thirds()


def test_build_examples():
    x = build_sparse_number(3, 2, PowerRule(F(3)), 3)
    assert x.exponents_up_to(3) == (3, 9, 27)
    assert x.truncation(1) == (2, 27)
    xf = build_sparse_number(3, 2, FactorialRule(), 4)
    assert xf.exponents_up_to(4) == (1, 2, 6, 24)
    x52 = build_sparse_number(3, 2, PowerRule(F(5, 2)), 3)
    assert x52.exponents_up_to(3) == (2, 6, 15)


def test_rule_validation():
    with pytest.raises(InputError):
        PowerRule(F(2))          # needs tau > 2
    with pytest.raises(InputError):
        PowerRule(F(3), F(0))    # needs lam > 0
    with pytest.raises(InputError):
        build_sparse_number(3, 0, PowerRule(F(3)), 3)
    with pytest.raises(InputError):
        build_sparse_number(3, 2, PowerRule(F(3)), 1)


def test_coefficient_base_coprimality_enforced():
    # coefficient 2 in base 4 shares a factor with the base: truncations
    # cannot be reduced, which the constructor reports
    with pytest.raises(InputError):
        build_sparse_number(4, 2, PowerRule(F(3)), 3)
    x = build_sparse_number(4, 3, PowerRule(F(3)), 3)  # gcd(3,4)=1 is fine
    p, q = x.truncation(2)
    assert q == 4 ** 9


def test_exponent_collision_rejected():
    # lam small enough that floor(lam tau) == floor(lam tau^2) == 0 is
    # prevented by lam > 0 with tau > 2 only when exponents stay distinct;
    # force a collision via a tiny lam
    with pytest.raises(InputError):
        build_sparse_number(3, 2, PowerRule(F(201, 100), F(1, 100)), 3)


def test_truncation_exactness_and_coprimality():
    for rule, terms in [(PowerRule(F(3)), 6), (PowerRule(F(5, 2)), 8),
                        (PowerRule(F(11, 5)), 8), (FactorialRule(), 8)]:
        x = build_sparse_number(3, 2, rule, terms)
        for s in range(1, min(terms, 8) + 1):
            p, q = x.truncation(s)
            assert q == 3 ** x.exponent(s)
            assert F(p, q) == 2 * sum(F(1, 3 ** x.exponent(n)) for n in range(1, s + 1))
            from math import gcd
            assert gcd(p, q) == 1


def test_tail_bounds_match_gap_inequality():
    x = build_sparse_number(3, 2, PowerRule(F(3)), 5)
    rep = truncation_report(x, 1)
    assert rep.gap_lo >= F(2, 19683) and rep.gap_hi <= F(3, 19683)
    assert rep.gap_bounds_ok
    # growth: (1/3) 27^3 = 6561 < 19683 < 27 * 27^3
    assert rep.denominator_growth_ok
    assert rep.power_bounds_ok
    assert rep.passes


def test_all_reports_pass_for_committed_numbers():
    for rule, terms in [(PowerRule(F(3)), 5), (PowerRule(F(11, 5)), 6),
                        (PowerRule(F(3), F(1, 2)), 5)]:
        x = build_sparse_number(3, 2, rule, terms)
        reports, s_min = truncation_reports(x)
        assert s_min == 1
        assert all(r.passes for r in reports)


def test_irrational_tau_reports():
    tau = RealEnclosure.from_source(AffineSource(SqrtSource(F(2)), add=F(1)))
    x = build_sparse_number(3, 2, PowerRule(tau), 5)
    assert x.exponents_up_to(5) == (2, 5, 14, 33, 82)
    reports, s_min = truncation_reports(x)
    assert s_min == 1 and all(r.passes for r in reports)


def test_the_threshold_tau_as_a_source_gives_the_lucas_numbers_less_one():
    # tau = (3 + sqrt 5)/2 = phi^2, so tau^n = L_2n - tau^-n lies just below
    # the Lucas number L_2n: floor(tau^n) = L_2n - 1
    tau = AffineSource(SqrtSource(F(5)), F(1, 2), F(3, 2))
    x = build_sparse_number(3, 2, PowerRule(tau), 7)
    assert x.exponents_up_to(7) == (2, 6, 17, 46, 122, 321, 842)
    reports, s_min = truncation_reports(x)
    assert s_min == 1 and all(r.passes for r in reports)


def test_factorial_reports_flag_liouville():
    x = build_sparse_number(3, 2, FactorialRule(), 6)
    reports, _ = truncation_reports(x)
    for rep in reports:
        assert rep.denominator_growth_ok is None
        assert "liouville" in rep.note
        assert rep.gap_bounds_ok


def test_membership_at_depth():
    x = build_sparse_number(3, 2, PowerRule(F(3)), 5)
    assert membership(x, K, 243).is_in
    # digits 1 are never emitted, 0s demand 0 in the digit set
    no_zero = MissingDigitSet(3, (1, 2))
    assert membership(x, no_zero, 10).is_out
    y = build_sparse_number(3, 1, PowerRule(F(3)), 4)
    assert membership(y, K, 27).is_out  # coefficient 1 is a missing digit


def test_membership_large_term_count_symbolic():
    # 40 terms means exponents up to 3^40: only the digit stream is feasible
    x = build_sparse_number(3, 2, PowerRule(F(3)), 40)
    assert membership(x, K, 100).is_in


def test_enclosure_value_nests():
    x = build_sparse_number(3, 2, PowerRule(F(5, 2)), 4)
    enc = as_enclosure(x)
    for _ in range(3):
        nxt = enc.refine()
        assert enc.lo <= nxt.lo <= nxt.hi <= enc.hi
        enc = nxt


def test_threshold_examples():
    # (sqrt5 + 3)/2 = 2.618...
    assert exceeds_exact_order_threshold(F(3))
    assert exceeds_exact_order_threshold(F(262, 100))
    assert not exceeds_exact_order_threshold(F(261, 100))
    assert not exceeds_exact_order_threshold(F(5, 2))


@given(st.fractions(min_value=F(21, 10), max_value=F(4)))
@settings(max_examples=80, deadline=None)
def test_threshold_equivalence(tau):
    # as eps -> 0 the driver inequality holds exactly above the threshold;
    # test the eps = 0 boundary form (tau-1)^2 > tau
    lhs = (tau - 1) * (tau - 1) > tau
    assert lhs == (exceeds_exact_order_threshold(tau) and (2 * tau - 3) ** 2 != 5)


def test_te_inequality_examples():
    assert te_inequality_holds(F(3), F(1, 1000))
    assert not te_inequality_holds(F(5, 2), F(1, 1000))
    # part (ii): eps > tau/(tau-1) - tau + 1 restores the inequality
    tau = F(5, 2)
    eps_star = tau / (tau - 1) - tau + 1
    assert te_inequality_holds(tau, eps_star + F(1, 100))
    assert not te_inequality_holds(tau, eps_star - F(1, 100))


def test_band_example():
    lo, hi = well_approximable_band(F(11, 5), F(1, 10))
    assert (lo, hi) == (F(21, 10), F(44, 15))


def test_lambda_variant_keeps_constants():
    # floor arithmetic gives the same two-sided growth constants for any lam > 0
    for lam in (F(1, 2), F(2), F(7, 3)):
        x = build_sparse_number(3, 2, PowerRule(F(3), lam), 5)
        reports, s_min = truncation_reports(x)
        assert all(r.denominator_growth_ok for r in reports)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_truncation_value_inside_tail(s, terms):
    if s >= terms:
        return
    x = build_sparse_number(3, 2, PowerRule(F(3)), terms)
    lo, hi = x.tail_interval(s)
    assert 0 < lo <= hi
    # the tail interval brackets the enclosure difference
    val = x.value_interval()
    trunc = F(*x.truncation(s))
    assert val[0] - trunc >= lo - (hi - lo)
    assert val[1] - trunc <= hi


SPARSE_RULES = [FactorialRule()] + [PowerRule(F(tau), F(lam)) for tau in ("11/5", "5/2", "3", "7/2")
                                     for lam in (1, 2)]


@given(st.sampled_from(SPARSE_RULES),
       st.integers(min_value=3, max_value=7).flatmap(
           lambda b: st.tuples(st.just(b), st.integers(min_value=1, max_value=b - 1))),
       st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=7))
@settings(max_examples=120, deadline=None)
def test_the_truncation_recurrence_matches_the_power_sum(rule, base_coefficient, s, terms):
    base, c = base_coefficient
    x = SparseDigitNumber(base, c, rule, terms)
    p, q = sparse_power_sum(x, s)
    if gcd(c, base) > 1:
        # then p/q is not reduced either, and no truncation is built
        assert gcd(p, q) > 1
        with pytest.raises(InputError, match="^truncation not reduced"):
            x.truncation(s)
        with pytest.raises(InputError, match="^truncation not reduced"):
            build_sparse_number(base, c, rule, terms)
        return
    assert gcd(p, q) == 1
    # built up to s at once, then read back in any order
    assert x.truncation(s) == (p, q)
    for r in range(1, s + 1):
        assert x.truncation(r) == sparse_power_sum(x, r)
    e = x.exponent(s + 1)
    assert x.value_interval(s) == (F(p, q), F(p, q) + F(c * base, (base - 1) * base ** e))


class _CountingRule:
    """n + 1, counting the exponents asked for."""

    def __init__(self):
        self.asked = []

    def exponent(self, n):
        self.asked.append(n)
        return n + 1


def test_a_sparse_number_builds_only_the_exponents_it_reads():
    rule = _CountingRule()
    x = SparseDigitNumber(3, 2, rule, 100_000)
    assert rule.asked == [1]
    x.truncation(3)
    assert rule.asked == [1, 3, 2]
    x.value_interval(5)
    assert rule.asked == [1, 3, 2, 6, 5, 4]
    x.exponent(4)
    assert len(rule.asked) == 6


# the rules the benchmark draws for xi
@pytest.mark.parametrize("rule", [PowerRule(F(t)) for t in ("11/5", "5/2", "11/4", "3", "10/3",
                                                             "7/2")] + [FactorialRule()],
                         ids=lambda rule: str(getattr(rule, "tau", "factorial")))
def test_tail_interval_is_the_term_by_term_sum(rule):
    for terms in (5, 6, 7):
        x = build_sparse_number(3, 2, rule, terms)
        for s in range(1, terms + 1):
            assert x.tail_interval(s) == sparse_tail_sum(x, s), (terms, s)


@needs_mpmath
@pytest.mark.parametrize("value, coef, shift", [
    (3, F(-1), F(5)),              # decided at level 0, with a negative coefficient
    (2, F(-1), F(5)),
    (219602, F(98209), F(0)),      # 219602/98209 and 930249/416020 are convergents
    (930249, F(416020), F(0)),     # of sqrt 5: p - q sqrt 5 is below the level-0
    (-219602, F(-98209), F(0)),    # width q 2^-32, so the comparison refines
    (-930249, F(-416020), F(1, 10 ** 9)),
])
def test_exponent_compare_matches_mpmath(value, coef, shift):
    tau = RealEnclosure.from_source(SqrtSource(F(5)))
    # twice the precision of level 1, plus the bits of the integer parts
    lo, hi = mp_interval(lambda iv: value - (mp_real(coef, iv) * iv.sqrt(5) + mp_real(shift, iv)),
                         2 * (BASE_BITS << 1) + 64)
    assert lo > 0 or hi < 0
    assert _exponent_compare(value, coef, tau, shift) == (1 if lo > 0 else -1)


@needs_mpmath
@pytest.mark.parametrize("above", [True, False])
@pytest.mark.parametrize("where", ["far below", "near below", "near above", "far above"])
def test_power_bound_matches_mpmath(above, where):
    # 3^(-2 sqrt 5), and a rational next to it: "near" is within 2^-50, inside
    # the spread 2^-35 that tau's level-0 width 2^-32 gives, so it refines
    tau = RealEnclosure.from_source(SqrtSource(F(5)))
    power = mp_interval(lambda iv: iv.mpf(3) ** (-2 * iv.sqrt(5)), 2 * (BASE_BITS << 1))
    cut = F((power[0] * (1 << 50)).__floor__(), 1 << 50)
    r = {"far below": power[0] / 2, "near below": cut,
         "near above": cut + F(1, 1 << 50), "far above": power[1] * 2}[where]
    assert r < power[0] or r > power[1]
    assert _power_bound_encl(r, 3, tau, 2, above) == ((r > power[1]) == above)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=20_000))
@settings(max_examples=200, deadline=None)
def test_power_bits_is_a_close_upper_bound(base, e):
    exact = (base ** e).bit_length()
    assert exact <= power_bits(base, e) <= exact + e // 64 + 1
    if e >= 64:
        assert power_bits(base, e) <= exact * 1.02


def test_value_interval_checks_the_denominator_it_builds():
    # e = 3, 9, 27, 81: a 100-bit budget admits the truncation 3^27 (43 bits)
    # but not the denominator 2*3^81 (130 bits) of value_interval(3)
    xi = build_sparse_number(3, 2, PowerRule(F(3)), 3)
    # the error names the bits asked for, the operand and the cap
    with pytest.raises(PrecisionError, match=r"^operand of 44 bits \(3\^27\) over the "
                       r"40-bit budget$"):
        under_budget(Budget(bits=40), xi.truncation, 3)
    assert under_budget(Budget(bits=100), xi.truncation, 3) == (2 * (3 ** 24 + 3 ** 18 + 1),
                                                                3 ** 27)
    xi.value_interval(3)  # built once under the default budget, and still checked
    with pytest.raises(PrecisionError, match=r"^operand of 132 bits \(2\*3\^81\) over the "
                       r"100-bit budget$"):
        under_budget(Budget(bits=100), xi.value_interval, 3)


@given(st.sampled_from([FactorialRule(), PowerRule(F(3)), PowerRule(F(7, 2))]),
       st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=1))
@settings(max_examples=40, deadline=None)
def test_value_interval_is_built_once_per_level(rule, terms, level):
    xi = build_sparse_number(3, 2, rule, terms)
    t = terms + level
    first = xi.value_interval(t)
    assert xi.value_interval(t) is first
    assert xi.interval(level) is first
    assert first == build_sparse_number(3, 2, rule, terms).value_interval(t)


def test_default_bit_budget_admits_the_factorial_denominator_of_term_nine():
    # value_interval(9) of the factorial rule builds 2*3^(10!), of 5,751,513 bits,
    # and value_interval(10) would build 2*3^(11!)
    xf = build_sparse_number(3, 2, FactorialRule(), 3)
    assert Budget().bits // 2 < 5_751_513 <= power_bits(3, 3628800) + 2 <= Budget().bits
    with pytest.raises(PrecisionError, match=r"^operand of 63,617,403 bits "
                       r"\(2\*3\^39916800\) over the 8,388,608-bit budget$"):
        xf.value_interval(10)


def test_power_comparison_checks_the_powers_it_builds():
    # num^2 * 3^201 against den^2 for r = 1/3^100: at most 2 + 320 + 1 and 2 * 159 bits
    r = F(1, 3 ** 100)
    assert _cmp_fraction_vs_power(r, 3, F(-201, 2)) == 1
    with pytest.raises(PrecisionError, match=r"^operand of 323 bits \(gap\^2\*3\^201\) "
                       r"over the 300-bit budget$"):
        under_budget(Budget(bits=300), _cmp_fraction_vs_power, r, 3, F(-201, 2))
