import json
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorapprox import (AffineSource, InputError, MissingDigitSet, RealEnclosure,
                          SqrtSource, cf_prefix_interval, continued_fraction_expand,
                          convergents_from_quotients, golden_ratio_source,
                          irrationality_exponent_estimate, legendre_is_convergent,
                          prefix_interval_disjoint_from, build_sparse_number,
                          PowerRule, FactorialRule, LogRatioSource, SparseDigitNumber)
from cantorapprox import enclosures
from cantorapprox.cli import run_command
from cantorapprox.contfrac import _extract_certified
from cantorapprox.enclosures import BASE_BITS, as_enclosure, iv_abs, iv_exact, iv_sub
from cantorapprox.errors import Budget

from oracles import (extract_certified, folded_sparse_quotients, mp_interval, mp_real,
                     needs_mpmath, under_budget)

K = MissingDigitSet.middle_thirds()


def _sqrt_minus(d, sub):
    return RealEnclosure.from_source(AffineSource(SqrtSource(F(d)), add=F(-sub)))


def twenty_test_numbers():
    """Mixed rationals, quadratic irrationals, the set exponent, and sparse numbers."""
    rationals = [F(2, 27), F(13, 29), F(5, 7), F(355, 1130), F(17, 23), F(89, 144),
                 F(101, 257), F(3, 1000)]
    quadratics = [RealEnclosure.from_source(golden_ratio_source()),
                  _sqrt_minus(2, 1), _sqrt_minus(3, 1), _sqrt_minus(5, 2),
                  _sqrt_minus(7, 2), _sqrt_minus(10, 3)]
    gamma = RealEnclosure.from_source(LogRatioSource(F(2), F(3)))
    sparse = [build_sparse_number(3, 2, PowerRule(F(3)), 4),
              build_sparse_number(3, 2, PowerRule(F(5, 2)), 5),
              build_sparse_number(3, 2, PowerRule(F(11, 5)), 5),
              build_sparse_number(3, 2, PowerRule(F(3), F(1, 2)), 4),
              build_sparse_number(3, 2, FactorialRule(), 5)]
    return rationals + quadratics + [gamma] + sparse


def test_euclidean_examples():
    cf = continued_fraction_expand(F(2, 27), 10)
    assert cf.quotients == (13, 2)
    assert cf.exact
    assert cf.convergents == ((1, 13), (2, 27))


def _euclid(x: F) -> list[int]:
    quotients = []
    while x:
        x = 1 / x
        quotients.append(x.__floor__())
        x -= quotients[-1]
    return quotients


def test_expansion_out_of_truncation_budget_keeps_its_certified_quotients():
    # e = 3, 9, 27, 81, 243.  Level 0 builds 2*3^81 (130 bits).  Level 1 needs
    # the truncation 3^81, which a 200-bit budget admits, and builds 2*3^243
    # (387 bits), which it does not: the expansion stops at level 0
    xi = build_sparse_number(3, 2, PowerRule(F(3)), 3)
    cf = under_budget(Budget(bits=200), continued_fraction_expand, xi, 60)
    assert cf.exhausted and not cf.exact
    level_0 = RealEnclosure(*xi.value_interval(3))  # with no source to refine
    assert cf == continued_fraction_expand(level_0, 60)
    # xi and its next truncation both lie in the level-0 enclosure, so both
    # expansions begin with every certified quotient
    truncation = sum(F(2, 3 ** e) for e in (3, 9, 27, 81))
    assert 1 <= len(cf.quotients) < 60
    assert list(cf.quotients) == _euclid(truncation)[:len(cf.quotients)]


unit_fractions = st.fractions(min_value=-1, max_value=2, max_denominator=10 ** 30)
# [1/(n + u), 1/(n + v)] for u >= v in [0, 1]: a first quotient n of up to 4000 bits
tails = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 12)
huge_first = st.builds(lambda n, u, v: (1 / (n + max(u, v)), 1 / (n + min(u, v))),
                       st.integers(min_value=2 ** 64, max_value=2 ** 4000), tails, tails)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(unit_fractions, unit_fractions).map(sorted),
                 unit_fractions.map(lambda v: (v, v)), huge_first),
       st.integers(min_value=1, max_value=60))
@example((F(0), F(1, 2)), 5)      # lo == 0: the remainder could vanish
@example((F(-1, 3), F(1, 2)), 5)  # lo < 0
@example((F(2, 7), F(2, 7)), 5)   # lo == hi: the whole expansion
@example((F(2, 7), F(1, 3)), 5)   # 1/hi is an integer: then lo's remainder vanishes
@example((F(1, 2), F(3, 2)), 5)   # hi > 1: a first quotient 0
@example((F(2, 2 * 3 ** 500 + 1), F(3, 3 * 3 ** 500 + 1)), 5)  # 3^500, then 2 against 3
def test_integer_extraction_matches_the_fraction_euclid(iv, depth):
    iv = tuple(iv)
    assert _extract_certified(iv, depth) == extract_certified(iv, depth)


def _cf_value(quotients) -> F:
    x = F(0)
    for a in reversed(quotients):
        x = 1 / (a + x)
    return x


@pytest.mark.parametrize("rule, tau", [(FactorialRule(), "3"), (PowerRule(F(3)), "3"),
                                       (PowerRule(F(5, 2)), "5/2")])
@pytest.mark.parametrize("terms", [2, 3, 4, 5])
def test_certified_quotients_of_xi_begin_its_folded_expansion(rule, tau, terms):
    """With one refinement level the last enclosure of xi (coefficient 1)
    holds the truncation with terms + 2 terms, so its certified quotients
    begin that truncation's expansion, built by folding alone."""
    exponents = build_sparse_number(3, 1, rule, terms).exponents_up_to(terms + 2)
    folded = folded_sparse_quotients(3, list(exponents))
    assert _cf_value(folded) == sum(F(1, 3 ** e) for e in exponents)
    argv = ["cf", "--x", "xi", "--coeff", "1", "--tau", tau, "--terms", str(terms),
            "--depth", "1000", "--precision-budget", "1"]
    if isinstance(rule, FactorialRule):
        argv += ["--rule", "factorial"]
    text, _ = run_command(argv)
    quotients = json.loads(text)["results"]["quotients"]
    assert 2 <= len(quotients) < len(folded)
    assert quotients == folded[:len(quotients)]


def test_golden_ratio_prefix():
    cf = continued_fraction_expand(RealEnclosure.from_source(golden_ratio_source()), 30)
    assert cf.quotients == (1,) * 30
    assert not cf.exhausted


def test_rejects_out_of_range():
    with pytest.raises(InputError):
        continued_fraction_expand(F(3, 2), 5)
    with pytest.raises(InputError):
        continued_fraction_expand(F(0), 5)


def _assert_strictly_between(x, lower, upper, target):
    """Certify lower < |x - target| < upper with refinement."""
    enc = as_enclosure(x)
    for _ in range(20):
        diff = iv_abs(iv_sub(enc.as_iv(), iv_exact(target)))
        if diff[0] > lower and diff[1] < upper:
            return
        if diff[1] <= lower or diff[0] >= upper:
            raise AssertionError(f"sandwich failed: {diff} vs ({lower}, {upper})")
        enc = enc.refine()
    raise AssertionError("could not certify the sandwich")


def test_cf_invariants_on_twenty_numbers():
    for x in twenty_test_numbers():
        cf = continued_fraction_expand(x, 18)
        convs = cf.convergents
        assert len(convs) >= 2
        # recurrence and determinant
        p_prev, q_prev = 1, 0
        p_cur, q_cur = 0, 1
        for a, (p, q) in zip(cf.quotients, convs):
            assert a >= 1
            p_cur, p_prev = a * p_cur + p_prev, p_cur
            q_cur, q_prev = a * q_cur + q_prev, q_cur
            assert (p, q) == (p_cur, q_cur)
        for (p0, q0), (p1, q1) in zip(convs, convs[1:]):
            assert q1 * p0 - p1 * q0 in (-1, 1)
        # strictly increasing denominators from the second convergent on
        qs = [q for _, q in convs]
        assert all(a < b for a, b in zip(qs[1:], qs[2:]))
        # sandwich and alternating sides (final convergent of a rational excluded)
        limit = len(convs) - 1 if cf.exact else len(convs) - 1
        for k in range(limit):
            p, q = convs[k]
            q_next = convs[k + 1][1]
            if cf.exact and k == len(convs) - 2:
                # the penultimate convergent of a rational attains the bound
                x_val = x if isinstance(x, F) else None
                if x_val is not None:
                    assert abs(x_val - F(p, q)) == F(1, q * q_next)
                continue
            _assert_strictly_between(x, F(1, q * (q + q_next)), F(1, q * q_next),
                                     F(p, q))


def _signed_side(x, target):
    enc = as_enclosure(x)
    for _ in range(20):
        lo, hi = iv_sub(enc.as_iv(), iv_exact(target))
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        enc = enc.refine()
    raise AssertionError("side undecided")


def test_alternating_sides():
    for x in [RealEnclosure.from_source(golden_ratio_source()),
              build_sparse_number(3, 2, PowerRule(F(3)), 4),
              _sqrt_minus(2, 1)]:
        cf = continued_fraction_expand(x, 12)
        sides = [_signed_side(x, F(p, q)) for p, q in cf.convergents]
        assert all(a == -b for a, b in zip(sides, sides[1:]))


def test_legendre_examples():
    xi = build_sparse_number(3, 2, PowerRule(F(3)), 5)
    cf = continued_fraction_expand(xi, 30)
    assert legendre_is_convergent(2, 27, xi) == "yes"
    assert (2, 27) in cf.convergents
    assert legendre_is_convergent(1, 2, F(4999, 10000)) == "yes"
    assert legendre_is_convergent(1, 3, F(1, 2)) == "not_implied"
    with pytest.raises(InputError):
        legendre_is_convergent(2, 4, F(1, 2))


@needs_mpmath
@pytest.mark.parametrize("round_up, verdict", [(0, "not_implied"), (1, "yes")])
def test_legendre_refines_near_the_bound(round_up, verdict):
    # x = 5/8 + (sqrt 2 - s)/16 with s = sqrt 2 cut to 40 bits: within 2^-44
    # of 1/2 + 1/8, the Legendre bound of 1/2, where a level-0 enclosure is
    # 2^-36 wide
    s = F(isqrt(2 << 80) + round_up, 1 << 40)
    src = AffineSource(SqrtSource(F(2)), mul=F(1, 16), add=F(5, 8) - s / 16)
    x = RealEnclosure.from_source(src)
    assert x.lo < F(5, 8) < x.hi
    # twice the precision of level 1
    lo, hi = mp_interval(lambda iv: abs(mp_real(src, iv) - iv.mpf(1) / 2),
                         2 * (BASE_BITS << 1))
    assert (hi < F(1, 8)) if verdict == "yes" else (lo >= F(1, 8))
    assert legendre_is_convergent(1, 2, x) == verdict


def test_legendre_certified_appear_in_convergents():
    for rule, terms in [(PowerRule(F(3)), 5), (PowerRule(F(11, 5)), 6)]:
        xi = build_sparse_number(3, 2, rule, terms)
        cf = continued_fraction_expand(xi, 120)
        qs = {q for _, q in cf.convergents}
        for s in range(1, terms):
            p, q = xi.truncation(s)
            if legendre_is_convergent(p, q, xi) == "yes":
                assert q in qs and (p, q) in cf.convergents


def test_intermediate_convergent_growth():
    # the convergent q* following each q_s satisfies
    # (1/10) q_s^(tau-1) < q* < (3^tau / 2) q_s^(tau-1) for tau = 3
    xi = build_sparse_number(3, 2, PowerRule(F(3)), 5)
    cf = continued_fraction_expand(xi, 60)
    qs_list = [q for _, q in cf.convergents]
    for s in range(1, 5):
        q_s = 3 ** xi.exponent(s)
        idx = qs_list.index(q_s)
        q_star = qs_list[idx + 1]
        assert 10 * q_star > q_s ** 2
        assert 2 * q_star < 27 * q_s ** 2


def test_exponent_estimate_golden():
    cf = continued_fraction_expand(RealEnclosure.from_source(golden_ratio_source()), 30)
    est = irrationality_exponent_estimate(cf)
    # bounded quotients: the max log-ratio comes from the smallest usable pair
    # (q=2 -> q=3), so the finite-window estimate is 1 + log3/log2 = 2.5849...
    assert F(258, 100) < est.lo <= est.hi < F(259, 100)
    assert est.lo >= 2  # Dirichlet floor


def test_exponent_estimate_dirichlet_floor():
    for x in twenty_test_numbers()[:6]:
        cf = continued_fraction_expand(x, 12)
        if len(cf.convergents) < 3:
            continue
        est = irrationality_exponent_estimate(cf)
        assert est.hi >= est.lo >= 2


def test_exponent_estimate_xi3():
    xi = build_sparse_number(3, 2, PowerRule(F(3)), 5)
    cf = continued_fraction_expand(xi, 40)
    est = irrationality_exponent_estimate(cf, min_denominator=50)
    assert F(29, 10) <= est.lo <= est.hi <= F(31, 10)


def test_exponent_estimate_takes_each_log_once(monkeypatch):
    cf = continued_fraction_expand(build_sparse_number(3, 2, PowerRule(F(3)), 5), 40)
    want = irrationality_exponent_estimate(cf, min_denominator=50)
    calls = []
    ln = enclosures.ln_interval
    monkeypatch.setattr(enclosures, "ln_interval",
                        lambda x, bits: calls.append((x, bits)) or ln(x, bits))
    assert irrationality_exponent_estimate(cf, min_denominator=50) == want
    assert len(calls) == len(set(calls)) > 2


def test_exponent_estimate_xi_band():
    xi = build_sparse_number(3, 2, PowerRule(F(11, 5)), 6)
    cf = continued_fraction_expand(xi, 120)
    est = irrationality_exponent_estimate(cf, min_denominator=50)
    assert F(21, 10) <= est.lo <= est.hi <= F(44, 15)


def test_factorial_estimate_grows():
    # Liouville-type behaviour: the estimate grows with the window
    xi = build_sparse_number(3, 2, FactorialRule(), 6)
    cf_short = continued_fraction_expand(xi, 10)
    cf_long = continued_fraction_expand(xi, 40)
    e1 = irrationality_exponent_estimate(cf_short, min_denominator=3)
    e2 = irrationality_exponent_estimate(cf_long, min_denominator=3)
    assert e2.hi > e1.hi


def test_prefix_interval_examples():
    pi = cf_prefix_interval([1, 1])
    assert (pi.lo, pi.hi) == (F(1, 2), F(2, 3))
    assert pi.lo_closed and not pi.hi_closed
    assert prefix_interval_disjoint_from(pi, K, 2)
    pi2 = cf_prefix_interval([2])
    assert (pi2.lo, pi2.hi) == (F(1, 3), F(1, 2))
    assert not pi2.lo_closed and pi2.hi_closed
    assert prefix_interval_disjoint_from(pi2, K, 1)


def test_prefix_interval_quadratic_survey_rows():
    # [n,n] for n = 1..6: verdicts at the first conclusive depth
    expected_first_depth = {1: 1, 2: 1, 3: None, 4: 4, 5: 2, 6: 2}
    for n, first in expected_first_depth.items():
        pi = cf_prefix_interval([n, n])
        depths = [d for d in range(1, 7) if prefix_interval_disjoint_from(pi, K, d)]
        assert (depths[0] if depths else None) == first


def test_prefix_interval_membership_consistency():
    # the anchored endpoint belongs to the interval: if the set contains it,
    # the interval cannot be disjoint
    from cantorapprox import membership
    pi = cf_prefix_interval([3])  # (1/4, 1/3], and 1/4 = 0.0202... is in K
    assert (pi.lo, pi.hi) == (F(1, 4), F(1, 3))
    assert membership(F(1, 3), K).is_in
    assert not prefix_interval_disjoint_from(pi, K, 6)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_prefix_interval_contains_its_numbers(quotients):
    pi = cf_prefix_interval(quotients)
    # the number with exactly these quotients (rational) sits at the closed end
    p, q = convergents_from_quotients(quotients)[-1]
    x = F(p, q)
    assert pi.lo <= x <= pi.hi
    # extending the prefix stays inside
    ext = cf_prefix_interval(list(quotients) + [2])
    assert pi.lo <= ext.lo and ext.hi <= pi.hi


def _disjoint_by_full_scan(pi, dset, depth):
    """The prefix-interval check scanning every allowed level-depth cell."""
    scale = dset.base ** depth
    for k in dset.allowed_prefixes(depth):
        cell_lo, cell_hi = F(k, scale), F(k + 1, scale)
        lo = max(pi.lo, cell_lo)
        hi = min(pi.hi, cell_hi)
        if lo > hi:
            continue
        if lo < hi:
            return False
        if lo == pi.lo and not pi.lo_closed:
            continue
        if lo == pi.hi and not pi.hi_closed:
            continue
        return False
    return True


@given(st.sampled_from([MissingDigitSet(3, (0, 2)), MissingDigitSet(4, (0, 3)),
                        MissingDigitSet(5, (0, 2, 3))]),
       st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=80, deadline=None)
def test_prefix_interval_disjoint_matches_full_scan(dset, quotients, depth):
    pi = cf_prefix_interval(quotients)
    assert (prefix_interval_disjoint_from(pi, dset, depth)
            == _disjoint_by_full_scan(pi, dset, depth))


def test_prefix_interval_touching_endpoints_match_full_scan():
    # prefix intervals with an endpoint on a cell boundary, open and closed
    for dset in (K, MissingDigitSet(4, (0, 3))):
        for quotients in ([1], [2], [3], [1, 1], [1, 2], [2, 1], [1, 3], [3, 1]):
            pi = cf_prefix_interval(quotients)
            for depth in range(1, 8):
                assert (prefix_interval_disjoint_from(pi, dset, depth)
                        == _disjoint_by_full_scan(pi, dset, depth)), (quotients, depth)


@st.composite
def refinable_source(draw):
    """A sparse number (power or factorial rule, 2-6 terms), sqrt(Q) for
    0 < Q < 1, the golden ratio's fractional part, or log(m)/log(b) for
    primes m < b, each a real in (0, 1) with an `interval(level)` method."""
    kind = draw(st.sampled_from(["sparse", "sqrt", "golden", "log-ratio"]))
    if kind == "sparse":
        rule = draw(st.sampled_from([FactorialRule(), PowerRule(F(3)), PowerRule(F(5, 2)),
                                     PowerRule(F(11, 5)), PowerRule(F(3), F(1, 2))]))
        return build_sparse_number(3, draw(st.sampled_from([1, 2])), rule,
                                   draw(st.integers(min_value=2, max_value=6)))
    if kind == "sqrt":
        den = draw(st.integers(min_value=2, max_value=10 ** 6))
        return SqrtSource(F(draw(st.integers(min_value=1, max_value=den - 1)), den))
    if kind == "golden":
        return golden_ratio_source()
    m, b = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=2, max_size=2,
                         unique=True).map(sorted))
    return LogRatioSource(F(m), F(b))


@given(refinable_source(), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_a_source_is_read_as_its_level_0_enclosure(src, depth):
    enc = RealEnclosure.from_source(src)
    assert as_enclosure(src) == enc
    assert continued_fraction_expand(src, depth) == continued_fraction_expand(enc, depth)
    if isinstance(src, SparseDigitNumber):
        for s in range(1, src.terms):
            p, q = src.truncation(s)
            assert legendre_is_convergent(p, q, src) == legendre_is_convergent(p, q, enc)
