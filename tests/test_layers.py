import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cantorapprox import (ApproxFunction, DimensionFunction, HypothesisViolation,
                          InputError, MissingDigitSet, RatInterval, Scalar,
                          borel_cantelli_ratio,
                          box_dimension_estimate, build_layer, enumerate_centers,
                          layer_comparator,
                          layer_measure, natural_cover_tail, pairwise_measure,
                          quasi_independence_scan, series_classify, series_term,
                          truncate_psi, window_t0)
from cantorapprox import digitsets, enclosures, layers
from cantorapprox.digitsets import cantor_cdf, full_cover_check, measure_union
from cantorapprox.intervals import intersect_unions
from cantorapprox.cli import main
from cantorapprox.cli_layers import parse_psi, parse_scalar
from cantorapprox.layers import VALUE_BITS, classify_pair_case, f_of_psi, psi_value
from cantorapprox.enclosures import (exponent_enclosure, iv_div, iv_exact, iv_mul, iv_scale,
                                     rational_pow)
from cantorapprox.errors import Budget, PrecisionError, ResourceBudgetError

from calibration import C_FIX, MU_RATIO_ENVELOPE
from oracles import (layer_ball_pairs, layer_union_pairs, mp_interval, needs_mpmath,
                     pairwise_by_intersection, under_budget,
                     power_series_converges, window_t0_by_division)

K = MissingDigitSet.middle_thirds()
UNIT = RatInterval.unit()
PSI2 = ApproxFunction.power(2)


def psi_layer(dset, psi, n, window, coprime):
    """The level-n layer at the radius psi(b^n), built as `layers.layer_table` builds it."""
    return build_layer(dset, psi_value(psi, dset, n), n, window, coprime)


def pair_measure(layer_m, layer_n):
    """mu(A_m ∩ A_n) from the two layers and their measures, as `layers.layer_table` reads it."""
    return pairwise_measure(layer_m, layer_n, layer_measure(layer_m), layer_measure(layer_n))


def test_truncate_examples():
    half = ApproxFunction.power(F(1, 2))
    t = truncate_psi(half, F(1, 2))
    assert psi_value(t, K, 1) == (F(1, 6), F(1, 6))  # min(1/6, 1/sqrt 3)
    sq = truncate_psi(ApproxFunction.power(2), F(1, 2))
    for n in range(1, 6):
        assert psi_value(sq, K, n) == (F(1, 9 ** n), F(1, 9 ** n))
    tab = truncate_psi(ApproxFunction.table({1: F(1), 2: F(1, 100)}), F(1, 2))
    assert psi_value(tab, K, 1) == (F(1, 6), F(1, 6))
    assert psi_value(tab, K, 2) == (F(1, 100), F(1, 100))


@pytest.mark.parametrize("psi, n, exact", [
    (ApproxFunction.power(F(5, 2)), 25, F(1, 3 ** 125)),  # squares of 3^-62.5 < 2^-96
    (ApproxFunction.power_log(F(7, 2), Scalar(F(1))), 19, None),  # 3^-66.5 / (19 ln 3)
])
def test_psi_below_the_value_grid_stays_positive(psi, n, exact):
    lo, hi = psi_value(psi, K, n)
    assert 0 < lo < hi < F(1, 2 ** VALUE_BITS)
    if exact is not None:
        assert lo ** 2 <= exact <= hi ** 2
    # the first grid twice as fine holds it; the budget's steps cap the doublings
    assert hi - lo <= F(2, 2 ** (2 * VALUE_BITS))
    with pytest.raises(PrecisionError, match=rf"^psi\(b\^{n}\) is below 2\^-96 at "
                       r"refinement level 0$"):
        under_budget(Budget(steps=0), psi_value, psi, K, n)


def test_psi_on_the_value_grid_is_taken_once():
    psi = ApproxFunction.power(F(5, 2))
    assert psi_value(psi, K, 3) == rational_pow(F(3), F(-15, 2), VALUE_BITS)
    assert psi_value(psi, K, 3)[0] > 0


def test_cli_reads_every_scalar_and_the_truncation():
    assert parse_scalar("gamma/2") == Scalar(F(1, 2), 1)
    assert parse_scalar("3/gamma") == Scalar(F(3), -1)
    assert parse_scalar("2*gamma") == Scalar(F(2), 1)
    psi = parse_psi("pow:2", "1/2")
    assert psi == truncate_psi(PSI2, F(1, 2))
    assert psi_value(psi, K, 1) == (F(1, 9), F(1, 9))  # min(1/6, 1/9)


def test_truncate_rejects_nonpositive():
    with pytest.raises(InputError):
        truncate_psi(PSI2, 0)


def test_build_layer_examples():
    l1 = psi_layer(K, PSI2, 1, UNIT, coprime=True)
    assert l1.centers == (F(1, 3), F(2, 3))
    assert l1.radius == (F(1, 9), F(1, 9))
    assert l1.disjoint
    l1f = psi_layer(K, PSI2, 1, UNIT, coprime=False)
    assert l1f.centers == (F(0), F(1, 3), F(2, 3), F(1))
    l2 = psi_layer(K, PSI2, 2, UNIT, coprime=True)
    assert l2.centers == (F(1, 9), F(2, 9), F(7, 9), F(8, 9))
    assert l2.radius == (F(1, 81), F(1, 81))


def test_layer_window_clipping():
    window = RatInterval.make(F(0), F(1, 2))
    layer = psi_layer(K, PSI2, 2, window, coprime=True)
    assert layer.centers == (F(1, 9), F(2, 9))


def _centers_from_every_center(dset, psi, n, window, coprime):
    """build_layer's centers with every center of the level enumerated first."""
    radius = psi_value(psi, dset, n)
    bn = dset.base ** n
    w_lo, w_hi = window.lo, window.hi
    return tuple(F(p, bn) for p in enumerate_centers(dset, n, coprime)
                 if F(p, bn) + radius[1] >= w_lo and F(p, bn) - radius[1] <= w_hi)


unit_rat = st.builds(lambda num, den: F(num % (den + 1), den),
                     st.integers(min_value=0, max_value=10 ** 4),
                     st.integers(min_value=1, max_value=10 ** 4))


@given(st.sampled_from([K, MissingDigitSet(4, (0, 3)), MissingDigitSet(5, (0, 2, 3))]),
       st.sampled_from([PSI2, ApproxFunction.power(F(3, 2)), ApproxFunction.power(1),
                        truncate_psi(ApproxFunction.power(F(1, 2)), F(1, 2))]),
       st.integers(min_value=1, max_value=6), unit_rat, unit_rat, st.booleans())
@settings(max_examples=150, deadline=None)
def test_layer_centers_match_every_center_filtered(dset, psi, n, a, b, coprime):
    assume(a != b)
    window = RatInterval.make(min(a, b), max(a, b))
    layer = psi_layer(dset, psi, n, window, coprime)
    assert layer.centers == _centers_from_every_center(dset, psi, n, window, coprime)


def test_layer_measure_examples():
    assert layer_measure(psi_layer(K, PSI2, 1, UNIT, True)).value == F(1, 2)
    assert layer_measure(psi_layer(K, PSI2, 2, UNIT, True)).value == F(1, 4)
    assert layer_measure(psi_layer(K, PSI2, 1, UNIT, False)).value == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_layer_identity_and_comparator(n):
    layer = psi_layer(K, PSI2, n, UNIT, True)
    mu = layer_measure(layer).value
    assert mu == F(1, 2 ** n)
    comp = layer_comparator(K, PSI2, layer.radius, n, F(1))
    assert comp == (mu, mu)


def test_disjointness_means_sum_of_ball_measures(unit_window):
    from cantorapprox.digitsets import measure_pair
    for n in (1, 2, 3, 4):
        layer = psi_layer(K, PSI2, n, unit_window, True)
        assert layer.disjoint
        total = sum(measure_pair(K, lo, hi)
                    for lo, hi in layer_ball_pairs(layer, layer.radius[0]))
        assert layer_measure(layer).value == total


def test_pairwise_examples():
    l1 = psi_layer(K, PSI2, 1, UNIT, True)
    l2 = psi_layer(K, PSI2, 2, UNIT, True)
    assert pair_measure(l1, l2).value == F(1, 8)
    assert pair_measure(l2, l2).value == layer_measure(l2).value
    tab = ApproxFunction.table({1: F(1, 100), 2: F(1, 200)})
    t1 = psi_layer(K, tab, 1, UNIT, True)
    t2 = psi_layer(K, tab, 2, UNIT, True)
    assert classify_pair_case(K.base, 1, t1.radius, 2) == "i"
    assert pair_measure(t1, t2).value == 0


def test_case_split_compares_b_to_the_minus_n_with_twice_the_level_m_radius():
    """At b = 3 and n = 2, b^-n = 1/9: a radius enclosure whose upper end
    is at most 1/18 gives case "i", one whose lower end is over 1/18 gives
    "ii", and one straddling 1/18 decides neither."""
    assert classify_pair_case(3, 1, (F(1, 18), F(1, 18)), 2) == "i"
    assert classify_pair_case(3, 1, (F(1, 20), F(1, 18)), 2) == "i"
    assert classify_pair_case(3, 1, (F(1, 17), F(1, 16)), 2) == "ii"
    with pytest.raises(PrecisionError, match=r"^case split undecided for pair \(1,2\)$"):
        classify_pair_case(3, 1, (F(1, 19), F(1, 17)), 2)


def test_pairwise_requires_shared_window():
    other = RatInterval.make(0, F(1, 2))
    with pytest.raises(InputError):
        pair_measure(psi_layer(K, PSI2, 1, UNIT, True),
                         psi_layer(K, PSI2, 2, other, True))


def test_scan_case_split_and_rho():
    rep = quasi_independence_scan(K, PSI2, UNIT, 8)
    assert rep.window_measure == 1
    r12 = next(r for r in rep.rows if (r.m, r.n) == (1, 2))
    assert r12.rho == (F(1), F(1))
    for row in rep.rows:
        # case (i) iff 3^-n >= 2 psi(3^m), here iff n < 2m
        assert row.case == ("i" if row.n < 2 * row.m else "ii")
        if row.case == "i":
            assert row.mu_mn.value == 0
    assert rep.c_empirical == (F(1), F(1))


def test_scan_skips_null_layers():
    # a window inside the central gap has no surviving mass at small levels
    window = RatInterval.make(F(17, 40), F(23, 40))
    rep = quasi_independence_scan(K, ApproxFunction.power(3), window, 4, m_min=2)
    assert rep.rows == ()
    assert len(rep.skipped) == 3


def test_series_corollary_pair():
    f = DimensionFunction.power(F(1, 3), gexp=1)  # f = r^(gamma/3)
    sv1 = series_classify(K, ApproxFunction.power(3), f, 50)
    assert sv1.verdict == "divergent" and sv1.prediction == "measure_full"
    assert [s for s in sv1.partial_sums] == [(F(n), F(n)) for n in range(1, 51)]
    psi_log = ApproxFunction.power_log(3, Scalar.of(6, -1))
    sv2 = series_classify(K, psi_log, f, 50)
    assert sv2.verdict == "convergent" and sv2.prediction == "measure_zero"
    # terms are exactly (n ln 3)^-2: compare against sum n^-2 scaled by 1/ln(3)^2
    sigma = sum(F(1, n * n) for n in range(1, 51))
    assert sv2.last[1] <= sigma  # ln 3 > 1
    assert sv2.last[1] < F(3, 2)


def test_series_geometric_example():
    f = DimensionFunction.power(1, gexp=1)  # f = r^gamma
    sv = series_classify(K, PSI2, f, 30)
    assert sv.verdict == "convergent"
    assert sv.last == (F(2 ** 30 - 1, 2 ** 30), F(2 ** 30 - 1, 2 ** 30))


# f_n is f at r = psi(b^n) = 3^-2n, where r^-gamma f(r) is f_n 4^n
F_NOT_MONOTONIC = DimensionFunction.table({1: F(1, 4), 2: F(1, 32), 3: F(1, 64)})


def test_series_refuses_a_table_f_that_is_not_monotonic():
    # f_n 4^n is 1, 1/2, 1, though f_n / 2^n falls: 1/8, 1/128, 1/512
    with pytest.raises(HypothesisViolation,
                       match=re.escape("r^-gamma f(r) at r = psi(b^n) is not monotonic: it "
                                       "increases in r between levels 1 and 2 and decreases "
                                       "in r between levels 2 and 3") + "$"):
        series_classify(K, PSI2, F_NOT_MONOTONIC, 3)


def test_the_monotonicity_check_reads_the_levels_summed_at_their_radii():
    # two levels summed, or psi(3^n) = 3^-n, where f_n 2^n is 1/2, 1/8, 1/8
    assert series_classify(K, PSI2, F_NOT_MONOTONIC, 2).verdict == "undetermined"
    assert series_classify(K, ApproxFunction.power(1), F_NOT_MONOTONIC, 3).partial_sums
    assert natural_cover_tail(K, PSI2, F_NOT_MONOTONIC, 2, 3).value


@pytest.mark.parametrize("values", [{1: F(1, 2), 2: F(1, 4)},
                                    {1: F(1, 2), 2: F(1, 8), 3: F(1, 32)},
                                    {1: F(1), 2: F(4), 3: F(4)}, {1: F(3)}])
def test_series_accepts_a_table_f_that_is_monotonic(values):
    # f_n 4^n rises, stays, rises where f_n / 2^n rises then falls, or
    # has one level
    f = DimensionFunction.table(values)
    assert series_classify(K, PSI2, f, 3).verdict == "undetermined"


def test_series_table_undetermined():
    f = DimensionFunction.table({1: F(1, 2), 2: F(1, 4)})
    sv = series_classify(K, ApproxFunction.table({1: F(1, 9), 2: F(1, 81)}), f, 2)
    assert sv.verdict == "undetermined" and sv.prediction == "not_applicable"


GRID_RATIONAL = [(F(s), F(t)) for s in (F(1, 2), F(3, 5), F(7, 10), F(2, 3), F(1))
                 for t in (F(1), F(3, 2), F(2), F(5, 2), F(3))]
GRID_GAMMA = [(F(w), F(t)) for w in (F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2))
              for t in (F(1), F(3, 2), F(2), F(5, 2), F(3))]


def test_series_grid_against_closed_form():
    # 25 rational-exponent points, decided by integer powers
    for s, tau in GRID_RATIONAL:
        sv = series_classify(K, ApproxFunction.power(tau), DimensionFunction.power(s), 3)
        expect = power_series_converges(s, tau, 3, 2)
        assert (sv.verdict == "convergent") == expect, (s, tau)
    # 25 gamma-multiple points incl. the boundary s*tau = gamma (divergent)
    for w, tau in GRID_GAMMA:
        f = DimensionFunction.power(w, gexp=1)
        sv = series_classify(K, ApproxFunction.power(tau), f, 3)
        assert (sv.verdict == "convergent") == (w * tau > 1), (w, tau)
        if w * tau == 1:
            assert sv.partial_sums[2] == (F(3), F(3))  # constant terms


def test_series_rational_gamma_set():
    # for J={0,3} base 4 the exponent is exactly 1/2: boundary is exact
    s4 = MissingDigitSet(4, (0, 3))
    sv = series_classify(s4, ApproxFunction.power(2), DimensionFunction.power(F(1, 4)), 10)
    assert sv.verdict == "divergent"  # s*tau = 1/2 = gamma exactly
    sv2 = series_classify(s4, ApproxFunction.power(2), DimensionFunction.power(F(1, 3)), 10)
    assert sv2.verdict == "convergent"


def test_tail_closed_form_and_monotone():
    f = DimensionFunction.power(1, gexp=1)
    values = []
    for n0 in range(1, 10):
        t = natural_cover_tail(K, PSI2, f, n0, 20)
        expect = F(4, 2 ** n0) - F(2, 2 ** 20)
        assert t.value == (expect, expect)
        assert t.series_verdict == "convergent"
        values.append(t.value[0])
    assert all(a > b for a, b in zip(values, values[1:]))


def test_tail_divergent_flag():
    f = DimensionFunction.power(F(1, 3), gexp=1)
    t = natural_cover_tail(K, ApproxFunction.power(3), f, 1, 10)
    assert t.series_verdict == "divergent"
    assert t.value == (F(20), F(20))  # 10 levels x count/mass product = 2 each


def test_tail_degenerate_single_term():
    f = DimensionFunction.power(1, gexp=1)
    t = natural_cover_tail(K, PSI2, f, 5, 5)
    assert t.value == (F(2, 2 ** 5), F(2, 2 ** 5))


def test_borel_cantelli_values():
    assert borel_cantelli_ratio(K, PSI2, UNIT, 1).ratio == (F(1, 2), F(1, 2))
    rep = borel_cantelli_ratio(K, PSI2, UNIT, 2)
    assert rep.ratio == (F(9, 16), F(9, 16))
    for q in range(1, 9):
        r = borel_cantelli_ratio(K, PSI2, UNIT, q)
        assert r.ratio[1] <= r.union_measure <= 1


def test_borel_cantelli_null_error():
    window = RatInterval.make(F(17, 40), F(23, 40))
    with pytest.raises(InputError):
        borel_cantelli_ratio(K, ApproxFunction.power(3), window, 2)


EPS = F(1, 10 ** 9)


def _radii(values: dict):
    """psi_value with the enclosures of the given levels replaced."""
    def psi_value_(psi, dset, n):
        return values[n] if n in values else psi_value(psi, dset, n)
    return mock.patch.object(layers, "psi_value", psi_value_)


def test_bc_ratio_refuses_a_union_measure_its_radius_bounds_leave_open(capsys):
    """Level 1's enclosure of 2/27 straddles the ends 2/27, 7/27, 20/27 and
    25/27 of basic intervals, so the outer unions' union measures
    98305/131072 and the inner ones' 3/4: no one value is certified."""
    with _radii({1: (F(2, 27) - EPS, F(2, 27) + EPS)}):
        assert main("bc-ratio --set 3:0,2 --psi pow:2 --q 2 --no-coprime".split()) == 3
    assert capsys.readouterr().err == ("error: union measure undecided: the inner and outer "
                                       "radius bounds give unions of different measure\n")


@pytest.mark.parametrize("radii", [
    {1: (F(3, 20) - EPS, F(3, 20) + EPS)},  # every ball end in a gap of the set
    {1: (F(2, 27) - EPS, F(2, 27) + EPS), 2: (F(2, 27), F(2, 27))},  # level 2 covers them
], ids=["in a gap", "covered"])
def test_bc_ratio_reports_a_union_measure_its_radius_bounds_agree_on(radii):
    """The union measure of the enclosures' midpoints, exact radii."""
    with _radii({n: (sum(iv) / 2,) * 2 for n, iv in radii.items()}):
        want = borel_cantelli_ratio(K, PSI2, UNIT, 2, coprime=False)
    with _radii(radii):
        rep = borel_cantelli_ratio(K, PSI2, UNIT, 2, coprime=False)
    assert rep.union_measure == want.union_measure
    assert rep.layer_measures[0].exact == (len(radii) == 1)


# levels 2 and 3 are null on [3/10, 1/2] at tau = 2 and 3, level 2 on [1/4, 1/2];
# powlog:2,1 has an inexact radius
@pytest.mark.parametrize("window", [UNIT, RatInterval.make(F(3, 10), F(1, 2)),
                                    RatInterval.make(F(1, 4), F(1, 2))], ids=str)
@pytest.mark.parametrize("psi", [PSI2, ApproxFunction.power(3),
                                 ApproxFunction.power_log(2, Scalar.of(1))], ids=str)
def test_borel_cantelli_ratio_is_read_off_the_scan_pairs(window, psi):
    """(sum mu_s)^2 / (sum mu_s + 2 sum mu_mn) over the scan's rows, and a
    skipped pair, one with a null layer, adds nothing."""
    q = 5
    mus = {s: layer_measure(psi_layer(K, psi, s, window, True)) for s in range(1, q + 1)}
    scan = quasi_independence_scan(K, psi, window, q)
    null = tuple((m, n) for m in mus for n in mus if m < n and not mus[m].hi * mus[n].hi)
    assert scan.skipped == null
    for m, n in null:
        assert pair_measure(psi_layer(K, psi, m, window, True),
                                psi_layer(K, psi, n, window, True)).value == 0
    num = (sum(mu.lo for mu in mus.values()), sum(mu.hi for mu in mus.values()))
    den = (num[0] + 2 * sum(r.mu_mn.lo for r in scan.rows),
           num[1] + 2 * sum(r.mu_mn.hi for r in scan.rows))
    rep = borel_cantelli_ratio(K, psi, window, q)
    assert rep.ratio == iv_div((num[0] ** 2, num[1] ** 2), den)
    assert rep.layer_measures == tuple(mus.values())


def test_box_dimension_examples():
    e22 = box_dimension_estimate(K, F(2), 2, coprime=True)
    assert (e22.count, e22.level) == (4, 4)
    # exact identity: log 4 / log 81 == gamma/2 since 4^2 == 2^4
    assert 4 ** 2 == 2 ** e22.level
    e13 = box_dimension_estimate(K, F(1), 3, coprime=False)
    assert (e13.count, e13.level) == (8, 3)
    e32 = box_dimension_estimate(K, F(3), 2, coprime=True)
    assert (e32.count, e32.level) == (4, 6)


def test_window_t0_refuses_a_window_of_length_zero():
    assert window_t0(RatInterval(F(0), F(1, 2)), 3) == 2  # 1/9 < 1/4 <= 1/3
    with pytest.raises(InputError, match="^window must have positive length$"):
        window_t0(RatInterval(F(1, 2), F(1, 2)), 3)


# radii b^-t exactly, just off it on either side, a/(a b^t + d) with
# |d| <= a, and arbitrary rationals
t0_radii = st.one_of(
    st.builds(lambda b, t, k: (b, F(1, b ** t) * (1 + F(k, 10 ** 30))),
              st.integers(2, 40), st.integers(1, 300), st.integers(-1, 1)),
    st.builds(lambda b, t, a, d: (b, F(a, a * b ** t + d * a // 1000)), st.integers(2, 40),
              st.integers(1, 100), st.integers(1, 2 ** 40), st.integers(-1000, 1000)),
    st.builds(lambda b, num, den: (b, F(min(num, den), 2 * den)), st.integers(2, 40),
              st.integers(1, 10 ** 60), st.integers(1, 10 ** 200)))


@given(t0_radii, st.fractions(min_value=0, max_value=1))
@settings(max_examples=500, deadline=None)
def test_window_t0_matches_the_division_loop(case, start):
    base, radius = case[0], min(case[1], F(1, 2))
    lo = start * (1 - 2 * radius)
    window = RatInterval(lo, lo + 2 * radius)
    assert window_t0(window, base) == window_t0_by_division(window, base)


def test_comparability_envelope_calibration():
    for tau, (c_lo, c_hi) in MU_RATIO_ENVELOPE.items():
        psi = ApproxFunction.power(tau)
        for n in range(window_t0(UNIT, 3) + 1, 11):
            layer = psi_layer(K, psi, n, UNIT, True)
            mu = layer_measure(layer)
            comp = layer_comparator(K, psi, layer.radius, n, F(1))
            ratio = iv_div((mu.lo, mu.hi), comp)
            assert c_lo <= ratio[0] and ratio[1] <= c_hi, (tau, n)
            if tau in (F(2), F(3)):
                assert ratio == (F(1), F(1))


def test_quasi_independence_bounded_by_calibration():
    for tau in (2, 3):
        rep = quasi_independence_scan(K, ApproxFunction.power(tau), UNIT, 10)
        assert rep.c_empirical[1] <= C_FIX


def test_irrational_radius_bounds_mode():
    psi = ApproxFunction.power(F(3, 2))
    layer = psi_layer(K, psi, 3, UNIT, True)  # radius 3^(-4.5), irrational
    assert layer.radius[0] < layer.radius[1]
    mu = layer_measure(layer)
    # bounds may collapse when the measure is radius-insensitive on the
    # enclosure; they must stay ordered and bracket the inner-radius value
    assert mu.lo <= mu.hi
    assert mu.lo == measure_union(K, layer_union_pairs(layer, layer.radius[0]))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_pairwise_symmetric_bound(m, n):
    if m == n:
        return
    m, n = min(m, n), max(m, n)
    lm = psi_layer(K, PSI2, m, UNIT, True)
    ln_ = psi_layer(K, PSI2, n, UNIT, True)
    inter = pair_measure(lm, ln_).value
    assert inter <= min(layer_measure(lm).value, layer_measure(ln_).value)


@pytest.mark.parametrize("psi", [PSI2, ApproxFunction.power(F(3, 2))],
                         ids=["pow:2", "pow:3/2"])
def test_layer_tables_match_fresh_union_measures(psi):
    window = RatInterval.make(F(1, 7), F(5, 6))
    layers = [psi_layer(K, psi, n, window, coprime) for n in range(1, 6)
              for coprime in (True, False)]
    for layer in layers:
        mu = layer_measure(layer)
        assert mu.lo == measure_union(K, layer_union_pairs(layer, layer.radius[0]))
        assert mu.hi == measure_union(K, layer_union_pairs(layer, layer.radius[1]))
    for lm in layers:
        for ln_ in layers:
            inter = pair_measure(lm, ln_)
            assert [inter.lo, inter.hi] == [_oracle_pair_measure(lm, ln_, i) for i in (0, 1)]


def _oracle_pair_measure(lm, ln_, i):
    """Measure of the intersection of the two layers' Fraction unions at
    their inner (i = 0) or outer (i = 1) radius."""
    return measure_union(lm.dset, intersect_unions(layer_union_pairs(lm, lm.radius[i]),
                                                   layer_union_pairs(ln_, ln_.radius[i])))


# denominators of window ends: 1, powers of the three bases, primes such as
# 10007 (whose grids share no factor with b^n), and products of both
WINDOW_DENOMINATORS = [1, 2, 9, 64, 125, 243, 1000, 3125, 7919, 9973, 10007,
                       27 * 10007, 16 * 9973, 25 * 7919]
window_end = st.builds(lambda den, num: F(num % (den + 1), den),
                       st.sampled_from(WINDOW_DENOMINATORS),
                       st.integers(min_value=0, max_value=10 ** 6))
# each set with the highest level drawn for it
GRID_SETS = {K: 6, MissingDigitSet(4, (0, 3)): 5, MissingDigitSet(5, (0, 2, 3)): 4}
GRID_PSIS = [PSI2, ApproxFunction.power(F(3, 2)), ApproxFunction.power_log(2, Scalar.of(1))]


@given(st.sampled_from(list(GRID_SETS)), st.sampled_from(GRID_PSIS), st.data(),
       window_end, window_end, st.booleans())
@settings(max_examples=60, deadline=None)
def test_grid_measures_match_fraction_ball_oracle(dset, psi, data, a, b, coprime):
    """layer, pairwise and bc-ratio union measures on the integer grids
    against Fraction balls merged by `merge_pairs` and measured by
    `measure_union`."""
    assume(a != b)
    window = RatInterval.make(min(a, b), max(a, b))
    top = GRID_SETS[dset]
    layers = [psi_layer(dset, psi, k, window, coprime) for k in range(1, top + 1)]
    for layer in layers:
        mu = layer_measure(layer)
        assert (mu.lo, mu.hi) == tuple(measure_union(dset, layer_union_pairs(layer, r))
                                       for r in layer.radius)
    m = data.draw(st.integers(min_value=1, max_value=top - 1))
    n = data.draw(st.integers(min_value=m + 1, max_value=top))
    lm, ln_ = layers[m - 1], layers[n - 1]
    for x, y in ((lm, ln_), (ln_, lm), (ln_, ln_)):
        inter = pair_measure(x, y)
        assert (inter.lo, inter.hi) == (_oracle_pair_measure(x, y, 0),
                                        _oracle_pair_measure(x, y, 1))
    q = data.draw(st.integers(min_value=1, max_value=top))
    try:
        union = borel_cantelli_ratio(dset, psi, window, q, coprime).union_measure
    except InputError:  # every layer up to q is null
        assert all(layer_measure(l).hi == 0 for l in layers[:q])
        return
    assert union == measure_union(dset, [p for l in layers[:q]
                                         for p in layer_union_pairs(l, l.radius[1])])



def _compare_before(x: Scalar, y: Scalar, dset: MissingDigitSet) -> int:
    """Scalar.compare with its former case split for equal powers or a zero."""
    if x.gexp == y.gexp or x.coef == 0 or y.coef == 0:
        a, b = x.coef, y.coef
        if (x.gexp == y.gexp or (x.coef == 0 and y.gexp == 0)
                or (y.coef == 0 and x.gexp == 0) or (x.coef == 0 and y.coef == 0)):
            return (a > b) - (a < b)
        if y.coef == 0:
            return 1 if x.coef > 0 else -1
        return -1 if y.coef > 0 else 1
    return x.compare(y, dset)


@pytest.mark.parametrize("dset", [MissingDigitSet(3, (0, 2)), MissingDigitSet(4, (0, 3)),
                                  MissingDigitSet(5, (0, 2, 3))], ids=str)
def test_scalar_compare_grid(dset):
    scalars = [Scalar(F(c), g) for c in (-2, F(-1, 2), 0, F(1, 3), 1)
               for g in (-1, 0, 1, 2)]
    for x in scalars:
        for y in scalars:
            assert x.compare(y, dset) == _compare_before(x, y, dset), (x, y)


@needs_mpmath
@pytest.mark.parametrize("p, q", [(79335, 125743), (111202, 176251),
                                  (6189245291, 9809721694)])
def test_scalar_compare_refines_near_gamma(p, q):
    # convergents of gamma = log 2/log 3 inside its level-0 enclosure; the
    # last one is closer than the level-1 width too
    lo, hi = exponent_enclosure(K).as_iv()
    assert lo < F(p, q) < hi
    # twice the precision of level 2
    mlo, mhi = mp_interval(lambda iv: iv.log(2) / iv.log(3) - iv.mpf(p) / q,
                           2 * (enclosures.BASE_BITS << 2))
    assert mlo > 0 or mhi < 0
    side = 1 if mlo > 0 else -1  # the sign of gamma - p/q
    assert Scalar(F(p, q), 0).compare(Scalar(F(1), 1), K) == -side
    assert Scalar(F(q), 2).compare(Scalar(F(p), 1), K) == side


def _iv_from_gamma_before(coef: F, gexp: int, g) -> tuple:
    """Scalar's former gamma-power evaluation: repeated products, then a reciprocal."""
    if coef == 0 or gexp == 0:
        return iv_exact(coef)
    powed = g
    for _ in range(abs(gexp) - 1):
        powed = iv_mul(powed, g)
    if gexp < 0:
        powed = iv_div(iv_exact(F(1)), powed)
    return iv_scale(powed, coef)


def test_scalar_gamma_power_matches_repeated_products():
    gammas = [exponent_enclosure(MissingDigitSet(b, ds)).refined_to(F(1, 2 ** bits)).as_iv()
              for b, ds in ((3, (0, 2)), (5, (0, 2, 3)), (7, (1, 4))) for bits in (32, 96)]
    gammas += [(F(1, 3), F(1, 2)), (F(5, 7), F(5, 7)), (F(2), F(9, 4))]
    for g in gammas:
        for coef in (F(-5, 2), F(-1), 0, F(1, 3), F(1), F(7)):
            for gexp in range(-4, 5):
                sc = Scalar(F(coef), gexp)
                assert sc.at(g) == _iv_from_gamma_before(sc.coef, gexp, g), (g, coef, gexp)


def test_edge_cases_of_the_grid_tests():
    # balls that touch a window end in one point keep their center
    window = RatInterval.make(F(4, 9), F(5, 9))
    assert psi_layer(K, PSI2, 1, window, True).centers == (F(1, 3), F(2, 3))
    # a radius of exactly 1/(2 b^n) makes touching, not disjoint, balls
    for n in (1, 2, 3):
        half = F(1, 2 * 3 ** n)
        assert not build_layer(K, (half, half), n, UNIT, True).disjoint
        apart = half - F(1, 10 ** 9)
        assert build_layer(K, (apart, apart), n, UNIT, True).disjoint


@pytest.mark.parametrize("dset", list(GRID_SETS), ids=str)
def test_wide_radius_bounds_match_fraction_ball_oracle(dset):
    """Radius enclosures wide enough that the inner and the outer unions
    differ in measure, unlike the 96-bit enclosures psi gives."""
    b = dset.base

    def wide(psi, dset_, n):
        return (F(1, 8 * b ** n), F(1, b ** n))

    window = RatInterval.make(F(1, 10007), F(9, 10))
    built = [build_layer(dset, wide(PSI2, dset, n), n, window, True) for n in (1, 2, 3)]
    with mock.patch.object(layers, "psi_value", wide):  # the radii bc-ratio evaluates
        with pytest.raises(PrecisionError, match="^union measure undecided"):
            borel_cantelli_ratio(dset, PSI2, window, 3)
    assert any(layer_measure(l).lo < layer_measure(l).hi for l in built)
    for layer in built:
        mu = layer_measure(layer)
        assert (mu.lo, mu.hi) == tuple(measure_union(dset, layer_union_pairs(layer, r))
                                       for r in layer.radius)
    inters = [(pair_measure(lm, ln_), lm, ln_) for lm in built for ln_ in built]
    assert any(inter.lo < inter.hi for inter, _, _ in inters)
    for inter, lm, ln_ in inters:
        assert (inter.lo, inter.hi) == (_oracle_pair_measure(lm, ln_, 0),
                                        _oracle_pair_measure(lm, ln_, 1))
    # bc-ratio refuses: the inner and the outer unions' unions differ in measure
    inner, outer = (measure_union(dset, [p for l in built
                                         for p in layer_union_pairs(l, l.radius[i])])
                    for i in (0, 1))
    assert inner < outer


# the sets of the argv corpus, each with the highest level drawn for it
PAIR_LEVELS = {K: 5, MissingDigitSet(4, (0, 3)): 4, MissingDigitSet(5, (0, 2, 3)): 4,
               MissingDigitSet(5, (1, 3)): 4, MissingDigitSet(6, (1, 2, 4)): 3,
               MissingDigitSet(9, (0, 2, 6, 8)): 3}
# a psi of each kind (pow, powlog, *gamma, table, truncated), and "wide":
# radius bounds 1/(8 b^n) and 1/b^n, as the wide-radius test builds them
PAIR_PSIS = [PSI2, ApproxFunction.power(F(3, 2)), ApproxFunction.power_log(2, Scalar.of(1)),
             ApproxFunction.power(2, 1),
             ApproxFunction.table({1: F(1, 10), 2: F(1, 50), 3: F(1, 300), 4: F(1, 2000),
                                   5: F(1, 10 ** 4)}),
             truncate_psi(PSI2, F(1, 2)), "wide"]


@st.composite
def pair_case(draw):
    """A corpus set, a window whose ends are 0 or 1, on a cell boundary, in
    a gap of level 1 or 2, or anywhere, levels m <= n, a psi and the coprime
    filter on or off."""
    dset = draw(st.sampled_from(list(PAIR_LEVELS)))
    b = dset.base
    gaps = [F(2 * k + 1, 2 * b ** level) for level in (1, 2) for k in range(b ** level)
            if not dset.prefix_allowed(k, level)]
    end = st.one_of(st.sampled_from([F(0), F(1)]), st.sampled_from(gaps), window_end,
                    st.builds(lambda level, k: F(k % (b ** level + 1), b ** level),
                              st.integers(min_value=1, max_value=3), st.integers(min_value=0)))
    lo, hi = sorted((draw(end), draw(end)))
    assume(lo < hi)
    m = draw(st.integers(min_value=1, max_value=PAIR_LEVELS[dset]))
    n = draw(st.integers(min_value=m, max_value=PAIR_LEVELS[dset]))
    return dset, draw(st.sampled_from(PAIR_PSIS)), RatInterval(lo, hi), m, n, draw(st.booleans())


@given(pair_case())
@example((K, PSI2, RatInterval.make(F(2, 5), F(3, 5)), 1, 2, True))  # null layers
@example((K, "wide", RatInterval.make(F(1, 10007), F(9, 10)), 2, 2, False))  # m = n
@settings(max_examples=150, deadline=None)
def test_pairwise_measure_matches_the_intersection_of_the_unions(case):
    """mu(A_m ∩ A_n) by inclusion-exclusion from one union measure equals the
    measure of the intersection of the two layers' carried unions."""
    dset, psi, window, m, n, coprime = case
    built = [build_layer(dset, (F(1, 8 * dset.base ** k), F(1, dset.base ** k)), k, window,
                         coprime) if psi == "wide" else psi_layer(dset, psi, k, window, coprime)
             for k in (m, n)]
    assert pair_measure(*built) == pairwise_by_intersection(*built)


@pytest.mark.parametrize("dset", list(GRID_SETS), ids=str)
def test_layer_lists_every_center_whose_outer_ball_meets_the_window(dset):
    """With radius bounds r_lo < r_hi, a center whose r_hi-ball alone meets
    the window still belongs to the layer: its outer union needs it."""
    b = dset.base
    window = RatInterval.make(F(1, 10007), F(9, 10))
    w_lo, w_hi = window.lo, window.hi
    for n in (1, 2, 3):
        for coprime in (False, True):
            layer = build_layer(dset, (F(1, 8 * b ** n), F(3, b ** n)), n, window, coprime)
            r = layer.radius[1]
            want = [p for p in enumerate_centers(dset, n, coprime)
                    if w_lo - r <= F(p, b ** n) <= w_hi + r]
            assert list(layer.center_numerators) == want, (n, coprime)


@pytest.mark.parametrize("build, listings", [
    (lambda: psi_layer(K, PSI2, 4, UNIT, True), 1),  # one radius
    (lambda: psi_layer(K, ApproxFunction.power_log(2, Scalar.of(1)), 4,
                       RatInterval.make(F(1, 7), F(6, 7)), False), 1),  # two radii
    (lambda: full_cover_check(MissingDigitSet(5, (0, 2, 3)), 3,
                              RatInterval.make(F(1, 7), F(1))), 0),
    (lambda: box_dimension_estimate(K, F(3, 2), 4, True), 1),
], ids=["layer, one radius", "layer, two radii", "full-cover", "dim-estimate"])
def test_a_level_is_listed_once(build, listings):
    """One `allowed_prefixes` call gives a level's centers and the ranks of
    every union end, so one `cells` check; `full_cover_check` reads the
    natural cover off the digits and lists nothing."""
    with mock.patch.object(MissingDigitSet, "allowed_prefixes", autospec=True,
                           side_effect=MissingDigitSet.allowed_prefixes) as listed:
        build()
    assert listed.call_count == listings


def test_every_level_is_checked_before_a_layer_is_built():
    """Under a `cells` budget of 8, level 4 of the middle thirds (16 cells) is
    refused before levels 1 to 3 are built, and no level past it is read."""
    with mock.patch.object(layers, "build_layer") as built, \
            mock.patch.object(layers, "psi_value", wraps=psi_value) as evaluated, \
            pytest.raises(ResourceBudgetError, match=r"^16 level-4 basic intervals in cells "
                                                     r"0\.\.80 over the 8-cell budget$"):
        under_budget(Budget(cells=8), layers.layer_table, K, PSI2, UNIT, range(1, 100), True)
    built.assert_not_called()
    assert evaluated.call_count == 4


def _radius_at_least_a_cell(dset: MissingDigitSet, top: int, data) -> ApproxFunction:
    """A table psi with psi(b^n) >= b^-n at every level up to `top`, so that
    balls span whole level-n cells and their ends land off the centers' cells."""
    values = {}
    for n in range(1, top + 1):
        den = data.draw(st.sampled_from([1, 2, 7, 10007]))
        values[n] = F(data.draw(st.integers(min_value=den, max_value=3 * den)),
                      den * dset.base ** n)
    return ApproxFunction.table(values)


@given(st.sampled_from(list(GRID_SETS)), st.sampled_from(GRID_PSIS + ["table"]), st.data(),
       window_end, window_end, st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_union_endpoint_carries_its_cdf(dset, psi, data, a, b, coprime):
    """N / denominator at every endpoint x of both unions is cantor_cdf(x/grid)."""
    assume(a != b)
    top = GRID_SETS[dset]
    if psi == "table":
        psi = _radius_at_least_a_cell(dset, top, data)
    window = RatInterval.make(min(a, b), max(a, b))
    for n in range(1, top + 1):
        layer = psi_layer(dset, psi, n, window, coprime)
        inner, outer, den = layer.unions
        for union in (inner, outer):
            for end in (x for pair in union for x in pair):
                assert F(end[1], den) == cantor_cdf(dset, end[0], layer.grid), (n, end)


@pytest.mark.parametrize("dset", list(GRID_SETS) + [MissingDigitSet(5, (1, 3)),
                                                     MissingDigitSet(6, (1, 2, 4))], ids=str)
def test_prefix_rank_counts_the_allowed_prefixes_below(dset):
    for n in range(1, 5):
        prefixes = dset.allowed_prefixes(n)
        for k in range(dset.base ** n + 1):
            below = sum(p < k for p in prefixes)
            assert digitsets._prefix_rank(dset, k, n) == (below, k in prefixes), (n, k)


@needs_mpmath
@pytest.mark.parametrize("dset", list(GRID_SETS), ids=str)
@pytest.mark.parametrize("psi", [ApproxFunction.power_log(2, Scalar.of(1)),
                                 truncate_psi(PSI2, F(1, 2))], ids=["powlog:2,1", "pow:2,trunc"])
def test_layer_comparator_of_other_psis_meets_the_mpmath_interval(dset, psi):
    """mu(B) (psi(b^n) b^n)^gamma for psi(r) = r^-2 / ln r and for
    min(1/(2r), r^-2) = r^-2 (b^n >= 3), neither a plain power law, so the
    comparator raises an enclosure of psi(b^n) b^n to one of gamma.  It
    must meet mpmath's interval at twice VALUE_BITS, which holds the true
    value; it may be exact (gamma = 1/2 for 4:0,3), so it need not hold
    all of mpmath's interval."""
    b, m, mu_b = dset.base, dset.digit_count, F(5, 7)

    def reference(iv, n):
        scaled = iv.mpf(b) ** -n
        if psi.truncation is None:
            scaled /= n * iv.log(b)
        return iv.exp(iv.log(m) / iv.log(b) * iv.log(scaled)) * mu_b.numerator / mu_b.denominator

    for n in range(1, 7):
        lo, hi = layer_comparator(dset, psi, psi_value(psi, dset, n), n, mu_b)
        mlo, mhi = mp_interval(lambda iv: reference(iv, n), 2 * layers.VALUE_BITS)
        assert lo <= mhi and mlo <= hi, n


def _wide_radius(dset, n):
    """Radius bounds 1/(8 b^n) and 3/(5 b^n): four distinct ball offsets."""
    return (F(1, 8 * dset.base ** n), F(3, 5 * dset.base ** n))


@pytest.mark.parametrize("dset", list(GRID_SETS), ids=str)
@pytest.mark.parametrize("psi", ["wide"] + GRID_PSIS,
                         ids=["wide", "pow:2", "pow:3/2", "powlog:2,1"])
def test_one_layer_makes_at_most_six_cdf_walks(dset, psi):
    """Four ball offsets (two radii, each end) and two window ends."""
    window = RatInterval.make(F(1, 7919), F(9972, 10007))
    radius = _wide_radius(dset, 4) if psi == "wide" else psi_value(psi, dset, 4)
    with mock.patch.object(digitsets, "cantor_cdf", wraps=digitsets.cantor_cdf) as walks:
        layer = build_layer(dset, radius, 4, window, False)
        mu = layer_measure(layer)
    assert 0 < walks.call_count <= 6
    assert (mu.lo, mu.hi) == tuple(measure_union(dset, layer_union_pairs(layer, r))
                                   for r in layer.radius)


IRRATIONAL_GAMMA_SETS = [K, MissingDigitSet(5, (0, 2, 3)), MissingDigitSet(7, (0, 3, 6))]


def _mp_gamma(iv, dset):
    return iv.log(dset.digit_count) / iv.log(dset.base)


def _holds(enclosure, reference) -> bool:
    """Whether the enclosure holds all of mpmath's interval of the true value."""
    return enclosure[0] <= reference[0] and reference[1] <= enclosure[1]


def test_scalar_rational_is_the_value_when_it_is_rational():
    g4 = MissingDigitSet(4, (0, 3))  # gamma = 1/2
    assert Scalar(F(3, 2)).rational(K) == F(3, 2)
    assert Scalar(F(0), 2).rational(K) == 0
    assert Scalar(F(3), 2).rational(K) is None
    assert Scalar(F(3), -1).rational(g4) == 6
    for sc in (Scalar(F(0), 1), Scalar(F(5), 0), Scalar(F(3), -1)):
        assert sc.value_iv(g4) == iv_exact(sc.rational(g4))
    # a log exponent must be rational: gamma is on 4:0,3, not on 3:0,2
    powlog_gamma = ApproxFunction.power_log(2, Scalar.of(1, 1))
    powlog_half = ApproxFunction.power_log(2, Scalar.of(F(1, 2)))
    assert psi_value(powlog_gamma, g4, 3) == psi_value(powlog_half, g4, 3)
    with pytest.raises(InputError, match="irrational log-exponent"):
        psi_value(powlog_gamma, K, 3)


@needs_mpmath
@pytest.mark.parametrize("dset", IRRATIONAL_GAMMA_SETS, ids=str)
def test_scalar_value_iv_encloses_the_mpmath_value(dset):
    """coef gamma^gexp over gamma's 2^-96 enclosure holds mpmath's interval
    at twice VALUE_BITS; for gamma itself it is that enclosure."""
    assert layers.GAMMA.value_iv(dset) == exponent_enclosure(dset).refined_to(
        F(1, 1 << layers.VALUE_BITS)).as_iv()
    for coef in (F(-7, 3), F(1), F(5, 2)):
        for gexp in (-2, -1, 1, 2, 3):
            lo, hi = Scalar(coef, gexp).value_iv(dset)
            ref = mp_interval(lambda iv: _mp_gamma(iv, dset) ** gexp * coef.numerator
                              / coef.denominator, 2 * layers.VALUE_BITS)
            assert _holds((lo, hi), ref) and hi - lo < F(1, 1 << 88), (coef, gexp)


@needs_mpmath
@pytest.mark.parametrize("dset", IRRATIONAL_GAMMA_SETS, ids=str)
def test_f_of_psi_with_gamma_squared_goes_through_an_interval_exponent(dset):
    """f = r^gamma of psi = r^-gamma is b^(-n gamma^2): neither gamma^0 nor
    gamma^1, so `evaluate_base_power` raises b to gamma^2's enclosure."""
    f = DimensionFunction.power(1, 1)
    psi = ApproxFunction.power(1, 1)
    for n in range(1, 7):
        lo, hi = layers.f_of_psi(f, psi, dset, n)
        ref = mp_interval(lambda iv: iv.mpf(dset.base) ** (-n * _mp_gamma(iv, dset) ** 2),
                          2 * layers.VALUE_BITS)
        assert _holds((lo, hi), ref) and hi - lo < F(1, 1 << 80), n


@needs_mpmath
@pytest.mark.parametrize("dset", IRRATIONAL_GAMMA_SETS, ids=str)
@pytest.mark.parametrize("s", [Scalar.of(F(1, 2)), Scalar.of(1, 1)], ids=["1/2", "gamma"])
def test_f_of_a_truncated_psi_raises_psi_to_s(dset, s):
    """f(min(c/r, r^-2)) = min(c b^-n, b^-2n)^s: the truncation bites for
    b^n < 1/c and not above, and gamma as s is an enclosure."""
    c = F(1, 100)
    f = DimensionFunction.power(s.coef, s.gexp)
    psi = truncate_psi(PSI2, c)
    for n in range(1, 7):
        b_n = F(dset.base) ** n
        psi_n = min(c / b_n, 1 / b_n ** 2)
        lo, hi = layers.f_of_psi(f, psi, dset, n)

        def reference(iv):
            expo = iv.mpf(1) / 2 if s.gexp == 0 else _mp_gamma(iv, dset)
            return (iv.mpf(psi_n.numerator) / psi_n.denominator) ** expo
        if lo == hi:  # psi_n is a square: its exact root, checked exactly
            assert s.gexp == 0 and lo ** 2 == psi_n, n
        else:
            assert _holds((lo, hi), mp_interval(reference, 2 * layers.VALUE_BITS)), n


@needs_mpmath
@pytest.mark.parametrize("dset", IRRATIONAL_GAMMA_SETS, ids=str)
@pytest.mark.parametrize("s, alpha", [(F(1), F(1, 2)), (F(1), F(2, 3)), (F(1), F(2)),
                                      (F(1, 3), F(2)), (F(1, 2), F(5, 4))])
def test_power_log_verdict_is_the_sign_of_s_alpha_minus_gamma(dset, s, alpha):
    """For f = r^s and psi = r^-alpha (ln r)^-1 the series converges iff
    s alpha > gamma (gamma irrational, so never equal), read off mpmath."""
    mlo, mhi = mp_interval(lambda iv: s.numerator * alpha.numerator
                           / iv.mpf(s.denominator * alpha.denominator) - _mp_gamma(iv, dset),
                           2 * layers.VALUE_BITS)
    assert mlo > 0 or mhi < 0
    sv = series_classify(dset, ApproxFunction.power_log(alpha, Scalar.of(1)),
                         DimensionFunction.power(s), 3)
    assert sv.verdict == ("convergent" if mlo > 0 else "divergent")


def _scalars(max_coef: int, gexps):
    return st.builds(Scalar, st.builds(F, st.integers(min_value=1, max_value=max_coef),
                                       st.integers(min_value=1, max_value=4)),
                     st.sampled_from(gexps))


@given(st.sampled_from([K, MissingDigitSet(4, (0, 3)), MissingDigitSet(5, (0, 2, 3))]),
       _scalars(6, (0, 0, 1)), _scalars(8, (-1, 0, 0, 1)),
       st.none() | st.builds(Scalar, st.fractions(min_value=-3, max_value=3, max_denominator=4),
                             st.sampled_from((0, 1))),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_f_of_a_law_is_the_law_scaled_by_the_exponent(dset, s, power, beta, n):
    """(r^-a (log r)^-b)^s is r^-(s a) (log r)^-(s b): f_of_psi equals
    psi_value of that law wherever its lower end is positive on the
    2^-VALUE_BITS grid, where psi_value does not refine."""
    f = DimensionFunction.power(s.coef, s.gexp)
    if beta is None:
        law, scaled = layers.PowerLaw(power), layers.PowerLaw(s.times(power))
    else:
        law = layers.PowerLaw(power, beta)
        scaled = layers.PowerLaw(s.times(power), s.times(beta))
        assume(scaled.log_exponent.rational(dset) is not None)
    assume(layers._law_value(scaled, dset, n, VALUE_BITS)[0] > 0)
    assert f_of_psi(f, ApproxFunction(law), dset, n) == psi_value(ApproxFunction(scaled),
                                                                 dset, n)
