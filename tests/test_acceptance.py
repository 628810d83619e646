"""Acceptance suite: one test per committed criterion.

Each test prints a single PASS line on success (visible with `pytest -s`)
and asserts both the mathematical claim at its stated tolerance and the
stated runtime budget.
"""

import json
import random
import time
from fractions import Fraction as F
from importlib import resources

import jsonschema
import pytest

from cantorapprox import (ApproxFunction, DimensionFunction, MissingDigitSet,
                          PowerRule, RatInterval, RealEnclosure, Scalar,
                          SqrtSource, borel_cantelli_ratio,
                          box_dimension_estimate, build_layer,
                          build_sparse_number, cantor_measure, cf_prefix_interval,
                          continued_fraction_expand, enumerate_centers,
                          full_cover_check, golden_ratio_source,
                          irrationality_exponent_estimate, layer_comparator,
                          layer_measure, legendre_is_convergent, membership,
                          natural_cover_tail, prefix_interval_disjoint_from, psi_value,
                          quasi_independence_scan, series_classify,
                          truncation_reports, well_approximable_band)
from cantorapprox.cli import run_command
from cantorapprox.enclosures import LogRatioSource, iv_mul, iv_scale, iv_sub

from calibration import C_FIX
from oracles import oracle_measure

K = MissingDigitSet.middle_thirds()
UNIT = RatInterval.unit()
PSI2 = ApproxFunction.power(2)


def _report(name, budget_s, started):
    elapsed = time.monotonic() - started
    print(f"{name}: PASS ({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def test_c01_exact_measure_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20817)
    for _ in range(100):
        den = rng.randint(1, 3 ** 10)
        a = F(rng.randint(0, den), den)
        b = F(rng.randint(0, den), den)
        lo, hi = min(a, b), max(a, b)
        recursive = cantor_measure(K, RatInterval.make(lo, hi)).value
        brute = oracle_measure(K, lo, hi, level=10)
        assert recursive == brute, (lo, hi)
    _report("C01 exact-measure oracle equivalence (100 intervals, zero tolerance)",
            60, started)


def test_c02_series_dichotomy_pair():
    started = time.monotonic()
    f = DimensionFunction.power(F(1, 3), gexp=1)       # f = r^(gamma/alpha), alpha=3
    sv1 = series_classify(K, ApproxFunction.power(3), f, 50)
    assert sv1.partial_sums == tuple((F(n), F(n)) for n in range(1, 51))
    assert (sv1.verdict, sv1.prediction) == ("divergent", "measure_full")
    psi_log = ApproxFunction.power_log(3, Scalar.of(6, -1))  # (log r)^(-2 alpha/gamma)
    sv2 = series_classify(K, psi_log, f, 50)
    assert (sv2.verdict, sv2.prediction) == ("convergent", "measure_zero")
    # terms equal (n ln 3)^-2 exactly: partial sums stay below sum n^-2 (ln 3 > 1)
    sigma = F(0)
    for n, s in enumerate(sv2.partial_sums, start=1):
        sigma += F(1, n * n)
        assert s[1] <= sigma
    assert sv2.partial_sums[-1][1] < F(3, 2)
    _report("C02 zero/full series pair (verdicts exact, bounded partial sums)",
            10, started)


def test_c03_layer_measure_identity():
    started = time.monotonic()
    for n in range(1, 9):
        radius = psi_value(PSI2, K, n)
        mu = layer_measure(build_layer(K, radius, n, UNIT, coprime=True)).value
        assert mu == F(1, 2 ** n)
        assert layer_comparator(K, PSI2, radius, n, F(1)) == (mu, mu)  # ratio exactly 1
    _report("C03 layer measure identity mu(A*_n) = 2^-n = comparator, n <= 8",
            60, started)


def test_c04_quasi_independence_scan():
    started = time.monotonic()
    rep = quasi_independence_scan(K, PSI2, UNIT, 8)
    assert len(rep.rows) == 28 and not rep.skipped
    for row in rep.rows:
        if row.case == "i":
            assert row.mu_mn.value == 0 and row.rho == (F(0), F(0))
    assert next(r for r in rep.rows if (r.m, r.n) == (1, 2)).rho == (F(1), F(1))
    ce = rep.c_empirical
    assert ce is not None and ce[1] <= C_FIX
    _report("C04 pairwise quasi-independence scan (case-i empty, max rho <= C_fix)",
            300, started)


def test_c05_borel_cantelli_ratio():
    started = time.monotonic()
    assert borel_cantelli_ratio(K, PSI2, UNIT, 2).ratio == (F(9, 16), F(9, 16))
    for q in range(1, 9):
        rep = borel_cantelli_ratio(K, PSI2, UNIT, q)
        assert rep.ratio[1] <= rep.union_measure
    _report("C05 Borel-Cantelli ratio (R(2) = 9/16, R(Q) <= mu(union), Q <= 8)",
            120, started)


def test_c06_covering_exponent_trend():
    started = time.monotonic()
    tol = F(2, 100)
    gamma = RealEnclosure.from_source(
        LogRatioSource(F(2), F(3))).refined_to(F(1, 10 ** 9)).as_iv()
    for tau in (2, 3):
        target = iv_scale(gamma, F(1, tau))
        for n in range(2, 7):
            est = box_dimension_estimate(K, F(tau), n, coprime=True)
            # certified |d - gamma/tau| <= 0.02
            diff = iv_sub(est.estimate, target)
            assert max(abs(diff[0]), abs(diff[1])) <= tol, (tau, n)
            if (tau, n) == (2, 2):
                assert est.count == 4 and est.level == 4
                # exact identity count^tau = 2^level <=> d = gamma/2
                assert est.count ** tau == 2 ** est.level
    _report("C06 covering exponent within 0.02 of gamma/tau on {2,3}x{2..6}",
            120, started)


def test_c07_full_cover_identity():
    started = time.monotonic()
    for n in range(1, 9):
        assert full_cover_check(K, n, RatInterval.unit())
    # without the digits 0 and b-1 no p/b^n lies in the set, so nothing is covered
    assert not full_cover_check(MissingDigitSet(5, (1, 3)), 4, RatInterval.unit())
    _report("C07 full-cover identity at radius b^-n, n <= 8, and one uncovered set",
            60, started)


def test_c08_explicit_number_exact_order_regime():
    started = time.monotonic()
    xi = build_sparse_number(3, 2, PowerRule(F(3)), 5)
    assert membership(xi, K, 243).is_in
    reports, s_min = truncation_reports(xi)
    assert [r.s for r in reports] == [1, 2, 3, 4]
    assert all(r.passes for r in reports) and s_min == 1
    cf = continued_fraction_expand(xi, 40)
    for s in range(1, 5):
        p, q = xi.truncation(s)
        assert legendre_is_convergent(p, q, xi) == "yes"
        assert (p, q) in cf.convergents
    est = irrationality_exponent_estimate(cf, min_denominator=50)
    assert F(29, 10) <= est.lo <= est.hi <= F(31, 10)
    _report("C08 xi(tau=3): membership, truncation checks s<=4, Legendre, "
            "exponent in [2.9, 3.1]", 120, started)


def test_c09_explicit_number_band_regime():
    started = time.monotonic()
    xi = build_sparse_number(3, 2, PowerRule(F(11, 5)), 6)
    cf = continued_fraction_expand(xi, 120)
    est = irrationality_exponent_estimate(cf, min_denominator=50)
    lo, hi = well_approximable_band(F(11, 5), F(1, 10))
    assert lo <= est.lo <= est.hi <= hi  # [2.1, 44/15], inside the quoted [2.1, 2.94]
    assert hi <= F(294, 100)
    _report("C09 xi(tau=11/5): exponent estimate within [2.1, 2.94]", 120, started)


def test_c10_golden_ratio_exclusion():
    started = time.monotonic()
    cf = continued_fraction_expand(RealEnclosure.from_source(golden_ratio_source()), 2)
    pi = cf_prefix_interval(list(cf.quotients))
    assert (pi.lo, pi.hi) == (F(1, 2), F(2, 3))
    assert pi.lo_closed and not pi.hi_closed
    assert prefix_interval_disjoint_from(pi, K, 2)
    text, _ = run_command(["cf-interval", "--quotients", "1,1", "--depth", "2"])
    assert json.loads(text)["results"]["verdict"] == "not_in_set"
    _report("C10 golden ratio: prefix [1,1] -> [1/2, 2/3) disjoint from the set",
            1, started)


def test_c11_property_suites():
    started = time.monotonic()
    rng = random.Random(90125)

    def big_fraction():
        return F(rng.randint(-2 ** 80, 2 ** 80), rng.randint(1, 2 ** 80))

    for _ in range(200):
        a, b, c = big_fraction(), big_fraction(), big_fraction()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    for radicand in (2, 3, 5, 7, 10):
        enc = RealEnclosure.from_source(SqrtSource(F(radicand)))
        for _ in range(5):
            nxt = enc.refine()
            assert enc.lo <= nxt.lo <= nxt.hi <= enc.hi
            enc = nxt

    from test_contfrac import test_cf_invariants_on_twenty_numbers
    test_cf_invariants_on_twenty_numbers()

    from test_layers import test_series_grid_against_closed_form
    test_series_grid_against_closed_form()
    _report("C11 property suites (algebra, nesting, CF invariants, series grid)",
            120, started)


def test_c12_cli_determinism_and_schema():
    started = time.monotonic()
    from test_cli import FIXTURE_ARGVS
    with resources.files("cantorapprox").joinpath("report_schema.json").open() as fh:
        schema = json.load(fh)
    for name, argv in sorted(FIXTURE_ARGVS.items()):
        first, _ = run_command(list(argv))
        second, _ = run_command(list(argv))
        assert first == second, f"nondeterministic output for {name}"
        jsonschema.validate(json.loads(first), schema)
        csv1, _ = run_command(list(argv) + ["--output", "csv"])
        csv2, _ = run_command(list(argv) + ["--output", "csv"])
        assert csv1 == csv2
    _report("C12 CLI determinism (byte-identical reruns, schema-valid)", 300, started)
