"""Each input check raises its InputError, or HypothesisViolation, with its
message: from an argv through `run_command`, or from a library call."""

import re
from fractions import Fraction as F

import pytest

from cantorapprox import (CantorMeasureValue, DimensionFunction, HypothesisViolation,
                          InputError, LogRatioSource, MissingDigitSet, PowerRule, RatInterval,
                          RealEnclosure, build_sparse_number, center_count,
                          cf_prefix_interval, enclose_real, enumerate_centers, floor_power,
                          full_cover_check, iroot, legendre_is_convergent, membership,
                          natural_cover_tail, prefix_interval_disjoint_from, series_classify,
                          truncation_report, well_approximable_band)
from cantorapprox.cli import run_command
from cantorapprox.enclosures import ln_interval, nthroot_interval, pow_interval, rational_pow
from cantorapprox.layers import (ApproxFunction, Scalar, build_layer, f_of_psi, psi_value,
                                 truncate_psi)

K = MissingDigitSet(3, (0, 2))
PSI = ApproxFunction.power(2)
XI = ["--tau", "3", "--terms", "4"]

# argv -> the message of the check it fails
ARGV_CHECKS = {
    "cf --x abc --depth 3": "not a rational: 'abc'",
    "measure --window 0:1 --set 3": "bad set spec '3'; expected BASE:D1,D2,...",
    # the set's own checks, not the spec's
    "measure --window 0:1 --set 3:0": "need a proper digit set with at least 2 digits",
    "measure --window 0:1 --set 3:0,3": "digits must lie in [0, base-1]",
    "measure --window 0:1 --set 2:0,1": "base must be >= 3",
    "layer --psi powlog:2 --n 2": "powlog needs ALPHA,BETA",
    "layer --psi exp:2 --n 2": "unknown psi kind 'exp'",
    # a psi table is refused as it is built, on any value <= 0, read or not
    "layer --psi table:2=0 --n 2": "psi table values must be positive",
    "layer --psi table:1=1/9,2=-1 --n 1": "psi table values must be positive",
    "tail --psi table:1=-1/2,2=1/9 --f pow:1 --n0 1 --nmax 2": "psi table values must be positive",
    "series --psi table:1=-1/2,2=1/9 --f pow:1 --nmax 2": "psi table values must be positive",
    "quasi-scan --psi table:1=-1/2,2=1/9 --nmax 2": "psi table values must be positive",
    "bc-ratio --psi table:1=-1/2,2=1/9 --q 2": "psi table values must be positive",
    "layer --psi pow:gamma/0 --n 3": "zero divisor in 'gamma/0'",
    "series --psi pow:2 --f pow:gamma/0 --nmax 3": "zero divisor in 'gamma/0'",
    "series --psi powlog:2,gamma/0 --f pow:1 --nmax 3": "zero divisor in 'gamma/0'",
    "series --psi pow:2 --f exp:1 --nmax 3": "unknown f kind 'exp'",
    "series --psi pow:2 --f pow:0 --nmax 3": "dimension-function exponent must be positive",
    # a table f is refused as a power f is, on any value <= 0
    "series --psi pow:2 --f table:1=-1/2,2=-1 --nmax 2":
        "dimension-function values must be positive",
    "tail --psi pow:2 --f table:1=-1,2=1 --n0 1 --nmax 2":
        "dimension-function values must be positive",
    "series --psi pow:2 --f table:1=1/2,2=0 --nmax 2":
        "dimension-function values must be positive",
    "series --psi pow:2 --f pow:1 --nmax 0": "need at least one term",
    "tail --psi pow:2 --f pow:1 --n0 0 --nmax 3": "need 1 <= n0 <= n_max",
    "bc-ratio --psi pow:2 --q 0": "need Q >= 1",
    "dim-estimate --tau 1/2 --n 2": "need tau >= 1",
    "dim-estimate --tau 2 --n -1": "level must be >= 1",
    # a window wholly outside [0, 1] is named by the ends given, before
    # clipping; 10^5000 has 16,610 bits, past the int-to-str digit limit
    "measure --window 2:3": "invalid interval [2, 3]",
    "measure --window=-2:-1": "invalid interval [-2, -1]",
    "measure --window 1e5000:1e5001":
        "invalid interval [<16,610-bit integer>, <16,613-bit integer>]",
    "layer --psi pow:2 --n 2 --window 1e5000:1e5000":
        "invalid interval [<16,610-bit integer>, <16,610-bit integer>]",
    "cf --x golden --depth 0": "depth must be >= 1",
    "exponent --x 1/2 --depth 5": "need at least 3 convergents",
    "exponent --x golden --depth 8 --min-q 1000":
        "no usable convergent pairs above the denominator floor",
    "cf-interval --quotients 1,0 --depth 3": "quotients must be positive integers",
    "cf-interval --quotients 1 --depth 0": "depth must be >= 1",
    "full-cover --n 0": "level must be >= 1",
    "xi-build --set 2:0,1 " + " ".join(XI): "base must be >= 3",
    "xi-build --set 0:0,1 " + " ".join(XI): "base must be >= 3",
    "xi-build --lam= " + " ".join(XI): "not a rational: ''",
    "xi-build --set 4:0,2 " + " ".join(XI):
        "the set 4:0,2 has no nonzero digit prime to its base; give --coeff",
    "series --psi pow:2 --f table:1=1/2,2=1/64,3=1/2 --nmax 3":
        "r^-gamma f(r) at r = psi(b^n) is not monotonic: it increases in r between levels 1 "
        "and 2 and decreases in r between levels 2 and 3",
}


@pytest.mark.parametrize("argv", sorted(ARGV_CHECKS))
def test_an_argv_that_fails_an_input_check_names_it(argv):
    with pytest.raises(InputError, match=f"^{re.escape(ARGV_CHECKS[argv])}$"):
        run_command(argv.split())


def _xi():
    return build_sparse_number(3, 2, PowerRule(F(3)), 4)


# a library call -> the message of the check it fails
CALL_CHECKS = {
    "legendre q": (lambda: legendre_is_convergent(1, 0, F(1, 2)), "q must be >= 1"),
    "measure bounds": (lambda: CantorMeasureValue(F(1, 2), F(2)),
                       "measure bounds outside [0,1]"),
    "measure value": (lambda: CantorMeasureValue(F(0), F(1)).value,
                      "measure is only known as bounds"),
    "enumerate level": (lambda: enumerate_centers(K, 0, False), "level must be >= 1"),
    "center_count level": (lambda: center_count(K, 0), "level must be >= 1"),
    "full_cover level": (lambda: full_cover_check(K, 0, RatInterval.unit()),
                         "level must be >= 1"),
    # psi_value names a bad level before it reads any law
    "psi level": (lambda: psi_value(PSI, K, 0), "level must be >= 1"),
    "psi level, powlog": (lambda: psi_value(ApproxFunction.power_log(2, Scalar.of(1)), K, 0),
                          "level must be >= 1"),
    "psi level, table": (lambda: psi_value(ApproxFunction.table({1: F(1, 9)}), K, 0),
                         "level must be >= 1"),
    "psi level, truncated": (lambda: psi_value(truncate_psi(PSI, F(1, 2)), K, 0),
                             "level must be >= 1"),
    "layer level 0": (lambda: build_layer(K, (F(1, 9), F(1, 9)), 0, RatInterval.unit(), True),
                      "level must be >= 1"),
    "layer level -1": (lambda: build_layer(K, (F(1, 9), F(1, 9)), -1, RatInterval.unit(), True),
                       "level must be >= 1"),
    "membership depth": (lambda: membership(F(1, 2), K, 0), "depth must be >= 1"),
    "prefix depth": (lambda: prefix_interval_disjoint_from(cf_prefix_interval([1]), K, 0),
                     "depth must be >= 1"),
    "iroot negative": (lambda: iroot(-1, 2), "iroot of a negative integer"),
    "iroot order": (lambda: iroot(4, 0), "iroot order must be >= 1"),
    "ln": (lambda: ln_interval(F(0), 32), "log of a non-positive value"),
    "log ratio": (lambda: LogRatioSource(F(2), F(-1)), "log of a non-positive value"),
    "root": (lambda: nthroot_interval(F(-1), 2, 32), "even root of a negative value"),
    "power": (lambda: rational_pow(F(0), F(1, 2), 32), "power of a non-positive base"),
    "interval power": (lambda: pow_interval((F(0), F(1)), (F(1, 2), F(1, 2)), 32),
                       "interval power needs a positive base"),
    "enclosure": (lambda: RealEnclosure(F(1), F(0)), "enclosure with lo > hi"),
    "refined_to": (lambda: RealEnclosure.exact(F(1, 2)).refined_to(F(0)),
                   "width target must be positive"),
    "enclose_real": (lambda: enclose_real(F(1, 2), 0), "width target must be positive"),
    "floor_power n": (lambda: floor_power(F(1), F(2), 0), "floor_power needs n >= 1"),
    "floor_power lam": (lambda: floor_power(F(0), F(2), 1), "floor_power needs lam > 0"),
    "floor_power tau": (lambda: floor_power(F(1), F(1), 1), "floor_power needs tau > 1"),
    "window": (lambda: RatInterval(F(1, 2), F(2)), "invalid interval [1/2, 2]"),
    "window make": (lambda: RatInterval.make(1, 0), "interval with lo > hi"),
    "window outside": (lambda: RatInterval.make(F(-1, 2), F(-1, 3)),
                       "invalid interval [-1/2, -1/3]"),
    "quotients": (lambda: cf_prefix_interval([]), "quotients must be positive integers"),
    "f table": (lambda: f_of_psi(DimensionFunction.table({1: F(1, 2)}), PSI, K, 2),
                "f table has no value at level 2"),
    "f table value": (lambda: DimensionFunction.table({1: F(1, 2), 2: F(-1, 3)}),
                      "dimension-function values must be positive"),
    "psi table value": (lambda: ApproxFunction.table({1: F(1, 2), 2: F(0)}),
                        "psi table values must be positive"),
    "truncation": (lambda: _xi().truncation(0), "truncation index must be >= 1"),
    # xi is built in the base of --set, so no argv reaches these two
    "sparse base": (lambda: build_sparse_number(2, 1, PowerRule(F(3)), 4), "base must be >= 3"),
    "digit stream base": (lambda: membership(_xi(), MissingDigitSet(5, (0, 2)), 3),
                          "digit stream base does not match the set"),
    "report": (lambda: truncation_report(_xi(), 4),
               "need 1 <= s < terms (the report uses q_{s+1})"),
    "band": (lambda: well_approximable_band(F(1), F(1, 10)), "need tau > 1"),
}


@pytest.mark.parametrize("name", sorted(CALL_CHECKS))
def test_a_call_that_fails_an_input_check_names_it(name):
    call, message = CALL_CHECKS[name]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("ends, clipped", [
    ((F(-1, 2), F(1, 4)), (F(0), F(1, 4))), ((F(3, 4), F(2)), (F(3, 4), F(1))),
    ((F(-1), F(0)), (F(0), F(0))), ((F(1), F(2)), (F(1), F(1))),
])
def test_a_window_that_meets_the_unit_interval_is_clipped_to_it(ends, clipped):
    assert RatInterval.make(*ends) == RatInterval(*clipped)


@pytest.mark.parametrize("call", [series_classify, natural_cover_tail])
def test_a_dimension_function_that_is_not_monotonic_is_refused(call):
    # r^-gamma f(r) at r = psi(3^n) = 3^-2n is f_n 4^n: 2, 1/4, 32
    f = DimensionFunction.table({1: F(1, 2), 2: F(1, 64), 3: F(1, 2)})
    args = (K, PSI, f, 1, 3) if call is natural_cover_tail else (K, PSI, f, 3)
    with pytest.raises(HypothesisViolation,
                       match=re.escape("r^-gamma f(r) at r = psi(b^n) is not monotonic: it "
                                       "increases in r between levels 1 and 2 and decreases "
                                       "in r between levels 2 and 3") + "$"):
        call(*args)
