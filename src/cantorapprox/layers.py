"""Finite-stage layers of the limsup set and the series dichotomy.

A layer at level n is the union of balls of radius psi(b^n) around the
(optionally reduced) b-adic rationals p/b^n lying in the fractal,
clipped to a window.  Everything here is computed with exact rationals;
irrational radii or exponents degrade gracefully to certified two-sided
bounds.  `build_layer` lists the level's cells once and builds the ball
unions on one integer grid: every endpoint is an integer numerator over
the layer's common denominator, carried with the integer numerator of
its CDF value over one CDF denominator per layer.
Layers combine through `union_measure` alone, one merge of their unions
on the lcm of their grids and of their CDF denominators: a pair's
intersection by inclusion-exclusion, and the Borel-Cantelli union as it
is.  A measure is one integer sum made into a Fraction.

Exponents are carried symbolically as c * gamma^k where gamma is the
set's similarity exponent log(#digits)/log(base).  That keeps the
cancellations exact: b^(n*gamma) is exactly (#digits)^n, which is what
makes the headline layer identities integer-checkable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Mapping, Optional, Sequence, Union

from .digitsets import (CantorMeasureValue, GridUnion, MissingDigitSet, carried_measure,
                        center_count, check_level, enumerate_centers, grid_cdf,
                        measure_union, on_grid)
from .enclosures import (Iv, LogRatioSource, exponent_enclosure, iv_add,
                         iv_cmp, iv_div, iv_exact, iv_intpow, iv_is_exact, iv_mul, iv_scale,
                         ln_interval, pow_interval, rational_pow)
from .errors import BUDGET, HypothesisViolation, InputError, PrecisionError, check_bits, power_bits
from .intervals import RatInterval, clip_union, merge_pairs
from .records import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)

VALUE_BITS = 96  # working precision for inexact term values
RADIUS_BITS = 128  # precision of b^(L - tau n), the box-counting radius on the grid b^L


# ---------------------------------------------------------------------------
# scalars of the form coef * gamma^gexp
# ---------------------------------------------------------------------------

class Scalar(Record):
    """coef * gamma^gexp, gamma being the ambient set's similarity exponent.

    Any coefficient and power are accepted, `0*gamma` too: it is the
    rational 0 wherever a value is read, through `rational`.
    """

    coef: Fraction
    gexp: int = 0

    @staticmethod
    def of(value, gexp: int = 0) -> "Scalar":
        return Scalar(Fraction(value), gexp)

    @property
    def is_rational(self) -> bool:
        return self.gexp == 0 or self.coef == 0

    def rational(self, dset: MissingDigitSet) -> Optional[Fraction]:
        """The exact value when it is rational (gamma^0, a zero coefficient
        or a rational gamma), else None."""
        if self.is_rational:
            return self.coef
        exact = dset.exponent_fraction
        return None if exact is None else self.coef * exact ** self.gexp

    def times(self, other: "Scalar") -> "Scalar":
        return Scalar(self.coef * other.coef, self.gexp + other.gexp)

    def scale(self, q: Fraction) -> "Scalar":
        return Scalar(self.coef * q, self.gexp)

    def at(self, gamma: Iv) -> Iv:
        """coef * gamma^gexp over an enclosure of gamma (gamma > 0)."""
        return iv_scale(iv_intpow(gamma, self.gexp), self.coef)

    def value_iv(self, dset: MissingDigitSet) -> Iv:
        exact = self.rational(dset)
        if exact is not None:
            return iv_exact(exact)
        gamma = LogRatioSource(Fraction(dset.digit_count), Fraction(dset.base))
        return self.at(gamma.within(VALUE_BITS))

    def compare(self, other: "Scalar", dset: MissingDigitSet) -> int:
        """Exact -1/0/+1 of self - other.

        Decidable: when gamma is irrational it is transcendental (else
        base**gamma = #digits would violate the Gelfond-Schneider theorem),
        so values with different gamma powers are never equal.
        """
        if self.gexp == other.gexp or self.coef == 0 or other.coef == 0:
            # gamma^k > 0, so the sign is that of the coefficient difference
            a, b = self.coef, other.coef
        else:
            a, b = self.rational(dset), other.rational(dset)
            if a is None or b is None:
                return exponent_enclosure(dset).decide(
                    lambda enc: iv_cmp(self.at(enc.as_iv()), other.at(enc.as_iv())))
        return (a > b) - (a < b)

    def evaluate_base_power(self, dset: MissingDigitSet, bits: int = VALUE_BITS) -> Iv:
        """Enclosure (exact when possible) of base**self, inexact ends on
        the 2^-bits grid."""
        exact = self.rational(dset)
        if exact is not None:
            return rational_pow(Fraction(dset.base), exact, bits)
        if self.gexp == 1:
            # b^(c*gamma) = (#digits)^c exactly
            return rational_pow(Fraction(dset.digit_count), self.coef, bits)
        # rare: go through an enclosure exponent
        return pow_interval(iv_exact(Fraction(dset.base)), self.value_iv(dset), bits)


GAMMA = Scalar(_ONE, 1)


# ---------------------------------------------------------------------------
# approximation and dimension functions
# ---------------------------------------------------------------------------

class PowerLaw(Record):
    """psi(r) = r^-power * (log r)^-log_exponent (natural log)."""

    power: Scalar
    log_exponent: Scalar = Scalar(_ZERO)

    def scaled(self, s: Scalar) -> "PowerLaw":  # the law psi^s
        return PowerLaw(s.times(self.power), s.times(self.log_exponent))


class TableValues(Record):
    """Explicit values at the evaluation grid points b^n, keyed by n."""

    values: Mapping[int, Fraction]


PsiKind = Union[PowerLaw, TableValues]


class ApproxFunction(Record):
    kind: PsiKind
    truncation: Optional[Fraction] = None  # Psi(r) = min(truncation/r, psi(r))

    @staticmethod
    def power(tau, gexp: int = 0) -> "ApproxFunction":
        return ApproxFunction(PowerLaw(Scalar.of(tau, gexp)))

    @staticmethod
    def power_log(alpha, log_exponent: Scalar) -> "ApproxFunction":
        return ApproxFunction(PowerLaw(Scalar.of(alpha), log_exponent))

    @staticmethod
    def table(values: Mapping[int, Fraction]) -> "ApproxFunction":
        if any(v <= 0 for v in values.values()):
            raise InputError("psi table values must be positive")
        return ApproxFunction(TableValues(dict(values)))


def truncate_psi(psi: ApproxFunction, c) -> ApproxFunction:
    """Pointwise min with c/r; preserves divergence of the dichotomy series."""
    c = Fraction(c)
    if c <= 0:
        raise InputError("truncation constant must be positive")
    return ApproxFunction(psi.kind, c)


def _law_value(law: PowerLaw, dset: MissingDigitSet, n: int, bits: int = VALUE_BITS,
               irrational_message: str = "irrational log-exponent is not supported") -> Iv:
    """The law at r = b^n, r^-power * (log r)^-log_exponent, whose log
    exponent must be rational, else InputError(irrational_message)."""
    beta = law.log_exponent.rational(dset)
    if beta is None:
        raise InputError(irrational_message)
    val = law.power.scale(Fraction(-n)).evaluate_base_power(dset, bits)
    if beta:
        logr = iv_scale(ln_interval(Fraction(dset.base), bits + 16), Fraction(n))
        val = iv_mul(val, pow_interval(logr, iv_exact(-beta), bits))
    return val


def psi_value(psi: ApproxFunction, dset: MissingDigitSet, n: int) -> Iv:
    """Enclosure (exact when representable) of psi(b^n), truncation applied.

    A law psi > 0 is taken on the 2^-VALUE_BITS grid, and on a grid twice
    as fine while its lower end rounds to 0, for at most the `steps` of
    `errors.BUDGET` doublings (then PrecisionError).
    """
    if n < 1:
        raise InputError("level must be >= 1")
    kind = psi.kind
    if isinstance(kind, TableValues):
        if n not in kind.values:
            raise InputError(f"psi table has no value at level {n}")
        val = iv_exact(Fraction(kind.values[n]))
    else:
        level = 0
        while (val := _law_value(kind, dset, n, VALUE_BITS << level))[0] == 0:
            if level == BUDGET.get().steps:
                raise PrecisionError(f"psi(b^{n}) is below 2^-{VALUE_BITS << level} at "
                                     f"refinement level {level}")
            level += 1
    if psi.truncation is not None:
        check_bits(power_bits(dset.base, n), "{}^{}", dset.base, n)
        cap = psi.truncation * Fraction(dset.base) ** (-n)
        val = (min(val[0], cap), min(val[1], cap))
    return val


class DimensionFunction(Record):
    """f(r) = r^s or a table on the evaluation grid.  The dichotomy needs
    r^-gamma f(r) monotonic, which `series_classify` and
    `natural_cover_tail` check."""

    kind: Union[Scalar, TableValues]  # the exponent s of f(r) = r^s, or a table

    @staticmethod
    def power(s, gexp: int = 0) -> "DimensionFunction":
        sc = Scalar.of(s, gexp)
        if sc.coef <= 0:
            raise InputError("dimension-function exponent must be positive")
        return DimensionFunction(sc)

    @staticmethod
    def table(values: Mapping[int, Fraction]) -> "DimensionFunction":
        if any(v <= 0 for v in values.values()):
            raise InputError("dimension-function values must be positive")
        return DimensionFunction(TableValues(dict(values)))


# r^-gamma, as a power f, for `_require_monotonic`
_INV_GAMMA = DimensionFunction(Scalar(-_ONE, 1))


def _require_monotonic(f: DimensionFunction, psi: ApproxFunction, dset: MissingDigitSet,
                       n0: int, n_max: int) -> None:
    """HypothesisViolation unless a table f fits a monotonic r^-gamma f(r)
    over the levels a sum from n0 to n_max reads: n0, n0+1, ... while the
    table has them.

    The entry f_n is f at r_n = psi(b^n), where `f_of_psi` reads it, so
    r^-gamma f(r) is g_n = f_n r_n^-gamma there.  Consecutive levels n, n+1 whose enclosures order
    both r and g prove g increasing or decreasing in r; the call is
    refused when they prove both.  A level whose r_n^-gamma cannot be
    enclosed proves nothing, and a power f = r^s always passes."""
    if not isinstance(f.kind, TableValues):
        return
    values, moves, last = f.kind.values, {}, None
    for n in range(n0, n_max + 1):
        if n not in values:
            break
        try:
            r = psi_value(psi, dset, n)
            here = (r, iv_scale(f_of_psi(_INV_GAMMA, psi, dset, n, r), Fraction(values[n])))
        except (InputError, PrecisionError):
            here = None
        if last and here:
            dr, dg = iv_cmp(here[0], last[0]), iv_cmp(here[1], last[1])
            if dr and dg:
                moves.setdefault("increases" if dr == dg else "decreases",
                                 f"between levels {n - 1} and {n}")
        last = here
    if len(moves) == 2:
        raise HypothesisViolation("r^-gamma f(r) at r = psi(b^n) is not monotonic: it "
                                  + " and ".join(f"{move} in r {span}"
                                                 for move, span in moves.items()))


def f_of_psi(f: DimensionFunction, psi: ApproxFunction, dset: MissingDigitSet,
             n: int, radius: Optional[Iv] = None) -> Iv:
    """Enclosure of f(psi(b^n)); its generic branch reads psi(b^n) off `radius` if given."""
    if isinstance(f.kind, TableValues):
        if n not in f.kind.values:
            raise InputError(f"f table has no value at level {n}")
        return iv_exact(Fraction(f.kind.values[n]))
    s = f.kind
    if psi.truncation is None and not isinstance(psi.kind, TableValues):
        # (r^-a (log r)^-b)^s is the law r^-(s a) (log r)^-(s b)
        return _law_value(psi.kind.scaled(s), dset, n,
                          irrational_message="f(power_log psi) needs a rational "
                                             "combined log exponent")
    return pow_interval(radius or psi_value(psi, dset, n), s.value_iv(dset), VALUE_BITS)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def window_t0(window: RatInterval, base: int) -> int:
    """t0, the least level whose b-adic radius b^-t0 is below the radius
    a/c of the window (of positive length): below t0 balls outgrow it.
    That is the least t with a b^t > c, found in exact steps on integers
    from the largest t with a.bit_length() + power_bits(base, t) < c.bit_length()."""
    radius = window.radius
    if radius <= 0:
        raise InputError("window must have positive length")
    a, c = radius.numerator, radius.denominator
    t0 = max(0, (64 * (c.bit_length() - a.bit_length() - 1) - 1) // (base ** 64).bit_length())
    scaled = a * base ** t0
    while scaled <= c:
        scaled *= base
        t0 += 1
    return t0


class Layer(Record):
    """The finite union of psi-balls at one level, clipped to the window.

    The centers are p/b^n with p in `center_numerators`.  Every ball
    endpoint p/b^n -+ r, for both radius bounds r, and both window ends
    are integers over `grid`, the lcm of b^n and their denominators.
    `unions` holds the merged ball unions at the inner and the outer
    radius (the same union when the radius is exact) on that grid, each
    endpoint x carried with its CDF numerator by `build_layer`, and their
    one CDF denominator.  Every offset of an endpoint from the level-n grid
    is that of a radius or of a window end, so a layer makes at most six
    `cantor_cdf` calls.  `build_layer` computes the unions, and every
    measure below only reads them.
    """

    n: int
    dset: MissingDigitSet
    window: RatInterval
    radius: Iv
    grid: int
    center_numerators: tuple[int, ...]
    disjoint: bool
    unions: tuple[GridUnion, GridUnion, int]  # (inner, outer, CDF denominator)

    @property
    def centers(self) -> tuple[Fraction, ...]:
        bn = self.dset.base ** self.n
        return tuple(Fraction(p, bn) for p in self.center_numerators)


def build_layer(dset: MissingDigitSet, radius: Iv, n: int,
                window: RatInterval, coprime: bool) -> Layer:
    """The level-n layer of balls whose radius psi(b^n) `radius` encloses.

    The ball of radius r around p/b^n meets the window [lo, hi] when the
    cell [p - 1, p]/b^n meets [lo - r, hi + r], so one listing of the
    cells first..last that `check_level` gives for the outer radius gives
    the centers in first + 1..last and the ranks of every union end, whose
    cell lies in that range.  The ball ends p/b^n -+ r and the window ends
    are integers over `grid`, the lcm of b^n and their denominators; they
    take about as many bits as the listed cells times the grid's bit
    length.  `check_level` refuses the level before any cell is listed.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    radii, ends = radius[:1] if iv_is_exact(radius) else radius, window.pair()
    bn, grid, first, last = check_level(dset, n, ends, radii)
    listed = dset.allowed_prefixes(n, first, last)
    step, (wl, wh) = grid // bn, (on_grid(x, grid) for x in ends)
    centers = enumerate_centers(dset, n, coprime, first + 1, last, listed)
    unions = [clip_union(merge_pairs([(p * step - u, p * step + u) for p in centers]), (wl, wh))
              for u in (on_grid(x, grid) for x in radii)]
    cdf, den = grid_cdf(dset, n, grid, (x for union in unions for pair in union for x in pair),
                        max(first, 0), listed)
    unions = [tuple(((lo, cdf[lo]), (hi, cdf[hi])) for lo, hi in union) for union in unions]
    return Layer(n=n, dset=dset, window=window, radius=radius,
                 grid=grid, center_numerators=tuple(centers),
                 disjoint=2 * bn * radius[1] < 1,  # r < 1/(2 b^n)
                 unions=(unions[0], unions[-1], den))  # one union when r is exact


def layer_measure(layer: Layer) -> CantorMeasureValue:
    """Exact measure of the ball union (bounds when the radius is inexact)."""
    inner, outer, den = layer.unions
    lo_m = carried_measure(inner, den)
    return CantorMeasureValue(lo_m, lo_m if outer is inner else carried_measure(outer, den))


def union_measure(layers: Sequence[Layer], i: int) -> Fraction:
    """Exact measure of the union of the layers' inner (i = 0) or outer
    (i = 1) ball unions, the layers sharing their set and window.

    Their unions are rescaled to the lcm of their grids, and their CDF
    numerators to the lcm of their CDF denominators, and merged once.
    Every endpoint of the merged union is an endpoint of one of them, so
    it carries its CDF numerator through the merge.
    """
    grid = lcm(*(layer.grid for layer in layers))
    den = lcm(*(layer.unions[2] for layer in layers))
    pairs = []
    for layer in layers:
        union, k, j = layer.unions[i], grid // layer.grid, den // layer.unions[2]
        pairs += union if k == j == 1 else [((lo * k, c_lo * j), (hi * k, c_hi * j))
                                            for (lo, c_lo), (hi, c_hi) in union]
    return carried_measure(merge_pairs(pairs), den)


def pairwise_measure(layer_m: Layer, layer_n: Layer, mu_m: CantorMeasureValue,
                     mu_n: CantorMeasureValue) -> CantorMeasureValue:
    """Exact measure of the intersection of two layers over one window,
    given their measures: mu(A_m ∩ A_n) = mu(A_m) + mu(A_n) - mu(A_m ∪ A_n),
    at the inner radius bounds and, when a radius is inexact, the outer ones.
    """
    if layer_m.dset != layer_n.dset or layer_m.window != layer_n.window:
        raise InputError("layers must share their set and window")
    lo = mu_m.lo + mu_n.lo - union_measure((layer_m, layer_n), 0)
    if iv_is_exact(layer_m.radius) and iv_is_exact(layer_n.radius):
        return CantorMeasureValue(lo, lo)
    return CantorMeasureValue(lo, mu_m.hi + mu_n.hi - union_measure((layer_m, layer_n), 1))


def layer_comparator(dset: MissingDigitSet, psi: ApproxFunction, radius: Iv, n: int,
                     window_measure: Fraction) -> Iv:
    """mu(B) * (psi(b^n) * b^n)^gamma, the predicted size of a layer of radius `radius`."""
    law = psi.kind
    if (psi.truncation is None and isinstance(law, PowerLaw) and law.power.is_rational
            and law.log_exponent.coef == 0):
        # (b^(n - n*tau))^gamma with tau rational
        val = Scalar(n - n * law.power.coef, 1).evaluate_base_power(dset)
        return iv_scale(val, window_measure)
    scaled = iv_scale(radius, Fraction(dset.base) ** n)
    return iv_scale(pow_interval(scaled, GAMMA.value_iv(dset), VALUE_BITS), window_measure)


# ---------------------------------------------------------------------------
# quasi-independence scan
# ---------------------------------------------------------------------------

class PairRow(Record):
    m: int
    n: int
    case: str  # "i" (forced empty) or "ii"
    mu_m: CantorMeasureValue
    mu_n: CantorMeasureValue
    mu_mn: CantorMeasureValue
    rho: Iv


class ScanReport(Record):
    window_measure: Fraction
    rows: tuple[PairRow, ...]
    skipped: tuple[tuple[int, int], ...]  # pairs with a null layer
    c_empirical: Optional[Iv]


def classify_pair_case(base: int, m: int, radius_m: Iv, n: int) -> str:
    """Case "i" when b^-n >= 2 psi(b^m), which `radius_m` encloses, forces
    empty intersections."""
    lhs = Fraction(base) ** (-n)
    lo, hi = radius_m
    if lhs >= 2 * hi:
        return "i"
    if lhs < 2 * lo:
        return "ii"
    raise PrecisionError(f"case split undecided for pair ({m},{n})")


def layer_table(dset: MissingDigitSet, psi: ApproxFunction, window: RatInterval,
                levels: Sequence[int], coprime: bool) -> tuple[dict, dict, dict]:
    """(layers, measures, pairs) by level, the one path to the layer measures of
    `pairwise`, `quasi-scan` and `bc-ratio`: each level k of `levels` built from
    psi(b^k), evaluated once, and measured once, and mu(A_m ∩ A_n) for each pair
    (m, n) of `levels` in order, or None when a layer is null: it is exactly 0.
    Each level's radius and `check_level` refusals come before any layer's build."""
    radii = {}
    for k in levels:
        if k not in radii:
            radii[k] = psi_value(psi, dset, k)
            check_level(dset, k, window.pair(), radii[k])
    layers = {k: build_layer(dset, r, k, window, coprime) for k, r in radii.items()}
    measures = {k: layer_measure(v) for k, v in layers.items()}
    pairs = {(m, n): pairwise_measure(layers[m], layers[n], measures[m], measures[n])
             if measures[m].hi and measures[n].hi else None
             for m, n in combinations(levels, 2)}
    return layers, measures, pairs


def quasi_independence_scan(dset: MissingDigitSet, psi: ApproxFunction,
                            window: RatInterval, n_max: int, m_min: int = 1,
                            coprime: bool = True) -> ScanReport:
    """Exact rho = mu(A_m ∩ A_n) mu(B) / (mu(A_m) mu(A_n)) for each pair of nonnull layers."""
    if n_max <= m_min:
        raise InputError("need m_min < n_max")
    mu_b = measure_union(dset, [window.pair()])
    levels = range(m_min, n_max + 1)
    layers, measures, pairs = layer_table(dset, psi, window, levels, coprime)
    rows = []
    for (m, n), inter in pairs.items():
        if inter is not None:
            mm, mn = measures[m], measures[n]
            denom = (mm.lo * mn.lo, mm.hi * mn.hi)
            rho = iv_scale(iv_div((inter.lo, inter.hi), denom), mu_b)
            case = classify_pair_case(dset.base, m, layers[m].radius, n)
            rows.append(PairRow(m=m, n=n, case=case, mu_m=mm, mu_n=mn, mu_mn=inter, rho=rho))
    c_emp = (max(r.rho[0] for r in rows), max(r.rho[1] for r in rows)) if rows else None
    return ScanReport(window_measure=mu_b, rows=tuple(rows),
                      skipped=tuple(pair for pair, inter in pairs.items() if inter is None),
                      c_empirical=c_emp)


# ---------------------------------------------------------------------------
# series dichotomy
# ---------------------------------------------------------------------------

class SeriesVerdict(Record):
    partial_sums: tuple[Iv, ...]  # S_1 .. S_N
    verdict: str       # "convergent" | "divergent" | "undetermined"
    prediction: str    # "measure_zero" | "measure_full" | "not_applicable"

    @property
    def last(self) -> Iv:
        return self.partial_sums[-1]


_PREDICTION = {"convergent": "measure_zero",
               "divergent": "measure_full",
               "undetermined": "not_applicable"}


def series_term(dset: MissingDigitSet, psi: ApproxFunction, f: DimensionFunction,
                n: int) -> Iv:
    """f(psi(b^n)) * (b^n)^gamma; the second factor is exactly (#digits)^n."""
    return iv_scale(f_of_psi(f, psi, dset, n), dset.digit_mass_pow(n))


def _analytic_verdict(dset: MissingDigitSet, psi: ApproxFunction,
                      f: DimensionFunction) -> str:
    if isinstance(f.kind, TableValues) or isinstance(psi.kind, TableValues):
        return "undetermined"
    # the power part decides unless it sits exactly on gamma, in which case
    # the log factor decides by the integral test
    s, law = f.kind, psi.kind
    cmp = (s.times(law.power).compare(GAMMA, dset)
           or s.times(law.log_exponent).compare(Scalar.of(1), dset))
    return "convergent" if cmp > 0 else "divergent"


def series_classify(dset: MissingDigitSet, psi: ApproxFunction,
                    f: DimensionFunction, n_max: int) -> SeriesVerdict:
    """Partial sums plus the convergence verdict of the dichotomy series.

    Truncating psi by min(c/r, psi) changes neither side of the verdict
    (it lowers terms, and divergence survives the truncation), so the
    analytic verdict is computed for the untruncated family while the
    partial sums reflect the truncated values actually in force.
    """
    if n_max < 1:
        raise InputError("need at least one term")
    _require_monotonic(f, psi, dset, 1, n_max)
    sums = []
    acc = iv_exact(_ZERO)
    undetermined_tail = False
    for n in range(1, n_max + 1):
        try:
            acc = iv_add(acc, series_term(dset, psi, f, n))
        except InputError as exc:
            if not sums:
                raise InputError(f"no terms computable on the evaluation grid: {exc}") from exc
            undetermined_tail = True
            break
        sums.append(acc)
    verdict = "undetermined" if undetermined_tail else _analytic_verdict(dset, psi, f)
    return SeriesVerdict(partial_sums=tuple(sums), verdict=verdict,
                         prediction=_PREDICTION[verdict])


class NaturalCoverTail(Record):
    n0: int
    n_max: int
    value: Iv
    series_verdict: str


def natural_cover_tail(dset: MissingDigitSet, psi: ApproxFunction,
                       f: DimensionFunction, n0: int, n_max: int) -> NaturalCoverTail:
    """sum_{n0 <= n <= n_max} f(psi(b^n)) * #centers(n), the cover mass."""
    if n0 < 1 or n0 > n_max:
        raise InputError("need 1 <= n0 <= n_max")
    _require_monotonic(f, psi, dset, n0, n_max)
    acc = iv_exact(_ZERO)
    for n in range(n0, n_max + 1):
        count = center_count(dset, n)
        acc = iv_add(acc, iv_scale(f_of_psi(f, psi, dset, n), Fraction(count)))
    return NaturalCoverTail(n0=n0, n_max=n_max, value=acc,
                            series_verdict=_analytic_verdict(dset, psi, f))


# ---------------------------------------------------------------------------
# Borel-Cantelli second-moment ratio
# ---------------------------------------------------------------------------

class BorelCantelliReport(Record):
    q: int
    ratio: Iv
    union_measure: Fraction
    layer_measures: tuple[CantorMeasureValue, ...]


def borel_cantelli_ratio(dset: MissingDigitSet, psi: ApproxFunction,
                         window: RatInterval, q: int,
                         coprime: bool = True) -> BorelCantelliReport:
    """(sum mu(E_s))^2 / sum_{s,t} mu(E_s ∩ E_t) with E_s the level-s layer."""
    if q < 1:
        raise InputError("need Q >= 1")
    layers, measures, pairs = layer_table(dset, psi, window, range(1, q + 1), coprime)
    num_lo = sum(m.lo for m in measures.values())
    num_hi = sum(m.hi for m in measures.values())
    if num_hi == 0:
        raise InputError("all layers are null: the ratio is undefined")
    den_lo = num_lo + 2 * sum(inter.lo for inter in pairs.values() if inter is not None)
    den_hi = num_hi + 2 * sum(inter.hi for inter in pairs.values() if inter is not None)
    ratio = iv_div((num_lo * num_lo, num_hi * num_hi), (den_lo, den_hi))
    # The outer unions' union is reported; it has the measure of the inner
    # unions' union when every layer measure is exact, and must be shown to
    # have it otherwise.
    built = tuple(layers.values())
    union = union_measure(built, 1)
    if not all(m.exact for m in measures.values()) and union_measure(built, 0) != union:
        raise PrecisionError("union measure undecided: the inner and outer radius "
                             "bounds give unions of different measure")
    return BorelCantelliReport(q=q, ratio=ratio, union_measure=union,
                               layer_measures=tuple(measures.values()))


# ---------------------------------------------------------------------------
# covering-exponent estimate at a single level
# ---------------------------------------------------------------------------

class BoxDimensionEstimate(Record):
    """Covering exponent of one finite-stage layer.

    This reports log(#covering intervals)/log(b^L) for the single layer
    at level n, the quantity the natural cover controls.  It is an
    empirical finite-stage trend toward gamma/tau, not a statement about
    the limsup set itself.
    """

    n: int
    level: int
    count: int
    estimate: Iv
    coprime: bool


def box_dimension_estimate(dset: MissingDigitSet, tau: Fraction, n: int,
                           coprime: bool) -> BoxDimensionEstimate:
    """Count the level-L cells, L = ceil(tau n), that the radius-b^(-tau n)
    balls around the level-n centers meet, and the log-ratio of the count.

    With S = b^L and R = r S = b^(L - tau n), in [1, b), the ball around
    a center c/S meets the cells [k, k+1]/S with
    ceil(c - R) - 1 <= k <= floor(c + R), that is c - f - 1 <= k <= c + f
    for f = floor(R), since c is an integer.  So an enclosure of R, at
    RADIUS_BITS whatever L, decides every cell range at once when both its
    bounds give the same f.  The cells met form the runs of the union of
    the radius-(f + 1)/S balls, m^L times whose measure counts their
    allowed cells: that union is the level-n layer of radius (f + 1)/S
    over [0, 1], and the count is m^L times its `layer_measure`.
    """
    tau = Fraction(tau)
    if tau < 1:
        raise InputError("need tau >= 1")
    if n < 1:
        raise InputError("level must be >= 1")
    level = -((-tau * n).__floor__())  # ceil(tau*n)
    b = dset.base
    check_bits(power_bits(b, level), "base^-{}", level)
    scale = b ** level  # the counting grid
    f, f_hi = (r.numerator // r.denominator
               for r in rational_pow(Fraction(b), level - tau * n, RADIUS_BITS))
    layer = build_layer(dset, iv_exact(Fraction(f + 1, scale)), n, RatInterval.unit(), coprime)
    if layer.center_numerators and f != f_hi:
        raise PrecisionError("counting boundary undecided; raise the radius precision")
    count = int(layer_measure(layer).value * dset.digit_count ** level)
    if count == 0:
        raise InputError("layer misses every basic interval at the counting level")
    est = LogRatioSource(Fraction(count), Fraction(scale)).within(48)
    return BoxDimensionEstimate(n=n, level=level, count=count, estimate=est,
                                coprime=coprime)
