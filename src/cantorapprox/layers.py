"""Finite-stage layers of the limsup set and the series dichotomy.

A layer at level n is the union of balls of radius psi(b^n) around the
(optionally reduced) b-adic rationals p/b^n lying in the fractal,
clipped to a window.  Everything here is computed with exact rationals;
irrational radii or exponents degrade gracefully to certified two-sided
bounds.  A layer's ball unions, from `digitsets.ball_unions`, live on
one integer grid: every endpoint is an integer numerator over the
layer's common denominator, carried with the integer numerator of its
CDF value over one CDF denominator per layer, from `digitsets.grid_cdf`.
Two layers meet on the lcm of their grids and of their CDF denominators,
and a measure is one integer sum made into a Fraction.

Exponents are carried symbolically as c * gamma^k where gamma is the
set's similarity exponent log(#digits)/log(base).  That keeps the
cancellations exact: b^(n*gamma) is exactly (#digits)^n, which is what
makes the headline layer identities integer-checkable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Union

from .digitsets import (CantorMeasureValue, MissingDigitSet, ball_unions, center_count,
                        grid_cdf, measure_union, on_grid)
from .enclosures import (Iv, LogRatioSource, exponent_enclosure, iv_add,
                         iv_cmp, iv_div, iv_exact, iv_intpow, iv_is_exact, iv_mul, iv_scale,
                         ln_interval, pow_interval, rational_pow)
from .errors import BUDGET, HypothesisViolation, InputError, PrecisionError
from .intervals import RatInterval, intersect_unions, merge_pairs
from .records import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)

VALUE_BITS = 96  # working precision for inexact term values
RADIUS_BITS = 128  # precision of the box-counting radius b^(-tau n)


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
            here = (psi_value(psi, dset, n),
                    iv_scale(f_of_psi(_INV_GAMMA, psi, dset, n), Fraction(values[n])))
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
             n: int) -> Iv:
    """Enclosure of f(psi(b^n)), exploiting exact exponent algebra when possible."""
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
    # generic: evaluate psi then apply the power
    return pow_interval(psi_value(psi, dset, n), s.value_iv(dset), VALUE_BITS)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def window_t0(window: RatInterval, base: int) -> int:
    """t0, the least level whose b-adic radius b^-t0 is below the radius
    of the window (of positive length): below t0 balls outgrow it."""
    if window.radius <= 0:
        raise InputError("window must have positive length")
    t0, r = 0, Fraction(1)
    while r >= window.radius:
        r /= base
        t0 += 1
    return t0


# a layer union: sorted disjoint (lo, hi) pairs whose endpoints are
# (x, N) with x an integer over the layer's grid and N the numerator of
# mu([0, x/grid]) over the layer's CDF denominator
GridUnion = tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def _carry_cdf(union: list[tuple[int, int]], cdf: Mapping[int, int]) -> GridUnion:
    return tuple(((lo, cdf[lo]), (hi, cdf[hi])) for lo, hi in union)


class Layer(Record):
    """The finite union of psi-balls at one level, clipped to the window.

    The centers are p/b^n with p in `center_numerators`.  Every ball
    endpoint p/b^n -+ r, for both radius bounds r, and both window ends
    are integers over `grid`, the lcm of b^n and their denominators.
    `unions` holds the merged ball unions at the inner and the outer
    radius (the same union when the radius is exact) on that grid, each
    endpoint x paired with the integer N from `grid_cdf`, and their one
    CDF denominator.  Every offset of an endpoint from the level-n grid
    is that of a radius or of a window end, so a layer makes at most six
    `cantor_cdf` calls.  `build_layer` computes the unions, and every
    measure below only reads them.
    """

    n: int
    dset: MissingDigitSet
    window: RatInterval
    coprime: bool
    radius: Iv
    grid: int
    center_numerators: tuple[int, ...]
    disjoint: bool
    unions: tuple[GridUnion, GridUnion, int]  # (inner, outer, CDF denominator)

    @property
    def centers(self) -> tuple[Fraction, ...]:
        bn = self.dset.base ** self.n
        return tuple(Fraction(p, bn) for p in self.center_numerators)


def build_layer(dset: MissingDigitSet, psi: ApproxFunction, n: int,
                window: RatInterval, coprime: bool) -> Layer:
    if n < 1:
        raise InputError("level must be >= 1")
    radius = psi_value(psi, dset, n)
    if radius[0] <= 0:
        raise InputError("psi must be positive on the evaluation grid")
    bn = dset.base ** n
    ends = (*radius, window.lo, window.hi)
    grid = lcm(bn, *(x.denominator for x in ends))
    u_lo, u_hi, wl, wh = (on_grid(x, grid) for x in ends)
    exact = iv_is_exact(radius)
    centers, unions = ball_unions(dset, n, coprime, grid, (wl, wh),
                                  [u_lo] if exact else [u_lo, u_hi])
    cdf, den = grid_cdf(dset, n, grid, (x for union in unions for pair in union for x in pair))
    carried = [_carry_cdf(union, cdf) for union in unions]  # one union when r is exact
    return Layer(n=n, dset=dset, window=window, coprime=coprime, radius=radius,
                 grid=grid, center_numerators=tuple(centers),
                 disjoint=2 * bn * u_hi < grid,  # r < 1/(2 b^n)
                 unions=(carried[0], carried[-1], den))


def _measure(union: GridUnion, den: int) -> Fraction:
    """Measure of a merged union whose endpoints carry their CDF numerators
    over den."""
    return Fraction(sum(c_hi - c_lo for (_, c_lo), (_, c_hi) in union), den)


def _rescaled(layer: Layer, i: int, grid: int, den: int) -> GridUnion:
    """The layer's inner (i = 0) or outer (i = 1) union on `grid` with its
    CDF numerators over `den`, multiples of the layer's grid and CDF
    denominator."""
    union, cdf_den = layer.unions[i], layer.unions[2]
    k, j = grid // layer.grid, den // cdf_den
    if k == j == 1:
        return union
    return tuple(((lo * k, c_lo * j), (hi * k, c_hi * j))
                 for (lo, c_lo), (hi, c_hi) in union)


def layer_measure(layer: Layer) -> CantorMeasureValue:
    """Exact measure of the ball union (bounds when the radius is inexact)."""
    inner, outer, den = layer.unions
    lo_m = _measure(inner, den)
    return CantorMeasureValue(lo_m, lo_m if outer is inner else _measure(outer, den))


def pairwise_measure(layer_m: Layer, layer_n: Layer) -> CantorMeasureValue:
    """Exact measure of the intersection of two layers over one window.

    Both layers' unions are rescaled to the lcm of their grids, and their
    CDF numerators to the lcm of their CDF denominators.  Every endpoint
    of the intersection of two merged unions is an endpoint of one of
    them, so it carries its CDF numerator through the intersection.
    """
    if layer_m.dset != layer_n.dset or layer_m.window != layer_n.window:
        raise InputError("layers must share their set and window")
    grid = lcm(layer_m.grid, layer_n.grid)
    den = lcm(layer_m.unions[2], layer_n.unions[2])

    def meet(i: int) -> Fraction:
        return _measure(intersect_unions(_rescaled(layer_m, i, grid, den),
                                         _rescaled(layer_n, i, grid, den)), den)

    lo = meet(0)
    if iv_is_exact(layer_m.radius) and iv_is_exact(layer_n.radius):
        return CantorMeasureValue(lo, lo)
    return CantorMeasureValue(lo, meet(1))


def layer_comparator(dset: MissingDigitSet, psi: ApproxFunction, n: int,
                     window_measure: Fraction) -> Iv:
    """mu(B) * (psi(b^n) * b^n)^gamma, the predicted size of a layer."""
    law = psi.kind
    if (psi.truncation is None and isinstance(law, PowerLaw) and law.power.is_rational
            and law.log_exponent.coef == 0):
        # (b^(n - n*tau))^gamma with tau rational
        val = Scalar(n - n * law.power.coef, 1).evaluate_base_power(dset)
        return iv_scale(val, window_measure)
    scaled = iv_scale(psi_value(psi, dset, n), Fraction(dset.base) ** n)
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


def classify_pair_case(layer_m: Layer, n: int) -> str:
    """Case "i" when b^-n >= 2 psi(b^m), the level-m layer's radius, forces
    empty intersections."""
    lhs = Fraction(layer_m.dset.base) ** (-n)
    lo, hi = layer_m.radius
    if lhs >= 2 * hi:
        return "i"
    if lhs < 2 * lo:
        return "ii"
    raise PrecisionError(f"case split undecided for pair ({layer_m.n},{n})")


def quasi_independence_scan(dset: MissingDigitSet, psi: ApproxFunction,
                            window: RatInterval, n_max: int, m_min: int = 1,
                            coprime: bool = True) -> ScanReport:
    """Exact pairwise ratios rho = mu(A_m ∩ A_n) mu(B) / (mu(A_m) mu(A_n)).

    Each layer is built once; the pairs only look up the layers' tables.
    """
    if n_max <= m_min:
        raise InputError("need m_min < n_max")
    mu_b = measure_union(dset, [window.pair()])
    layers = {k: build_layer(dset, psi, k, window, coprime)
              for k in range(m_min, n_max + 1)}
    measures = {k: layer_measure(v) for k, v in layers.items()}
    rows = []
    skipped = []
    for m in range(m_min, n_max):
        for n in range(m + 1, n_max + 1):
            mm, mn = measures[m], measures[n]
            if mm.hi == 0 or mn.hi == 0:
                skipped.append((m, n))
                continue
            inter = pairwise_measure(layers[m], layers[n])
            denom = (mm.lo * mn.lo, mm.hi * mn.hi)
            rho = iv_scale(iv_div((inter.lo, inter.hi), denom), mu_b)
            rows.append(PairRow(m=m, n=n, case=classify_pair_case(layers[m], n),
                                mu_m=mm, mu_n=mn, mu_mn=inter, rho=rho))
    c_emp = None
    if rows:
        c_emp = (max(r.rho[0] for r in rows), max(r.rho[1] for r in rows))
    return ScanReport(window_measure=mu_b, rows=tuple(rows),
                      skipped=tuple(skipped), c_empirical=c_emp)


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
    layers = [build_layer(dset, psi, s, window, coprime) for s in range(1, q + 1)]
    measures = [layer_measure(l) for l in layers]
    if all(m.hi == 0 for m in measures):
        raise InputError("all layers are null: the ratio is undefined")
    num_lo = den_lo = sum(m.lo for m in measures)
    num_hi = den_hi = sum(m.hi for m in measures)
    for i in range(q):
        for j in range(i + 1, q):
            inter = pairwise_measure(layers[i], layers[j])
            den_lo += 2 * inter.lo
            den_hi += 2 * inter.hi
    ratio = iv_div((num_lo * num_lo, num_hi * num_hi), (den_lo, den_hi))
    # the union's endpoints are endpoints of the layers' outer unions, so
    # they carry their CDF numerators once every union is on the common
    # grid and CDF denominator
    grid = lcm(*(l.grid for l in layers))
    den = lcm(*(l.unions[2] for l in layers))
    union = _measure(merge_pairs([p for l in layers
                                  for p in _rescaled(l, 1, grid, den)]), den)
    return BorelCantelliReport(q=q, ratio=ratio, union_measure=union,
                               layer_measures=tuple(measures))


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

    With S = b^L and R = r S, the ball around a center c/S meets the
    cells [k, k+1]/S with ceil(c - R) - 1 <= k <= floor(c + R), that is
    c - f - 1 <= k <= c + f for f = floor(R), since c is an integer.  So
    the enclosure of r decides every cell range at once when both its
    bounds give the same f.  The cells met form the runs [lo, hi) of the
    radius-(f + 1) ball union on the grid S, and the allowed cells of a
    run number m^L (mu([0, hi/S]) - mu([0, lo/S])), read from `grid_cdf`
    at level n: a level-n rank for each run end and a measure for each of
    its two offsets from the level-n grid.
    """
    tau = Fraction(tau)
    if tau < 1:
        raise InputError("need tau >= 1")
    if n < 1:
        raise InputError("level must be >= 1")
    level = -((-tau * n).__floor__())  # ceil(tau*n)
    b = dset.base
    radius = rational_pow(Fraction(b), -tau * n, RADIUS_BITS)
    scale = b ** level  # counting grid, built once the radius passed the bit budget
    f, f_hi = ((r.numerator * scale) // r.denominator for r in radius)
    centers, (runs,) = ball_unions(dset, n, coprime, scale, (0, scale), [f + 1])
    if centers and f != f_hi:
        raise PrecisionError("counting boundary undecided; raise the radius precision")
    cdf, den = grid_cdf(dset, n, scale, (x for run in runs for x in run))
    count = sum(cdf[hi] - cdf[lo] for lo, hi in runs) * dset.digit_count ** level // den
    if count == 0:
        raise InputError("layer misses every basic interval at the counting level")
    est = LogRatioSource(Fraction(count), Fraction(scale)).within(48)
    return BoxDimensionEstimate(n=n, level=level, count=count, estimate=est,
                                coprime=coprime)
