"""Sparse-exponent numbers: coefficient * sum b^(-e_n) for a strictly
increasing exponent sequence.

The power rule e_n = floor(lam * tau^n) produces, for each tau > 2, an
explicit irrational with prescribed approximation behaviour; the
factorial rule e_n = n! produces the classic Liouville example.  Each
exponent is computed when first read, and the exact truncations p_s/q_s
are built in order by one integer recurrence, lazily because large
terms grow doubly-exponentially.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Optional, Union

from .digitsets import IN, OUT, MembershipResult, MissingDigitSet
from .enclosures import (Iv, Real, RealEnclosure, as_enclosure, floor_power, iv_cmp,
                         rational_pow)
from .errors import InputError, check_bits, power_bits
from .records import Record

_ONE = Fraction(1)


class PowerRule(Record):
    """e_n = floor(lam * tau^n)."""

    tau: Real
    lam: Real = _ONE

    def __post_init__(self):
        if as_enclosure(self.tau).cmp_rational(2) <= 0:
            raise InputError("power rule needs tau > 2")
        if as_enclosure(self.lam).cmp_rational(0) <= 0:
            raise InputError("power rule needs lam > 0")

    def exponent(self, n: int) -> int:
        return floor_power(self.lam, self.tau, n)


class FactorialRule(Record):
    """e_n = n!."""

    def exponent(self, n: int) -> int:
        return factorial(n)


ExponentRule = Union[PowerRule, FactorialRule]


class SparseDigitNumber:
    """coefficient * sum_{n>=1} base^(-e_n), with exact truncations."""

    def __init__(self, base: int, coefficient: int, rule: ExponentRule, terms: int):
        if base < 3:
            raise InputError("base must be >= 3")
        if not 1 <= coefficient <= base - 1:
            raise InputError("coefficient must be a nonzero digit")
        if terms < 2:
            raise InputError("need at least 2 terms")
        self.base = base
        self.coefficient = coefficient
        self.rule = rule
        self.terms = terms
        # e_0 = 0 and (p_0, q_0) = (0, 1) start the recurrence of `truncation`
        self._exponents: dict[int, int] = {0: 0}
        self._truncations: list[tuple[int, int]] = [(0, 1)]  # (p_s, q_s) at index s
        self._intervals: dict[int, Iv] = {}
        if self.exponent(1) < 1:
            raise InputError("first exponent must be >= 1 (value must stay below 1)")

    def exponent(self, n: int) -> int:
        if n not in self._exponents:
            self._exponents[n] = self.rule.exponent(n)
        return self._exponents[n]

    def truncation(self, s: int) -> tuple[int, int]:
        """(p_s, q_s) with p_s/q_s = coefficient * sum_{n<=s} base^(-e_n), reduced.

        Built in order by p_s = p_(s-1) * b^(e_s - e_(s-1)) + c, q_s = b^(e_s),
        so p_s = c * (1 + b*k) and p_s/q_s is reduced exactly when gcd(c, b) = 1.
        """
        if s < 1:
            raise InputError("truncation index must be >= 1")
        if s < len(self._truncations):
            return self._truncations[s]
        b, c, e_s = self.base, self.coefficient, self.exponent(s)
        check_bits(power_bits(b, e_s), "{}^{}", b, e_s)
        if gcd(c, b) != 1:
            raise InputError(
                "truncation not reduced: the coefficient shares a factor with the base")
        for n in range(len(self._truncations), s + 1):
            e, e_n = self.exponent(n - 1), self.exponent(n)
            if e_n <= e:
                raise InputError(f"exponent collision: e_{n} = {e_n} <= e_{n - 1} = {e}")
            self._truncations.append((self._truncations[-1][0] * b ** (e_n - e) + c, b ** e_n))
        return self._truncations[s]

    def tail_interval(self, s: int) -> Iv:
        """Certified bounds on x - p_s/q_s: the value interval of all
        materialized terms (at least s + 1) less the s-th truncation."""
        lo, hi = self.value_interval(max(self.terms, s + 1))
        trunc = Fraction(*self.truncation(s))
        return (lo - trunc, hi - trunc)

    def value_interval(self, terms: Optional[int] = None) -> Iv:
        """Certified bounds on x from its first t terms (t = terms by default),
        built once per t after a bits check on every call.

        The exponents grow by at least 1, so the remainder after term t
        is below coefficient * b^(-e_{t+1}) * b/(b-1), and the upper bound
        is (p_t (b-1) b^(e_{t+1} - e_t) + c b) / ((b-1) b^(e_{t+1})).
        """
        t = terms if terms is not None else self.terms
        b, e = self.base, self.exponent(t + 1)
        check_bits(power_bits(b, e) + (b - 1).bit_length(), "{}*{}^{}", b - 1, b, e)
        if t not in self._intervals:
            p, q = self.truncation(t)
            shift = (b - 1) * b ** (e - self.exponent(t))
            self._intervals[t] = (Fraction(p, q),
                                  Fraction(p * shift + self.coefficient * b, q * shift))
        return self._intervals[t]

    def interval(self, level: int) -> Iv:
        """EnclosureSource protocol: each refinement level adds one term."""
        return self.value_interval(self.terms + level)

    def digit_verdict(self, dset: MissingDigitSet, depth: int) -> MembershipResult:
        """Exact membership at the given depth straight off the digit stream."""
        if dset.base != self.base:
            raise InputError("digit stream base does not match the set")
        hits = 0  # the nonzero digits in the first `depth`, at e_1 < e_2 < ...
        while self.exponent(hits + 1) <= depth:
            hits += 1
        if self.coefficient not in dset.digits and hits:
            return OUT
        if hits < depth and 0 not in dset.digits:
            return OUT
        return IN


def build_sparse_number(base: int, coefficient: int, rule: ExponentRule,
                        terms: int) -> SparseDigitNumber:
    """Validated construction; builds the first truncation, which checks
    that the coefficient is coprime to the base."""
    x = SparseDigitNumber(base, coefficient, rule, terms)
    x.truncation(1)
    return x


# ---------------------------------------------------------------------------
# per-truncation verification report
# ---------------------------------------------------------------------------

class TruncationReport(Record):
    s: int
    coprime_ok: bool
    denominator_growth_ok: Optional[bool]  # (1/b) q_s^tau < q_{s+1} < b^tau q_s^tau
    gap_lo: Fraction
    gap_hi: Fraction
    gap_bounds_ok: bool                    # c/q_{s+1} < |x - p_s/q_s| < c b/(b-1)/q_{s+1}
    power_bounds_ok: Optional[bool]        # c b^-tau q_s^-tau < |x - p_s/q_s| < c b^2/(b-1) q_s^-tau
    note: str = ""

    @property
    def passes(self) -> bool:
        checks = [self.coprime_ok, self.gap_bounds_ok]
        checks += [c for c in (self.denominator_growth_ok, self.power_bounds_ok)
                   if c is not None]
        return all(checks)


def _cmp_fraction_vs_power(r: Fraction, base: int, expo: Fraction) -> int:
    """Sign of r - base**expo for r > 0 and expo = -p/u < 0: of num^u * base^p - den^u."""
    num, den, u, p = r.numerator, r.denominator, expo.denominator, -expo.numerator
    check_bits(max(u * num.bit_length() + power_bits(base, p), u * den.bit_length()),
               "gap^{}*{}^{}", u, base, p)
    lhs, rhs = num ** u * base ** p, den ** u
    return (lhs > rhs) - (lhs < rhs)


def _exponent_compare(value: int, target_coef: Fraction, tau: Real, shift: Fraction) -> int:
    """Exact sign of value - (target_coef * tau + shift) for integer value
    and nonzero target_coef: the sign of target_coef * (t - tau) with
    t = (value - shift) / target_coef."""
    side = as_enclosure(tau).cmp_rational((value - shift) / target_coef)
    return -side if target_coef > 0 else side


def truncation_report(x: SparseDigitNumber, s: int) -> TruncationReport:
    """Exact verification of the truncation inequalities at index s.

    Small s may legitimately fail the two-sided bounds (the constants only
    take over once the gaps are large enough); callers aggregate a first
    passing index rather than treating early failures as fatal.
    """
    if not 1 <= s < x.terms:
        raise InputError("need 1 <= s < terms (the report uses q_{s+1})")
    b, c = x.base, x.coefficient
    p_s, q_s = x.truncation(s)
    e_s, e_s1 = x.exponent(s), x.exponent(s + 1)
    coprime_ok = gcd(p_s, q_s) == 1

    note = ""
    growth_ok: Optional[bool] = None
    power_ok: Optional[bool] = None
    if isinstance(x.rule, PowerRule):
        tau = x.rule.tau
        # (1/b) q_s^tau < q_{s+1} < b^tau q_s^tau, in base-b exponents:
        # tau*e_s - 1 < e_{s+1} < tau*(e_s + 1)
        lower = _exponent_compare(e_s1, Fraction(e_s), tau, Fraction(-1)) > 0
        upper = _exponent_compare(e_s1, Fraction(e_s + 1), tau, Fraction(0)) < 0
        growth_ok = lower and upper
    else:
        note = "liouville-type: gaps outgrow every fixed power"

    tail = x.tail_interval(s)
    gap_lower = Fraction(c, b ** e_s1)
    gap_upper = Fraction(c * b, (b - 1) * b ** e_s1)
    gap_ok = tail[0] >= gap_lower and tail[1] <= gap_upper

    if isinstance(x.rule, PowerRule):
        tau_e = as_enclosure(x.rule.tau)
        if tau_e.is_exact:
            t = tau_e.lo
            low_cmp = _cmp_fraction_vs_power(tail[0] / c, b, -t * (e_s + 1))
            high_cmp = _cmp_fraction_vs_power(tail[1] * (b - 1) / (c * b * b), b, -t * e_s)
            power_ok = low_cmp > 0 and high_cmp < 0
        else:
            power_ok = (_power_bound_encl(tail[0] / c, b, tau_e, e_s + 1, above=True)
                        and _power_bound_encl(tail[1] * (b - 1) / (c * b * b), b, tau_e,
                                              e_s, above=False))

    return TruncationReport(s=s, coprime_ok=coprime_ok, denominator_growth_ok=growth_ok,
                            gap_lo=tail[0], gap_hi=tail[1], gap_bounds_ok=gap_ok,
                            power_bounds_ok=power_ok, note=note)


def _power_bound_encl(r: Fraction, base: int, tau_e: RealEnclosure, mult: int,
                      above: bool) -> bool:
    """Certified r > base^(-tau*mult) (above) or r < base^(-tau*mult)."""
    def side(enc: RealEnclosure) -> Optional[bool]:
        power = (rational_pow(Fraction(base), -enc.hi * mult, 96)[0],
                 rational_pow(Fraction(base), -enc.lo * mult, 96)[1])
        c = iv_cmp((r, r), power)
        return None if c is None else (c > 0) == above
    return tau_e.decide(side)


def truncation_reports(x: SparseDigitNumber) -> tuple[list[TruncationReport], Optional[int]]:
    """Reports for 1 <= s < terms plus the first index from which all pass."""
    reports = [truncation_report(x, s) for s in range(1, x.terms)]
    s_min = None
    for rep in reversed(reports):
        if rep.passes:
            s_min = rep.s
        else:
            break
    return reports, s_min


# ---------------------------------------------------------------------------
# the threshold between the exact-order and band regimes
# ---------------------------------------------------------------------------

def exceeds_exact_order_threshold(tau: Fraction) -> bool:
    """tau >= (sqrt(5) + 3)/2, decided exactly for rational tau."""
    tau = Fraction(tau)
    t = 2 * tau - 3
    return t > 0 and t * t >= 5


def te_inequality_holds(tau: Fraction, eps: Fraction) -> bool:
    """(tau - 1)(tau + eps - 1) > tau, the contradiction driver."""
    tau, eps = Fraction(tau), Fraction(eps)
    return (tau - 1) * (tau + eps - 1) > tau


def well_approximable_band(tau: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """[tau - eps, (2 tau - 1)/(tau - 1) + eps], the sub-threshold regime."""
    tau, eps = Fraction(tau), Fraction(eps)
    if tau <= 1:
        raise InputError("need tau > 1")
    return (tau - eps, (2 * tau - 1) / (tau - 1) + eps)
