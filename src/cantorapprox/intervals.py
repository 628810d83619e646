"""Closed rational subintervals of [0,1], finite disjoint unions of them,
and the continued-fraction prefix intervals.

`RatInterval` is the validated value used at API boundaries.  The union
walks `merge_pairs` and `intersect_unions` only compare and copy
endpoints, so they take (lo, hi) pairs of any totally ordered values:
Fractions in `digitsets`, and integer numerators over one common
denominator (a layer's grid), each paired with the integer numerator of
its CDF value over the layer's CDF denominator as an (x, cdf) tuple that
orders by x, in `layers.build_layer`, which merges and clips a level's
balls, and in `layers.union_measure`, which merges the unions of several
layers.  Single points carry no mass for any of the measures here, so
merging intervals that merely touch is always measure-safe.

`PrefixInterval` is the half-open interval of the numbers in (0,1)
whose continued fraction starts with given quotients; its endpoints are
the last convergent and the mediant with the one before.  It lives here,
not in `contfrac`, so that `cf-interval` loads no enclosure code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, TypeVar

from .errors import InputError, text
from .records import Record

Pair = tuple[Fraction, Fraction]
E = TypeVar("E")  # a union endpoint: any totally ordered value

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RatInterval(Record):
    """Closed interval [lo, hi] with 0 <= lo <= hi <= 1."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (_ZERO <= self.lo <= self.hi <= _ONE):
            lo, hi = (text(x.numerator) if x.denominator == 1 else
                      f"{text(x.numerator)}/{text(x.denominator)}" for x in (self.lo, self.hi))
            raise InputError(f"invalid interval [{lo}, {hi}]")

    @staticmethod
    def make(lo, hi) -> "RatInterval":
        """[lo, hi] clipped to [0, 1]; one wholly outside is checked as given."""
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise InputError("interval with lo > hi")
        if hi < _ZERO or lo > _ONE:
            return RatInterval(lo, hi)  # which its check refuses
        return RatInterval(max(lo, _ZERO), min(hi, _ONE))

    @staticmethod
    def unit() -> "RatInterval":
        return RatInterval(_ZERO, _ONE)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def radius(self) -> Fraction:
        return self.length / 2

    def pair(self) -> Pair:
        return (self.lo, self.hi)


def merge_pairs(pairs: Iterable[tuple[E, E]]) -> list[tuple[E, E]]:
    """Sorted disjoint union of closed intervals (touching intervals merge)."""
    items = sorted(p for p in pairs if p[0] <= p[1])
    merged: list[tuple[E, E]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def intersect_unions(a: Sequence[tuple[E, E]],
                     b: Sequence[tuple[E, E]]) -> list[tuple[E, E]]:
    """Pairwise intersection of two sorted disjoint unions."""
    out: list[tuple[E, E]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def clip_union(pairs: Sequence[tuple[E, E]], window: tuple[E, E]) -> list[tuple[E, E]]:
    return intersect_unions(pairs, [window])


def total_length(pairs: Sequence[Pair]) -> Fraction:
    return sum((hi - lo for lo, hi in pairs), _ZERO)


# ---------------------------------------------------------------------------
# continued-fraction prefix intervals
# ---------------------------------------------------------------------------

def convergents_from_quotients(quotients: Sequence[int]) -> tuple[tuple[int, int], ...]:
    p_prev, q_prev = 1, 0   # (p_-1, q_-1)
    p_cur, q_cur = 0, 1     # (p_0, q_0) for a_0 = 0
    out = []
    for a in quotients:
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        out.append((p_cur, q_cur))
    return tuple(out)


class PrefixInterval(Record):
    """All x in (0,1) whose continued fraction starts with the given quotients.

    One endpoint (the final convergent itself) is included, the other
    (the mediant with the previous convergent) is excluded; which side is
    which depends on the parity of the prefix length.
    """

    quotients: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool


def cf_prefix_interval(quotients: Sequence[int]) -> PrefixInterval:
    qs = tuple(int(a) for a in quotients)
    if not qs or any(a < 1 for a in qs):
        raise InputError("quotients must be positive integers")
    convs = convergents_from_quotients(qs)
    p_n, q_n = convs[-1]
    p_prev, q_prev = convs[-2] if len(convs) >= 2 else (0, 1)
    anchor = Fraction(p_n, q_n)
    mediant = Fraction(p_n + p_prev, q_n + q_prev)
    if anchor <= mediant:
        return PrefixInterval(qs, anchor, mediant, True, False)
    return PrefixInterval(qs, mediant, anchor, False, True)
