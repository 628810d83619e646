"""Closed rational subintervals of [0,1] and finite disjoint unions of them.

`RatInterval` is the validated value used at API boundaries.  The union
walks `merge_pairs` and `intersect_unions` only compare and copy
endpoints, so they take (lo, hi) pairs of any totally ordered values:
Fractions in `digitsets`, and in `layers` integer numerators over one
common denominator (the layer's grid), each paired with its CDF value as
an (x, cdf) tuple that orders by x.  Single points carry no mass for any
of the measures here, so merging intervals that merely touch is always
measure-safe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, TypeVar

from .errors import InputError
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
            raise InputError(f"invalid interval [{self.lo}, {self.hi}]")

    @staticmethod
    def make(lo, hi) -> "RatInterval":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise InputError("interval with lo > hi")
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


def clip_union(pairs: Sequence[Pair], window: Pair) -> list[Pair]:
    return intersect_unions(pairs, [window])


def total_length(pairs: Sequence[Pair]) -> Fraction:
    return sum((hi - lo for lo, hi in pairs), _ZERO)
