#!/usr/bin/env python3
"""Exponent-estimate survey for the sparse-digit numbers.

Builds the base-3 coefficient-2 sparse number for a list of tau values,
expands a certified continued fraction, and tabulates the finite-window
irrationality-exponent estimate beside the two theoretical anchors: the
exact order tau (attained at and above (sqrt5+3)/2 ~ 2.618) and the band
ceiling (2 tau - 1)/(tau - 1) that governs below it.
"""

import argparse
import sys
from fractions import Fraction as F

from cantorapprox import (PowerRule, build_sparse_number,
                          continued_fraction_expand,
                          exceeds_exact_order_threshold,
                          irrationality_exponent_estimate)


def survey(taus, terms, depth, min_q):
    rows = []
    for tau in taus:
        xi = build_sparse_number(3, 2, PowerRule(tau), terms)
        cf = continued_fraction_expand(xi, depth)
        est = irrationality_exponent_estimate(cf, min_denominator=min_q)
        ceiling = (2 * tau - 1) / (tau - 1)
        rows.append({
            "tau": str(tau),
            "regime": "exact-order" if exceeds_exact_order_threshold(tau) else "band",
            "estimate_lo": f"{float(est.lo):.6f}",
            "estimate_hi": f"{float(est.hi):.6f}",
            "band_ceiling": f"{float(ceiling):.6f}",
            "cf_certified_depth": cf.certified_depth,
        })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--taus", default="11/5,5/2,27/10,3,7/2")
    ap.add_argument("--terms", type=int, default=6)
    ap.add_argument("--depth", type=int, default=120)
    ap.add_argument("--min-q", type=int, default=50)
    args = ap.parse_args()
    taus = [F(t) for t in args.taus.split(",")]
    rows = survey(taus, args.terms, args.depth, args.min_q)
    cols = ["tau", "regime", "estimate_lo", "estimate_hi", "band_ceiling",
            "cf_certified_depth"]
    sys.stdout.write(",".join(cols) + "\n")
    for r in rows:
        sys.stdout.write(",".join(str(r[c]) for c in cols) + "\n")


if __name__ == "__main__":
    main()
