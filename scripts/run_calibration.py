#!/usr/bin/env python3
"""Regenerate the empirical calibration constants.

Prints the measured values for tests/calibration.py, the empirical
bounds that the layer and acceptance tests check: the quasi-independence
cap over the committed pair grid and the layer/comparator ratio envelope
per tau.  Run after any change to the layer or measure machinery and
update tests/calibration.py if the numbers move.
"""

import time
from fractions import Fraction as F

from cantorapprox import (ApproxFunction, MissingDigitSet, RatInterval, build_layer,
                          layer_comparator, layer_measure, quasi_independence_scan,
                          window_t0)
from cantorapprox.enclosures import iv_div

K = MissingDigitSet.middle_thirds()
UNIT = RatInterval.unit()


def scan_c_fix():
    worst = F(0)
    for tau in (2, 3):
        started = time.monotonic()
        rep = quasi_independence_scan(K, ApproxFunction.power(tau), UNIT, 10)
        hi = max(r.rho[1] for r in rep.rows)
        print(f"  tau={tau}: max rho = {hi} ({time.monotonic() - started:.1f}s, "
              f"{len(rep.rows)} pairs)")
        worst = max(worst, hi)
    print(f"C_FIX candidate: {worst}")


def scan_envelope():
    for tau in (F(3, 2), F(2), F(3)):
        psi = ApproxFunction.power(tau)
        lo_env = hi_env = None
        for n in range(window_t0(UNIT, 3) + 1, 13):
            mu = layer_measure(build_layer(K, psi, n, UNIT, coprime=True))
            ratio = iv_div((mu.lo, mu.hi), layer_comparator(K, psi, n, F(1)))
            lo_env = ratio[0] if lo_env is None else min(lo_env, ratio[0])
            hi_env = ratio[1] if hi_env is None else max(hi_env, ratio[1])
        print(f"  tau={tau}: ratio envelope [{float(lo_env):.6f}, {float(hi_env):.6f}]"
              f"  exact lo={lo_env}")


if __name__ == "__main__":
    print("quasi-independence cap (pairs 1 <= m < n <= 10):")
    scan_c_fix()
    print("layer/comparator ratio envelope (t0 < n <= 12):")
    scan_envelope()
