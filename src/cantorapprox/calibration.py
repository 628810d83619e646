"""Calibration constants measured empirically at build time.

Regenerate with scripts/run_calibration.py; the values are empirical
envelopes over the committed test grid, not claims about the sharp
constants of the underlying inequalities.
"""

from fractions import Fraction

# max rho over all pairs 1 <= m < n <= 10 of the pairwise quasi-independence
# scan, unit window, coprime centers, psi(r) = r^-tau for tau in {2, 3}.
C_FIX = Fraction(1)

# envelope of mu(layer) / (mu(B) * (psi(b^n) b^n)^gamma) over t0 < n <= 12,
# unit window, coprime centers; keyed by tau.  For tau in {2, 3} the ratio
# is exactly 1 at every tested level; for tau = 3/2 the measured range is
# [1/sqrt(2), 1], recorded with a safely rounded lower endpoint.
MU_RATIO_ENVELOPE = {
    Fraction(3, 2): (Fraction(7, 10), Fraction(1)),
    Fraction(2): (Fraction(1), Fraction(1)),
    Fraction(3): (Fraction(1), Fraction(1)),
}
