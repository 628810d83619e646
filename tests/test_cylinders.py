"""The integer box count and natural cover check against their oracles."""

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorapprox import (InputError, MissingDigitSet, PrecisionError, RatInterval,
                          box_dimension_estimate, full_cover_check, layers)

from oracles import box_count, full_cover_closed_form, full_cover_fraction_balls

# both outer digits, 0 alone, b - 1 alone (its centers sit at the right
# ends of the cylinders), and neither
SETS = [MissingDigitSet(3, (0, 2)), MissingDigitSet(4, (0, 3)),
        MissingDigitSet(5, (0, 2, 3)), MissingDigitSet(5, (1, 4)),
        MissingDigitSet(5, (1, 3)), MissingDigitSet(6, (1, 2, 4)),
        MissingDigitSet(4, (1, 2))]
TAUS = [F(1), F(4, 3), F(3, 2), F(2), F(5, 2), F(3)]
PRIMES = [2, 3, 5, 7, 11, 13]


def _outcome(fn, *args):
    """fn(*args), or the type of the PrecisionError or InputError it raised."""
    try:
        return fn(*args)
    except (PrecisionError, InputError) as exc:
        return type(exc)


def _count(dset, tau, n, coprime):
    return box_dimension_estimate(dset, tau, n, coprime).count


@given(st.sampled_from(SETS), st.sampled_from(TAUS), st.integers(min_value=1, max_value=6),
       st.booleans())
@settings(max_examples=120, deadline=None)
def test_box_count_matches_the_per_cell_oracle(dset, tau, n, coprime):
    want = _outcome(box_count, dset, tau, n, coprime)
    if want == 0:
        want = InputError  # the layer misses every cell
    assert _outcome(_count, dset, tau, n, coprime) == want


def test_radius_straddling_a_cell_boundary_is_a_precision_error():
    # at tau = 2, n = 2 the radius is 1/81, exactly one level-4 cell: an
    # enclosure around it leaves the outermost cells of each ball undecided
    eps = F(1, 10 ** 6)
    straddle = (F(1, 81) - eps, F(1, 81) + eps)
    K = MissingDigitSet.middle_thirds()
    with mock.patch.object(layers, "rational_pow", return_value=straddle):
        with pytest.raises(PrecisionError):
            box_dimension_estimate(K, F(2), 2, coprime=True)
        with pytest.raises(PrecisionError):
            box_count(K, F(2), 2, True)


@st.composite
def cover_case(draw):
    """A set, a level and a window whose ends have denominators that are
    primes, powers of the base, or their products."""
    dset = draw(st.sampled_from(SETS))
    n = draw(st.integers(min_value=1, max_value=6))
    ends = []
    for _ in range(2):
        prime = draw(st.sampled_from([1] + PRIMES))
        power = dset.base ** draw(st.integers(min_value=0, max_value=n + 1))
        den = prime * power if prime * power > 1 else draw(st.sampled_from(PRIMES))
        ends.append(F(draw(st.integers(min_value=0, max_value=den)), den))
    return dset, n, RatInterval.make(min(ends), max(ends))


@given(cover_case())
@settings(max_examples=150, deadline=None)
def test_full_cover_matches_the_fraction_ball_oracle(case):
    dset, n, window = case
    assert full_cover_check(dset, n, window) == full_cover_fraction_balls(dset, n, window)


@given(cover_case())
@settings(max_examples=150, deadline=None)
def test_full_cover_matches_its_closed_form(case):
    dset, n, window = case
    assert full_cover_check(dset, n, window) == full_cover_closed_form(dset, window)
