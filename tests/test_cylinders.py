"""The integer box count and natural cover check against their oracles."""

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cantorapprox import (InputError, MissingDigitSet, PrecisionError, RatInterval,
                          box_dimension_estimate, build_layer,
                          cantor_measure, full_cover_check, layer_measure, layers)

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


# tau = 50/3 reaches counting grids b^L past 2^128 (L = 100 at n = 6, 134
# at n = 8), where the radius b^(-tau n) on the 2^-128 grid decides no cell
# range: the oracle takes floor(b^(L - tau n)) exactly there
@given(st.sampled_from(SETS), st.one_of(st.tuples(st.sampled_from(TAUS), st.integers(1, 6)),
                                       st.tuples(st.just(F(50, 3)), st.integers(1, 8))),
       st.booleans())
@settings(max_examples=150, deadline=None)
@example(MissingDigitSet(5, (1, 4)), (F(1), 1), True)  # one cell, so an estimate of 0
@example(MissingDigitSet(6, (1, 2, 4)), (F(50, 3), 8), True)
def test_box_count_matches_the_per_cell_oracle(dset, case, coprime):
    tau, n = case
    level = -((-tau * n).__floor__())
    want = _outcome(box_count, dset, tau, n, coprime, dset.base ** level > 2 ** 128)
    if want == 0:
        want = InputError  # the layer misses every cell
    assert _outcome(_count, dset, tau, n, coprime) == want


def test_radius_straddling_a_cell_boundary_is_a_precision_error():
    # at tau = 2, n = 2 the radius is 1/81, exactly one level-4 cell, so
    # b^(L - tau n) = 1: an enclosure around 1 leaves the outermost cells of
    # each ball undecided, for the library, which reads it as b^(L - tau n),
    # and for the oracle, which reads it as the radius b^(-tau n)
    eps = F(1, 10 ** 6)
    straddle = (1 - eps, 1 + eps)
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


@given(cover_case())
@settings(max_examples=150, deadline=None)
def test_natural_cover_is_the_layer_of_psi_one_over_r(case):
    """The natural cover is the layer of psi(r) = 1/r over all centers, so
    `full_cover_check` holds exactly when that layer has the window's measure."""
    dset, n, window = case
    assume(window.lo < window.hi)
    layer = build_layer(dset, (F(1, dset.base ** n),) * 2, n, window, False)
    covers = layer_measure(layer).lo == cantor_measure(dset, window).value
    assert full_cover_check(dset, n, window) == covers
