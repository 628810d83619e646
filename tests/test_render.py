"""Report rendering against its references: json.dumps for the report
writer, and the digit-count exponent search of `oracles.decimal_str`."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorapprox import render
from cantorapprox.errors import ResourceBudgetError
from oracles import decimal_str

# non-ASCII, control characters, DEL, quote and backslash, a lone surrogate
# and astral code points, beside whatever st.characters draws
CHARS = st.sampled_from("a \x00\x08\x1f\x7f\x80\"\\\n\té \ud800\U0001f600\U0010ffff") \
    | st.characters()
SCALARS = st.none() | st.booleans() | st.integers() | st.text(CHARS, max_size=8)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(CHARS, max_size=6), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_report_writer_matches_json_dumps(value):
    text = render.dump_report(value)
    assert text == json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert text.isascii()


def test_report_writer_refuses_an_integer_past_the_print_limit():
    with pytest.raises(ResourceBudgetError, match="int-to-str limit"):
        render.dump_report({"q": [10 ** sys.get_int_max_str_digits()]})


def test_csv_of_no_rows_is_an_empty_line():
    assert render.dump_csv([]) == "\n"


# values around the carry 9.99...95 -> 10.0, at exponents inside and outside
# the positional range [-6, 17]
CARRIES = st.builds(lambda m, k, d, s: s * (Fraction(10 ** m - d, 10 ** m) * Fraction(10) ** k),
                    st.integers(13, 20), st.integers(-30, 30), st.integers(0, 60),
                    st.sampled_from([1, -1]))
FRACTIONS = st.builds(lambda n, d, k: Fraction(n, d) * Fraction(10) ** k,
                      st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40),
                      st.integers(-40, 40))
POWERS = st.builds(lambda n, d, k: Fraction(n, d) * Fraction(2) ** k,
                   st.integers(-99, 99), st.integers(1, 99), st.integers(-3000, 3000))


@settings(max_examples=500, deadline=None)
@given(FRACTIONS | CARRIES | POWERS | st.integers(-10 ** 30, 10 ** 30))
def test_decimal_str_matches_the_digit_count_search(x):
    assert render.decimal_str(x) == decimal_str(x)


@pytest.mark.parametrize("x, text", [
    (Fraction(0), "0"),
    (Fraction(-1, 3), "-0.333333333333333"),
    (Fraction(10 ** 16 - 1, 10 ** 15), "10.0000000000000"),
    (Fraction(-(10 ** 16 - 1), 10 ** 22), "-0.00000100000000000000"),
    (Fraction(10 ** 16 - 1, 10 ** 23), "1.00000000000000e-7"),
    (Fraction(10 ** 17), "100000000000000000"),
    (Fraction(10 ** 18 - 1), "1.00000000000000e18"),
    (Fraction(1, 3 * 10 ** 40), "3.33333333333333e-41"),
])
def test_decimal_str_examples(x, text):
    assert render.decimal_str(x) == decimal_str(x) == text
