"""Report rendering against its references: json.dumps for the report
writer, the value renderers applied by hand for the numbers a handler
returns, and the digit-count exponent search of `oracles.decimal_str`."""

import json
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorapprox import render
from cantorapprox.digitsets import CantorMeasureValue
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


RATIONALS = st.fractions(max_denominator=10 ** 30)
UNIT = st.fractions(0, 1, max_denominator=10 ** 6)
# (a value a handler returns, the plain value json.dumps writes alike)
NUMBERS = (RATIONALS.map(lambda x: (x, render.rational_json(x)))
           | st.tuples(RATIONALS, RATIONALS).map(
               lambda iv: (render.Value(iv), render.value_json(iv)))
           | st.tuples(UNIT, UNIT).map(sorted).map(
               lambda iv: (CantorMeasureValue(*iv), render.value_json(tuple(iv))))
           | st.integers(-10 ** 40, 10 ** 40).map(lambda n: (render.Digits(n), str(n)))
           | SCALARS.map(lambda x: (x, x)))


def _unzip(pairs):
    return [a for a, _ in pairs], [b for _, b in pairs]


TAGGED = st.recursive(
    NUMBERS,
    lambda inner: (st.lists(inner, max_size=4).map(_unzip)
                   | st.lists(inner, max_size=3).map(_unzip).map(
                       lambda ab: (tuple(ab[0]), tuple(ab[1])))
                   | st.dictionaries(st.text(CHARS, max_size=6), inner, max_size=4).map(
                       lambda d: ({k: a for k, (a, _) in d.items()},
                                  {k: b for k, (_, b) in d.items()}))),
    max_leaves=24)


@settings(max_examples=100, deadline=None)
@given(TAGGED)
def test_report_writer_renders_each_number_as_its_json_form(pair):
    value, plain = pair
    assert render.dump_report(value) == json.dumps(plain, sort_keys=True, indent=2) + "\n"


CELLS = (RATIONALS.map(lambda x: (x, render.value_csv(x)))
         | st.tuples(RATIONALS, RATIONALS).map(
             lambda iv: (render.Value(iv), render.value_csv(iv)))
         | st.tuples(UNIT, UNIT).map(sorted).map(
             lambda iv: (CantorMeasureValue(*iv), render.value_csv(tuple(iv))))
         | st.integers().map(lambda n: (n, render.int_str(n)))
         | st.integers().map(lambda n: (render.Digits(n), render.int_str(n)))
         | st.lists(st.integers(1, 10 ** 20), min_size=1, max_size=4).map(
             lambda ks: (ks, ";".join(map(str, ks))))
         | st.floats(allow_nan=False).map(lambda x: (x, str(x)))
         | st.booleans().map(lambda x: (x, str(x))))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(st.lists(CELLS, min_size=k, max_size=k),
                                                    min_size=1, max_size=4)))
def test_csv_writes_each_cell_by_its_value_kind(table):
    rows = [{f"c{i}": cell for i, (cell, _) in enumerate(row)} for row in table]
    lines = [",".join(rows[0])] + [",".join(text for _, text in row) for row in table]
    assert render.dump_csv(rows) == "\n".join(lines) + "\n"


def test_report_writer_refuses_an_integer_past_the_print_limit():
    with pytest.raises(ResourceBudgetError, match="int-to-str limit"):
        render.dump_report({"q": [10 ** sys.get_int_max_str_digits()]})


# under the least int-to-str limit, 640 digits, 3.3 * 640 = 2,112 bits: an
# integer up to that size is not tested, one past it is printed once, and
# 10^640, of 2,127 bits, is refused as `int_str` refuses it
@pytest.mark.parametrize("n, printed", [(2 ** 2112 - 1, False), (2 ** 2112, True),
                                        (10 ** 640 - 1, True), (10 ** 640, True)])
def test_check_int_tests_only_past_its_bit_bound(n, printed):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with mock.patch.object(render, "int_str", wraps=render.int_str) as int_str:
            if n < 10 ** 640:
                assert render.check_int(n) is n
            else:
                with pytest.raises(ResourceBudgetError,
                                   match="^the report holds an integer of more than 640 "
                                         "digits, the int-to-str limit$"):
                    render.check_int(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert int_str.called == printed


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
