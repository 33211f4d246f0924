"""Wire-format parsing and formatting of exact rationals, and the coder
between rationals and integer codes."""

import re
from fractions import Fraction
from itertools import chain, product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from distset.errors import FourValuesFails
from distset.metric_preserving import slope_construction
from distset.rationals import _codes, _decoded, _joint, format_rational, parse_int, parse_rational, rat
from distset.urysohn import enumerate_spaces_up_to_isometry, urysohn_stage


def test_parse_plain_integers():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("0") == Fraction(0)


def test_parse_fraction_reduces():
    assert parse_rational("2/6") == Fraction(1, 3)
    assert parse_rational("4/2") == Fraction(2)


def test_parse_tolerates_surrounding_whitespace():
    assert parse_rational("  9/8 ") == Fraction(9, 8)


@pytest.mark.parametrize(
    "bad", ["", "1.5", "1e3", "a/b", "1/2/3", "/2", "3/", "nan", "0x1", "\u0663/\u0664", "\uff13"]
)
def test_parse_rejects_non_rational_text(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [0, 1, -2, 0.5, None, True, [1], {"p": 1}])
def test_parse_rejects_non_strings(bad):
    # JSON numbers and other non-strings are a TypeError, not an AttributeError
    with pytest.raises(TypeError, match=r"^expected a 'p/q' string, got "):
        parse_rational(bad)


@pytest.mark.parametrize("text, value", [("7", 7), ("-3", -3), ("+4", 4), (" 5 ", 5), ("007", 7)])
def test_parse_int_reads_signed_ascii_digits(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("bad", ["", " ", "x", "1.5", "1/1", "0x10", "5 6", "1_0", "\u0663", "\uff13"])
def test_parse_int_rejects_what_is_no_ascii_integer(bad):
    # int() takes the last three: '1_0' as 10, Arabic-Indic and fullwidth 3 as 3
    with pytest.raises(ValueError, match=re.escape(f"malformed integer {bad!r}")):
        parse_int(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_format_round_trips_canonical_forms():
    for text in ["0", "5", "-7/3", "22/7", "33/32"]:
        assert format_rational(parse_rational(text)) == text


def test_format_drops_unit_denominator():
    assert format_rational(Fraction(8, 4)) == "2"


def test_rat_coerces_int_str_fraction():
    assert rat(3) == Fraction(3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)


def test_rat_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(TypeError):
        rat(None)


# --- the coder ------------------------------------------------------------------

VALUES = st.integers(-30, 30) | st.fractions(min_value=-30, max_value=30, max_denominator=24)
ROWS = st.lists(st.lists(VALUES, max_size=4), max_size=4)  # ragged, ints and Fractions


@settings(deadline=None)
@given(ROWS, st.integers(1, 6))
def test_codes_round_trip_and_keep_order_equality_and_sums(rows, multiple):
    scale, codes = _codes(rows)
    assert scale == lcm(*(v.denominator for v in chain.from_iterable(rows)))
    assert [len(row) for row in codes] == [len(row) for row in rows]
    assert all(type(c) is int for c in chain.from_iterable(codes))
    decoded = _decoded(codes, scale)
    assert decoded == tuple(map(tuple, rows))
    assert all(type(v) is Fraction for v in chain.from_iterable(decoded))

    pairs = list(zip(chain.from_iterable(rows), chain.from_iterable(codes)))
    for (x, cx), (y, cy) in product(pairs, repeat=2):
        assert (x < y) == (cx < cy) and (x == y) == (cx == cy)
        for z, cz in pairs:
            assert (x + y < z) == (cx + cy < cz) and (x + y == z) == (cx + cy == cz)

    # moved by _joint to a multiple of the lcm, every code scales by the same factor
    wide, (wide_codes, _) = _joint((scale, codes), (scale * multiple, []))
    assert wide == scale * multiple
    assert wide_codes == [[c * multiple for c in row] for row in codes]
    assert _decoded(wide_codes, wide) == decoded


def test_slope_dedupes_a_pool_that_repeats_values():
    F = Fraction
    pool = (F(13, 8), F(5, 4), F(3, 2), F(5, 4), F(13, 8))
    want = slope_construction(F(1), F(2), (F(3), F(2)), set(pool))
    assert slope_construction(F(1), F(2), (F(3), F(2)), pool) == want


def test_stage_and_class_listing_accept_int_values():
    stage = urysohn_stage((0, 1, 2), 20, 3, 2)
    assert stage == urysohn_stage(tuple(map(Fraction, (0, 1, 2))), 20, 3, 2)
    assert all(type(v) is Fraction for row in stage.space.dist for v in row)
    spaces = enumerate_spaces_up_to_isometry({0, 1, 2}, 3)
    assert spaces == enumerate_spaces_up_to_isometry({Fraction(v) for v in (0, 1, 2)}, 3)
    assert all(type(v) is Fraction for space in spaces for row in space.dist for v in row)
    # the witness is decoded to Fractions, whatever the input's type
    witness = "(Fraction(1, 1), Fraction(1, 1), Fraction(2, 1), Fraction(4, 1), Fraction(2, 1))"
    with pytest.raises(FourValuesFails, match=re.escape(witness)):
        urysohn_stage((0, 1, 2, 4), 10, 2, 1)
