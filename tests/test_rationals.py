"""Wire-format parsing and formatting of exact rationals."""

from fractions import Fraction

import pytest

from distset.rationals import format_rational, parse_rational, rat


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
    "bad", ["", "1.5", "1e3", "a/b", "1/2/3", "/2", "3/", "nan", "0x1"]
)
def test_parse_rejects_non_rational_text(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [0, 1, -2, 0.5, None, True, [1], {"p": 1}])
def test_parse_rejects_non_strings(bad):
    # JSON numbers and other non-strings are a TypeError, not an AttributeError
    with pytest.raises(TypeError, match=r"^expected a 'p/q' string, got "):
        parse_rational(bad)


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
