"""Exact rational parsing and formatting for the canonical "p/q" wire format."""

from __future__ import annotations

import re
from fractions import Fraction

RationalLike = Fraction | int | str

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string. Decimal and float forms, and
    anything that is not a string (a JSON number, say), are rejected."""
    if not isinstance(text, str):
        raise TypeError(f"expected a 'p/q' string, got {text!r}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """Canonical form: lowest terms, "p/q", integers printed without the "/1"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, canonical strings, and Fractions. Floats are never accepted."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")
