"""Exact rational parsing and formatting for the canonical "p/q" wire format,
and the reader that checks a JSON input file against a declared shape.
The reader walks the shape, never the data, so its depth is the shape's.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

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


class Leaf(NamedTuple):
    """A value the reader does not walk into, of one of the exact `types`
    (so a bool is no int; None for any type), read by parse_rational when
    `rational`, else kept; `a` names one in messages. A flag, not a function:
    perfbench/tracer.py swaps the public functions it finds in tuples of
    module-level dicts, and declarations are such dicts."""

    types: frozenset | None
    rational: bool = False
    a: str = ""


class ListOf(NamedTuple):
    """A list of `item`s, exactly `length` of them if given; `noun` names
    one entry. A list of leaves is checked whole, at C level."""

    item: Leaf | ListOf | dict
    noun: str
    length: int | None = None


INT = Leaf(frozenset({int}), a="an integer")
RATIONAL = Leaf(None, rational=True)


class _Misfit(Exception):
    """A structural fault, before the file kind is put in front."""


def read_shape(data, shape: Leaf | ListOf | dict, kind: str):
    """Check loaded JSON against `shape`, where a dict stands for an object
    with exactly its keys, and return it with lists as tuples and leaves
    parsed. A structural fault raises ValueError("<kind> file: ..."), and
    parse_rational's own errors pass through unchanged.
    """
    try:
        return _read(data, shape, "the file")
    except _Misfit as exc:
        raise ValueError(f"{kind} file: {exc}") from None


def _read(value, shape, where: str):
    """`where` names the value in messages."""
    if isinstance(shape, ListOf):
        item = shape.item
        leaves = isinstance(item, Leaf)
        if (
            type(value) is not list
            or shape.length not in (None, len(value))
            or (leaves and item.types is not None and not item.types.issuperset(map(type, value)))
        ):
            count = f"{shape.length} " if shape.length else ""
            raise _Misfit(f"{where} must be a list of {count}{shape.noun}s")
        if leaves:
            return tuple(map(parse_rational, value) if item.rational else value)
        read = []
        for i, entry in enumerate(value):
            try:
                read.append(_read(entry, item, f"{shape.noun} {i} of {where}"))
            except _Misfit as exc:
                raise _Misfit(f"bad {shape.noun} entry {entry!r}: {exc}") from None
        return tuple(read)
    if isinstance(shape, Leaf):
        if shape.types is not None and type(value) not in shape.types:
            raise _Misfit(f"{where} must be {shape.a}")
        return parse_rational(value) if shape.rational else value
    if type(value) is not dict or value.keys() != shape.keys():
        keys = ", ".join(shape)
        raise _Misfit(f"expected an object with the keys {keys} (exactly the keys, no others)")
    # the list fields are checked, and named, together
    lists = [key for key, sub in shape.items() if isinstance(sub, ListOf)]
    if any(type(value[key]) is not list for key in lists):
        *most, last = map(repr, lists)
        names = f"{', '.join(most)} and {last}" if most else last
        raise _Misfit(f"{names} must be {'lists' if most else 'a list'}")
    return {key: _read(value[key], sub, repr(key)) for key, sub in shape.items()}
