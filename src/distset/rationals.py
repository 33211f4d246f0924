"""Exact rational parsing and formatting for the canonical "p/q" wire format,
the one coder between rationals and the integer codes the kernels run on,
and the reader that checks a JSON input file against a declared shape.
The reader walks the shape, never the data, so its depth is the shape's.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

RationalLike = Fraction | int | str

# [0-9], not \d: \d and int() take the digits of every script, and int()
# also '1_0'
_INTEGER = r"[+-]?[0-9]+"
_INT_RE = re.compile(_INTEGER)
_RATIONAL_RE = re.compile(rf"^({_INTEGER})(?:/({_INTEGER}))?$")

# the JSON text of None, True and False; look up nothing else, as 1 == True
JSON_LITERALS = {None: "null", True: "true", False: "false"}


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string. Decimal and float forms, and
    anything that is not a string (a JSON number, say), are rejected."""
    if not isinstance(text, str):
        raise TypeError(f"expected a 'p/q' string, got {text!r}")
    return Fraction(*_split(text))


def parse_int(text: str) -> int:
    """An integer as parse_rational reads a numerator: sign, ASCII digits."""
    if _INT_RE.fullmatch(text.strip()) is None:
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


def _split(text: str) -> tuple[int, int]:
    """(p, q) as written in text, q nonzero; parse_rational's errors."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return num, den


def format_rational(x: Fraction) -> str:
    """Canonical form: lowest terms, "p/q", integers printed without the "/1"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, canonical strings, and Fractions. Floats are never accepted."""
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(p, q) in lowest terms with q > 0 for what rat accepts, with rat's
    errors, and no Fraction made."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, (Fraction, int)):
        return value.numerator, value.denominator
    if isinstance(value, str):
        p, q = _split(value)
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        return p // g, q // g
    raise TypeError(f"not an exact rational: {value!r}")


# equal entries of these exact types are equal rationals; a bool or a float
# can equal an int and still be refused
_EXACT = frozenset({int, str, Fraction})


def _codes(rows: Sequence[Iterable[RationalLike]]) -> tuple[int, list[list[int]]]:
    """(L, the rows times L as ints), L the lcm of every denominator in the rows.

    Rows may differ in length and hold ints, Fractions or "p/q" strings. A
    faulty entry raises rat's error for the first fault in row-major order.
    When there are strings, each distinct entry is read once, by _ratio, in
    order of first appearance. Scaling by L > 0 is strictly monotone and
    linear, so the codes keep every <, == and sum of the rationals, and with
    them every triangle, Katetov and 4-values verdict, every sort order, and
    every witness a kernel reports.
    """
    kinds = set(map(type, chain.from_iterable(rows)))
    if not _EXACT.issuperset(kinds):
        for value in chain.from_iterable(rows):
            _ratio(value)
    if str not in kinds:
        scale = lcm(*{v.denominator for row in rows for v in row})
        return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    ratio = {v: _ratio(v) for v in dict.fromkeys(chain.from_iterable(rows))}
    scale = lcm(*(q for _, q in ratio.values()))
    code = {v: p * (scale // q) for v, (p, q) in ratio.items()}
    return scale, [list(map(code.__getitem__, row)) for row in rows]


def _joint(*coded: tuple[int, Sequence[Sequence[int]]]) -> tuple[int, list]:
    """Codes made on several scales, brought to one: (J, the rows of each
    (L, rows) times J // L), J the lcm of the scales. Exact, as _codes."""
    scale = lcm(*(l for l, _ in coded))
    return scale, [
        rows if l == scale else [list(map((scale // l).__mul__, row)) for row in rows]
        for l, rows in coded
    ]


def _per_code(rows: Sequence[Sequence[int]], make) -> list[list]:
    """The rows with each entry c, a code or a Fraction, replaced by make(c),
    called once per distinct entry."""
    value_of = {c: make(c) for c in set(chain.from_iterable(rows))}
    return [list(map(value_of.__getitem__, row)) for row in rows]


def _decoded(rows: Sequence[Sequence[int]], scale: int) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse of _codes: the rows of codes over scale as Fractions."""
    return tuple(map(tuple, _per_code(rows, lambda c: Fraction(c, scale))))


def _formatted(rows: Sequence[Sequence[int]], scale: int) -> list[list[str]]:
    """The rows of codes over scale as canonical "p/q" strings."""
    return _per_code(rows, lambda c: format_rational(Fraction(c, scale)))


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


def _read(value, shape, where):
    """`where` names the value in messages: a str, or (noun, i, where of
    the list) for entry i of a list, which _place turns into text only when
    a fault is raised."""
    if isinstance(shape, ListOf):
        item = shape.item
        leaves = isinstance(item, Leaf)
        if (
            type(value) is not list
            or shape.length not in (None, len(value))
            or (leaves and item.types is not None and not item.types.issuperset(map(type, value)))
        ):
            count = f"{shape.length} " if shape.length else ""
            raise _Misfit(f"{_place(where)} must be a list of {count}{shape.noun}s")
        if leaves:
            return tuple(map(parse_rational, value) if item.rational else value)
        read = []
        for i, entry in enumerate(value):
            try:
                read.append(_read(entry, item, (shape.noun, i, where)))
            except _Misfit as exc:
                raise _Misfit(f"bad {shape.noun} entry {entry!r}: {exc}") from None
        return tuple(read)
    if isinstance(shape, Leaf):
        if shape.types is not None and type(value) not in shape.types:
            raise _Misfit(f"{_place(where)} must be {shape.a}")
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


def _place(where) -> str:
    """The text of a location _read was given."""
    if type(where) is str:
        return where
    noun, i, outer = where
    return f"{noun} {i} of {_place(outer)}"
