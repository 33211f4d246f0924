"""Symbolic descriptions of distance sets with exactly decidable structure.

A description is a finite union of components: a finite set of rationals, a
geometric sequence running down to 0 or up to infinity, an interval [0, b] or
[0, b), or the rationals inside [a, b]. Every structural predicate used by
the classifier (membership, countability, closedness, well-spacedness,
accumulation structure) is computed in closed form from the components, so no
verdict ever rests on sampling or approximation.

Each kind is one row of the _KINDS table, which maps its wire name to its
dataclass: DistanceSetDesc accepts only the table's classes, and the JSON
reader and writer walk a kind's dataclass fields, so a new kind is one row
plus its closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from math import floor, log
from typing import Iterator, Union

from .errors import InvalidDescription, UnsupportedDescription
from .rationals import format_rational, parse_rational

ZERO = Fraction(0)
TWO = Fraction(2)


@dataclass(frozen=True)
class FiniteSet:
    """A finite set of nonnegative rationals, stored sorted."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidDescription("finite component needs at least one value")
        if any(v < 0 for v in self.values):
            raise InvalidDescription("finite component values must be >= 0")
        object.__setattr__(self, "values", tuple(sorted(set(self.values))))


@dataclass(frozen=True)
class GeomDown:
    """{ r0 * q^n : n >= 0 } with 0 < q < 1; accumulates at 0, max r0."""

    r0: Fraction
    q: Fraction

    def __post_init__(self):
        if self.r0 <= 0:
            raise InvalidDescription("geomdown needs r0 > 0")
        if not 0 < self.q < 1:
            raise InvalidDescription("geomdown needs 0 < q < 1")


@dataclass(frozen=True)
class GeomUp:
    """{ r0 * q^n : n >= 0 } with q > 1; unbounded, min r0."""

    r0: Fraction
    q: Fraction

    def __post_init__(self):
        if self.r0 <= 0:
            raise InvalidDescription("geomup needs r0 > 0")
        if self.q <= 1:
            raise InvalidDescription("geomup needs q > 1")


@dataclass(frozen=True)
class ClosedInterval:
    """[0, b] with b > 0."""

    b: Fraction

    def __post_init__(self):
        if self.b <= 0:
            raise InvalidDescription("closedinterval needs b > 0")


@dataclass(frozen=True)
class HalfOpenInterval:
    """[0, b) with b > 0."""

    b: Fraction

    def __post_init__(self):
        if self.b <= 0:
            raise InvalidDescription("halfopeninterval needs b > 0")


@dataclass(frozen=True)
class DenseRationals:
    """All rationals in [a, b], 0 <= a < b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.a < 0:
            raise InvalidDescription("denserationals needs a >= 0")
        if self.b <= self.a:
            raise InvalidDescription("denserationals needs b > a")


Component = Union[FiniteSet, GeomDown, GeomUp, ClosedInterval, HalfOpenInterval, DenseRationals]

_KINDS = {
    "finite": FiniteSet,
    "geomdown": GeomDown,
    "geomup": GeomUp,
    "closedinterval": ClosedInterval,
    "halfopeninterval": HalfOpenInterval,
    "denserationals": DenseRationals,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}

_DENSE_KINDS = (ClosedInterval, HalfOpenInterval, DenseRationals)
_INTERVAL_KINDS = (ClosedInterval, HalfOpenInterval)


@dataclass(frozen=True)
class DistanceSetDesc:
    components: tuple[Component, ...]

    def __post_init__(self):
        if not self.components:
            raise InvalidDescription("description needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        for comp in self.components:
            if type(comp) not in _KIND_OF:
                raise UnsupportedDescription(type(comp).__name__)


@dataclass(frozen=True)
class SetFacts:
    """Structural facts of a described set, inputs to every classification rule.

    order_type_if_wf is an int for finite sets, "omega" for infinite
    well-founded sets, None when the set is ill-founded. four_values is
    "true"/"false" for fully finite descriptions and "undecided" otherwise.
    interval_from_zero records whether the set is exactly an interval with
    left endpoint 0 (the singleton {0} counts as the degenerate case).
    """

    zero_in_A: bool
    zero_isolated: bool
    countable: bool
    closed: bool
    well_spaced: bool
    well_founded: bool
    order_type_if_wf: int | str | None
    has_max: bool
    dense_near_zero: bool
    contains_right_nbhd_of_zero: bool
    has_limit_point_other_than_zero: bool
    some_nonzero_limit_point_in_A: bool
    interval_from_zero: bool
    four_values: str


def _power_index(x: Fraction, r0: Fraction, q: Fraction) -> int | None:
    """Exponent n >= 0 with x = r0 * q^n, or None.

    q != 1 in lowest terms a/b, so q^n = a^n/b^n is in lowest terms too: n is
    the exact log of the part of x/r0 that matches the larger of a and b (at
    least 2), and the other part of x/r0 must be the other of a, b to the n.
    """
    if x <= 0:
        return None
    ratio = x / r0
    a, b, c, d = q.numerator, q.denominator, ratio.numerator, ratio.denominator
    if a < b:
        a, b, c, d = b, a, d, c
    n = _floor_log(c, a)
    return n if a**n == c and b**n == d else None


def _floor_log(x: Fraction | int, base: Fraction | int) -> int:
    """The n with base^n <= x < base^(n+1), for x > 0 and base > 1: a float
    log gives a first guess, and exact powers correct it."""
    n = floor((log(x.numerator) - log(x.denominator)) / (log(base.numerator) - log(base.denominator)))
    while base**n > x:
        n -= 1
    while base ** (n + 1) <= x:
        n += 1
    return n


def contains(desc: DistanceSetDesc, x: Fraction) -> bool:
    """Exact membership of x in the described union."""
    return any(_component_contains(comp, x) for comp in desc.components)


def _component_contains(comp: Component, x: Fraction) -> bool:
    if isinstance(comp, FiniteSet):
        return x in comp.values
    if isinstance(comp, (GeomDown, GeomUp)):
        return _power_index(x, comp.r0, comp.q) is not None
    if isinstance(comp, ClosedInterval):
        return 0 <= x <= comp.b
    if isinstance(comp, HalfOpenInterval):
        return 0 <= x < comp.b
    return comp.a <= x <= comp.b


def has_shrinking_witness(desc: DistanceSetDesc) -> bool:
    """Whether a known injective, non-surjective distance-shrinking self-map
    exists for this set: r |-> b*r/(1+r) works on any interval [0, b] or
    [0, b) and on the rationals of [0, b]. These are exactly the components
    dense near 0."""
    return any(
        isinstance(c, _INTERVAL_KINDS) or (isinstance(c, DenseRationals) and c.a == 0)
        for c in desc.components
    )


def _component_sup(comp: Component) -> Fraction | None:
    """Supremum of the component, None when unbounded."""
    if isinstance(comp, FiniteSet):
        return comp.values[-1]
    if isinstance(comp, GeomDown):
        return comp.r0
    if isinstance(comp, GeomUp):
        return None
    return comp.b


def _zero_facts(desc: DistanceSetDesc) -> tuple[bool, bool, bool]:
    """(zero_in_A, zero_isolated, countable) of the described union. 0 is a
    limit point exactly when some component is dense near 0 or runs down to 0;
    only an interval makes the union uncountable."""
    comps = desc.components
    return (
        contains(desc, ZERO),
        not (has_shrinking_witness(desc) or any(isinstance(c, GeomDown) for c in comps)),
        not any(isinstance(c, _INTERVAL_KINDS) for c in comps),
    )


def _realizable(zero_in_A: bool, zero_isolated: bool, countable: bool) -> bool:
    """0 must belong, and the set must be countable or accumulate at 0."""
    return zero_in_A and (countable or not zero_isolated)


def is_distance_set(desc: DistanceSetDesc) -> bool:
    """Whether some complete separable metric space realizes exactly this set.

    Holds iff 0 belongs to the set and the set is countable or accumulates
    at 0. Reads only those three facts, so it never runs the 4-values check.
    """
    return _realizable(*_zero_facts(desc))


def facts_realizable(facts: SetFacts) -> bool:
    """Whether some Polish metric space has exactly this distance set, by
    the rule of is_distance_set."""
    return _realizable(facts.zero_in_A, facts.zero_isolated, facts.countable)


# --- well-spacedness ---------------------------------------------------------
#
# A set is well-spaced when r < r' always forces 2r < r'. A violation is a
# pair x < y <= 2x of distinct positive elements. Dense components violate
# immediately; finite-vs-geometric pairs live in the window [x/2, 2x]; two
# geometric sequences reduce to a multiplicative lattice problem when their
# ratios are powers of one base, and are dense in ratio otherwise.


def _common_base(a: Fraction, b: Fraction) -> Fraction | None:
    """The largest s with a and b both integer powers of s, for a, b > 1, else
    None: Euclid on exponents, as a = s^i > b = s^j gives a/b = s^(i-j). s in
    lowest terms u/v has s^e = u^e/v^e, so while a and b are powers of one
    base the larger one's numerator falls at every step. Once it does not they
    are not, and as a positive integer it cannot fall forever.
    """
    while a != b:
        if a < b:
            a, b = b, a
        top = a.numerator
        a /= b
        if max(a, b).numerator >= top:
            return None
    return a


def _lattice_hits_doubling_window(c: Fraction, step: Fraction) -> bool:
    """Whether { c * step^t : t integer } meets (1, 2]. Needs step > 1. Every
    step up to 2 does; above 2 only the term in [1, step) can, if it is not 1."""
    return step <= TWO or 1 < c / step ** _floor_log(c, step) <= TWO


def _geom_elements_in(r0: Fraction, q: Fraction, lo: Fraction, hi: Fraction) -> Iterator[Fraction]:
    """Elements of { r0 * q^n : n >= 0 } inside [lo, hi]; needs lo > 0. The
    first n puts r0 * q^n at or above lo (q > 1) or at or below hi (q < 1)."""
    n = -(_floor_log(r0 / lo, q) if q > 1 else _floor_log(hi / r0, 1 / q))
    v = r0 * q ** max(0, n)
    while lo <= v <= hi:
        yield v
        v *= q


def _well_spaced(desc: DistanceSetDesc) -> bool:
    if any(isinstance(c, _DENSE_KINDS) for c in desc.components):
        return False
    geoms = [
        (c.r0, c.q) for c in desc.components if isinstance(c, (GeomDown, GeomUp))
    ]
    # Two consecutive terms of one sequence violate when its ratio lies in
    # [1/2, 2]. Checked first, so that each window log below has a base
    # above 2 and an exponent of at most log2 of its span.
    if any(max(q, 1 / q) <= TWO for _, q in geoms):
        return False
    points = {v for c in desc.components if isinstance(c, FiniteSet) for v in c.values if v > 0}
    for (r1, q1), (r2, q2) in combinations(geoms, 2):
        if (q1 < 1) != (q2 < 1):
            # One sequence runs down, the other up: in a factor-2 pair across
            # them the down term lies in [ru/2, rd], so those terms join the
            # finite points and meet the up sequence in the window check.
            (rd, qd), ru = ((r1, q1), r2) if q1 < 1 else ((r2, q2), r1)
            points.update(_geom_elements_in(rd, qd, ru / 2, rd))
            continue
        step = _common_base(max(q1, 1 / q1), max(q2, 1 / q2))
        if step is None:
            # Incommensurable ratios: the pairwise quotients are dense in
            # (0, oo), so some quotient lands in (1, 2].
            return False
        c = r2 / r1
        if _lattice_hits_doubling_window(c, step) or _lattice_hits_doubling_window(1 / c, step):
            return False
    finite_vals = sorted(points)
    for x, y in zip(finite_vals, finite_vals[1:]):
        if y <= 2 * x:
            return False
    for v in finite_vals:
        for r0, q in geoms:
            # every other term in [v/2, 2v] is within a factor 2 of v
            for e in _geom_elements_in(r0, q, v / 2, 2 * v):
                if e != v:
                    return False
    return True


# --- fact assembly -----------------------------------------------------------


def _closed(desc: DistanceSetDesc, zero_in: bool, big: Fraction | None) -> bool:
    """Closedness of the union: each component's closure must stay inside.

    Finite unions add no limit points beyond the per-component closures, so
    it is enough that every component's missing boundary is supplied by the
    union: 0 for a downward geometric sequence, b for [0, b), and [a, b) for
    a dense rational block [a, b], which holds its own b. big is the largest
    interval endpoint, None without an interval.
    """
    for comp in desc.components:
        if isinstance(comp, GeomDown) and not zero_in:
            return False
        if isinstance(comp, HalfOpenInterval) and not contains(desc, comp.b):
            return False
        if isinstance(comp, DenseRationals):
            if big is None or big < comp.b:
                return False
    return True


def compute_facts(desc: DistanceSetDesc) -> SetFacts:
    """Closed-form structural facts of the described union."""
    zero_in, zero_isolated, countable = _zero_facts(desc)
    comps = desc.components
    big = max((c.b for c in comps if isinstance(c, _INTERVAL_KINDS)), default=None)
    well_founded = all(isinstance(c, (FiniteSet, GeomUp)) for c in comps)
    if not well_founded:
        order_type: int | str | None = None
    elif any(isinstance(c, GeomUp) for c in comps):
        order_type = "omega"
    else:
        union = {v for c in comps if isinstance(c, FiniteSet) for v in c.values}
        order_type = len(union)
    sups = [_component_sup(c) for c in comps]
    top = None if None in sups else max(sups)
    has_limit_other = any(isinstance(c, _DENSE_KINDS) for c in comps)

    if all(isinstance(c, FiniteSet) for c in comps):
        from .urysohn import four_values_check

        ok, _ = four_values_check({v for c in comps for v in c.values})
        four_values = "true" if ok else "false"
    else:
        four_values = "undecided"

    return SetFacts(
        zero_in_A=zero_in,
        zero_isolated=zero_isolated,
        countable=countable,
        closed=_closed(desc, zero_in, big),
        well_spaced=_well_spaced(desc),
        well_founded=well_founded,
        order_type_if_wf=order_type,
        has_max=top is not None and contains(desc, top),
        dense_near_zero=has_shrinking_witness(desc),
        contains_right_nbhd_of_zero=not countable,
        has_limit_point_other_than_zero=has_limit_other,
        some_nonzero_limit_point_in_A=has_limit_other,
        # An interval from 0 is {0} (every sup is 0) or the largest interval
        # with nothing reaching past it; an unbounded set is neither.
        interval_from_zero=zero_in and top is not None and top == (ZERO if big is None else big),
        four_values=four_values,
    )


def facts_consistent(facts: SetFacts) -> bool:
    """Whether a set of nonnegative reals could have exactly these facts.

    Used to enumerate the classifier's input space; every clause is an
    elementary consequence of the definitions (a well-founded set of reals is
    countable with 0 isolated, density near 0 kills well-foundedness and
    well-spacedness, a closed set owns its limit points, and so on).
    """
    f = facts
    if f.order_type_if_wf is not None and not (
        f.order_type_if_wf == "omega" or (type(f.order_type_if_wf) is int and f.order_type_if_wf >= 1)
    ):
        return False
    if f.four_values not in ("true", "false", "undecided"):
        return False
    if (f.order_type_if_wf is not None) != f.well_founded:
        return False
    if f.contains_right_nbhd_of_zero and not f.dense_near_zero:
        return False
    if f.contains_right_nbhd_of_zero and f.countable:
        return False
    if f.well_spaced and f.dense_near_zero:
        return False
    if f.zero_isolated and f.dense_near_zero:
        return False
    if f.dense_near_zero and f.well_founded:
        return False
    if f.dense_near_zero and not f.some_nonzero_limit_point_in_A:
        return False
    if f.some_nonzero_limit_point_in_A and not f.has_limit_point_other_than_zero:
        return False
    if f.well_founded and not (f.countable and f.zero_isolated):
        return False
    if f.well_founded and f.some_nonzero_limit_point_in_A:
        return False
    if f.closed and f.has_limit_point_other_than_zero and not f.some_nonzero_limit_point_in_A:
        return False
    if f.well_spaced and not f.well_founded and f.zero_isolated:
        return False
    if f.interval_from_zero and not f.zero_in_A:
        return False
    if f.interval_from_zero and not (f.contains_right_nbhd_of_zero or f.order_type_if_wf == 1):
        return False
    if isinstance(f.order_type_if_wf, int):
        if not (f.closed and f.has_max and not f.has_limit_point_other_than_zero):
            return False
        if f.order_type_if_wf == 1 and not (
            f.well_spaced and (f.interval_from_zero == f.zero_in_A)
        ):
            return False
    if f.order_type_if_wf == "omega" and f.has_max:
        return False
    return True


# --- JSON wire format --------------------------------------------------------


def desc_from_json(data: object) -> DistanceSetDesc:
    """Parse a description from a JSON list of tagged components.

    Each field of a kind's dataclass is a "p/q" string, and "values" is a
    list of them; numbers are rejected.
    """
    if not isinstance(data, list):
        raise InvalidDescription("description file must be a JSON list of components")
    comps: list[Component] = []
    for item in data:
        if not isinstance(item, dict) or "kind" not in item:
            raise InvalidDescription("each component must be an object with a 'kind'")
        kind = item["kind"]
        cls = _KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise InvalidDescription(f"unknown component kind {kind!r}")
        raw = {k: v for k, v in item.items() if k != "kind"}
        try:
            args = []
            for field in fields(cls):
                value = raw.pop(field.name)
                if field.name != "values":
                    args.append(parse_rational(value))
                elif isinstance(value, list):
                    args.append(tuple(parse_rational(v) for v in value))
                else:
                    raise TypeError(f"expected a list of 'p/q' strings, got {value!r}")
            comps.append(cls(*args))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDescription(f"bad {kind!r} component: {exc}") from exc
        if raw:
            raise InvalidDescription(f"unexpected fields in {kind!r} component: {sorted(raw)}")
    return DistanceSetDesc(tuple(comps))


def _field_to_json(value: Fraction | tuple[Fraction, ...]) -> str | list[str]:
    if isinstance(value, tuple):
        return [format_rational(v) for v in value]
    return format_rational(value)


def desc_to_json(desc: DistanceSetDesc) -> list[dict]:
    return [
        {"kind": _KIND_OF[type(c)]}
        | {field.name: _field_to_json(getattr(c, field.name)) for field in fields(c)}
        for c in desc.components
    ]


def facts_to_json_dict(facts: SetFacts) -> dict:
    return dict(vars(facts))
