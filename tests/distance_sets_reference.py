"""Test-only reference: the fact assembly and JSON wire format that
distset.distance_sets now drives from one kind table.

Kept as it was, one isinstance chain per kind and one predicate per fact
name. tests/test_distance_sets_differential.py runs both on the same
descriptions and JSON shapes and requires equal facts, equal JSON (key order
included) and the same exception class and message. The helpers that did
not change are imported from distset.distance_sets, and compute_facts
imports four_values_check by its absolute name; the rest is unchanged.

Membership and well-spacing are kept as they were before distance_sets
read a power off one exact log and found a common base by Euclid:
contains, _component_contains and _power_index with its two-sided log,
_iroot and _primitive_base with p ** gcd(k1, k2), the two-way walker
_geom_elements_in, and the pair checker _geom_pair_has_violation.

_well_spaced is kept as it was before it checked each geometric ratio
first: it walks every finite value against every geometric component
before it looks at any ratio, which takes 28.6 s at q = 9999/10000.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from distset.distance_sets import (
    _DENSE_KINDS,
    _INTERVAL_KINDS,
    _KINDS,
    ZERO,
    ClosedInterval,
    Component,
    DenseRationals,
    DistanceSetDesc,
    FiniteSet,
    GeomDown,
    GeomUp,
    HalfOpenInterval,
    SetFacts,
    _component_sup,
    _exact_log,
    _lattice_hits_doubling_window,
)
from distset.errors import InvalidDescription, UnsupportedDescription
from distset.rationals import format_rational, parse_rational


def _power_index(x: Fraction, r0: Fraction, q: Fraction) -> int | None:
    """Exponent n >= 0 with x = r0 * q^n, or None.

    q != 1 in reduced form a/b, so a^n/b^n is already reduced and the
    exponent is read off an exact integer logarithm.
    """
    if x <= 0:
        return None
    ratio = x / r0
    if ratio == 1:
        return 0
    a, b = q.numerator, q.denominator
    c, d = ratio.numerator, ratio.denominator
    n = _exact_log(c, a) if a > 1 else (0 if c == 1 else None)
    m = _exact_log(d, b) if b > 1 else (0 if d == 1 else None)
    if n is None or m is None:
        return None
    if a > 1 and b > 1 and n != m:
        return None
    k = max(n, m)
    if k == 0:
        return None
    return k if (a**k == c and b**k == d) else None


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


def _iroot(n: int, k: int) -> int | None:
    """Exact integer k-th root of n >= 1, else None."""
    if n == 1 or k == 1:
        return n if k == 1 else 1
    hi = 2
    while hi**k < n:
        hi *= 2
    lo = hi // 2
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid**k
        if p == n:
            return mid
        if p < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _primitive_base(q: Fraction) -> tuple[Fraction, int]:
    """Largest k with q = base^k, for q > 1. base is then not a proper power."""
    num, den = q.numerator, q.denominator
    for k in range(num.bit_length(), 0, -1):
        rn = _iroot(num, k)
        if rn is None:
            continue
        rd = _iroot(den, k)
        if rd is None:
            continue
        return Fraction(rn, rd), k
    return q, 1


def _geom_elements_in(r0: Fraction, q: Fraction, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Elements of { r0 * q^n : n >= 0 } inside [lo, hi]; needs lo > 0."""
    out: list[Fraction] = []
    v = r0
    if q < 1:
        while v > hi:
            v *= q
        while v >= lo:
            out.append(v)
            v *= q
    else:
        while v < lo:
            v *= q
        while v <= hi:
            out.append(v)
            v *= q
    return out


def _geom_pair_has_violation(g1: tuple[Fraction, Fraction], g2: tuple[Fraction, Fraction]) -> bool:
    r1, q1 = g1
    r2, q2 = g2
    if (q1 < 1) == (q2 < 1):
        p1, k1 = _primitive_base(q1 if q1 > 1 else 1 / q1)
        p2, k2 = _primitive_base(q2 if q2 > 1 else 1 / q2)
        if p1 != p2:
            # Incommensurable ratios: the pairwise quotients are dense in
            # (0, oo), so some quotient lands in (1, 2].
            return True
        step = p1 ** gcd(k1, k2)
        c = r2 / r1
        return _lattice_hits_doubling_window(c, step) or _lattice_hits_doubling_window(1 / c, step)
    # One sequence runs down, the other up: only finitely many elements of
    # each lie near the crossover, where any factor-2 pair must live.
    (rd, qd), (ru, qu) = ((r1, q1), (r2, q2)) if q1 < 1 else ((r2, q2), (r1, q1))
    if ru > 2 * rd:
        return False
    down = _geom_elements_in(rd, qd, ru / 2, rd)
    up = _geom_elements_in(ru, qu, ru, 2 * rd)
    for x in down:
        for y in up:
            if x < y <= 2 * x or y < x <= 2 * y:
                return True
    return False


def _component_contains_zero(comp: Component) -> bool:
    if isinstance(comp, FiniteSet):
        return ZERO in comp.values
    if isinstance(comp, _INTERVAL_KINDS):
        return True
    if isinstance(comp, DenseRationals):
        return comp.a == 0
    return False


def _accumulates_at_zero(comp: Component) -> bool:
    """True when the component has positive elements arbitrarily close to 0."""
    if isinstance(comp, GeomDown):
        return True
    if isinstance(comp, _INTERVAL_KINDS):
        return True
    if isinstance(comp, DenseRationals):
        return comp.a == 0
    return False


def _zero_facts(desc: DistanceSetDesc) -> tuple[bool, bool, bool]:
    """(zero_in_A, zero_isolated, countable) of the described union, after
    checking that every component is of a known kind."""
    comps = desc.components
    for comp in comps:
        if not isinstance(
            comp, (FiniteSet, GeomDown, GeomUp, ClosedInterval, HalfOpenInterval, DenseRationals)
        ):
            raise UnsupportedDescription(type(comp).__name__)
    return (
        any(_component_contains_zero(c) for c in comps),
        not any(_accumulates_at_zero(c) for c in comps),
        not any(isinstance(c, _INTERVAL_KINDS) for c in comps),
    )


def _well_spaced(desc: DistanceSetDesc) -> bool:
    if any(isinstance(c, _DENSE_KINDS) for c in desc.components):
        return False
    finite_vals = sorted(
        {v for c in desc.components if isinstance(c, FiniteSet) for v in c.values if v > 0}
    )
    for x, y in zip(finite_vals, finite_vals[1:]):
        if y <= 2 * x:
            return False
    geoms = [
        (c.r0, c.q) for c in desc.components if isinstance(c, (GeomDown, GeomUp))
    ]
    for v in finite_vals:
        for r0, q in geoms:
            for e in _geom_elements_in(r0, q, v / 2, 2 * v):
                if e != v and (e < v <= 2 * e or v < e <= 2 * v):
                    return False
    for i, g1 in enumerate(geoms):
        for g2 in geoms[i:]:
            if _geom_pair_has_violation(g1, g2):
                return False
    return True

def _closed(desc: DistanceSetDesc, zero_in: bool) -> bool:
    """Closedness of the union: each component's closure must stay inside.

    Finite unions add no limit points beyond the per-component closures, so
    it is enough that every component's missing boundary is supplied by the
    union: 0 for a downward geometric sequence, b for [0, b), and the full
    interval [a, b] for a dense rational block.
    """
    interval_sups = [c.b for c in desc.components if isinstance(c, _INTERVAL_KINDS)]
    big = max(interval_sups) if interval_sups else None
    for comp in desc.components:
        if isinstance(comp, GeomDown) and not zero_in:
            return False
        if isinstance(comp, HalfOpenInterval) and not contains(desc, comp.b):
            return False
        if isinstance(comp, DenseRationals):
            if big is None or big < comp.b:
                return False
            if big == comp.b and not contains(desc, comp.b):
                return False
    return True


def _interval_from_zero(desc: DistanceSetDesc, zero_in: bool) -> bool:
    if not zero_in:
        return False
    if any(isinstance(c, GeomUp) for c in desc.components):
        return False
    interval_sups = [c.b for c in desc.components if isinstance(c, _INTERVAL_KINDS)]
    if not interval_sups:
        # Without an interval component the only interval we can be is {0}.
        return all(
            isinstance(c, FiniteSet) and c.values == (ZERO,) for c in desc.components
        )
    big = max(interval_sups)
    return all(
        _component_sup(c) is not None and _component_sup(c) <= big for c in desc.components
    )


def compute_facts(desc: DistanceSetDesc) -> SetFacts:
    """Closed-form structural facts of the described union."""
    zero_in, zero_isolated, countable = _zero_facts(desc)
    comps = desc.components
    dense_near_zero = any(
        isinstance(c, _INTERVAL_KINDS) or (isinstance(c, DenseRationals) and c.a == 0)
        for c in comps
    )
    right_nbhd = any(isinstance(c, _INTERVAL_KINDS) for c in comps)
    well_founded = all(isinstance(c, (FiniteSet, GeomUp)) for c in comps)
    if not well_founded:
        order_type: int | str | None = None
    elif any(isinstance(c, GeomUp) for c in comps):
        order_type = "omega"
    else:
        union = {v for c in comps if isinstance(c, FiniteSet) for v in c.values}
        order_type = len(union)
    sups = [_component_sup(c) for c in comps]
    if any(s is None for s in sups):
        has_max = False
    else:
        has_max = contains(desc, max(sups))
    has_limit_other = any(isinstance(c, _DENSE_KINDS) for c in comps)

    if all(isinstance(c, FiniteSet) for c in comps):
        from distset.urysohn import four_values_check

        ok, _ = four_values_check({v for c in comps for v in c.values})
        four_values = "true" if ok else "false"
    else:
        four_values = "undecided"

    return SetFacts(
        zero_in_A=zero_in,
        zero_isolated=zero_isolated,
        countable=countable,
        closed=_closed(desc, zero_in),
        well_spaced=_well_spaced(desc),
        well_founded=well_founded,
        order_type_if_wf=order_type,
        has_max=has_max,
        dense_near_zero=dense_near_zero,
        contains_right_nbhd_of_zero=right_nbhd,
        has_limit_point_other_than_zero=has_limit_other,
        some_nonzero_limit_point_in_A=has_limit_other,
        interval_from_zero=_interval_from_zero(desc, zero_in),
        four_values=four_values,
    )


def desc_from_json(data: object) -> DistanceSetDesc:
    """Parse a description from a JSON list of tagged components."""
    if not isinstance(data, list):
        raise InvalidDescription("description file must be a JSON list of components")
    comps: list[Component] = []
    for item in data:
        if not isinstance(item, dict) or "kind" not in item:
            raise InvalidDescription("each component must be an object with a 'kind'")
        kind = item["kind"]
        fields = {k: v for k, v in item.items() if k != "kind"}
        try:
            if kind == "finite":
                comps.append(FiniteSet(tuple(parse_rational(v) for v in fields.pop("values"))))
            elif kind in ("geomdown", "geomup"):
                comps.append(
                    _KINDS[kind](parse_rational(fields.pop("r0")), parse_rational(fields.pop("q")))
                )
            elif kind in ("closedinterval", "halfopeninterval"):
                comps.append(_KINDS[kind](parse_rational(fields.pop("b"))))
            elif kind == "denserationals":
                comps.append(
                    DenseRationals(parse_rational(fields.pop("a")), parse_rational(fields.pop("b")))
                )
            else:
                raise InvalidDescription(f"unknown component kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDescription(f"bad {kind!r} component: {exc}") from exc
        if fields:
            raise InvalidDescription(f"unexpected fields in {kind!r} component: {sorted(fields)}")
    return DistanceSetDesc(tuple(comps))


def desc_to_json(desc: DistanceSetDesc) -> list[dict]:
    out = []
    for comp in desc.components:
        if isinstance(comp, FiniteSet):
            out.append({"kind": "finite", "values": [format_rational(v) for v in comp.values]})
        elif isinstance(comp, GeomDown):
            out.append({"kind": "geomdown", "r0": format_rational(comp.r0), "q": format_rational(comp.q)})
        elif isinstance(comp, GeomUp):
            out.append({"kind": "geomup", "r0": format_rational(comp.r0), "q": format_rational(comp.q)})
        elif isinstance(comp, ClosedInterval):
            out.append({"kind": "closedinterval", "b": format_rational(comp.b)})
        elif isinstance(comp, HalfOpenInterval):
            out.append({"kind": "halfopeninterval", "b": format_rational(comp.b)})
        elif isinstance(comp, DenseRationals):
            out.append({"kind": "denserationals", "a": format_rational(comp.a), "b": format_rational(comp.b)})
        else:
            raise UnsupportedDescription(type(comp).__name__)
    return out


def facts_to_json_dict(facts: SetFacts) -> dict:
    return {
        "zero_in_A": facts.zero_in_A,
        "zero_isolated": facts.zero_isolated,
        "countable": facts.countable,
        "closed": facts.closed,
        "well_spaced": facts.well_spaced,
        "well_founded": facts.well_founded,
        "order_type_if_wf": facts.order_type_if_wf,
        "has_max": facts.has_max,
        "dense_near_zero": facts.dense_near_zero,
        "contains_right_nbhd_of_zero": facts.contains_right_nbhd_of_zero,
        "has_limit_point_other_than_zero": facts.has_limit_point_other_than_zero,
        "some_nonzero_limit_point_in_A": facts.some_nonzero_limit_point_in_A,
        "interval_from_zero": facts.interval_from_zero,
        "four_values": facts.four_values,
    }
