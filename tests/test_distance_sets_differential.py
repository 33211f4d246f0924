"""Fact assembly and the JSON wire format against the per-kind code they
replaced (tests/distance_sets_reference.py).

A thousand seeded descriptions of one to four components, every kind, with
and without 0, over a small pool of values so that components share
endpoints: the facts, their JSON dict (key order included) and the JSON of
the description must be equal, and so must the classification report (as
JSON, key order included) and its text against
tests/classifier_reference.py. Two hundred seeded malformed JSON shapes must
raise the same exception class with the same message. Two kinds of input
that the old parser mishandled are tested on their own: a non-string where a
"p/q" string belongs (it crashed with AttributeError) and a "values" field
that is not a list (a string was read character by character).

Membership and well-spacing are also run on their own against the verbatim
reference: seeded unions of finite and geometric components, with ratios
that are and are not powers of one base, in one direction and in both.
contains must agree at sequence terms, at values just off a sequence, at 0
and at negative values, and the large-exponent pairs are timed, since
finding a common base walks one step per division.
"""

import copy
import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import classifier_reference as cref
from classifier_reference import _jsonable
import distance_sets_reference as ref
from distset.classifier import build_report, render_report_text
from distset.distance_sets import (
    ClosedInterval,
    DenseRationals,
    DistanceSetDesc,
    FiniteSet,
    GeomDown,
    GeomUp,
    HalfOpenInterval,
    _well_spaced,
    compute_facts,
    contains,
    desc_from_json,
    desc_to_json,
    facts_realizable,
    facts_to_json_dict,
    is_distance_set,
)
from distset.errors import InvalidDescription

F = Fraction
DOWN_RATIOS = (F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(4, 9), F(1, 8))
UP_RATIOS = (F(2), F(3), F(3, 2), F(4), F(9, 4), F(8))


def _value(rng: random.Random) -> Fraction:
    return F(rng.randint(1, 8), rng.choice((1, 2, 3)))


def _component(rng: random.Random, kind: str):
    if kind == "finite":
        values = {_value(rng) for _ in range(rng.randint(1, 3))}
        if rng.random() < 0.5:
            values = {F(0)} if rng.random() < 0.2 else values | {F(0)}
        return FiniteSet(tuple(values))
    if kind == "geomdown":
        return GeomDown(_value(rng), rng.choice(DOWN_RATIOS))
    if kind == "geomup":
        return GeomUp(_value(rng), rng.choice(UP_RATIOS))
    if kind == "closedinterval":
        return ClosedInterval(_value(rng))
    if kind == "halfopeninterval":
        return HalfOpenInterval(_value(rng))
    a = F(0) if rng.random() < 0.5 else _value(rng)
    return DenseRationals(a, a + _value(rng))


KIND_NAMES = ("finite", "geomdown", "geomup", "closedinterval", "halfopeninterval", "denserationals")


def _descriptions(count: int, seed: int = 20180920) -> list:
    rng = random.Random(seed)
    descs = []
    while len(descs) < count:
        kinds = [rng.choice(KIND_NAMES) for _ in range(rng.randint(1, 4))]
        if kinds.count("finite") > 2:
            continue  # keeps the all-finite 4-values checks small
        descs.append(DistanceSetDesc(tuple(_component(rng, k) for k in kinds)))
    return descs


DESCS = _descriptions(1000)
CHUNK = 50


def test_descriptions_reach_both_values_of_every_fact():
    facts = [facts_to_json_dict(ref.compute_facts(d)) for d in DESCS]
    for key in facts[0]:
        seen = {f[key] for f in facts}
        if key == "order_type_if_wf":
            assert {None, "omega", 1, 2, 3} <= seen
        elif key == "four_values":
            assert seen == {"true", "false", "undecided"}
        else:
            assert seen == {True, False}, key
    assert {type(c) for d in DESCS for c in d.components} == {
        FiniteSet, GeomDown, GeomUp, ClosedInterval, HalfOpenInterval, DenseRationals
    }


# Runs before anything else calls contains: read with the wrong part of a
# ratio 1/b, the exact log of a numerator above 1 to base 1 never ends, and
# the terms, whose numerator is 1, fail here first.
@pytest.mark.parametrize("q", [F(1, 2), F(1, 3), F(2, 3), F(2), F(3), F(3, 2)], ids=str)
def test_contains_matches_reference_on_one_sequence(q):
    desc = DistanceSetDesc(((GeomDown if q < 1 else GeomUp)(F(3, 2), q),))
    for n in range(6):
        assert contains(desc, F(3, 2) * q**n) is ref.contains(desc, F(3, 2) * q**n) is True, n
    for x in (F(0), F(-3, 2), F(3, 2) / q, F(3, 4), F(9, 4), F(3, 2) * q.numerator):
        assert contains(desc, x) == ref.contains(desc, x), x


@pytest.mark.parametrize("chunk", range(len(DESCS) // CHUNK))
def test_facts_and_json_match_reference(chunk):
    for desc in DESCS[chunk * CHUNK : (chunk + 1) * CHUNK]:
        facts = compute_facts(desc)
        want = ref.compute_facts(desc)
        assert facts == want, desc
        for x in _probes(desc):
            assert contains(desc, x) == ref.contains(desc, x), (desc, x)
        assert list(facts_to_json_dict(facts).items()) == list(ref.facts_to_json_dict(want).items())
        assert is_distance_set(desc) == facts_realizable(want)
        data = desc_to_json(desc)
        assert json.dumps(data) == json.dumps(ref.desc_to_json(desc))
        assert desc_from_json(data) == ref.desc_from_json(data) == desc
        report, want_report = build_report(desc), cref.build_report(desc)
        assert json.dumps(_jsonable(report)) == json.dumps(_jsonable(want_report)), desc
        assert render_report_text(report) == cref.render_report_text(want_report), desc
        # build_report relies on this: no non-realizable set holds 0
        assert facts.zero_in_A == facts_realizable(facts), desc


# --- membership and well-spacing on geometric unions -------------------------

# Up ratios by base: the same base gives ratios that are powers of one base,
# with a lattice step above 2 for every pair but (4, 8) and (16, 8); the
# rest are not. Down ratios are their inverses.
UP_BY_BASE = (
    (F(3), F(9), F(27), F(81)),
    (F(4), F(8), F(16), F(64)),
    (F(5, 2), F(25, 4), F(125, 8)),
    (F(6), F(36)),
    (F(7, 3), F(49, 9)),
    (F(12),),
)
GEOM_RATIOS = [q for base in UP_BY_BASE for q in base] + [F(3, 2), F(2)]
# Values 2^i 3^j 5^k meet each other and the sequences at exact factors of 2.
GEOM_VALUES = sorted(
    {F(2) ** i * F(3) ** j * F(5) ** k for i in range(-3, 4) for j in range(-2, 3) for k in range(-1, 2)}
)


def _geometric_union(rng: random.Random) -> DistanceSetDesc:
    comps = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("finite", "geomdown", "geomup", "geomup", "geomdown"))
        if kind == "finite":
            values = {rng.choice(GEOM_VALUES) for _ in range(rng.randint(1, 3))}
            comps.append(FiniteSet(tuple(values | ({F(0)} if rng.random() < 0.5 else set()))))
            continue
        base = rng.choice(UP_BY_BASE) if rng.random() < 0.8 else GEOM_RATIOS
        q = rng.choice(base)
        if kind == "geomdown":
            comps.append(GeomDown(rng.choice(GEOM_VALUES) * rng.choice((1, 64)), 1 / q))
        else:
            comps.append(GeomUp(rng.choice(GEOM_VALUES) / rng.choice((1, 64)), q))
    return DistanceSetDesc(tuple(comps))


def _probes(desc: DistanceSetDesc) -> list:
    """Sequence terms first, then values just off them: the terms before
    the first, unequal powers of a ratio's numerator and denominator, small
    multiples, and 0 and negatives."""
    terms, near = [], [F(0), F(-1)]
    for c in desc.components:
        if isinstance(c, FiniteSet):
            near += [v + F(1, 1000) for v in c.values]
            continue
        if not isinstance(c, (GeomDown, GeomUp)):
            continue
        a, b = c.q.numerator, c.q.denominator
        terms += [c.r0 * c.q**n for n in range(5)]
        near += [c.r0 / c.q, -c.r0, c.r0 * F(a, b * b), c.r0 * F(a * a, b), c.r0 * a, c.r0 / b]
        near += [t * m for t in terms[-3:] for m in (F(2), F(1, 2), F(3, 2), 1 + F(1, 1000))]
    return terms + near


GEOM_DESCS = [_geometric_union(random.Random(seed)) for seed in range(2000)]


def test_geometric_unions_reach_every_case():
    well_spaced = [ref._well_spaced(d) for d in GEOM_DESCS]
    assert 0.15 < sum(well_spaced) / len(well_spaced) < 0.6
    seen = set()
    for desc in GEOM_DESCS:
        geoms = [(c.r0, c.q) for c in desc.components if isinstance(c, (GeomDown, GeomUp))]
        for (r1, q1), (r2, q2) in combinations(geoms, 2):
            up1, up2 = max(q1, 1 / q1), max(q2, 1 / q2)
            if min(up1, up2) <= 2:
                continue
            if (q1 < 1) != (q2 < 1):
                case = "opposite"
            elif ref._primitive_base(up1)[0] != ref._primitive_base(up2)[0]:
                case = "no common base"
            else:
                case = "one base"
            seen.add((case, q1 < 1, ref._geom_pair_has_violation((r1, q1), (r2, q2))))
    assert seen == {
        (case, down, violates)
        for case in ("opposite", "one base", "no common base")
        for down in (True, False)
        for violates in (True, False)
        if case != "no common base" or violates
    }


@pytest.mark.parametrize("chunk", range(len(GEOM_DESCS) // 100))
def test_geometric_unions_match_reference(chunk):
    for desc in GEOM_DESCS[chunk * 100 : (chunk + 1) * 100]:
        for x in _probes(desc):
            assert contains(desc, x) == ref.contains(desc, x), (desc, x)
        assert _well_spaced(desc) == ref._well_spaced(desc), desc
        facts = compute_facts(desc)
        assert facts == ref.compute_facts(desc), desc
        assert is_distance_set(desc) == facts_realizable(facts)
        report = build_report(desc)
        assert json.dumps(_jsonable(report)) == json.dumps(_jsonable(cref.build_report(desc))), desc


# Ratios that are powers of 3 with exponents 2000 and 3, and 5000 and 2: the
# common base is found in one division per step, where taking roots of the
# larger exponent took 62 ms and 617 ms.
@pytest.mark.parametrize("big, small", [(F(3) ** 2000, F(27)), (F(3) ** 5000, F(9))], ids=["2000-3", "5000-2"])
@pytest.mark.parametrize("kind", [GeomUp, GeomDown], ids=["up", "down"])
@pytest.mark.parametrize("r", [F(1), F(3, 2)], ids=str)
def test_ratios_with_large_exponents(big, small, kind, r):
    if kind is GeomDown:
        big, small = 1 / big, 1 / small
    desc = DistanceSetDesc((kind(F(1), big), kind(r, small)))
    start = time.perf_counter()
    got = _well_spaced(desc)
    assert time.perf_counter() - start < 0.25
    assert got == ref._well_spaced(desc) == (r == 1)
    for x in _probes(desc) + [big, big**2, big * small, small**7]:
        assert contains(desc, x) == ref.contains(desc, x), x


# A ratio near 1 must be answered from the ratio alone: walking the finite
# values against the sequence first takes about 62,000 Fraction steps at
# q = 9999/10000, and the reference takes 28.6 s there.
NEAR_ONE = [F(1) - F(1, 10**k) for k in range(2, 6)] + [F(1) + F(1, 10**k) for k in range(2, 6)]


def _near_one(q: Fraction) -> DistanceSetDesc:
    if q < 1:
        return DistanceSetDesc((FiniteSet((F(0), F(1, 1000))), GeomDown(F(1), q)))
    return DistanceSetDesc((FiniteSet((F(0), F(1000))), GeomUp(F(1), q)))


@pytest.mark.parametrize("q", NEAR_ONE, ids=str)
def test_well_spaced_answers_at_once_for_a_ratio_near_one(q):
    desc = _near_one(q)
    start = time.perf_counter()
    assert _well_spaced(desc) is False
    assert time.perf_counter() - start < 0.5
    if abs(q - 1) >= F(1, 1000):  # the reference takes up to 0.2 s here
        assert ref._well_spaced(desc) is False


# --- malformed shapes --------------------------------------------------------

BAD_RATIONALS = ("1.5", "", "1/0", "a", "0x1", "1e3", "-1", "0", "1", "2", " 3/2 ", "1/2/3")
BAD_KINDS = ("mystery", "Finite", "", ["x"], {"kind": "finite"}, None, 7)


def _valid_json(rng: random.Random) -> list:
    return desc_to_json(DistanceSetDesc(tuple(
        _component(rng, rng.choice(KIND_NAMES)) for _ in range(rng.randint(1, 2))
    )))


def _malformed(rng: random.Random) -> object:
    data = _valid_json(rng)
    item = rng.choice(data)
    fields = [k for k in item if k != "kind"]
    for _ in range(rng.randint(1, 2)):
        edit = rng.choices(range(9), weights=(1, 1, 1, 2, 3, 2, 6, 2, 1))[0]
        if edit == 0:
            return rng.choice(({"kind": "finite", "values": ["0"]}, "finite", 5, None, item))
        if edit == 1:
            data[data.index(item)] = rng.choice(("finite", 3, None, [item]))
            return data
        if edit == 2:
            item.pop("kind", None)
        elif edit == 3:
            item["kind"] = copy.deepcopy(rng.choice(BAD_KINDS))
        elif edit == 4 and fields:
            item.pop(rng.choice(fields), None)
        elif edit == 5:
            key = rng.choice([k for k in ("extra", "a", "b", "values", "zz") if k not in item])
            value = rng.choice(BAD_RATIONALS)
            item[key] = [value] if key == "values" else value
        elif edit == 6 and fields:
            field = rng.choice(fields)
            if field == "values":
                item["values"] = [rng.choice(BAD_RATIONALS) for _ in range(rng.randint(0, 2))]
            else:
                item[field] = rng.choice(BAD_RATIONALS)
        elif edit == 7 and "kind" in item:
            # a valid shape under another kind's name
            item["kind"] = rng.choice(KIND_NAMES)
        elif edit == 8:
            data.append(rng.choice(data) if rng.random() < 0.5 else {})
    return data


def _outcome(parse, raw):
    try:
        return "ok", parse(raw)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)


SHAPES = [_malformed(random.Random(seed)) for seed in range(200)]


def test_malformed_shapes_reach_every_error():
    outcomes = [_outcome(ref.desc_from_json, raw) for raw in SHAPES]
    messages = [msg for cls, msg in outcomes if cls is InvalidDescription]
    assert len(messages) >= 150
    for start in (
        "description file must be",
        "each component must be",
        "unknown component kind",
        "unexpected fields in",
        "bad 'finite' component:",
        "bad 'geomdown' component:",
        "bad 'denserationals' component:",
        "closedinterval needs",
        "geomup needs",
        "finite component needs",
    ):
        assert any(msg.startswith(start) for msg in messages), start
    assert any(cls == "ok" for cls, _ in outcomes)


@pytest.mark.parametrize("seed", range(len(SHAPES)))
def test_malformed_shape_raises_as_reference(seed):
    raw = SHAPES[seed]
    assert _outcome(desc_from_json, copy.deepcopy(raw)) == _outcome(ref.desc_from_json, raw)


@pytest.mark.parametrize(
    "item, got",
    [
        ({"kind": "finite", "values": [0, 1]}, "a 'p/q' string, got 0"),
        ({"kind": "geomdown", "r0": 1, "q": "1/2"}, "a 'p/q' string, got 1"),
        ({"kind": "closedinterval", "b": None}, "a 'p/q' string, got None"),
        ({"kind": "denserationals", "a": "0", "b": [1]}, "a 'p/q' string, got [1]"),
        ({"kind": "finite", "values": "12"}, "a list of 'p/q' strings, got '12'"),
        ({"kind": "finite", "values": {"0": "1"}}, "a list of 'p/q' strings, got {'0': '1'}"),
        ({"kind": "finite", "values": 5}, "a list of 'p/q' strings, got 5"),
    ],
    ids=["int-value", "int-r0", "null-b", "list-b", "string-values", "object-values", "number-values"],
)
def test_inputs_the_reference_mishandled_are_invalid_descriptions(item, got):
    with pytest.raises(InvalidDescription) as info:
        desc_from_json([item])
    assert str(info.value) == f"bad {item['kind']!r} component: expected {got}"
