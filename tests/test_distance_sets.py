"""Symbolic distance-set descriptions: membership, structural facts,
well-spacedness, realizability, and the JSON wire format.

The well-spacedness decision procedure is cross-checked against a windowed
brute-force enumeration on a frozen case list covering finite sets, single
geometric sequences, commensurable and incommensurable geometric pairs, and
mixed finite/geometric interactions.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from distset.distance_sets import (
    ClosedInterval,
    DenseRationals,
    DistanceSetDesc,
    FiniteSet,
    GeomDown,
    GeomUp,
    HalfOpenInterval,
    SetFacts,
    compute_facts,
    contains,
    desc_from_json,
    desc_to_json,
    facts_consistent,
    facts_realizable,
    facts_to_json_dict,
    has_shrinking_witness,
    is_distance_set,
)
from distset.errors import InvalidDescription, UnsupportedDescription

F = Fraction


def D(*comps):
    return DistanceSetDesc(tuple(comps))


def fs(*vals):
    return FiniteSet(tuple(F(v) for v in vals))


# --- component validation ---


def test_finite_set_sorts_and_dedupes():
    c = FiniteSet((F(2), F(0), F(2), F(1)))
    assert c.values == (F(0), F(1), F(2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteSet(()),
        lambda: FiniteSet((F(-1),)),
        lambda: GeomDown(F(0), F(1, 2)),
        lambda: GeomDown(F(1), F(1)),
        lambda: GeomDown(F(1), F(3, 2)),
        lambda: GeomUp(F(1), F(1)),
        lambda: GeomUp(F(-2), F(3)),
        lambda: ClosedInterval(F(0)),
        lambda: HalfOpenInterval(F(-1)),
        lambda: DenseRationals(F(-1), F(1)),
        lambda: DenseRationals(F(1), F(1)),
        lambda: DistanceSetDesc(()),
    ],
)
def test_bad_component_parameters_are_rejected(build):
    with pytest.raises(InvalidDescription):
        build()


# --- membership ---


def test_geomdown_membership_exact_powers():
    d = D(GeomDown(F(1), F(1, 3)))
    assert contains(d, F(1, 27))
    assert contains(d, F(1))
    assert not contains(d, F(1, 5))
    assert not contains(d, F(2, 3))
    assert not contains(d, F(0))


def test_geom_membership_with_non_unit_ratio():
    d = D(GeomDown(F(3, 2), F(2, 3)))
    assert contains(d, F(3, 2))
    assert contains(d, F(1))  # 3/2 * 2/3
    assert contains(d, F(2, 3))  # 3/2 * (2/3)^2
    assert not contains(d, F(1, 2))
    up = D(GeomUp(F(2), F(3, 2)))
    assert contains(up, F(27, 4))
    assert not contains(up, F(5))


def test_interval_membership_endpoints():
    assert contains(D(ClosedInterval(F(1))), F(1))
    assert not contains(D(HalfOpenInterval(F(1))), F(1))
    assert contains(D(HalfOpenInterval(F(1))), F(99, 100))
    assert contains(D(ClosedInterval(F(1))), F(0))


def test_dense_rationals_closed_ends():
    d = D(DenseRationals(F(0), F(1)))
    assert contains(d, F(0))
    assert contains(d, F(1))
    assert contains(d, F(355, 453))
    assert not contains(d, F(101, 100))


def slow_contains(desc, x):
    """Independent membership route: walk each component directly."""
    for comp in desc.components:
        if isinstance(comp, FiniteSet):
            if x in comp.values:
                return True
        elif isinstance(comp, GeomDown):
            v = comp.r0
            while v > x:
                v *= comp.q
            if v == x:
                return True
        elif isinstance(comp, GeomUp):
            if x >= comp.r0:
                v = comp.r0
                while v < x:
                    v *= comp.q
                if v == x:
                    return True
        elif isinstance(comp, ClosedInterval):
            if 0 <= x <= comp.b:
                return True
        elif isinstance(comp, HalfOpenInterval):
            if 0 <= x < comp.b:
                return True
        elif isinstance(comp, DenseRationals):
            if comp.a <= x <= comp.b:
                return True
    return False


MIXED = D(
    fs(0, 1, 2),
    GeomDown(F(1), F(1, 3)),
    GeomUp(F(3), F(2)),
    DenseRationals(F(5), F(6)),
)


@given(
    st.fractions(
        min_value=F(0), max_value=F(30), max_denominator=64
    )
)
def test_membership_agrees_with_component_walk(x):
    assert contains(MIXED, x) == slow_contains(MIXED, x)


@given(st.integers(min_value=0, max_value=40))
def test_membership_hits_every_geometric_element(n):
    assert contains(MIXED, F(1) * F(1, 3) ** n)
    assert contains(MIXED, F(3) * F(2) ** n)


# --- structural facts on the pinned example sets ---


def test_facts_finite_0_1_2():
    f = compute_facts(D(fs(0, 1, 2)))
    assert f.zero_in_A and f.zero_isolated and f.countable and f.closed
    assert not f.well_spaced  # 1 < 2 <= 2*1
    assert f.well_founded and f.order_type_if_wf == 3
    assert f.has_max and not f.dense_near_zero
    assert not f.has_limit_point_other_than_zero
    assert f.four_values == "true"
    assert not f.interval_from_zero


def test_facts_finite_0_1_3_9_is_well_spaced():
    f = compute_facts(D(fs(0, 1, 3, 9)))
    assert f.well_spaced
    assert f.order_type_if_wf == 4
    assert f.four_values == "true"


def test_facts_geomdown_third():
    f = compute_facts(D(fs(0), GeomDown(F(1), F(1, 3))))
    assert f.well_spaced and not f.well_founded
    assert not f.zero_isolated and not f.dense_near_zero
    assert f.closed and f.has_max and f.countable
    assert f.order_type_if_wf is None
    assert f.four_values == "undecided"


def test_facts_geomdown_half_not_well_spaced():
    # 2 * (1/2)^(n+1) equals (1/2)^n exactly, violating strict doubling.
    f = compute_facts(D(fs(0), GeomDown(F(1), F(1, 2))))
    assert not f.well_spaced
    assert not f.zero_isolated


def test_facts_closed_interval():
    f = compute_facts(D(ClosedInterval(F(1))))
    assert f.zero_in_A and not f.countable and f.closed
    assert f.dense_near_zero and f.contains_right_nbhd_of_zero
    assert f.has_max and f.interval_from_zero
    assert f.some_nonzero_limit_point_in_A


def test_facts_half_open_interval_needs_its_endpoint():
    f = compute_facts(D(HalfOpenInterval(F(1))))
    assert not f.closed and not f.has_max
    g = compute_facts(D(HalfOpenInterval(F(1)), fs(1)))
    assert g.closed and g.has_max


def test_facts_dense_rationals():
    f = compute_facts(D(DenseRationals(F(0), F(1))))
    assert f.countable and not f.closed
    assert f.dense_near_zero and not f.contains_right_nbhd_of_zero
    assert f.has_max  # endpoints are rational, so 1 belongs
    assert f.some_nonzero_limit_point_in_A
    assert not f.zero_isolated


def test_facts_zero_singleton():
    f = compute_facts(D(fs(0)))
    assert f.order_type_if_wf == 1
    assert f.interval_from_zero
    assert f.well_spaced  # vacuously
    assert f.four_values == "true"


def test_facts_geomup_gives_omega_order_type():
    f = compute_facts(D(fs(0), GeomUp(F(1), F(3))))
    assert f.well_founded and f.order_type_if_wf == "omega"
    assert not f.has_max
    assert f.zero_isolated


def test_facts_dense_rationals_away_from_zero():
    f = compute_facts(D(fs(0), DenseRationals(F(1), F(2))))
    assert f.zero_isolated and not f.dense_near_zero
    assert f.has_limit_point_other_than_zero
    assert not f.closed  # irrational accumulation points are missing
    assert f.countable


def test_closed_needs_interval_to_cover_dense_block():
    assert compute_facts(D(ClosedInterval(F(2)), DenseRationals(F(0), F(1)))).closed
    assert not compute_facts(
        D(ClosedInterval(F(1)), DenseRationals(F(0), F(2)))
    ).closed


def test_geomdown_without_zero_is_not_closed():
    assert not compute_facts(D(GeomDown(F(1), F(1, 3)))).closed


def test_interval_from_zero_tolerates_dominated_components():
    f = compute_facts(D(ClosedInterval(F(2)), fs(0, 1)))
    assert f.interval_from_zero
    g = compute_facts(D(ClosedInterval(F(1)), fs(0, 5)))
    assert not g.interval_from_zero


# --- well-spacedness: closed form vs windowed brute force ---


def _window_elements(desc, lo, hi):
    pts = set()
    for comp in desc.components:
        if isinstance(comp, FiniteSet):
            pts.update(v for v in comp.values if v > 0)
        elif isinstance(comp, GeomDown):
            v = comp.r0
            while v >= lo:
                if v <= hi:
                    pts.add(v)
                v *= comp.q
        elif isinstance(comp, GeomUp):
            v = comp.r0
            while v <= hi:
                if v >= lo:
                    pts.add(v)
                v *= comp.q
    return sorted(pts)


def brute_well_spaced(desc):
    """Enumerate elements in a wide multiplicative window around the anchors
    and look for a pair x < y <= 2x. Sound for the frozen cases below: their
    lattices repeat with bounded period, so any violation shows up within a
    factor 2**12 of some anchor."""
    if any(
        isinstance(c, (ClosedInterval, HalfOpenInterval, DenseRationals))
        for c in desc.components
    ):
        return False
    anchors = [
        v
        for c in desc.components
        for v in (c.values if isinstance(c, FiniteSet) else (c.r0,))
        if v > 0
    ]
    if not anchors:
        return True
    lo, hi = min(anchors) / 2**12, max(anchors) * 2**12
    pts = _window_elements(desc, lo, hi)
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if y > 2 * x:
                break
            return False
    return True


WELL_SPACED_CASES = [
    (D(fs(0, 1, 2)), False),
    (D(fs(0, 1, 3, 9)), True),
    (D(GeomDown(F(1), F(1, 3))), True),
    (D(GeomDown(F(1), F(1, 2))), False),
    (D(GeomDown(F(1), F(2, 5))), True),
    (D(GeomDown(F(1), F(4, 9))), True),
    (D(GeomUp(F(1), F(3))), True),
    (D(GeomUp(F(1), F(2))), False),
    (D(GeomDown(F(1), F(1, 3)), GeomUp(F(2), F(3))), False),
    (D(GeomDown(F(1), F(1, 3)), GeomUp(F(5), F(3))), True),
    (D(GeomDown(F(1), F(1, 9)), GeomDown(F(5), F(1, 9))), False),
    (D(GeomDown(F(1), F(1, 9)), GeomDown(F(4), F(1, 9))), True),
    (D(GeomDown(F(1), F(1, 3)), GeomDown(F(1, 5), F(1, 9))), False),
    (D(fs(0, 1), GeomDown(F(1, 3), F(1, 4))), True),
    (D(fs(0, 1), GeomDown(F(1), F(1, 3))), True),
    (D(fs(0, 2), GeomDown(F(3), F(1, 2))), False),
    (D(GeomUp(F(2), F(3)), GeomUp(F(3), F(3))), False),
]


@pytest.mark.parametrize("desc,expected", WELL_SPACED_CASES)
def test_well_spaced_frozen_verdicts(desc, expected):
    assert compute_facts(desc).well_spaced is expected


@pytest.mark.parametrize("desc,expected", WELL_SPACED_CASES)
def test_well_spaced_agrees_with_windowed_brute_force(desc, expected):
    assert brute_well_spaced(desc) is expected


def test_incommensurable_geometric_pair_always_violates():
    # Ratios 3 and 5 share no primitive base, so quotients are dense.
    f = compute_facts(D(GeomDown(F(1), F(1, 3)), GeomDown(F(1), F(1, 5))))
    assert not f.well_spaced


def test_dense_component_kills_well_spacing():
    assert not compute_facts(D(DenseRationals(F(3), F(4)))).well_spaced


# --- realizability ---


def test_is_distance_set_examples():
    assert is_distance_set(D(fs(0, 1, 2)))
    assert not is_distance_set(D(fs(1, 2)))
    assert not is_distance_set(D(GeomDown(F(1), F(1, 3))))  # 0 missing
    assert is_distance_set(D(fs(0), GeomDown(F(1), F(1, 3))))
    assert is_distance_set(D(ClosedInterval(F(1))))


@given(
    st.lists(
        st.sampled_from(
            [fs(0, 1, 2), fs(0, 7), GeomUp(F(1), F(2)), fs(0)]
        ),
        min_size=1,
        max_size=3,
    )
)
def test_adding_geomdown_preserves_realizability(comps):
    base = D(*comps)
    if not is_distance_set(base):
        return
    assert is_distance_set(D(*comps, GeomDown(F(1), F(1, 2))))


# --- consistency of computed facts ---


ASSORTED = [
    D(fs(0, 1, 2)),
    D(fs(0, 1, 3, 9)),
    D(fs(0), GeomDown(F(1), F(1, 3))),
    D(fs(0), GeomUp(F(2), F(3))),
    D(ClosedInterval(F(1))),
    D(HalfOpenInterval(F(2))),
    D(DenseRationals(F(0), F(1))),
    D(fs(0), DenseRationals(F(1), F(2))),
    D(fs(1, 2)),
    D(ClosedInterval(F(1)), GeomUp(F(1), F(2))),
    MIXED,
]


@pytest.mark.parametrize("desc", ASSORTED)
def test_computed_facts_are_internally_consistent(desc):
    assert facts_consistent(compute_facts(desc))


@pytest.mark.parametrize("desc", ASSORTED)
def test_is_distance_set_agrees_with_the_classifier_rule(desc):
    assert is_distance_set(desc) == facts_realizable(compute_facts(desc))


def test_is_distance_set_skips_the_four_values_check(monkeypatch):
    import distset.urysohn

    def forbidden(values):
        raise AssertionError("is_distance_set ran the 4-values check")

    monkeypatch.setattr(distset.urysohn, "four_values_check", forbidden)
    assert is_distance_set(D(fs(*range(0, 60, 3))))
    assert not is_distance_set(D(fs(*range(1, 60, 3))))


def test_facts_consistent_rejects_contradictions():
    base = facts_to_json_dict(compute_facts(D(fs(0, 1, 2))))
    wf_without_isolation = SetFacts(**{**base, "zero_isolated": False})
    assert not facts_consistent(wf_without_isolation)
    order_type_without_wf = SetFacts(**{**base, "order_type_if_wf": None})
    assert not facts_consistent(order_type_without_wf)
    dense_but_well_spaced = SetFacts(
        **{**base, "well_founded": False, "order_type_if_wf": None, "dense_near_zero": True}
    )
    assert not facts_consistent(dense_but_well_spaced)
    # True equals {0}'s order type 1, but a bool is no order type
    zero = facts_to_json_dict(compute_facts(D(fs(0))))
    for facts in (base, zero):
        for order_type in (0, -1, "omega+1", True):
            assert not facts_consistent(SetFacts(**{**facts, "order_type_if_wf": order_type}))
    assert not facts_consistent(SetFacts(**{**base, "four_values": "maybe"}))


# --- shrinking witness ---


def test_shrinking_witness_exists_only_near_zero_density():
    assert has_shrinking_witness(D(ClosedInterval(F(1))))
    assert has_shrinking_witness(D(HalfOpenInterval(F(1))))
    assert has_shrinking_witness(D(DenseRationals(F(0), F(1))))
    assert not has_shrinking_witness(D(DenseRationals(F(1), F(2))))
    assert not has_shrinking_witness(D(fs(0), GeomDown(F(1), F(1, 3))))


# --- JSON wire format ---


def test_desc_json_round_trip():
    d = D(
        fs(0, 1),
        GeomDown(F(1), F(1, 3)),
        GeomUp(F(2), F(3, 2)),
        ClosedInterval(F(1)),
        HalfOpenInterval(F(2)),
        DenseRationals(F(0), F(1)),
    )
    assert desc_from_json(desc_to_json(d)) == d


def test_desc_to_json_uses_canonical_strings():
    data = desc_to_json(D(GeomDown(F(1), F(1, 3))))
    assert data == [{"kind": "geomdown", "r0": "1", "q": "1/3"}]


@pytest.mark.parametrize(
    "raw",
    [
        {"kind": "finite", "values": ["0"]},
        [{"values": ["0"]}],
        [{"kind": "mystery"}],
        [{"kind": "finite", "values": ["0"], "extra": 1}],
        [{"kind": "geomdown", "r0": "1"}],
        [{"kind": "finite", "values": ["0.5"]}],
        [{"kind": "denserationals", "a": "2", "b": "1"}],
        [{"kind": "finite", "values": "12"}],
        [{"kind": "finite", "values": [0, 1]}],
    ],
)
def test_desc_from_json_rejects_bad_shapes(raw):
    with pytest.raises(InvalidDescription):
        desc_from_json(raw)


def test_description_rejects_a_component_of_unknown_type():
    with pytest.raises(UnsupportedDescription, match="object"):
        DistanceSetDesc((object(),))
    with pytest.raises(UnsupportedDescription):
        DistanceSetDesc((FiniteSet((F(0),)), F(1)))


def test_facts_to_json_dict_field_order():
    d = facts_to_json_dict(compute_facts(D(fs(0, 1, 2))))
    assert list(d) == [
        "zero_in_A",
        "zero_isolated",
        "countable",
        "closed",
        "well_spaced",
        "well_founded",
        "order_type_if_wf",
        "has_max",
        "dense_near_zero",
        "contains_right_nbhd_of_zero",
        "has_limit_point_other_than_zero",
        "some_nonzero_limit_point_in_A",
        "interval_from_zero",
        "four_values",
    ]
