"""Rule engine verdicts, guard partition, and report assembly."""

import dataclasses
import itertools
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import classifier_reference as cref
from classifier_reference import _jsonable
from distset.classifier import (
    COMPLEXITY_CLASSES,
    ISOMETRY_GUARDS,
    ComplexityVerdict,
    _isom_equals,
    build_report,
    classify_VA,
    classify_VAstar,
    classify_embeddability,
    classify_isometry,
    classify_topology,
    facts_realizable,
    render_report_text,
    urysohn_exists,
)
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
    desc_from_json,
    facts_consistent,
)
from distset.errors import NotRealizable

F = Fraction
DATA = pathlib.Path(__file__).parent / "data"
SHIPPED = sorted(path.stem for path in (DATA / "descs").glob("*.json"))


def load_desc(name):
    return desc_from_json(json.loads((DATA / "descs" / f"{name}.json").read_text()))


def D(*comps):
    return DistanceSetDesc(tuple(comps))


def fs(*vals):
    return FiniteSet(tuple(F(v) for v in vals))


FINITE_012 = compute_facts(load_desc("finite-0-1-2"))
FINITE_0139 = compute_facts(load_desc("finite-0-1-3-9"))
GEOM_HALF = compute_facts(load_desc("geomdown-half"))
GEOM_THIRD = compute_facts(load_desc("geomdown-third"))
INTERVAL = compute_facts(load_desc("closed-interval"))
DENSE_Q = compute_facts(load_desc("dense-rationals"))
ZERO_ONLY = compute_facts(load_desc("zero-only"))


def test_complexity_verdict_accepts_known_names():
    for name in COMPLEXITY_CLASSES:
        ComplexityVerdict(name)
    ComplexityVerdict("Sigma11Hard", upper_bound="Pi12")


def test_complexity_verdict_rejects_unknown():
    with pytest.raises(ValueError, match="unknown complexity class"):
        ComplexityVerdict("Sigma12Complete")
    with pytest.raises(ValueError, match="unknown upper bound"):
        ComplexityVerdict("Sigma11Hard", upper_bound="Delta12")


def test_realizability():
    assert facts_realizable(FINITE_012)
    assert facts_realizable(INTERVAL)
    assert facts_realizable(ZERO_ONLY)
    no_zero = compute_facts(D(fs(1, 2)))
    assert not facts_realizable(no_zero)


def test_nonrealizable_facts_are_refused():
    no_zero = compute_facts(D(fs(1, 2)))
    with pytest.raises(NotRealizable):
        classify_VAstar(no_zero)
    with pytest.raises(NotRealizable):
        classify_isometry(no_zero)
    with pytest.raises(NotRealizable):
        classify_topology(no_zero)


def test_va_by_closedness():
    assert classify_VA(FINITE_012) == ComplexityVerdict("Borel")
    assert classify_VA(INTERVAL) == ComplexityVerdict("Borel")
    # dense rationals in [0,1]: not closed, 0 not isolated
    assert classify_VA(DENSE_Q) == ComplexityVerdict("Pi11Complete")


def test_vastar_verdicts_on_goldens():
    assert classify_VAstar(FINITE_012) == ComplexityVerdict("Borel")
    assert classify_VAstar(GEOM_HALF) == ComplexityVerdict("Borel")
    assert classify_VAstar(DENSE_Q) == ComplexityVerdict("D2Sigma11Complete")
    assert classify_VAstar(INTERVAL) == ComplexityVerdict(
        "Sigma11Hard", upper_bound="Pi12"
    )


def test_vastar_remaining_branches_with_synthetic_facts():
    # no description component can park a limit point off the set away from
    # 0, so these branches are exercised on hand-assembled fact vectors
    base = dataclasses.replace(
        GEOM_HALF,
        has_limit_point_other_than_zero=True,
        some_nonzero_limit_point_in_A=True,
    )
    assert classify_VAstar(base) == ComplexityVerdict("Sigma11Complete")
    pi11 = dataclasses.replace(
        base, closed=False, some_nonzero_limit_point_in_A=False
    )
    assert classify_VAstar(pi11) == ComplexityVerdict("Pi11Complete")
    assert classify_VAstar(
        dataclasses.replace(pi11, countable=False)
    ) == ComplexityVerdict("Pi11Hard", upper_bound="Pi12")


def test_vastar_uncountable_not_closed_branch():
    half_open = compute_facts(D(HalfOpenInterval(F(1))))
    assert not half_open.countable and not half_open.closed
    assert classify_VAstar(half_open) == ComplexityVerdict(
        "D2Sigma11Hard", upper_bound="Pi12"
    )


def test_topology_on_goldens():
    topo = classify_topology(FINITE_012)
    assert topo == {
        "only_zero_dimensional": True,
        "only_ultrametric": False,
        "only_discrete": True,
        "only_connected": False,
        "exists_ultrametric": True,
        "exists_discrete": True,
        "exists_connected": False,
        "exists_compact": True,
        "exists_locally_compact": True,
    }
    topo = classify_topology(INTERVAL)
    assert topo["only_zero_dimensional"] is False
    assert topo["exists_connected"] is True
    assert topo["exists_compact"] is True
    topo = classify_topology(ZERO_ONLY)
    assert topo["only_connected"] is True
    topo = classify_topology(GEOM_THIRD)
    assert topo["only_ultrametric"] is True  # ratio 1/3 spaces the set out
    assert topo["only_discrete"] is False


def test_isometry_guards_on_goldens():
    # {0,1,2} is well founded but 2*1 = 2 spoils the spacing
    v, reduces, equals = classify_isometry(FINITE_012)
    assert v.kind == "GraphIsoBireducible" and v.position is None
    assert reduces and equals == "true"

    # {0,1,3,9} has both properties, chain position = order type
    v, reduces, equals = classify_isometry(FINITE_0139)
    assert v.kind == "BorelChain" and v.position == 4
    assert not reduces and equals == "true"

    # ratio 1/3 keeps the spacing but the descending chain kills wf
    v, reduces, equals = classify_isometry(GEOM_THIRD)
    assert v.kind == "GraphIsoBireducible"
    assert reduces and equals == "true"

    v, reduces, equals = classify_isometry(GEOM_HALF)
    assert v.kind == "GraphIsoBireducible"
    assert reduces and equals == "true"

    v, reduces, equals = classify_isometry(DENSE_Q)
    assert v.kind == "StrictlyAboveGraphIsoBelowOrbitComplete"
    assert reduces and equals == "true"

    v, reduces, equals = classify_isometry(INTERVAL)
    assert v.kind == "OrbitComplete"
    assert reduces and equals == "true"

    v, reduces, equals = classify_isometry(ZERO_ONLY)
    assert v.kind == "BorelChain" and v.position == 1
    assert not reduces and equals == "true"


def test_isometry_omega_chain_position():
    facts = compute_facts(D(fs(0), GeomUp(F(1), F(3))))
    v, reduces, equals = classify_isometry(facts)
    assert v.kind == "BorelChain" and v.position == "omega"
    assert not reduces and equals == "true"


def test_isom_equals_on_a_fact_vector_not_dense_near_zero():
    # uncountable but not dense near 0: no description reaches Thm 5.7(i)
    flags = {field.name: False for field in dataclasses.fields(SetFacts)}
    facts = SetFacts(
        **{**flags, "zero_in_A": True, "order_type_if_wf": None, "four_values": "undecided"}
    )
    assert facts_consistent(facts) and facts_realizable(facts)
    assert _isom_equals(facts, False) == ("true", ["Thm 5.7(i)"])
    _, _, equals = classify_isometry(facts)
    assert equals == "true"


def test_isom_equals_fallback_order():
    # erase max and the right neighborhood from the interval facts to reach
    # the open regime: uncountable, dense near 0, no max
    open_dense = dataclasses.replace(
        INTERVAL,
        has_max=False,
        closed=False,
        contains_right_nbhd_of_zero=False,
        interval_from_zero=False,
    )
    assert facts_consistent(open_dense)
    _, _, equals = classify_isometry(open_dense)
    assert equals == "unknown"
    _, _, equals = classify_isometry(open_dense, has_registered_witness=True)
    assert equals == "true"
    _, _, equals = classify_isometry(dataclasses.replace(open_dense, has_max=True))
    assert equals == "true"
    # countable wins before any of the above
    _, _, equals = classify_isometry(DENSE_Q)
    assert equals == "true"


def test_embeddability_verdicts():
    v = classify_embeddability(FINITE_0139)
    assert v.kind == "BorelChain" and v.position == 4
    v = classify_embeddability(GEOM_HALF)
    assert v.kind == "CompleteAnalyticQuasiOrder"
    assert v.invariantly_universal is True
    v = classify_embeddability(FINITE_012)
    assert v.kind == "CompleteAnalyticQuasiOrder"


def test_urysohn_existence_branches():
    assert urysohn_exists(FINITE_012) == "true"
    assert urysohn_exists(FINITE_0139) == "true"
    bad = compute_facts(D(fs(0, 1, 2, 4)))
    assert urysohn_exists(bad) == "false"
    assert urysohn_exists(DENSE_Q) == "false"  # neither closed nor 0 isolated
    assert urysohn_exists(GEOM_HALF) == "undecided"  # closed, 4-values open
    assert urysohn_exists(INTERVAL) == "undecided"


def test_guards_partition_consistent_fact_space():
    # sweep every consistent fact vector; exactly one guard must fire
    bools = [False, True]
    covered = set()
    checked = 0
    for (
        zero_in,
        zero_iso,
        countable,
        closed,
        well_spaced,
        well_founded,
        has_max,
        dense,
        nbhd,
        limit_other,
        limit_in_A,
        interval,
    ) in itertools.product(bools, repeat=12):
        for order_type in (None, 1, 2, "omega"):
            for fv in ("true", "false", "undecided"):
                facts = SetFacts(
                    zero_in_A=zero_in,
                    zero_isolated=zero_iso,
                    countable=countable,
                    closed=closed,
                    well_spaced=well_spaced,
                    well_founded=well_founded,
                    order_type_if_wf=order_type,
                    has_max=has_max,
                    dense_near_zero=dense,
                    contains_right_nbhd_of_zero=nbhd,
                    has_limit_point_other_than_zero=limit_other,
                    some_nonzero_limit_point_in_A=limit_in_A,
                    interval_from_zero=interval,
                    four_values=fv,
                )
                if not facts_consistent(facts):
                    continue
                checked += 1
                hits = [kind for kind, guard in ISOMETRY_GUARDS if guard(facts)]
                assert len(hits) == 1, (facts, hits)
                covered.add(hits[0])
    assert checked > 100
    assert covered == {
        "BorelChain",
        "GraphIsoBireducible",
        "StrictlyAboveGraphIsoBelowOrbitComplete",
        "OrbitComplete",
    }


def test_report_shape_for_realizable_set():
    report = build_report(load_desc("finite-0-1-2"))
    assert report["realizable"] is True
    assert set(report.keys()) == {
        "realizable",
        "facts",
        "topology",
        "v_A",
        "v_A_star",
        "isometry_star",
        "graph_iso_reduces",
        "isom_equals_isom_star",
        "embeddability_star",
        "embeddability_star_bireducible_with_embeddability",
        "urysohn_exists",
        "citations",
    }
    assert report["isometry_star"] == {"kind": "GraphIsoBireducible"}
    assert report["citations"]["isometry_star"] == ["Thm 5.6(2)"]
    assert report["citations"]["realizable"] == ["Thm 1.2"]
    assert report["graph_iso_reduces"] is True


def test_report_citations_track_position_kind():
    report = build_report(load_desc("finite-0-1-3-9"))
    assert report["isometry_star"] == {"kind": "BorelChain", "position": 4}
    assert report["citations"]["isometry_star"] == ["Thm 5.6(1)", "Thm 5.3(5)"]
    report = build_report(D(fs(0), GeomUp(F(1), F(3))))
    assert report["isometry_star"] == {"kind": "BorelChain", "position": "omega"}
    assert report["citations"]["isometry_star"] == ["Thm 5.6(1)", "Thm 5.3(4)"]
    assert report["embeddability_star"] == {"kind": "BorelChain", "position": "omega"}
    assert report["citations"]["embeddability_star"] == ["Thm 5.12(1)"]


def test_report_for_nonrealizable_set():
    report = build_report(D(fs(1, 2)))
    assert report["realizable"] is False
    assert report["topology"] is None
    assert report["v_A"] is None  # 0 missing, distances-within class undefined
    assert report["v_A_star"] == "not_applicable"
    assert report["isometry_star"] is None
    assert report["graph_iso_reduces"] is None
    assert report["urysohn_exists"] is None
    assert report["citations"] == {"realizable": ["Thm 1.2"]}


_POSITIVE = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
_COMPONENTS = st.one_of(
    st.lists(st.one_of(st.just(F(0)), _POSITIVE), min_size=1, max_size=3).map(
        lambda values: FiniteSet(tuple(values))
    ),
    st.builds(GeomDown, _POSITIVE, st.sampled_from((F(1, 2), F(1, 3), F(2, 3), F(4, 9)))),
    st.builds(GeomUp, _POSITIVE, st.sampled_from((F(2), F(3), F(3, 2), F(9, 4)))),
    st.builds(ClosedInterval, _POSITIVE),
    st.builds(HalfOpenInterval, _POSITIVE),
    st.builds(
        lambda a, width: DenseRationals(a, a + width), st.one_of(st.just(F(0)), _POSITIVE), _POSITIVE
    ),
)


def _scaled(comp, t):
    """comp with every value, r0, a and b times t; each ratio q stays."""
    changes = {}
    for field in dataclasses.fields(comp):
        value = getattr(comp, field.name)
        if field.name == "values":
            changes["values"] = tuple(v * t for v in value)
        elif field.name != "q":
            changes[field.name] = value * t
    return dataclasses.replace(comp, **changes)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(comps=st.lists(_COMPONENTS, min_size=1, max_size=4), t=_POSITIVE, data=st.data())
def test_report_is_invariant_under_scaling_and_reordering(comps, t, data):
    # every fact is scale-free (well-spacing compares x with 2x, the 4-values
    # condition is homogeneous) and none depends on the order of the union
    report = build_report(D(*comps))
    assert build_report(D(*data.draw(st.permutations(comps)))) == report
    assert build_report(D(*(_scaled(c, t) for c in comps))) == report


def test_render_text_lines():
    report = build_report(load_desc("finite-0-1-3-9"))
    text = render_report_text(report)
    lines = text.splitlines()
    assert lines[0] == "realizable: true  [Thm 1.2]"
    assert "  countable: true" in lines
    assert "v_A: Borel  [Thm 4.2(2)]" in lines
    assert "isometry_star: BorelChain (position 4)  [Thm 5.6(1), Thm 5.3(5)]" in lines
    assert "urysohn_exists: true  [Thm 4.9]" in lines
    assert text.endswith("\n")


def test_render_text_upper_bound_and_universality():
    report = build_report(load_desc("closed-interval"))
    text = render_report_text(report)
    assert "v_A_star: Sigma11Hard (upper bound Pi12)  [Thm 4.5(2)(a), Fact 4.1]" in text
    assert (
        "embeddability_star: CompleteAnalyticQuasiOrder (invariantly universal)"
        "  [Thm 5.12(2), Thm 5.19]" in text
    )


def test_render_text_nonrealizable():
    report = build_report(D(fs(1, 2)))
    text = render_report_text(report)
    assert text.startswith("realizable: false  [Thm 1.2]")
    assert "topology: null" in text
    assert "v_A_star: not_applicable" in text
    assert "urysohn_exists: null" in text


def test_render_is_stable():
    report = build_report(load_desc("geomdown-half"))
    assert render_report_text(report) == render_report_text(report)


def test_seven_descriptions_are_shipped():
    assert len(SHIPPED) == 7


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_report_and_text_match_reference(name):
    report, want = build_report(load_desc(name)), cref.build_report(load_desc(name))
    assert json.dumps(_jsonable(report)) == json.dumps(_jsonable(want))
    assert render_report_text(report) == cref.render_report_text(want)


@pytest.mark.parametrize("name", SHIPPED)
def test_reports_never_share_a_citations_list(name):
    first, second = build_report(load_desc(name)), build_report(load_desc(name))
    other = build_report(load_desc("finite-0-1-3-9"))
    for key, tags in first["citations"].items():
        assert isinstance(tags, list), key
        assert tags is not second["citations"][key], key
        assert all(tags is not shared for shared in other["citations"].values()), key
        tags.append("edited")
    assert build_report(load_desc(name)) == second
