"""Test-only reference: report assembly and text rendering as they were
before distset.classifier drove both from one table.

Kept as it was: each verdict's JSON shape built by hand, citation tags from
one helper per verdict, and one rendering loop per value shape.
tests/test_distance_sets_differential.py and tests/test_classifier.py run
both on the same descriptions and require equal reports (JSON key order
included) and equal text. The helpers that did not change are imported from
distset.classifier; build_report reads the registered-witness flag from
has_shrinking_witness as it did.

_jsonable is the report writer's first walk as it was before distset.cli
wrote Fractions itself: it turned every Fraction into its "p/q" string and
copied the payload, which json.dumps then wrote. Report comparisons run
through it, and tests/test_cli.py requires cli._dumps(v) to equal
json.dumps(_jsonable(v), sort_keys=True, indent=2).
"""

from __future__ import annotations

from fractions import Fraction

from distset.classifier import (
    IsomVerdict,
    _isom_equals,
    _isometry_kind,
    _require_realizable,
    classify_embeddability,
    classify_topology,
    classify_VA,
    classify_VAstar,
    urysohn_exists,
)
from distset.distance_sets import (
    DistanceSetDesc,
    SetFacts,
    compute_facts,
    facts_realizable,
    facts_to_json_dict,
    has_shrinking_witness,
)
from distset.rationals import format_rational

_TOPOLOGY_TAGS = (
    ("only_zero_dimensional", "Thm 3.4(1)"),
    ("only_ultrametric", "Thm 3.4(2)"),
    ("only_discrete", "Thm 3.4(3)"),
    ("only_connected", "Thm 3.4(4)"),
    ("exists_ultrametric", "Thm 3.2(2)"),
    ("exists_discrete", "Thm 3.2(2)"),
    ("exists_connected", "Thm 3.2(3)"),
    ("exists_compact", "Thm 3.2(4)"),
    ("exists_locally_compact", "Thm 3.2(5)"),
)


def _va_tags(verdict) -> list:
    return ["Thm 4.2(2)"] if verdict.name == "Borel" else ["Thm 4.2(3)"]


_VASTAR_TAGS = {
    "Borel": ["Thm 4.5(1)"],
    "Sigma11Complete": ["Thm 4.7(2)"],
    "Pi11Complete": ["Thm 4.7(3)"],
    "D2Sigma11Complete": ["Thm 4.7(4)"],
    "Sigma11Hard": ["Thm 4.5(2)(a)", "Fact 4.1"],
    "Pi11Hard": ["Thm 4.5(2)(b)", "Fact 4.1"],
    "D2Sigma11Hard": ["Thm 4.5(2)(c)", "Fact 4.1"],
}


def classify_isometry(
    facts: SetFacts, *, has_registered_witness: bool = False
) -> tuple:
    """Verdict for isometry on spaces with distance set exactly A, plus
    whether countable graph isomorphism reduces to it, plus whether it
    coincides in complexity with the relation on the larger class.

    The witness flag records a registered injective non-surjective metric
    preserving self-map of A; facts alone cannot certify one.
    """
    verdict, graph_iso_reduces, (equals, _) = _classify_isometry(facts, has_registered_witness)
    return verdict, graph_iso_reduces, equals


def _classify_isometry(facts: SetFacts, has_registered_witness: bool) -> tuple:
    """classify_isometry's answers, with the equality verdict's tags."""
    _require_realizable(facts)
    kind = _isometry_kind(facts)
    if kind == "BorelChain":
        verdict = IsomVerdict("BorelChain", position=facts.order_type_if_wf)
    else:
        verdict = IsomVerdict(kind)
    graph_iso_reduces = not facts.well_founded or not facts.well_spaced
    return verdict, graph_iso_reduces, _isom_equals(facts, has_registered_witness)


def _isometry_tags(verdict: IsomVerdict) -> list:
    if verdict.kind == "BorelChain":
        chain = "Thm 5.3(5)" if isinstance(verdict.position, int) else "Thm 5.3(4)"
        return ["Thm 5.6(1)", chain]
    return {
        "GraphIsoBireducible": ["Thm 5.6(2)"],
        "StrictlyAboveGraphIsoBelowOrbitComplete": ["Thm 5.6(3)"],
        "OrbitComplete": ["Thm 5.6(4)"],
    }[verdict.kind]


def _embed_tags(verdict) -> list:
    if verdict.kind == "BorelChain":
        return ["Thm 5.12(1)"]
    return ["Thm 5.12(2)", "Thm 5.19"]


_UNREALIZABLE_NULL_KEYS = (
    "isometry_star",
    "graph_iso_reduces",
    "isom_equals_isom_star",
    "embeddability_star",
    "embeddability_star_bireducible_with_embeddability",
    "urysohn_exists",
)


def build_report(desc: DistanceSetDesc) -> dict:
    """Full classification report for a described distance set.

    Non-realizable sets keep their facts and, when 0 belongs, the verdict
    for the distances-within-A class; every exact-distance-set verdict is
    null and the exact-set complexity reads not_applicable.
    """
    facts = compute_facts(desc)
    realizable = facts_realizable(facts)
    citations: dict = {"realizable": ["Thm 1.2"]}
    report: dict = {
        "realizable": realizable,
        "facts": facts_to_json_dict(facts),
    }

    if realizable:
        report["topology"] = classify_topology(facts)
        for key, tag in _TOPOLOGY_TAGS:
            citations[f"topology.{key}"] = [tag]
    else:
        report["topology"] = None

    if facts.zero_in_A:
        va = classify_VA(facts)
        report["v_A"] = {"class": va.name, "upper_bound": va.upper_bound}
        citations["v_A"] = _va_tags(va)
    else:
        report["v_A"] = None

    if not realizable:
        report["v_A_star"] = "not_applicable"
        report.update(dict.fromkeys(_UNREALIZABLE_NULL_KEYS))
        report["citations"] = citations
        return report

    vastar = classify_VAstar(facts)
    report["v_A_star"] = {"class": vastar.name, "upper_bound": vastar.upper_bound}
    citations["v_A_star"] = list(_VASTAR_TAGS[vastar.name])

    witness = has_shrinking_witness(desc)
    isom, graph_iso_reduces, (equals, equal_tags) = _classify_isometry(facts, witness)
    if isom.kind == "BorelChain":
        report["isometry_star"] = {"kind": isom.kind, "position": isom.position}
    else:
        report["isometry_star"] = {"kind": isom.kind}
    citations["isometry_star"] = _isometry_tags(isom)

    report["graph_iso_reduces"] = graph_iso_reduces
    citations["graph_iso_reduces"] = ["Thm 5.5"]

    report["isom_equals_isom_star"] = equals
    citations["isom_equals_isom_star"] = equal_tags

    embed = classify_embeddability(facts)
    if embed.kind == "BorelChain":
        report["embeddability_star"] = {"kind": embed.kind, "position": embed.position}
    else:
        report["embeddability_star"] = {
            "kind": embed.kind,
            "invariantly_universal": embed.invariantly_universal,
        }
    citations["embeddability_star"] = _embed_tags(embed)

    report["embeddability_star_bireducible_with_embeddability"] = True
    citations["embeddability_star_bireducible_with_embeddability"] = ["Cor 5.13"]

    report["urysohn_exists"] = urysohn_exists(facts)
    citations["urysohn_exists"] = ["Thm 4.9"]

    report["citations"] = citations
    return report


def _fmt(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return str(value)


def render_report_text(report: dict) -> str:
    """Stable line-oriented rendering of a report, citations included."""
    cites = report["citations"]

    def tagged(label: str, value, cite_key: str) -> str:
        tags = cites.get(cite_key)
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        return f"{label}: {_fmt(value)}{suffix}"

    lines = [tagged("realizable", report["realizable"], "realizable"), "facts:"]
    for key, value in sorted(report["facts"].items()):
        lines.append(f"  {key}: {_fmt(value)}")

    if report["topology"] is None:
        lines.append("topology: null")
    else:
        lines.append("topology:")
        for key, _ in _TOPOLOGY_TAGS:
            lines.append(
                "  " + tagged(key, report["topology"][key], f"topology.{key}")
            )

    for key in ("v_A", "v_A_star"):
        value = report[key]
        if isinstance(value, dict):
            shown = value["class"]
            if value["upper_bound"] is not None:
                shown += f" (upper bound {value['upper_bound']})"
        else:
            shown = value
        lines.append(tagged(key, shown, key))

    for key in ("isometry_star", "embeddability_star"):
        value = report[key]
        if isinstance(value, dict):
            shown = value["kind"]
            if "position" in value:
                shown += f" (position {value['position']})"
            if value.get("invariantly_universal"):
                shown += " (invariantly universal)"
        else:
            shown = value
        lines.append(tagged(key, shown, key))

    for key in (
        "graph_iso_reduces",
        "isom_equals_isom_star",
        "embeddability_star_bireducible_with_embeddability",
        "urysohn_exists",
    ):
        lines.append(tagged(key, report[key], key))
    return "\n".join(lines) + "\n"


# leaves that JSON writes as they are
_PLAIN = frozenset({str, int, bool, type(None)})


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        if _PLAIN.issuperset(map(type, value)):  # a written matrix row, say
            return value
        return [_jsonable(item) for item in value]
    return value
