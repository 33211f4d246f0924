"""Rule engine turning distance-set facts into classification verdicts.

Every verdict is paired with citation tags (strings like "Thm 5.6(2)") that
name the result backing the rule. Tags are data carried in reports, chosen
once here so goldens can pin them byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .distance_sets import (
    DistanceSetDesc,
    SetFacts,
    compute_facts,
    facts_to_json_dict,
    has_shrinking_witness,
)
from .errors import InvariantViolation, NotRealizable

COMPLEXITY_CLASSES = frozenset(
    {
        "Borel",
        "Sigma11Complete",
        "Sigma11Hard",
        "Pi11Complete",
        "Pi11Hard",
        "D2Sigma11Complete",
        "D2Sigma11Hard",
        "NeitherSigma11NorPi11",
        "Pi12Complete",
    }
)

UPPER_BOUNDS = frozenset({"Pi11", "D2Sigma11", "Pi12"})


@dataclass(frozen=True)
class ComplexityVerdict:
    """A complexity class plus, for hardness-only verdicts, the known upper
    bound."""

    name: str
    upper_bound: Optional[str] = None

    def __post_init__(self):
        if self.name not in COMPLEXITY_CLASSES:
            raise ValueError(f"unknown complexity class {self.name!r}")
        if self.upper_bound is not None and self.upper_bound not in UPPER_BOUNDS:
            raise ValueError(f"unknown upper bound {self.upper_bound!r}")


@dataclass(frozen=True)
class IsomVerdict:
    kind: str
    position: Optional[Union[int, str]] = None


@dataclass(frozen=True)
class EmbedVerdict:
    kind: str
    position: Optional[Union[int, str]] = None
    invariantly_universal: Optional[bool] = None


def facts_realizable(facts: SetFacts) -> bool:
    """Whether some Polish metric space has exactly this distance set:
    0 must belong, and the set must be countable or accumulate at 0."""
    return facts.zero_in_A and (facts.countable or not facts.zero_isolated)


def _require_realizable(facts: SetFacts) -> None:
    if not facts_realizable(facts):
        raise NotRealizable()


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


def classify_topology(facts: SetFacts) -> dict:
    """Which topological properties all members share, and which are
    realized by at least one member."""
    _require_realizable(facts)
    is_zero_singleton = (
        facts.well_founded and facts.order_type_if_wf == 1 and facts.zero_in_A
    )
    is_finite = facts.well_founded and isinstance(facts.order_type_if_wf, int)
    return {
        "only_zero_dimensional": not facts.contains_right_nbhd_of_zero,
        "only_ultrametric": facts.well_spaced,
        "only_discrete": facts.zero_isolated,
        "only_connected": is_zero_singleton,
        "exists_ultrametric": facts.countable,
        "exists_discrete": facts.countable,
        "exists_connected": facts.interval_from_zero,
        "exists_compact": facts.closed
        and facts.has_max
        and (is_finite or not facts.zero_isolated),
        "exists_locally_compact": facts.countable or not facts.zero_isolated,
    }


def classify_VA(facts: SetFacts) -> ComplexityVerdict:
    """Complexity of the class of spaces whose distances all lie in A."""
    if facts.closed or facts.zero_isolated:
        return ComplexityVerdict("Borel")
    return ComplexityVerdict("Pi11Complete")


def _va_tags(verdict: ComplexityVerdict) -> list:
    return ["Thm 4.2(2)"] if verdict.name == "Borel" else ["Thm 4.2(3)"]


def classify_VAstar(facts: SetFacts) -> ComplexityVerdict:
    """Complexity of the class of spaces whose distance set is exactly A."""
    _require_realizable(facts)
    if facts.zero_isolated or not facts.has_limit_point_other_than_zero:
        return ComplexityVerdict("Borel")
    if facts.countable:
        if facts.closed:
            return ComplexityVerdict("Sigma11Complete")
        if not facts.some_nonzero_limit_point_in_A:
            return ComplexityVerdict("Pi11Complete")
        return ComplexityVerdict("D2Sigma11Complete")
    if facts.closed:
        return ComplexityVerdict("Sigma11Hard", upper_bound="Pi12")
    if not facts.some_nonzero_limit_point_in_A:
        return ComplexityVerdict("Pi11Hard", upper_bound="Pi12")
    return ComplexityVerdict("D2Sigma11Hard", upper_bound="Pi12")


_VASTAR_TAGS = {
    "Borel": ["Thm 4.5(1)"],
    "Sigma11Complete": ["Thm 4.7(2)"],
    "Pi11Complete": ["Thm 4.7(3)"],
    "D2Sigma11Complete": ["Thm 4.7(4)"],
    "Sigma11Hard": ["Thm 4.5(2)(a)", "Fact 4.1"],
    "Pi11Hard": ["Thm 4.5(2)(b)", "Fact 4.1"],
    "D2Sigma11Hard": ["Thm 4.5(2)(c)", "Fact 4.1"],
}

# Guards are evaluated independently so tests can confirm they partition
# every internally consistent fact vector.
ISOMETRY_GUARDS: tuple = (
    (
        "BorelChain",
        lambda f: f.well_founded and f.well_spaced,
    ),
    (
        "GraphIsoBireducible",
        lambda f: not (f.well_founded and f.well_spaced) and not f.dense_near_zero,
    ),
    (
        "StrictlyAboveGraphIsoBelowOrbitComplete",
        lambda f: f.dense_near_zero and not f.contains_right_nbhd_of_zero,
    ),
    (
        "OrbitComplete",
        lambda f: f.contains_right_nbhd_of_zero,
    ),
)


def _isometry_kind(facts: SetFacts) -> str:
    hits = [kind for kind, guard in ISOMETRY_GUARDS if guard(facts)]
    if len(hits) != 1:
        raise InvariantViolation(
            f"isometry guards must fire exactly once, got {hits!r}"
        )
    return hits[0]


def _isom_equals(facts: SetFacts, has_registered_witness: bool):
    if facts.countable:
        return "true", ["Thm 5.10"]
    if not facts.dense_near_zero:
        return "true", ["Thm 5.7(i)"]
    if facts.has_max:
        return "true", ["Thm 5.7(ii)"]
    if has_registered_witness:
        return "true", ["Thm 5.7(iii)"]
    return "unknown", ["Sec 6 Question"]


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


def classify_embeddability(facts: SetFacts) -> EmbedVerdict:
    """Verdict for isometric embeddability on spaces with distance set
    exactly A."""
    _require_realizable(facts)
    if facts.well_founded and facts.well_spaced:
        return EmbedVerdict("BorelChain", position=facts.order_type_if_wf)
    return EmbedVerdict("CompleteAnalyticQuasiOrder", invariantly_universal=True)


def _embed_tags(verdict: EmbedVerdict) -> list:
    if verdict.kind == "BorelChain":
        return ["Thm 5.12(1)"]
    return ["Thm 5.12(2)", "Thm 5.19"]


def urysohn_exists(facts: SetFacts) -> str:
    """Whether a Polish space over A universal for A-spaces and one-point
    homogeneous exists: needs the 4-values condition plus A closed or 0
    isolated."""
    _require_realizable(facts)
    if facts.four_values == "false":
        return "false"
    if not facts.closed and not facts.zero_isolated:
        return "false"
    if facts.four_values == "true":
        return "true"
    return "undecided"


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

    if not realizable:
        report["topology"] = None
        if facts.zero_in_A:
            va = classify_VA(facts)
            report["v_A"] = {"class": va.name, "upper_bound": va.upper_bound}
            citations["v_A"] = _va_tags(va)
        else:
            report["v_A"] = None
        report["v_A_star"] = "not_applicable"
        report["isometry_star"] = None
        report["graph_iso_reduces"] = None
        report["isom_equals_isom_star"] = None
        report["embeddability_star"] = None
        report["embeddability_star_bireducible_with_embeddability"] = None
        report["urysohn_exists"] = None
        report["citations"] = citations
        return report

    topology = classify_topology(facts)
    report["topology"] = topology
    for key, tag in _TOPOLOGY_TAGS:
        citations[f"topology.{key}"] = [tag]

    va = classify_VA(facts)
    report["v_A"] = {"class": va.name, "upper_bound": va.upper_bound}
    citations["v_A"] = _va_tags(va)

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
