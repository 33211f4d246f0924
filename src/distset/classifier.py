"""Rule engine turning distance-set facts into classification verdicts.

Every verdict is paired with citation tags (strings like "Thm 5.6(2)") that
name the result backing the rule. Tags are data carried in reports, chosen
once here so goldens can pin them byte for byte.

Each report block is declared once, in report order: _TOPOLOGY by (key, tag,
rule) rows, and _VERDICTS by (key, rule) rows whose rules give (verdict, tags).
_entry turns any verdict into its JSON entry, _TAGS holds tags by report key
and verdict name, and render_report_text shows every value through _show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .distance_sets import (
    DistanceSetDesc,
    SetFacts,
    compute_facts,
    facts_realizable,
    facts_to_json_dict,
)
from .errors import InvariantViolation, NotRealizable
from .rationals import JSON_LITERALS

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


def _require_realizable(facts: SetFacts) -> None:
    if not facts_realizable(facts):
        raise NotRealizable()


# One row per topology entry, in report order: (key, citation tag, rule).
_TOPOLOGY = (
    ("only_zero_dimensional", "Thm 3.4(1)", lambda f: not f.contains_right_nbhd_of_zero),
    ("only_ultrametric", "Thm 3.4(2)", lambda f: f.well_spaced),
    ("only_discrete", "Thm 3.4(3)", lambda f: f.zero_isolated),
    (
        "only_connected",
        "Thm 3.4(4)",
        lambda f: f.well_founded and f.order_type_if_wf == 1 and f.zero_in_A,
    ),
    ("exists_ultrametric", "Thm 3.2(2)", lambda f: f.countable),
    ("exists_discrete", "Thm 3.2(2)", lambda f: f.countable),
    ("exists_connected", "Thm 3.2(3)", lambda f: f.interval_from_zero),
    (
        "exists_compact",
        "Thm 3.2(4)",
        lambda f: f.closed
        and f.has_max
        and ((f.well_founded and isinstance(f.order_type_if_wf, int)) or not f.zero_isolated),
    ),
    ("exists_locally_compact", "Thm 3.2(5)", lambda f: f.countable or not f.zero_isolated),
)


def classify_topology(facts: SetFacts) -> dict:
    """Which topological properties all members share, and which are
    realized by at least one member."""
    _require_realizable(facts)
    return {key: rule(facts) for key, _, rule in _TOPOLOGY}


def classify_VA(facts: SetFacts) -> ComplexityVerdict:
    """Complexity of the class of spaces whose distances all lie in A."""
    if facts.closed or facts.zero_isolated:
        return ComplexityVerdict("Borel")
    return ComplexityVerdict("Pi11Complete")


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
    # A is uncountable here, and every uncountable description holds an
    # interval from 0, whose points are nonzero limit points in A: no
    # description reaches Thm 4.5(2)(b), only fact vectors do.
    if not facts.some_nonzero_limit_point_in_A:
        return ComplexityVerdict("Pi11Hard", upper_bound="Pi12")
    return ComplexityVerdict("D2Sigma11Hard", upper_bound="Pi12")


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
    # A is uncountable here, and every uncountable description holds an
    # interval from 0, so it is dense near 0: no description reaches Thm
    # 5.7(i), only fact vectors do.
    if not facts.dense_near_zero:
        return "true", ["Thm 5.7(i)"]
    if facts.has_max:
        return "true", ["Thm 5.7(ii)"]
    if has_registered_witness:
        return "true", ["Thm 5.7(iii)"]
    # A is dense near 0 here, and build_report's isom_equals_isom_star row
    # passes dense_near_zero as the witness flag: no description reaches the
    # Sec 6 Question, only fact vectors do.
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
    _require_realizable(facts)
    kind = _isometry_kind(facts)
    position = facts.order_type_if_wf if kind == "BorelChain" else None
    equals, _ = _isom_equals(facts, has_registered_witness)
    return IsomVerdict(kind, position), kind != "BorelChain", equals


def classify_embeddability(facts: SetFacts) -> EmbedVerdict:
    """Verdict for isometric embeddability on spaces with distance set
    exactly A."""
    _require_realizable(facts)
    if facts.well_founded and facts.well_spaced:
        return EmbedVerdict("BorelChain", position=facts.order_type_if_wf)
    return EmbedVerdict("CompleteAnalyticQuasiOrder", invariantly_universal=True)


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


# Citation tags of each verdict, by report key and verdict name. Only the
# isometry chain's tags also depend on its position (see _tags).
_TAGS = {
    ("v_A", "Borel"): ("Thm 4.2(2)",),
    ("v_A", "Pi11Complete"): ("Thm 4.2(3)",),
    ("v_A_star", "Borel"): ("Thm 4.5(1)",),
    ("v_A_star", "Sigma11Complete"): ("Thm 4.7(2)",),
    ("v_A_star", "Pi11Complete"): ("Thm 4.7(3)",),
    ("v_A_star", "D2Sigma11Complete"): ("Thm 4.7(4)",),
    ("v_A_star", "Sigma11Hard"): ("Thm 4.5(2)(a)", "Fact 4.1"),
    ("v_A_star", "Pi11Hard"): ("Thm 4.5(2)(b)", "Fact 4.1"),
    ("v_A_star", "D2Sigma11Hard"): ("Thm 4.5(2)(c)", "Fact 4.1"),
    ("isometry_star", "GraphIsoBireducible"): ("Thm 5.6(2)",),
    ("isometry_star", "StrictlyAboveGraphIsoBelowOrbitComplete"): ("Thm 5.6(3)",),
    ("isometry_star", "OrbitComplete"): ("Thm 5.6(4)",),
    ("embeddability_star", "BorelChain"): ("Thm 5.12(1)",),
    ("embeddability_star", "CompleteAnalyticQuasiOrder"): ("Thm 5.12(2)", "Thm 5.19"),
}


def _tags(key: str, verdict) -> list:
    """A fresh list of the citation tags backing verdict under report key."""
    if key == "isometry_star" and verdict.kind == "BorelChain":
        chain = "Thm 5.3(5)" if isinstance(verdict.position, int) else "Thm 5.3(4)"
        return ["Thm 5.6(1)", chain]
    name = verdict.name if isinstance(verdict, ComplexityVerdict) else verdict.kind
    return list(_TAGS[key, name])


def _entry(verdict):
    """A verdict's JSON entry: a complexity class with its upper bound, null
    when there is none; a kind with only the fields its verdict sets; any
    other value as it is."""
    if isinstance(verdict, ComplexityVerdict):
        return {"class": verdict.name, "upper_bound": verdict.upper_bound}
    if isinstance(verdict, (IsomVerdict, EmbedVerdict)):
        return {k: v for k, v in vars(verdict).items() if v is not None}
    return verdict


# The report's verdicts after "topology", in its dict order, which differs
# from the text report's. Each rule maps facts to (verdict, citation tags);
# tags of None come from _TAGS by the verdict's name.
_VERDICTS = (
    ("v_A", lambda f: (classify_VA(f), None)),
    ("v_A_star", lambda f: (classify_VAstar(f), None)),
    ("isometry_star", lambda f: (classify_isometry(f)[0], None)),
    ("graph_iso_reduces", lambda f: (classify_isometry(f)[1], ["Thm 5.5"])),
    # The registered witness is the shrinking map r |-> b*r/(1+r), which
    # exists exactly when the set is dense near 0.
    ("isom_equals_isom_star", lambda f: _isom_equals(f, f.dense_near_zero)),
    ("embeddability_star", lambda f: (classify_embeddability(f), None)),
    ("embeddability_star_bireducible_with_embeddability", lambda f: (True, ["Cor 5.13"])),
    ("urysohn_exists", lambda f: (urysohn_exists(f), ["Thm 4.9"])),
)

# The text report's lines after the topology block, in order.
_TEXT_KEYS = (
    "v_A",
    "v_A_star",
    "isometry_star",
    "embeddability_star",
    "graph_iso_reduces",
    "isom_equals_isom_star",
    "embeddability_star_bireducible_with_embeddability",
    "urysohn_exists",
)


def build_report(desc: DistanceSetDesc) -> dict:
    """Full classification report for a described distance set.

    A realizable set's entries come from the _TOPOLOGY and _VERDICTS
    tables, in report order. A non-realizable set lacks 0, since a described
    set that holds 0 is countable or holds an interval from 0. It keeps its
    facts; every verdict is null and the exact-set complexity reads
    not_applicable.
    """
    facts = compute_facts(desc)
    realizable = facts_realizable(facts)
    report: dict = {"realizable": realizable, "facts": facts_to_json_dict(facts)}
    citations: dict = {"realizable": ["Thm 1.2"]}
    if not realizable:
        report.update(dict.fromkeys(["topology", *dict(_VERDICTS)]), v_A_star="not_applicable")
        report["citations"] = citations
        return report

    report["topology"] = classify_topology(facts)
    for key, tag, _ in _TOPOLOGY:
        citations[f"topology.{key}"] = [tag]
    for key, rule in _VERDICTS:
        value, tags = rule(facts)
        report[key] = _entry(value)
        citations[key] = tags or _tags(key, value)
    report["citations"] = citations
    return report


def _show(value) -> str:
    """A report value as text: a class or kind followed by its qualifiers in
    parentheses, JSON literals for booleans and null."""
    if value is None or isinstance(value, bool):
        return JSON_LITERALS[value]
    if not isinstance(value, dict):
        return str(value)
    shown = value["class"] if "class" in value else value["kind"]
    if value.get("upper_bound") is not None:
        shown += f" (upper bound {value['upper_bound']})"
    if "position" in value:
        shown += f" (position {value['position']})"
    if value.get("invariantly_universal"):
        shown += " (invariantly universal)"
    return shown


def render_report_text(report: dict) -> str:
    """Stable line-oriented rendering of a report, citations included."""
    cites = report["citations"]

    def tagged(label: str, value, cite_key: str) -> str:
        tags = cites.get(cite_key)
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        return f"{label}: {_show(value)}{suffix}"

    lines = [tagged("realizable", report["realizable"], "realizable"), "facts:"]
    for key, value in sorted(report["facts"].items()):
        lines.append(f"  {key}: {_show(value)}")
    if report["topology"] is None:
        lines.append("topology: null")
    else:
        lines.append("topology:")
        for key, _, _ in _TOPOLOGY:
            lines.append("  " + tagged(key, report["topology"][key], f"topology.{key}"))
    for key in _TEXT_KEYS:
        lines.append(tagged(key, report[key], key))
    return "\n".join(lines) + "\n"
