"""Exact tools for distance sets of metric spaces: which sets of rationals
arise as all the distances of a space, what the spaces over a given set can
look like, and how hard the attached classification problems are.

`_EXPORTS` lists each public name once, under the module that defines it.
`import distset` imports none of those modules; a module is imported when
one of its names, or the module itself, is first read from the package."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "classifier": (
        "ComplexityVerdict", "EmbedVerdict", "IsomVerdict", "build_report", "classify_VA",
        "classify_VAstar", "classify_embeddability", "classify_isometry", "classify_topology",
        "render_report_text", "urysohn_exists",
    ),
    "constructions": (
        "Graph", "TreeData", "check_tree_suitable", "glue", "graph_from_json_dict",
        "graph_space", "graph_to_json_dict", "max_product", "space_to_graph", "tree_space",
    ),
    "distance_sets": (
        "ClosedInterval", "DenseRationals", "DistanceSetDesc", "FiniteSet", "GeomDown", "GeomUp",
        "HalfOpenInterval", "SetFacts", "compute_facts", "contains", "desc_from_json",
        "desc_to_json", "facts_consistent", "facts_realizable", "facts_to_json_dict",
        "has_shrinking_witness", "is_distance_set",
    ),
    "errors": ("DistSetError",),
    "metric": (
        "FiniteMetricSpace", "distance_spectrum", "is_ultrametric", "space_from_json_dict",
        "space_to_json_dict", "subspace", "validate_metric",
    ),
    "metric_preserving": (
        "TabulatedFunction", "check_sufficient_condition", "func_from_json", "func_to_json",
        "is_metric_preserving_finite", "slope_construction",
    ),
    "oracles": ("find_embedding", "find_isometry", "graph_embed", "graph_iso", "verify_reduction"),
    "rationals": ("format_rational", "parse_rational", "rat"),
    "urysohn": (
        "KatetovFunction", "StageResult", "extend_one_point", "four_values_check",
        "katetov_extensions", "urysohn_stage", "verify_one_point_homogeneity",
        "verify_universality",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER, *_EXPORTS})
