"""The package's one export table: what `import distset` loads, and what
`__all__`, `from distset import *`, `dir(distset)` and `distset.<name>` give."""

import importlib
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import distset

INIT = Path(distset.__file__)

MODULES = (
    "classifier", "constructions", "distance_sets", "errors", "metric", "metric_preserving",
    "oracles", "rationals", "urysohn",
)

# the public names of dir(distset): the 68 exports and the nine modules that define them
PUBLIC = [
    "ClosedInterval", "ComplexityVerdict", "DenseRationals", "DistSetError", "DistanceSetDesc",
    "EmbedVerdict", "FiniteMetricSpace", "FiniteSet", "GeomDown", "GeomUp", "Graph",
    "HalfOpenInterval", "IsomVerdict", "KatetovFunction", "SetFacts", "StageResult",
    "TabulatedFunction", "TreeData", "build_report", "check_sufficient_condition",
    "check_tree_suitable", "classifier", "classify_VA", "classify_VAstar",
    "classify_embeddability", "classify_isometry", "classify_topology", "compute_facts",
    "constructions", "contains", "desc_from_json", "desc_to_json", "distance_sets",
    "distance_spectrum", "errors", "extend_one_point", "facts_consistent", "facts_realizable",
    "facts_to_json_dict", "find_embedding", "find_isometry", "format_rational",
    "four_values_check", "func_from_json", "func_to_json", "glue", "graph_embed",
    "graph_from_json_dict", "graph_iso", "graph_space", "graph_to_json_dict",
    "has_shrinking_witness", "is_distance_set", "is_metric_preserving_finite", "is_ultrametric",
    "katetov_extensions", "max_product", "metric", "metric_preserving", "oracles",
    "parse_rational", "rat", "rationals", "render_report_text", "slope_construction",
    "space_from_json_dict", "space_to_graph", "space_to_json_dict", "subspace", "tree_space",
    "urysohn", "urysohn_exists", "urysohn_stage", "validate_metric",
    "verify_one_point_homogeneity", "verify_reduction", "verify_universality",
]


def fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that finds this distset first."""
    path = os.pathsep.join(filter(None, [str(INIT.parent.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = 'print(sorted(m for m in sys.modules if m.startswith("distset.")))'


def test_import_loads_no_module_and_a_name_loads_only_its_own():
    assert fresh(f"import sys, distset\n{LOADED}") == "[]\n"
    code = f"import sys, distset\ndistset.rat\n{LOADED}\nprint('rat' in vars(distset))"
    assert fresh(code) == "['distset.rationals']\nTrue\n"  # read once, then a global
    assert fresh(f"import sys, distset\ndistset.DistSetError\n{LOADED}") == "['distset.errors']\n"


def test_modules_load_by_attribute_and_by_from_import():
    code = (
        "import distset\n"
        "print(distset.metric.__name__)\n"
        "from distset import cli, metric\n"
        "print(cli.__name__, metric is distset.metric, cli is distset.cli)\n"
    )
    assert fresh(code) == "distset.metric\ndistset.cli True True\n"


def test_star_import_binds_all_exports():
    assert distset.__all__ == [n for n in PUBLIC if n not in MODULES]
    assert len(distset.__all__) == 68
    namespace: dict = {}
    exec("from distset import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == distset.__all__
    assert all(value is getattr(distset, name) for name, value in namespace.items())


@pytest.mark.parametrize("module", MODULES)
def test_each_export_is_its_defining_modules(module):
    defining = importlib.import_module(f"distset.{module}")
    for name in distset._EXPORTS[module]:
        value = getattr(distset, name)
        assert value is getattr(defining, name)
        assert value.__module__ == f"distset.{module}", name


def test_public_dir():
    code = 'import distset\nprint(*(n for n in dir(distset) if not n.startswith("_")))'
    assert fresh(code).split() == PUBLIC


def test_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError) as raised:
        distset.nope
    assert str(raised.value) == "module 'distset' has no attribute 'nope'"
    with pytest.raises(ImportError):
        from distset import nope  # noqa: F401


def test_init_names_each_export_once():
    tokens = tokenize.generate_tokens(io.StringIO(INIT.read_text()).readline)
    words = [t.string.strip("\"'") for t in tokens if t.type in (tokenize.NAME, tokenize.STRING)]
    assert {name: words.count(name) for name in distset.__all__} == dict.fromkeys(distset.__all__, 1)
