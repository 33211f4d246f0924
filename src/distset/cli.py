"""Batch command line: analyze described distance sets, build spaces,
run oracles and reductions, grow saturation stages, probe metric
preserving functions.

Exit codes: 0 on success, 1 when a domain error from a library module is
rendered verbatim, 2 on usage, file, or JSON-shape problems, JSON nested too
deeply to parse included. Every input file but a description is read through
read_shape against its kind's declaration. Reports are emitted as canonical
JSON (sorted keys, rationals as "p/q" strings) so that identical requests
produce byte-identical artifacts; analysis reports also carry the tool
version and a digest of the input bytes. Construction and slope outputs are
bare module formats with no report envelope, so they can be fed back in as
inputs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .classifier import build_report, render_report_text
from .constructions import (
    TreeData,
    glue,
    graph_from_json_dict,
    graph_space,
    graph_to_json_dict,
    max_product,
    space_to_graph,
    tree_space,
)
from .distance_sets import FiniteSet, desc_from_json
from .errors import DistSetError, InvalidDescription
from .metric import space_from_json_dict, space_to_json_dict
from .metric_preserving import (
    check_sufficient_condition,
    func_from_json,
    func_to_json,
    is_metric_preserving_finite,
    slope_construction,
)
from .oracles import find_embedding, find_isometry, graph_embed, graph_iso, verify_reduction
from .rationals import INT, RATIONAL, Leaf, ListOf, format_rational, parse_rational, read_shape
from .urysohn import urysohn_stage, verify_one_point_homogeneity, verify_universality

_ORACLES = {
    "isometry": (find_isometry, space_from_json_dict),
    "embedding": (find_embedding, space_from_json_dict),
    "graph-iso": (graph_iso, graph_from_json_dict),
    "graph-embed": (graph_embed, graph_from_json_dict),
}


_RATIONALS = ListOf(RATIONAL, "'p/q' string")
_TREE = {
    "nodes": ListOf(ListOf(INT, "integer"), "node"),
    "r_seq": _RATIONALS,
    "rp_seq": _RATIONALS,
    "x": RATIONAL,
}
_SLOPE = {"a": RATIONAL, "b": RATIONAL, "tail": _RATIONALS, "pool": _RATIONALS}
# each file is read by the loader of its relation
_FILES = ListOf(Leaf(None), "file", 2)
_REDUCTION = ListOf({"input": _FILES, "transformed": _FILES}, "pair")


def _tree_from_json(raw) -> TreeData:
    return TreeData(**read_shape(raw, _TREE, "tree"))


# name: (build, writer, rational flags, one loader per input file); build takes
# the loaded inputs, then the flags' values
_CONSTRUCTIONS = {
    "glue": (glue, space_to_json_dict, ("r",), space_from_json_dict, space_from_json_dict),
    "max-product": (
        max_product, space_to_json_dict, (), space_from_json_dict, space_from_json_dict
    ),
    "tree-space": (tree_space, space_to_json_dict, (), _tree_from_json),
    "graph-space": (graph_space, space_to_json_dict, ("r", "rp"), graph_from_json_dict),
    "space-to-graph": (space_to_graph, graph_to_json_dict, ("r",), space_from_json_dict),
}


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _emit(payload, output: str | None) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    _write(text, output)


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_json(path: str):
    with open(path, "rb") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _stamp(payload: dict, paths) -> dict:
    """Add the report envelope: the tool version and the SHA-256 of the
    input files' bytes, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    payload["tool_version"] = __version__
    payload["input_digest"] = h.hexdigest()
    return payload


def _cmd_analyze(args) -> int:
    desc = desc_from_json(_read_json(args.input))
    report = _stamp(build_report(desc), [args.input])
    if args.format == "text":
        text = render_report_text(report)
        text += f"tool_version: {report['tool_version']}\n"
        text += f"input_digest: {report['input_digest']}\n"
        _write(text, args.output)
    else:
        _emit(report, args.output)
    return 0


def _cmd_construct(args) -> int:
    build, write, flags, *loaders = _CONSTRUCTIONS[args.name]
    files = args.inputs
    if len(files) != len(loaders):
        raise ValueError(
            f"construct {args.name} takes {len(loaders)} input file(s), got {len(files)}"
        )
    rationals = []
    for flag in flags:
        value = getattr(args, flag)
        if value is None:
            raise ValueError(f"construct {args.name} requires --{flag}")
        rationals.append(parse_rational(value))
    inputs = [load(_read_json(path)) for load, path in zip(loaders, files)]
    _emit(write(build(*inputs, *rationals)), args.output)
    return 0


def _cmd_oracle(args) -> int:
    search, load = _ORACLES[args.relation]
    A = load(_read_json(args.files[0]))
    B = load(_read_json(args.files[1]))
    witness = search(A, B, max_points=args.max_points)
    payload = {
        "relation": args.relation,
        "found": witness is not None,
        "witness": list(witness) if witness is not None else None,
    }
    _emit(_stamp(payload, args.files), args.output)
    return 0


def _cmd_reduce(args) -> int:
    search_in, load_in = _ORACLES[args.relation_in]
    search_out, load_out = _ORACLES[args.relation_out]
    pairs = [
        (tuple(map(load_in, entry["input"])), tuple(map(load_out, entry["transformed"])))
        for entry in read_shape(_read_json(args.input), _REDUCTION, "reduction")
    ]

    def wrap(search):
        return lambda u, v: search(u, v, max_points=args.max_points)

    payload = verify_reduction(pairs, wrap(search_in), wrap(search_out))
    _emit(_stamp(payload, [args.input]), args.output)
    return 0


def _cmd_urysohn(args) -> int:
    desc = desc_from_json(_read_json(args.input))
    values: set = set()
    for comp in desc.components:
        if not isinstance(comp, FiniteSet):
            raise InvalidDescription(
                "stage construction needs an explicit finite set of distances"
            )
        values.update(comp.values)
    result = urysohn_stage(values, args.budget, args.embed_bound, args.homog_bound)
    uni_ok, missing = verify_universality(result.space, values, args.embed_bound)
    hom_ok, stuck = verify_one_point_homogeneity(result.space, args.homog_bound)
    payload = {
        "space": space_to_json_dict(result.space),
        "log": [list(row) for row in result.log],
        "saturated": result.saturated,
        "universality": {
            "holds": uni_ok,
            "witness": space_to_json_dict(missing) if missing is not None else None,
        },
        "homogeneity": {
            "holds": hom_ok,
            "witness": None
            if stuck is None
            else {
                "domain": list(stuck[0]),
                "codomain": list(stuck[1]),
                "stuck_point": stuck[2],
            },
        },
    }
    _emit(_stamp(payload, [args.input]), args.output)
    return 0


def _cmd_mpf(args) -> int:
    raw = _read_json(args.input)
    if args.action == "slope":
        _emit(func_to_json(slope_construction(**read_shape(raw, _SLOPE, "slope"))), args.output)
        return 0
    f = func_from_json(raw)
    if args.action == "check":
        ok, witness = is_metric_preserving_finite(f)
        payload = {
            "metric_preserving": ok,
            "witness": list(witness) if witness is not None else None,
        }
    else:
        payload = {"sufficient": check_sufficient_condition(f)}
    _emit(_stamp(payload, [args.input]), args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves no
    state in it, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="distset",
        description="analyze rational distance sets and the finite spaces over them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classification report for a description file")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("construct", help="build a space or graph from inputs")
    p.add_argument("name", choices=tuple(_CONSTRUCTIONS))
    p.add_argument("inputs", nargs="*")
    p.add_argument("--r")
    p.add_argument("--rp")
    p.add_argument("--output")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("oracle", help="search for a witness of a relation")
    p.add_argument("relation", choices=tuple(_ORACLES))
    p.add_argument("files", nargs=2)
    p.add_argument("--max-points", type=int)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("reduce", help="certify a reduction over explicit pairs")
    p.add_argument("relation_in", choices=tuple(_ORACLES))
    p.add_argument("relation_out", choices=tuple(_ORACLES))
    p.add_argument("--input", required=True)
    p.add_argument("--max-points", type=int)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("urysohn", help="grow and verify a saturation stage")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=40)
    p.add_argument("--embed-bound", type=int, default=3)
    p.add_argument("--homog-bound", type=int, default=2)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_urysohn)

    p = sub.add_parser("mpf", help="metric preserving function tools")
    p.add_argument("action", choices=("check", "sufficient", "slope"))
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_mpf)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DistSetError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
