"""Batch command line: analyze described distance sets, build spaces,
run oracles and reductions, grow saturation stages, probe metric
preserving functions.

Exit codes: 0 on success, 1 when a domain error from a library module is
rendered verbatim, 2 on usage, file, or JSON-shape problems, JSON nested too
deeply to parse included. Every input file but a description is read through
read_shape against its kind's declaration; integer flags take ASCII digits
only.

Each command is one row of _COMMANDS: its help line, its arguments and its
handler, _cmd_<name>(args, read), which returns its payload and writes
nothing; read parses an input file and feeds its bytes to the one digest
main makes per call, so each file is read once. main alone finishes
every payload. It adds the report envelope, the tool version and the SHA-256
input digest, to each dict payload but construct's: built spaces and graphs,
like mpf slope's table, stay bare module formats that can be fed back in as
inputs. It renders analyze --format text with the envelope as its last two
lines, and anything else as canonical JSON (sorted keys, rationals as "p/q"
strings) through _dumps, which takes a payload as its command builds it,
Fractions and tuples included, in one walk; identical requests thus give
byte-identical artifacts. The text goes to stdout or --output only once the
command has succeeded, so a failure writes nothing.

The parser of the subcommand that argv[0] names parses the rest of argv
directly, which is what the top-level parser does after matching argv[0];
any other argv, or one that leaves arguments over, goes through the
top-level parser, so every usage, help and error message is argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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
from .rationals import (
    INT, JSON_LITERALS, RATIONAL, Leaf, ListOf, format_rational, parse_int, parse_rational,
    read_shape,
)
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
# every rational flag of construct; each construction takes those it lists
_CONSTRUCTION_FLAGS = ("r", "rp")


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a payload as the
    commands build it, with string keys and each Fraction as its "p/q"
    string, in one walk. Dispatch is on the exact type; a list of strings
    only, or of ints only, such as a written matrix row, is joined at C level.
    A subclass is written as its base, a float as json writes it."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is Fraction:
        return _quote(format_rational(value))
    inner = indent + "  "
    if kind is dict:
        items = (f"{_quote(key)}: {_dumps(val, inner)}" for key, val in sorted(value.items()))
        ends = "{}"
    elif kind is list or kind is tuple:
        kinds = set(map(type, value))
        if kinds == {str}:
            items = map(_quote, value)
        elif kinds == {int}:
            items = map(int.__repr__, value)
        else:
            items = (_dumps(item, inner) for item in value)
        ends = "[]"
    elif value is None or kind is bool:
        return JSON_LITERALS[value]
    elif isinstance(value, Fraction):
        return _quote(format_rational(value))
    elif isinstance(value, (dict, list, tuple)):
        return _dumps(dict(value.items()) if isinstance(value, dict) else list(value), indent)
    else:
        return json.dumps(value)
    return ends[0] + inner + f",{inner}".join(items) + indent + ends[1] if value else ends


def _read_json(digest, path: str):
    """The JSON value in the file, whose bytes also go to digest."""
    with open(path, "rb") as handle:
        data = handle.read()
    digest.update(data)
    try:
        return json.loads(data)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # bad syntax or bytes that decode to no text
        raise ValueError(f"{path}: {exc}") from None


def _cmd_analyze(args, read) -> dict:
    return build_report(desc_from_json(read(args.input)))


def _cmd_construct(args, read):
    build, write, flags, *loaders = _CONSTRUCTIONS[args.name]
    files = args.inputs
    if len(files) != len(loaders):
        raise ValueError(
            f"construct {args.name} takes {len(loaders)} input file(s), got {len(files)}"
        )
    for flag in _CONSTRUCTION_FLAGS:
        if flag not in flags and getattr(args, flag) is not None:
            raise ValueError(f"construct {args.name} takes no --{flag}")
    rationals = []
    for flag in flags:
        value = getattr(args, flag)
        if value is None:
            raise ValueError(f"construct {args.name} requires --{flag}")
        rationals.append(parse_rational(value))
    inputs = [load(read(path)) for load, path in zip(loaders, files)]
    return write(build(*inputs, *rationals))


def _cmd_oracle(args, read) -> dict:
    search, load = _ORACLES[args.relation]
    A, B = (load(read(path)) for path in args.files)
    witness = search(A, B, max_points=args.max_points)
    return {"relation": args.relation, "found": witness is not None, "witness": witness}


def _cmd_reduce(args, read) -> dict:
    search_in, load_in = _ORACLES[args.relation_in]
    search_out, load_out = _ORACLES[args.relation_out]
    pairs = [
        (tuple(map(load_in, entry["input"])), tuple(map(load_out, entry["transformed"])))
        for entry in read_shape(read(args.input), _REDUCTION, "reduction")
    ]
    return verify_reduction(
        pairs,
        functools.partial(search_in, max_points=args.max_points),
        functools.partial(search_out, max_points=args.max_points),
    )


def _cmd_urysohn(args, read) -> dict:
    desc = desc_from_json(read(args.input))
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
    return {
        "space": space_to_json_dict(result.space),
        "log": [list(map(format_rational, row)) for row in result.log],
        "saturated": result.saturated,
        "universality": {
            "holds": uni_ok,
            "witness": space_to_json_dict(missing) if missing is not None else None,
        },
        "homogeneity": {
            "holds": hom_ok,
            "witness": stuck and dict(zip(("domain", "codomain", "stuck_point"), stuck)),
        },
    }


def _cmd_mpf(args, read):
    raw = read(args.input)
    if args.action == "slope":
        return func_to_json(slope_construction(**read_shape(raw, _SLOPE, "slope")))
    f = func_from_json(raw)
    if args.action == "check":
        ok, witness = is_metric_preserving_finite(f)
        return {"metric_preserving": ok, "witness": witness}
    return {"sufficient": check_sufficient_condition(f)}


def _int_flag(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


_INPUT = ("--input", {"required": True})
_OUTPUT = ("--output", {})
_MAX_POINTS = ("--max-points", {"type": _int_flag})
_RELATION = {"choices": tuple(_ORACLES)}

# one row per command, in help order: (name, help line, handler, arguments in
# usage order, each as (name or flag, add_argument keywords))
_COMMANDS = (
    ("analyze", "classification report for a description file", _cmd_analyze, (
        _INPUT, _OUTPUT, ("--format", {"choices": ("json", "text"), "default": "json"}),
    )),
    ("construct", "build a space or graph from inputs", _cmd_construct, (
        ("name", {"choices": tuple(_CONSTRUCTIONS)}), ("inputs", {"nargs": "*"}),
        *((f"--{flag}", {}) for flag in _CONSTRUCTION_FLAGS), _OUTPUT,
    )),
    ("oracle", "search for a witness of a relation", _cmd_oracle, (
        ("relation", _RELATION), ("files", {"nargs": 2}), _MAX_POINTS, _OUTPUT,
    )),
    ("reduce", "certify a reduction over explicit pairs", _cmd_reduce, (
        ("relation_in", _RELATION), ("relation_out", _RELATION), _INPUT, _MAX_POINTS, _OUTPUT,
    )),
    ("urysohn", "grow and verify a saturation stage", _cmd_urysohn, (
        _INPUT,
        ("--budget", {"type": _int_flag, "default": 40}),
        ("--embed-bound", {"type": _int_flag, "default": 3}),
        ("--homog-bound", {"type": _int_flag, "default": 2}),
        _OUTPUT,
    )),
    ("mpf", "metric preserving function tools", _cmd_mpf, (
        ("action", {"choices": ("check", "sufficient", "slope")}), _INPUT, _OUTPUT,
    )),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves no
    state in it, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="distset",
        description="analyze rational distance sets and the finite spaces over them",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, run, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(run=run)
    parser.commands = sub.choices  # name: subparser, for _parse
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """_build_parser().parse_args(argv). When argv[0] names a subcommand,
    its own parser takes the rest: the top-level parser would hand it
    exactly that and copy its values over command. Arguments it leaves over
    are an error, which the top-level parser reports."""
    parser = _build_parser()
    if argv and argv[0] in parser.commands:
        args, rest = parser.commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    digest = hashlib.sha256()
    try:
        payload = args.run(args, functools.partial(_read_json, digest))
        if type(payload) is dict and args.command != "construct":
            payload["tool_version"] = __version__
            payload["input_digest"] = digest.hexdigest()
        if getattr(args, "format", None) == "text":
            text = render_report_text(payload)
            text += f"tool_version: {payload['tool_version']}\n"
            text += f"input_digest: {payload['input_digest']}\n"
        else:
            text = _dumps(payload) + "\n"
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except DistSetError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
