"""Test-only reference: distset.cli's parser as it was built before one
command table declared it, one add_parser block per command, kept verbatim
below the imports.

tests/test_cli.py requires the table-built parser to equal it: the same
usage and help text of the top-level parser and of each subparser, the same
actions in the same order on the fields that decide parsing and help, and
the same handler default.
"""

from __future__ import annotations

import argparse
import functools

from distset.cli import (
    _CONSTRUCTION_FLAGS,
    _CONSTRUCTIONS,
    _ORACLES,
    _cmd_analyze,
    _cmd_construct,
    _cmd_mpf,
    _cmd_oracle,
    _cmd_reduce,
    _cmd_urysohn,
    _int_flag,
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

    p = sub.add_parser("analyze", help="classification report for a description file")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("construct", help="build a space or graph from inputs")
    p.add_argument("name", choices=tuple(_CONSTRUCTIONS))
    p.add_argument("inputs", nargs="*")
    for flag in _CONSTRUCTION_FLAGS:
        p.add_argument(f"--{flag}")
    p.add_argument("--output")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("oracle", help="search for a witness of a relation")
    p.add_argument("relation", choices=tuple(_ORACLES))
    p.add_argument("files", nargs=2)
    p.add_argument("--max-points", type=_int_flag)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("reduce", help="certify a reduction over explicit pairs")
    p.add_argument("relation_in", choices=tuple(_ORACLES))
    p.add_argument("relation_out", choices=tuple(_ORACLES))
    p.add_argument("--input", required=True)
    p.add_argument("--max-points", type=_int_flag)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("urysohn", help="grow and verify a saturation stage")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=_int_flag, default=40)
    p.add_argument("--embed-bound", type=_int_flag, default=3)
    p.add_argument("--homog-bound", type=_int_flag, default=2)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_urysohn)

    p = sub.add_parser("mpf", help="metric preserving function tools")
    p.add_argument("action", choices=("check", "sufficient", "slope"))
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_mpf)

    parser.commands = sub.choices  # name: subparser, for _parse
    return parser
