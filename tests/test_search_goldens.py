"""Byte-exact goldens for the search-path commands: construct, oracle and
reduce on small files under tests/data/search.

cases.json lists each command line (file names relative to that folder),
its exit code and its stderr; expected/<name>.out holds its stdout. The
inputs spell distances as "2/4", " 3/4 ", "+1", "-0", "0/5", JSON integers
and 30-digit numerators, and the faulty files carry "3/-4", "1/0", "1.5", a
bool, a broken triangle and an asymmetric pair.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from distset.cli import main

SEARCH = pathlib.Path(__file__).parent / "data" / "search"
CASES = json.loads((SEARCH / "cases.json").read_text())


def run(capsys, case):
    argv = [str(SEARCH / a) if a.endswith(".json") else a for a in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_search_command_matches_golden(capsys, case):
    code, out, err = run(capsys, case)
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == (SEARCH / "expected" / f"{case['name']}.out").read_text()


def test_goldens_cover_every_search_command():
    commands = {tuple(c["argv"][:2]) for c in CASES}
    assert {
        ("construct", "glue"),
        ("construct", "max-product"),
        ("construct", "tree-space"),
        ("construct", "graph-space"),
        ("construct", "space-to-graph"),
        ("oracle", "isometry"),
        ("oracle", "embedding"),
        ("oracle", "graph-iso"),
        ("oracle", "graph-embed"),
    } <= commands
    assert any(c["argv"][0] == "reduce" for c in CASES)
    outcomes = {(c["argv"][1], json.loads((SEARCH / "expected" / f"{c['name']}.out").read_text())["found"])
                for c in CASES if c["argv"][0] == "oracle" and c["exit"] == 0}
    relations = ("isometry", "embedding", "graph-iso", "graph-embed")
    assert outcomes == {(rel, found) for rel in relations for found in (True, False)}


def test_search_commands_compare_no_fractions(capsys, monkeypatch):
    # Distances are compared as integer codes; a Fraction comparison on the
    # search path would raise here and change the output.
    def forbidden(self, other):
        raise AssertionError("a search command compared two Fractions")

    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    for case in CASES:
        code, out, err = run(capsys, case)
        assert (code, err) == (case["exit"], case["stderr"]), case["name"]
        assert out == (SEARCH / "expected" / f"{case['name']}.out").read_text(), case["name"]
