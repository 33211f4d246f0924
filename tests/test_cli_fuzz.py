"""Seeded fuzzing of the command line on mutated input files.

Every subcommand reads every kind of input file (matrix, graph, tree,
tabulated function, slope request, reduction of spaces or of graphs,
description), each put through seeded mutations: a key dropped or added, a
field retyped, a value wrapped in a list, a number where a string belongs,
the bytes truncated, and the whole file nested 100,000 deep. Whatever the file holds, main must
exit 0, 1 or 2, say why on stderr when it exits 1 or 2, and let no
exception escape.
"""

import json
import random

import pytest

from distset.cli import main

SEED = 20181101
MUTANTS_PER_KIND = 12

PAIR = {"n": 2, "dist": [["0", "1"], ["1", "0"]]}
PATH = {"n": 3, "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]}
GRAPH = {"n": 3, "edges": [[0, 1], [1, 2]]}
FILES = {
    "matrix": PATH,
    "graph": GRAPH,
    "tree": {
        "nodes": [[], [0], [1]], "r_seq": ["1/4", "1/16"], "rp_seq": ["9/8", "33/32"], "x": "1"
    },
    "tabulated": [["0", "0"], ["1", "1/2"], ["2", "2/3"]],
    "slope": {"a": "1", "b": "2", "tail": ["3", "2"], "pool": ["5/4", "3/2", "13/8"]},
    "reduction": [{"input": [PATH, PATH], "transformed": [PAIR, PAIR]}],
    "graph_reduction": [{"input": [GRAPH, GRAPH], "transformed": [PATH, PATH]}],
    "description": [{"kind": "finite", "values": ["0", "1", "2"]}],
}
# {f} is the mutated file; a second file, where one is needed, is a valid one
COMMANDS = [
    ("analyze", "--input", "{f}"),
    ("analyze", "--input", "{f}", "--format", "text"),
    ("construct", "glue", "{f}", "{matrix}", "--r", "3"),
    ("construct", "max-product", "{matrix}", "{f}"),
    ("construct", "tree-space", "{f}"),
    ("construct", "graph-space", "{f}", "--r", "1", "--rp", "2"),
    ("construct", "space-to-graph", "{f}", "--r", "1"),
    ("oracle", "isometry", "{f}", "{matrix}"),
    ("oracle", "embedding", "{matrix}", "{f}"),
    ("oracle", "graph-iso", "{f}", "{graph}"),
    ("oracle", "graph-embed", "{graph}", "{f}"),
    ("reduce", "isometry", "isometry", "--input", "{f}"),
    ("reduce", "graph-iso", "isometry", "--input", "{f}"),
    ("urysohn", "--input", "{f}", "--budget", "6"),
    ("mpf", "check", "--input", "{f}"),
    ("mpf", "sufficient", "--input", "{f}"),
    ("mpf", "slope", "--input", "{f}"),
]
OTHER_VALUES = (0, 7, -1, 1.5, True, None, "7", "x", "1/0", [], {}, ["1"], {"n": 1})


def _paths(value, path=()):
    """Every path into value, the root's included."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, sub in items:
            yield from _paths(sub, (*path, key))


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _replace(value, path, new):
    if not path:
        return new
    copy = json.loads(json.dumps(value))
    _get(copy, path[:-1])[path[-1]] = new
    return copy


def _drop_or_add(rng, value):
    holders = [p for p in _paths(value) if isinstance(_get(value, p), (dict, list))]
    path = rng.choice(holders)
    held = json.loads(json.dumps(_get(value, path)))
    if isinstance(held, dict):
        if held and rng.random() < 0.5:
            del held[rng.choice(sorted(held))]
        else:
            held["extra"] = rng.choice(OTHER_VALUES)
    elif held and rng.random() < 0.5:
        del held[rng.randrange(len(held))]
    else:
        held.append(rng.choice(OTHER_VALUES))
    return _replace(value, path, held)


def _retype(rng, value):
    path = rng.choice(list(_paths(value)))
    old = _get(value, path)
    return _replace(value, path, rng.choice([v for v in OTHER_VALUES if type(v) is not type(old)]))


def _wrap(rng, value):
    path = rng.choice(list(_paths(value)))
    return _replace(value, path, [_get(value, path)])


def _number_for_string(rng, value):
    strings = [p for p in _paths(value) if isinstance(_get(value, p), str)]
    if not strings:
        return _retype(rng, value)
    path = rng.choice(strings)
    return _replace(value, path, rng.choice((0, 1, 2, 1.5, -3)))


MUTATIONS = (_drop_or_add, _retype, _wrap, _number_for_string)


def _mutants():
    """(id, file text) pairs: seeded mutations of each kind, truncations,
    and one file nested 100,000 deep."""
    rng = random.Random(SEED)
    out = []
    for kind, value in FILES.items():
        for i in range(MUTANTS_PER_KIND):
            mutate = MUTATIONS[i % len(MUTATIONS)]
            out.append((f"{kind}-{mutate.__name__[1:]}-{i}", json.dumps(mutate(rng, value))))
        text = json.dumps(value)
        out.append((f"{kind}-truncated", text[: rng.randrange(1, len(text))]))
        out.append((f"{kind}-as-is", text))
    out.append(("nested-100000", "[" * 100_000 + "]" * 100_000))
    return out


MUTANTS = _mutants()


def test_mutants_cover_every_mutation():
    names = {name.split("-")[1] for name, _ in MUTANTS}
    assert {"drop_or_add", "retype", "wrap", "number_for_string", "truncated"} <= names
    assert ("nested-100000", "[" * 100_000 + "]" * 100_000) in MUTANTS
    # mutations are not all no-ops: most mutants differ from every valid file
    valid = {json.dumps(v) for v in FILES.values()}
    assert sum(text not in valid for _, text in MUTANTS) >= len(MUTANTS) - len(FILES) - 3


@pytest.mark.parametrize(
    "command", COMMANDS, ids=lambda argv: " ".join(a for a in argv if "{" not in a)
)
def test_every_command_survives_every_mutant(capsys, tmp_path, command):
    valid = {}
    for kind in ("matrix", "graph"):
        valid[kind] = tmp_path / f"{kind}.json"
        valid[kind].write_text(json.dumps(FILES[kind]))
    src = tmp_path / "mutant.json"
    outcomes = set()
    for name, text in MUTANTS:
        src.write_text(text)
        argv = [a.format(f=src, **valid) for a in command]
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{name}: {type(exc).__name__} escaped main: {exc}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), name
        if code:
            assert err.strip() and "Traceback" not in err, name
            assert out == "", name
        outcomes.add(code)
    # each command meets at least one file it accepts and one it rejects
    assert 0 in outcomes and outcomes & {1, 2}
