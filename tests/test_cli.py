"""End-to-end command line behavior: exit codes, canonical output, digests."""

import argparse
import hashlib
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import classifier_reference as cref
import cli_reference
from distset import __version__
from distset import cli
from distset.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


PAIR_1 = {"n": 2, "dist": [["0", "1"], ["1", "0"]]}
PAIR_2 = {"n": 2, "dist": [["0", "2"], ["2", "0"]]}
TRI_112 = {
    "n": 3,
    "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
}
TREE = {"nodes": [[], [0], [1]], "r_seq": ["1/4", "1/16"], "rp_seq": ["9/8", "33/32"], "x": "1"}
SLOPE = {"a": "1", "b": "2", "tail": ["3", "2"], "pool": ["5/4", "3/2", "13/8"]}


def test_analyze_json_matches_golden(capsys):
    src = DATA / "descs" / "finite-0-1-2.json"
    code, out, err = run(capsys, "analyze", "--input", str(src))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload.pop("tool_version") == __version__
    assert payload.pop("input_digest") == hashlib.sha256(src.read_bytes()).hexdigest()
    golden = json.loads((DATA / "goldens" / "finite-0-1-2.json").read_text())
    assert payload == golden


def test_analyze_is_deterministic(capsys):
    src = str(DATA / "descs" / "geomdown-half.json")
    code1, out1, _ = run(capsys, "analyze", "--input", src)
    code2, out2, _ = run(capsys, "analyze", "--input", src)
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_text_format(capsys):
    src = str(DATA / "descs" / "finite-0-1-2.json")
    code, out, err = run(capsys, "analyze", "--input", src, "--format", "text")
    assert code == 0
    assert out.startswith("realizable: true  [Thm 1.2]")
    assert f"tool_version: {__version__}\n" in out
    assert "input_digest: " in out


def test_analyze_rejects_bad_description(capsys, tmp_path):
    # domain error from the description parser, rendered verbatim
    src = write_json(tmp_path / "bad.json", {"kind": "finite"})
    code, out, err = run(capsys, "analyze", "--input", src)
    assert code == 1
    assert not err.startswith("error: ")
    assert err.endswith("\n")
    assert out == ""


@pytest.mark.parametrize(
    "argv, payload, code, message",
    [
        (
            ["analyze"],
            [{"kind": "finite", "values": [0, 1]}],
            1,
            "bad 'finite' component: expected a 'p/q' string, got 0",
        ),
        (
            ["analyze"],
            [{"kind": "finite", "values": "12"}],
            1,
            "bad 'finite' component: expected a list of 'p/q' strings, got '12'",
        ),
        (["mpf", "check"], [[0, 0], [1, 1]], 2, "error: expected a 'p/q' string, got 0"),
        (
            ["mpf", "slope"],
            {"a": 0, "b": "2", "tail": ["3"], "pool": ["5/4"]},
            2,
            "error: expected a 'p/q' string, got 0",
        ),
        (
            ["construct", "tree-space"],
            {"nodes": [[], [0]], "r_seq": ["1/4"], "rp_seq": ["9/8"], "x": 1},
            2,
            "error: expected a 'p/q' string, got 1",
        ),
    ],
    ids=["analyze-number", "analyze-string-values", "mpf-check-number", "mpf-slope-number", "tree-space-number"],
)
def test_numbers_where_rationals_belong_are_rejected(capsys, tmp_path, argv, payload, code, message):
    src = write_json(tmp_path / "in.json", payload)
    args = [*argv, src] if argv[0] == "construct" else [*argv, "--input", src]
    got, out, err = run(capsys, *args)
    assert (got, out, err) == (code, "", message + "\n")
    assert "Traceback" not in err


def test_analyze_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error: ")


def test_analyze_malformed_json(capsys, tmp_path):
    src = tmp_path / "broken.json"
    src.write_text("{not json")
    code, out, err = run(capsys, "analyze", "--input", str(src))
    assert code == 2


def test_construct_glue_output_is_bare_space(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", PAIR_1)
    b = write_json(tmp_path / "b.json", PAIR_2)
    code, out, err = run(capsys, "construct", "glue", a, b, "--r", "3")
    assert code == 0
    payload = json.loads(out)
    assert set(payload.keys()) == {"n", "dist"}
    assert payload["n"] == 4
    assert payload["dist"][0][2] == "3"


def test_construct_glue_requires_r(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", PAIR_1)
    b = write_json(tmp_path / "b.json", PAIR_2)
    code, out, err = run(capsys, "construct", "glue", a, b)
    assert code == 2
    assert "requires --r" in err


def test_construct_rejects_invalid_metric(capsys, tmp_path):
    bad = write_json(
        tmp_path / "bad.json",
        {"n": 3, "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]]},
    )
    b = write_json(tmp_path / "b.json", PAIR_1)
    code, out, err = run(capsys, "construct", "glue", bad, b, "--r", "1")
    assert code == 1
    assert err == "dist[0][2] > dist[0][1] + dist[1][2]\n"


def test_construct_tree_space(capsys, tmp_path):
    src = write_json(tmp_path / "tree.json", TREE)
    code, out, err = run(capsys, "construct", "tree-space", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["dist"][1][2] == "1/4"


def test_construct_tree_space_rejects_a_nonpositive_r_seq_term(capsys, tmp_path):
    bad = {"nodes": [[], [0]], "r_seq": ["1", "-1"], "rp_seq": ["2", "3"], "x": "5"}
    code, out, err = run(capsys, "construct", "tree-space", write_json(tmp_path / "t.json", bad))
    assert code == 1 and out == ""
    assert err == "tree data rejected: r_seq values must be positive\n"


def test_construct_graph_space_and_back(capsys, tmp_path):
    g = write_json(tmp_path / "g.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    code, out, err = run(capsys, "construct", "graph-space", g, "--r", "1", "--rp", "2")
    assert code == 0
    space = json.loads(out)
    assert space["dist"][0][1] == "1" and space["dist"][0][2] == "2"

    s = write_json(tmp_path / "s.json", space)
    code, out, err = run(capsys, "construct", "space-to-graph", s, "--r", "1")
    assert code == 0
    graph = json.loads(out)
    assert graph == {"edges": [[0, 1], [1, 2]], "n": 3}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 2, "dist": ["01", "10"]}, "row 0 of 'dist' must be a list"),
        ({"n": True, "dist": [["0"]]}, "'n' must be an integer"),
        ({"n": 2, "dist": [["0", True], [True, "0"]]}, "row 0 of 'dist' must be a list"),
        ({"n": 1, "dist": [[0.0]]}, "row 0 of 'dist' must be a list"),
        ({"n": 2, "dist": [["0", "1"], "10"]}, "row 1 of 'dist' must be a list"),
        (TRI_112, "DISTSET_MAX_POINTS must be an integer, got 'abc'"),
    ],
)
def test_matrix_loader_rejects_malformed_files(capsys, tmp_path, monkeypatch, payload, message):
    # The oracle reads DISTSET_MAX_POINTS only once both files have loaded,
    # so a malformed file is reported first; a well-formed one reaches the
    # bad variable.
    monkeypatch.setenv("DISTSET_MAX_POINTS", "abc")
    src = write_json(tmp_path / "bad.json", payload)
    code, out, err = run(capsys, "oracle", "isometry", src, src)
    assert code == 2 and out == ""
    prefix = "error: " if payload is TRI_112 else "error: matrix file: "
    assert err.startswith(prefix) and message in err


def test_matrix_loader_rejects_ragged_rows(capsys, tmp_path):
    # n matches the row count, so only the row lengths are wrong
    src = write_json(tmp_path / "bad.json", {"n": 2, "dist": [["0"], ["1", "0"]]})
    code, out, err = run(capsys, "oracle", "isometry", src, src)
    assert (code, out) == (2, "")
    assert err == "error: matrix file: every row of 'dist' must have 'n' entries\n"


@pytest.mark.parametrize("broken", (0, 1))
@pytest.mark.parametrize(
    "content, message",
    [
        (json.dumps(TRI_112).encode()[:-2], "Expecting "),  # truncated
        (b"\xff\xfe{", "'utf-16-le' codec can't decode"),
    ],
)
def test_unparsable_json_names_the_file(capsys, tmp_path, broken, content, message):
    paths = [write_json(tmp_path / f"{i}.json", TRI_112) for i in (0, 1)]
    pathlib.Path(paths[broken]).write_bytes(content)
    code, out, err = run(capsys, "oracle", "isometry", *paths)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {paths[broken]}: {message}")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 2, "edges": [[True, False]]}, "bad edge entry [True, False]"),
        ({"n": 2, "edges": [[0, True]]}, "bad edge entry [0, True]"),
        ({"n": True, "edges": []}, "'n' must be an integer"),
        ({"n": 2, "edges": [[0, 1.0]]}, "bad edge entry [0, 1.0]"),
    ],
)
def test_graph_loader_rejects_malformed_files(capsys, tmp_path, payload, message):
    src = write_json(tmp_path / "bad.json", payload)
    code, out, err = run(capsys, "construct", "graph-space", src, "--r", "1", "--rp", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: graph file: ") and message in err


LOADER_ARGV = {"tree": ("construct", "tree-space"), "slope": ("mpf", "slope", "--input")}


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("tree", [TREE], "expected an object with the keys"),
        ("tree", {**TREE, "extra": 1}, "expected an object with the keys"),
        ("tree", {**TREE, "nodes": ["", "0", "1"]}, "bad node entry ''"),
        ("tree", {**TREE, "nodes": [[], [0], [1.9]]}, "bad node entry [1.9]"),
        ("tree", {**TREE, "nodes": [[], [0], [True]]}, "bad node entry [True]"),
        ("tree", {**TREE, "nodes": "[]"}, "'nodes', 'r_seq' and 'rp_seq' must be lists"),
        ("tree", {**TREE, "r_seq": "1/4"}, "'nodes', 'r_seq' and 'rp_seq' must be lists"),
        ("slope", [SLOPE], "expected an object with the keys"),
        ("slope", {**SLOPE, "extra": 1}, "expected an object with the keys"),
        ("slope", {**SLOPE, "tail": "32"}, "'tail' and 'pool' must be lists"),
        ("slope", {**SLOPE, "pool": {"5/4": 1}}, "'tail' and 'pool' must be lists"),
    ],
    ids=[
        "tree-list", "tree-extra-key", "tree-string-nodes", "tree-float-node", "tree-bool-node",
        "tree-nodes-string", "tree-r_seq-string",
        "slope-list", "slope-extra-key", "slope-tail-string", "slope-pool-object",
    ],
)
def test_tree_and_slope_loaders_reject_malformed_files(capsys, tmp_path, kind, payload, message):
    # most of these used to be read as some other request, with exit 0
    src = write_json(tmp_path / "bad.json", payload)
    code, out, err = run(capsys, *LOADER_ARGV[kind], src)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {kind} file: ") and message in err


def test_construct_parses_each_flag_before_requiring_the_next(capsys, tmp_path):
    g = write_json(tmp_path / "g.json", {"n": 2, "edges": [[0, 1]]})
    code, out, err = run(capsys, "construct", "graph-space", g, "--r", "bad")
    assert (code, out) == (2, "")
    assert err == "error: malformed rational 'bad'; expected 'p' or 'p/q'\n"


def test_construct_wrong_arity(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", PAIR_1)
    code, out, err = run(capsys, "construct", "glue", a, "--r", "1")
    assert code == 2
    assert "takes 2 input file(s), got 1" in err


def test_oracle_isometry_payload(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", TRI_112)
    b = write_json(tmp_path / "b.json", TRI_112)
    code, out, err = run(capsys, "oracle", "isometry", a, b)
    assert code == 0
    payload = json.loads(out)
    digest = hashlib.sha256(
        pathlib.Path(a).read_bytes() + pathlib.Path(b).read_bytes()
    ).hexdigest()
    assert payload == {
        "relation": "isometry",
        "found": True,
        "witness": [0, 1, 2],
        "tool_version": __version__,
        "input_digest": digest,
    }


def test_oracle_negative_result(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", PAIR_1)
    b = write_json(tmp_path / "b.json", PAIR_2)
    code, out, err = run(capsys, "oracle", "embedding", a, b)
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is False and payload["witness"] is None


def test_oracle_graph_relation(capsys, tmp_path):
    g1 = write_json(tmp_path / "g1.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    g2 = write_json(tmp_path / "g2.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
    code, out, err = run(capsys, "oracle", "graph-embed", g1, g2)
    assert code == 0
    assert json.loads(out)["witness"] == [0, 1, 2]


def test_oracle_guardrail_exit(capsys, tmp_path):
    big = {
        "n": 13,
        "dist": [["0" if i == j else "1" for j in range(13)] for i in range(13)],
    }
    a = write_json(tmp_path / "a.json", big)
    code, out, err = run(capsys, "oracle", "isometry", a, a)
    assert code == 1
    assert "search on 13 points exceeds the guardrail of 12" in err

    code, out, err = run(capsys, "oracle", "isometry", a, a, "--max-points", "13")
    assert code == 0
    assert json.loads(out)["found"] is True


def test_reduce_pass(capsys, tmp_path):
    src = write_json(
        tmp_path / "red.json",
        [
            {"input": [TRI_112, TRI_112], "transformed": [PAIR_1, PAIR_1]},
            {"input": [TRI_112, PAIR_1], "transformed": [PAIR_1, PAIR_2]},
        ],
    )
    code, out, err = run(capsys, "reduce", "isometry", "isometry", "--input", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["counterexample"] is None
    assert [p["ok"] for p in payload["pairs"]] == [True, True]


def test_reduce_fail_is_still_exit_zero(capsys, tmp_path):
    src = write_json(
        tmp_path / "red.json",
        [{"input": [TRI_112, TRI_112], "transformed": [PAIR_1, PAIR_2]}],
    )
    code, out, err = run(capsys, "reduce", "isometry", "isometry", "--input", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "FAIL"
    assert payload["counterexample"] == 0


def test_urysohn_stage_on_finite_description(capsys, tmp_path):
    src = write_json(tmp_path / "d.json", [{"kind": "finite", "values": ["0", "1"]}])
    code, out, err = run(capsys, "urysohn", "--input", src, "--budget", "10")
    assert code == 0
    payload = json.loads(out)
    assert set(payload.keys()) == {
        "space",
        "log",
        "saturated",
        "universality",
        "homogeneity",
        "tool_version",
        "input_digest",
    }
    assert payload["saturated"] is True
    assert payload["universality"]["holds"] is True
    assert payload["homogeneity"]["holds"] is True


BIG = "1000000000"


@pytest.mark.parametrize(
    "values, small, big",
    [
        (
            ["0"],
            ["--embed-bound", "1", "--homog-bound", "1"],
            ["--budget", BIG, "--embed-bound", BIG, "--homog-bound", BIG],
        ),
        (
            ["0", "1"],
            ["--budget", "5", "--embed-bound", "6", "--homog-bound", "5"],
            ["--budget", "5", "--embed-bound", BIG, "--homog-bound", BIG],
        ),
    ],
)
def test_urysohn_bounds_past_the_point_count(capsys, tmp_path, values, small, big):
    # past the stage's points and its last class a bound checks nothing
    # more, so 10**9 gives the small bounds' bytes, and as fast
    src = write_json(tmp_path / "d.json", [{"kind": "finite", "values": values}])
    want = run(capsys, "urysohn", "--input", src, *small)
    start = time.perf_counter()
    got = run(capsys, "urysohn", "--input", src, *big)
    assert time.perf_counter() - start < 5
    assert got == want and want[0] == 0


def test_urysohn_rejects_symbolic_description(capsys, tmp_path):
    src = write_json(
        tmp_path / "d.json",
        [
            {"kind": "finite", "values": ["0"]},
            {"kind": "geomdown", "r0": "1", "q": "1/2"},
        ],
    )
    code, out, err = run(capsys, "urysohn", "--input", src)
    assert code == 1
    assert err == "stage construction needs an explicit finite set of distances\n"


def test_mpf_check_and_sufficient(capsys, tmp_path):
    src = write_json(
        tmp_path / "f.json",
        [["0", "0"], ["1", "1/2"], ["2", "2/3"], ["3", "3/4"]],
    )
    code, out, err = run(capsys, "mpf", "check", "--input", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["metric_preserving"] is True and payload["witness"] is None
    assert payload["tool_version"] == __version__
    assert "input_digest" in payload

    code, out, err = run(capsys, "mpf", "sufficient", "--input", src)
    assert code == 0
    assert json.loads(out)["sufficient"] is True


def test_mpf_check_reports_witness(capsys, tmp_path):
    src = write_json(tmp_path / "f.json", [["0", "0"], ["1", "1"], ["2", "5"]])
    code, out, err = run(capsys, "mpf", "check", "--input", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["metric_preserving"] is False
    assert payload["witness"] == ["2", "1", "1"]


def test_mpf_slope_output_is_bare_table(capsys, tmp_path):
    src = write_json(tmp_path / "s.json", SLOPE)
    code, out, err = run(capsys, "mpf", "slope", "--input", src)
    assert code == 0
    assert json.loads(out) == [["0", "0"], ["1", "1"], ["2", "3/2"], ["3", "13/8"]]


def test_mpf_slope_pool_exhaustion(capsys, tmp_path):
    src = write_json(
        tmp_path / "s.json",
        {"a": "1", "b": "2", "tail": ["2", "3"], "pool": ["3/2"]},
    )
    code, out, err = run(capsys, "mpf", "slope", "--input", src)
    assert code == 1
    assert err == "no admissible pool value remains for input 3\n"


def test_output_flag_writes_file(capsys, tmp_path):
    src = DATA / "descs" / "zero-only.json"
    dest = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", "--input", str(src), "--output", str(dest))
    assert code == 0
    assert out == ""
    payload = json.loads(dest.read_text())
    assert payload["realizable"] is True


def test_canonical_json_shape(capsys, tmp_path):
    src = DATA / "descs" / "zero-only.json"
    code, out, err = run(capsys, "analyze", "--input", str(src))
    parsed = json.loads(out)
    assert out == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "isometry", "only-one-file"])
    assert exc.value.code == 2


def _exit_and_streams(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_serves_every_call_alike(capsys, tmp_path):
    # The parser is cached per process. A usage error (exit 2) and a domain
    # error (exit 1) in between must leave no trace: each call prints and
    # returns what it does on a freshly built parser.
    src = str(DATA / "descs" / "finite-0-1-2.json")
    slope = write_json(
        tmp_path / "s.json",
        {"a": "1", "b": "2", "tail": ["2", "3"], "pool": ["3/2"]},
    )
    calls = [
        ("analyze", "--input", src, "--format", "text"),
        ("oracle", "isometry", "only-one-file"),
        ("mpf", "slope", "--input", slope),
        ("analyze", "--input", src, "--format", "text"),
    ]
    cli._build_parser.cache_clear()
    cached = [_exit_and_streams(capsys, argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_exit_and_streams(capsys, argv))
    assert [code for code, _, _ in cached] == [0, 2, 1, 0]
    assert cached == fresh
    assert cached[0] == cached[3]
    assert cached[2][2] == "no admissible pool value remains for input 3\n"


ACTION_FIELDS = ("dest", "option_strings", "nargs", "default", "type", "choices", "required",
                 "help", "metavar")


def _parser_parts(parser):
    """The command names in order, the top-level usage and help, then per
    subparser its usage, its help, each action's fields in order and its
    handler."""
    parts = [list(parser.commands), parser.format_usage(), parser.format_help()]
    for sub in parser.commands.values():
        parts.append((
            sub.format_usage(),
            sub.format_help(),
            [tuple(getattr(action, field) for field in ACTION_FIELDS) for action in sub._actions],
            sub.get_default("run"),
        ))
    return parts


def test_command_table_builds_the_reference_parser(monkeypatch):
    # tests/cli_reference.py builds the parser one add_parser block per
    # command, as before _COMMANDS; the text is compared at a fixed width
    monkeypatch.setenv("COLUMNS", "80")
    got = _parser_parts(cli._build_parser.__wrapped__())
    want = _parser_parts(cli_reference._build_parser.__wrapped__())
    assert got[0] == ["analyze", "construct", "oracle", "reduce", "urysohn", "mpf"]
    for part, reference in zip(got, want, strict=True):
        assert part == reference


DEEP_ARGV = [
    ("analyze", "--input", "{f}"),
    ("construct", "glue", "{f}", "{f}", "--r", "1"),
    ("construct", "tree-space", "{f}"),
    ("oracle", "isometry", "{f}", "{f}"),
    ("reduce", "isometry", "isometry", "--input", "{f}"),
    ("urysohn", "--input", "{f}"),
    ("mpf", "check", "--input", "{f}"),
    ("mpf", "slope", "--input", "{f}"),
]


@pytest.mark.parametrize("argv", DEEP_ARGV, ids=lambda argv: " ".join(argv[:2]))
def test_deeply_nested_input_is_a_file_error(capsys, tmp_path, argv):
    # json.load recurses once per level; 100,000 levels used to escape main
    # as a RecursionError
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *(a.format(f=src) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {src}: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"input": [TRI_112, TRI_112], "transformed": [PAIR_1, PAIR_1], "note": "x"},
            "expected an object with the keys input, transformed (exactly the keys, no others)",
        ),
        (
            [TRI_112, PAIR_1],
            "expected an object with the keys input, transformed (exactly the keys, no others)",
        ),
        (
            {"input": [TRI_112, TRI_112]},
            "expected an object with the keys input, transformed (exactly the keys, no others)",
        ),
        (
            {"input": {"a": TRI_112, "b": PAIR_1}, "transformed": [PAIR_1, PAIR_1]},
            "'input' and 'transformed' must be lists",
        ),
        (
            {"input": [TRI_112, TRI_112, PAIR_1], "transformed": [PAIR_1, PAIR_1]},
            "'input' must be a list of 2 files",
        ),
    ],
    ids=["extra-key", "not-an-object", "missing-key", "object-of-files", "three-files"],
)
def test_reduce_rejects_malformed_entries(capsys, tmp_path, entry, message):
    # these used to exit 0 with a full report, or print a bare KeyError or
    # a list-index TypeError, or unpack an object's keys as the two files
    good = {"input": [TRI_112, TRI_112], "transformed": [PAIR_1, PAIR_1]}
    src = write_json(tmp_path / "red.json", [good, entry])
    code, out, err = run(capsys, "reduce", "isometry", "isometry", "--input", src)
    assert (code, out) == (2, "")
    assert err.startswith("error: reduction file: bad pair entry ")
    assert err.endswith(f": {message}\n")


def test_reduce_rejects_a_file_that_is_not_a_list(capsys, tmp_path):
    src = write_json(tmp_path / "red.json", {"input": [TRI_112, TRI_112]})
    code, out, err = run(capsys, "reduce", "isometry", "isometry", "--input", src)
    assert (code, out, err) == (2, "", "error: reduction file: the file must be a list of pairs\n")


def test_reduce_reports_a_bad_space_with_its_own_loader(capsys, tmp_path):
    src = write_json(
        tmp_path / "red.json",
        [{"input": [TRI_112, {"n": True, "dist": [["0"]]}], "transformed": [PAIR_1, PAIR_1]}],
    )
    code, out, err = run(capsys, "reduce", "isometry", "isometry", "--input", src)
    assert (code, out, err) == (2, "", "error: matrix file: 'n' must be an integer\n")


# payloads as the commands build them: Fractions (negative ones, and ones
# with denominator 1, included) and tuples next to the JSON leaves
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.fractions()
    | st.integers().map(Fraction),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


def _reference_dumps(value):
    """The writer as it was: a copy with every Fraction formatted, then json."""
    return json.dumps(cref._jsonable(value), sort_keys=True, indent=2)


@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert cli._dumps(value) == _reference_dumps(value)


class _Dict(dict):
    pass


class _List(list):
    pass


class _Fraction(Fraction):
    pass


@pytest.mark.parametrize(
    "value",
    [
        [], {}, [[]], ["a", "b"], [1, 2], [1, "a"], [True, 1], {"k": [0, "0"]}, [[1, 2], [3]],
        [Fraction(1, 2), "1/2"],
        (Fraction(3),),
        {"k": []},
        _Dict(b=Fraction(-1, 2), a=[1, (2, "3")]),
        _Dict(),
        [[], {}, [[]], {"k": {}}, ((),)],
        _List([Fraction(-7), True, None]),
        _Fraction(3, 4),
        [False, 0, None, 0.5],
        (1, "a"),
        {"b": (Fraction(-3), Fraction(5, 2)), "a": {"z": True, "y": None}, "c": (0, 1)},
    ],
)
def test_writer_matches_json_dumps_on_edge_shapes(value):
    assert cli._dumps(value) == _reference_dumps(value)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("max-product", "a", "b", "--r", "3"), "r"),
        (("space-to-graph", "a", "--r", "1", "--rp", "7"), "rp"),
        (("tree-space", "t", "--rp", "2"), "rp"),
        (("glue", "a", "b", "--r", "1", "--rp", "2"), "rp"),
    ],
)
def test_construct_rejects_a_flag_its_construction_does_not_take(capsys, tmp_path, argv, flag):
    name, *rest = argv
    files = {"a": PAIR_1, "b": PAIR_2, "t": TREE}
    rest = [write_json(tmp_path / f"{a}.json", files[a]) if a in files else a for a in rest]
    code, out, err = run(capsys, "construct", name, *rest)
    assert (code, out) == (2, "")
    assert err == f"error: construct {name} takes no --{flag}\n"


# argv pieces per command: (positionals, options as (spelling, value))
ARGV_SEED = 20181116
ARGV_GRAMMAR = {
    "analyze": ((), (("--input", "in.json"), ("--output", "o.json"), ("--format", "text"))),
    "construct": (
        (("glue", "graph-space", "tree-space", "bogus"), ("a.json",), ("b.json",)),
        (("--r", "1"), ("--rp", "3/2"), ("--output", "o.json")),
    ),
    "oracle": (
        (("isometry", "graph-embed", "bogus"), ("a.json",), ("b.json",)),
        (("--max-points", "9"), ("--max-points", "x"), ("--output", "o.json")),
    ),
    "reduce": (
        (("isometry", "graph-iso"), ("embedding", "bogus")),
        (("--input", "in.json"), ("--max-points", "3"), ("--output", "o.json")),
    ),
    "urysohn": (
        (),
        (("--input", "in.json"), ("--budget", "20"), ("--embed-bound", "4"),
         ("--homog-bound", "x"), ("--output", "o.json")),
    ),
    "mpf": ((("check", "slope", "bogus"),), (("--input", "in.json"), ("--output", "o.json"))),
}
STRAYS = ("-h", "--help", "--", "--bogus", "--bogus=1", "-x", "-1", "extra", "--in", "--o")


def _generated_argv(rng):
    if rng.random() < 0.03:
        return []
    argv = [rng.choice(("-h", "--help", "--", "--bogus", "bogus"))] if rng.random() < 0.08 else []
    if rng.random() < 0.06:
        argv.append(rng.choice(("no-such-command", "ana", "-x", "--output")))
        command = rng.choice(tuple(ARGV_GRAMMAR))
    else:
        command = rng.choice(tuple(ARGV_GRAMMAR))
        argv.append(command)
    positionals, options = ARGV_GRAMMAR[command]
    pieces = [[rng.choice(choices)] for choices in positionals if rng.random() < 0.95]
    for _ in range(rng.randint(0, 4)):
        spelling, value = rng.choice(options)
        short = spelling[: rng.randint(3, len(spelling))]  # an abbreviation, or the whole
        form = rng.random()
        if form < 0.45:
            pieces.append([spelling, value])
        elif form < 0.65:
            pieces.append([f"{short}={value}"])
        elif form < 0.9:
            pieces.append([short, value])
        else:
            pieces.append([spelling])  # its value missing
    if rng.random() < 0.3:
        pieces.insert(rng.randint(0, len(pieces)), [rng.choice(STRAYS)])
    if rng.random() < 0.3:
        rng.shuffle(pieces)
    return argv + [token for piece in pieces for token in piece]


def _parsed(capsys, parse, argv):
    """(returned value or exit code, stdout, stderr) of parse(argv)."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_main_parses_generated_argv_as_the_top_level_parser_does(capsys):
    # main starts with _parse, so this is how main reads its argv
    parser = cli._build_parser()
    rng = random.Random(ARGV_SEED)
    outcomes = []
    for _ in range(1000):
        argv = _generated_argv(rng)
        got = _parsed(capsys, cli._parse, argv)
        assert got == _parsed(capsys, parser.parse_args, argv), argv
        outcomes.append((argv, *got))
    parsed = [(argv, r) for argv, r, _, _ in outcomes if isinstance(r, argparse.Namespace)]
    assert len(parsed) >= 150 and {r.command for _, r in parsed} == set(ARGV_GRAMMAR)
    assert sum(any("=" in a for a in argv) for argv, _ in parsed) >= 40
    results = [r for _, r, _, _ in outcomes]
    assert results.count(("exit", 2)) >= 600
    assert results.count(("exit", 0)) >= 40  # help
    errors = [err for _, _, _, err in outcomes]
    assert sum("unrecognized arguments" in err for err in errors) >= 40  # left over
    assert sum("usage: distset [-h]" in err for err in errors) >= 150
    assert [] in (argv for argv, *_ in outcomes)


# every integer flag, as (argv before the flag, the flag)
INT_FLAGS = [
    (("oracle", "isometry", "{a}", "{a}"), "--max-points"),
    (("reduce", "isometry", "isometry", "--input", "{r}"), "--max-points"),
    (("urysohn", "--input", "{d}"), "--budget"),
    (("urysohn", "--input", "{d}"), "--embed-bound"),
    (("urysohn", "--input", "{d}"), "--homog-bound"),
]


def _int_flag_files(tmp_path):
    return {
        "a": write_json(tmp_path / "a.json", PAIR_1),
        "r": write_json(tmp_path / "r.json", [{"input": [PAIR_1, PAIR_1], "transformed": [PAIR_1, PAIR_1]}]),
        "d": write_json(tmp_path / "d.json", [{"kind": "finite", "values": ["0", "1", "2"]}]),
    }


@pytest.mark.parametrize("text", ["\u0663", "1_0", "\uff13"])
@pytest.mark.parametrize("head, flag", INT_FLAGS, ids=[f for _, f in INT_FLAGS])
def test_integer_flags_take_ascii_digits_only(capsys, tmp_path, head, flag, text):
    # int() reads '\u0663' (Arabic-Indic 3), '1_0' and '\uff13' (fullwidth 3)
    files = _int_flag_files(tmp_path)
    argv = [a.format(**files) for a in head] + [flag, text]
    result, out, err = _parsed(capsys, main, argv)
    assert (result, out) == (("exit", 2), "")
    assert err.endswith(f"error: argument {flag}: invalid int value: {text!r}\n")


@pytest.mark.parametrize("head, flag", INT_FLAGS, ids=[f for _, f in INT_FLAGS])
def test_integer_flags_allow_surrounding_whitespace(capsys, tmp_path, head, flag):
    # as parse_rational does; the default value written out gives the same run
    files = _int_flag_files(tmp_path)
    head = [a.format(**files) for a in head]
    value = {"--max-points": "12", "--budget": "40", "--embed-bound": "3", "--homog-bound": "2"}[flag]
    spaced = run(capsys, *head, flag, f" {value} ")
    assert spaced == run(capsys, *head, flag, value) == run(capsys, *head)
    assert spaced[0] == 0


@pytest.mark.parametrize(
    "text", ["x", "", "1.5", "0x10", "5 6", "+4", "-1", "007", " 5 ", "5\n", "\u0663", "1_0", "\uff13"]
)
def test_integer_flag_reads_ascii_digits_as_int_does(capsys, text):
    # same value, or the same usage error text, as type=int, except that
    # only ASCII digits are digits
    def parse(kind):
        parser = argparse.ArgumentParser(prog="p")
        parser.add_argument("--n", type=kind)
        return _parsed(capsys, parser.parse_args, ["--n", text])

    got, want = parse(cli._int_flag), parse(int)
    if text in ("\u0663", "1_0", "\uff13"):
        assert want[0].n in (3, 10)
        assert got == (("exit", 2), "", f"usage: p [-h] [--n N]\np: error: argument --n: invalid int value: {text!r}\n")
    else:
        assert got == want


@pytest.mark.parametrize("text", ["\u0663", "1_0", "\uff13", " 13 "])
def test_max_points_variable_takes_ascii_digits_only(capsys, tmp_path, monkeypatch, text):
    monkeypatch.setenv("DISTSET_MAX_POINTS", text)
    src = write_json(tmp_path / "a.json", TRI_112)
    code, out, err = run(capsys, "oracle", "isometry", src, src)
    if text == " 13 ":
        assert (code, err) == (0, "") and json.loads(out)["found"] is True
    else:
        assert (code, out) == (2, "")
        assert err == f"error: DISTSET_MAX_POINTS must be an integer, got {text!r}\n"
