"""Byte-exact goldens for the commands that compare Fractions: analyze
--format text, urysohn and mpf, on small files under tests/data/search; and
the --output file of every command, on success and on failure.

fraction-cases.json has the format of cases.json: each command line (file
names relative to that folder), its exit code and its stderr, with
expected/<name>.out holding its stdout. Its cases cannot join cases.json,
whose commands must compare no Fractions.
"""

import json

import pytest

from distset import cli
from test_search_goldens import CASES, SEARCH, run

TABLE = json.loads((SEARCH / "fraction-cases.json").read_text())
BY_NAME = {case["name"]: case for case in CASES + TABLE}

# command: (a case that succeeds, a case that fails)
OUTPUT_CASES = {
    "analyze": ("analyze-text-finite", "analyze-text-negative"),
    "construct": ("glue-mixed-large", "glue-nonpositive-r"),
    "oracle": ("isometry-found", "bad-negative-denominator"),
    "reduce": ("reduce", "reduce-bad-shape"),
    "urysohn": ("urysohn-unsaturated", "urysohn-four-values-fails"),
    "mpf": ("mpf-slope", "mpf-slope-pool-exhausted"),
}


@pytest.mark.parametrize("case", TABLE, ids=[c["name"] for c in TABLE])
def test_fraction_command_matches_golden(capsys, case):
    code, out, err = run(capsys, case)
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == (SEARCH / "expected" / f"{case['name']}.out").read_text()


def test_goldens_cover_every_fraction_command():
    commands = {tuple(c["argv"][:2]) for c in TABLE}
    assert {("mpf", "check"), ("mpf", "sufficient"), ("mpf", "slope")} <= commands
    assert any(c["argv"][0] == "analyze" and "text" in c["argv"] for c in TABLE)
    exits = {c["exit"] for c in TABLE if c["argv"][0] == "urysohn"}
    assert exits == {0, 1}


def test_output_cases_cover_every_command():
    assert set(OUTPUT_CASES) == set(cli._build_parser().commands)
    for command, (ok, failed) in OUTPUT_CASES.items():
        assert BY_NAME[ok]["argv"][0] == BY_NAME[failed]["argv"][0] == command
        assert BY_NAME[ok]["exit"] == 0 != BY_NAME[failed]["exit"]


@pytest.mark.parametrize("name", [name for pair in OUTPUT_CASES.values() for name in pair])
def test_output_file_holds_stdout_bytes_and_only_on_success(capsys, tmp_path, name):
    case = BY_NAME[name]
    dest = tmp_path / "out"
    code, out, err = run(capsys, {**case, "argv": case["argv"] + ["--output", str(dest)]})
    assert (code, out, err) == (case["exit"], "", case["stderr"])
    if code == 0:
        assert dest.read_bytes() == (SEARCH / "expected" / f"{name}.out").read_bytes()
    else:
        assert not dest.exists()
