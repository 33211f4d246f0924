"""Tests of the benchmark's own generators, checkers and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from distset import cli  # noqa: E402
from distset.urysohn import four_values_check  # noqa: E402


@pytest.fixture(scope="module")
def workloads():
    return {name: gen.build(name, 7, ROOT) for name in gen.WORKLOADS}


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_same_seed_same_bytes(name, workloads):
    again = gen.build(name, 7, ROOT)
    assert again.files == workloads[name].files
    assert [op.argv for op in again.ops] == [op.argv for op in workloads[name].ops]


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_other_seed_other_inputs(name, workloads):
    other = gen.build(name, 8, ROOT)
    assert run.digest_inputs(other.files) != run.digest_inputs(workloads[name].files)
    assert [op.kind for op in other.ops] == [op.kind for op in workloads[name].ops]


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_each_pass_gets_fresh_inputs(name, workloads):
    later = gen.build(name, 7, ROOT, 1)
    assert later.files != workloads[name].files
    assert [op.kind for op in later.ops] == [op.kind for op in workloads[name].ops]
    assert later.files == gen.build(name, 7, ROOT, 1).files


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_every_op_reads_generated_files(name, workloads):
    wl = workloads[name]
    used = {f for op in wl.ops for f in op.inputs}
    assert used == set(wl.files)
    assert wl.cold in wl.ops


def test_interleave_spreads_tiers():
    tiers = [[gen.Op(f"a{i}", ()) for i in range(6)], [gen.Op("b", ())], [gen.Op(f"c{i}", ()) for i in range(2)]]
    kinds = [op.kind for op in gen.interleave(tiers)]
    assert kinds == ["a0", "a1", "c0", "a2", "b", "a3", "a4", "c1", "a5"]


def test_four_values_reference_matches_program():
    import random

    rng = random.Random(3)
    for _ in range(60):
        vals = [F(0)] + [F(v, rng.choice((1, 2))) for v in rng.sample(range(1, 30), rng.randint(2, 6))]
        ok, witness = four_values_check(set(vals))
        assert gen.four_values_witness(vals) == (None if ok else witness)


def test_stage_shapes_keep_their_signature():
    rng = gen.random.Random(1)
    for shape in [shape for shape, _ in gen.STAGE_MID] + gen.STAGE_FAIL_SHAPES:
        vals = gen.random_like(rng, shape)
        assert gen.triangle_signature(vals) == gen.triangle_signature(list(shape))
        passes = gen.four_values_witness([0, *vals]) is None
        assert passes == (shape not in gen.STAGE_FAIL_SHAPES)


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(samples)
    assert value == 89.0 and pct == 90.0 and beyond == 10
    assert sum(s > value for s in samples) == 10


def test_speed_scales_by_the_probes_around_a_timing():
    speed = run.Speed()
    speed.at = [0.0, 1.0, 1.5, 2.0, 5.0]
    speed.took = ([0.004, 0.002, 0.002, 0.003, 0.001], [0.001, 0.003, 0.003, 0.001, 0.002])
    speed.spent = [a + b for a, b in zip(*speed.took)]
    assert speed.probing(0.9, 1.2) == pytest.approx(0.014)
    # the mean of the probes within 0.1 s of [0.95, 1.95]: a timing pays for every slow stretch
    assert speed.scale(0.95, 1.0, run.ARITHMETIC) == pytest.approx(run.PROBE_REF_S[0] / (0.007 / 3))
    assert speed.scale(0.95, 1.0, run.OVERHEAD) == pytest.approx(run.PROBE_REF_S[1] / (0.007 / 3))
    assert speed.scale(4.95, 0.01, run.ARITHMETIC) == pytest.approx(run.PROBE_REF_S[0] / 0.001)


# --- checkers against real outputs and corrupted copies ---------------------


def execute(wl, op, tmp_path):
    for name in op.inputs:
        (tmp_path / name).write_bytes(wl.files[name])
    rc, out, err, _ = run.invoke(cli.main, run.resolve(op, tmp_path))
    checks.check(op, rc, out, err, wl.files)  # the real output passes
    return rc, out, err


def first(wl, kind):
    return next(op for op in wl.ops if op.kind == kind)


def rejects(op, rc, out, err, files):
    with pytest.raises(checks.Rejected):
        checks.check(op, rc, out, err, files)


def test_flipped_witness_entry_is_rejected(workloads, tmp_path):
    wl = workloads["search"]
    for kind in ("oracle.graph-iso.copy", "oracle.isometry.copy", "oracle.embedding.piece"):
        op = first(wl, kind)
        rc, out, err = execute(wl, op, tmp_path)
        payload = json.loads(out)
        w = payload["witness"]
        w[0], w[1] = w[1], w[0]
        rejects(op, rc, json.dumps(payload), err, wl.files)
        payload["witness"] = None
        rejects(op, rc, json.dumps(payload), err, wl.files)


def test_perturbed_matrix_entry_is_rejected(workloads, tmp_path):
    wl = workloads["search"]
    op = first(wl, "construct.glue")
    rc, out, err = execute(wl, op, tmp_path)
    payload = json.loads(out)
    payload["dist"][0][1] = "999"
    rejects(op, rc, json.dumps(payload), err, wl.files)

    stage = workloads["stage"]
    op = first(stage, "stage.small")
    rc, out, err = execute(stage, op, tmp_path)
    payload = json.loads(out)
    payload["space"]["dist"][0][1] = payload["space"]["dist"][1][0] = "1000"
    rejects(op, rc, json.dumps(payload), err, stage.files)


def test_stage_claims_are_checked(workloads, tmp_path):
    """Every yes/no answer of a stage is re-derived, not taken on trust."""
    wl = workloads["stage"]
    op = first(wl, "stage.small")
    rc, out, err = execute(wl, op, tmp_path)
    payload = json.loads(out)
    assert payload["saturated"] and payload["universality"]["holds"] and payload["homogeneity"]["holds"]
    for key in ("universality", "homogeneity"):
        wrong = json.loads(out)
        wrong[key]["holds"] = False
        rejects(op, rc, json.dumps(wrong), err, wl.files)
    # a stage cut short still replays, but leaves a demand unmet
    cut = json.loads(out)
    cut["log"].pop()
    cut["space"]["dist"] = [row[:-1] for row in cut["space"]["dist"][:-1]]
    cut["space"]["n"] -= 1
    rejects(op, rc, json.dumps(cut), err, wl.files)

    for kind, key in (("stage.budget20", "saturated"), ("stage.budget20", "universality"),
                      ("stage.embed4", "universality"), ("stage.budget20", "homogeneity")):
        op = first(wl, kind)
        rc, out, err = execute(wl, op, tmp_path)
        wrong = json.loads(out)
        if key == "saturated":
            assert not wrong[key]
            wrong[key] = True
        elif wrong[key]["holds"]:
            wrong[key] = {"holds": False, "witness": {"n": 1, "dist": [["0"]]}}
        else:
            wrong[key] = {"holds": True, "witness": None}
        rejects(op, rc, json.dumps(wrong), err, wl.files)


def test_edited_golden_is_rejected(workloads, tmp_path):
    wl = workloads["analyze"]
    for op in (o for o in wl.ops if o.kind == "analyze.shipped" and "finite-0-1-2" in o.argv[2]):
        rc, out, err = execute(wl, op, tmp_path)
        golden = op.expect["golden"].replace(b'"realizable": true', b'"realizable": false')
        assert golden != op.expect["golden"]
        rejects(gen.Op(op.kind, op.argv, {"golden": golden}), rc, out, err, wl.files)


def test_wrong_verdicts_are_rejected(workloads, tmp_path):
    wl = workloads["analyze"]
    op = next(o for o in wl.ops if o.kind == "analyze.fail" and o.argv[-1] == "json")
    rc, out, err = execute(wl, op, tmp_path)
    rejects(op, rc, out.replace('"four_values": "false"', '"four_values": "true"'), err, wl.files)

    stage = workloads["stage"]
    op = first(stage, "stage.fourvalues-fails")
    rc, out, err = execute(stage, op, tmp_path)
    assert rc == 1
    rejects(op, 0, out, err, stage.files)

    search = workloads["search"]
    op = next(o for o in search.ops
              if o.kind == "mpf.check" and checks.preserving_failure(o.expect["table"]))
    rc, out, err = execute(search, op, tmp_path)
    payload = json.loads(out)
    payload["witness"] = ["0", "0", "0"]
    rejects(op, rc, json.dumps(payload), err, search.files)


def test_mpf_witness_must_be_a_real_failure():
    table = [(F(0), F(0)), (F(1), F(1)), (F(2), F(5)), (F(3), F(1))]
    op = gen.Op("mpf.check", ("mpf", "check", "--input", "@t.json"), {"table": table})
    files = {"t.json": b"[]"}
    base = {"tool_version": "x", "input_digest": checks.sha(files, ["t.json"]), "metric_preserving": False}
    checks.check(op, 0, json.dumps({**base, "witness": ["2", "1", "1"]}), "", files)
    rejects(op, 0, json.dumps({**base, "witness": ["3", "1", "1"]}), "", files)
    rejects(op, 0, json.dumps({**base, "metric_preserving": True, "witness": None}), "", files)


def test_metric_problem_finds_a_broken_triangle():
    d = [[F(0), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(0)]]
    assert checks.metric_problem(d) is None
    d[0][2] = d[2][0] = F(3)
    assert "triangle" in checks.metric_problem(d)


# --- tracer ------------------------------------------------------------------


def test_tracer_nests_and_restores(tmp_path):
    from tracer import Tracer

    originals = dict(cli._ORACLES)
    tracer = Tracer()
    path = tmp_path / "a.json"
    path.write_text('[{"kind": "finite", "values": ["0", "1", "2"]}]')
    tracer.install()
    try:
        assert cli._ORACLES["isometry"][0] is not originals["isometry"][0]
        tracer.op_id = 5
        run.invoke(cli.main, ["analyze", "--input", str(path)])
    finally:
        tracer.uninstall()
    assert cli._ORACLES == originals
    assert tracer.nested("distance_sets.compute_facts", "urysohn.four_values_check")
    assert tracer.nested("cli.main", "classifier.build_report")
    self_s, calls, counts = tracer.layer("urysohn.four_values_check")
    assert calls == 1 and counts == {"quads": 81, "passed": 1}
    assert set(tracer.op) == {5}
    assert tracer.layer("cli.main")[0] <= tracer.end[0] - tracer.start[0]


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)

    class Fake:
        def layer(self, fn):
            return 0.0, 0, {}

    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_metrics(Fake(), 1, 0.0))
    e2e = {"ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == e2e
