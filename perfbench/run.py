"""Benchmark for the distset CLI: one closed-loop client, in process.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 35 [--trace 1]

Each operation is one `distset.cli.main([...])` call on files generated from
the seed. The loop runs passes of the workload's distinct operations until the
time is up (and at least one), each pass on fresh inputs from (seed, pass).
With --trace 0 it reports the end-to-end metrics, with times scaled to a
reference speed by a probe timed around each operation; with --trace 1 it runs
every operation traced, then untraced on the same inputs, and reports
per-layer metrics per pass, plus the tracing overhead. Every output is checked
outside the timed call; an untraced repeat must match its traced run byte for
byte. The last stdout line is one JSON object; a fuller record goes to
perfbench/out/results/. --all runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

COLD_STARTS = 11
PROBE_MATRIX = [[Fraction(0) if i == j else Fraction(6 + (i * j + i + j) % 5, 3) for j in range(8)]
                for i in range(8)]
PROBE_DOC = {"components": [{"kind": "geomdown", "r0": "3/4", "q": "1/2"}] * 8, "values": list(range(30))}
# Seconds each probe (arithmetic, overhead) takes at the reference speed. The
# overhead probe's is its median in benchmark runs on a 2-vCPU VM, scaled to
# an arithmetic probe of exactly 1 ms.
PROBE_REF_S = (1e-3, 0.7e-3)
ARITHMETIC, OVERHEAD = 0, 1
# Operations that reach no exact-arithmetic kernel: the CLI's own parsing,
# fact derivation and rendering make up their time, as they make up a cold
# start's. Contention slows such code differently from arithmetic, so these
# are scaled by the overhead probe and all others by the arithmetic probe.
OVERHEAD_KINDS = ("analyze.shipped", "analyze.symbolic")
PROBE_EVERY_S = 0.05  # a timer probes this often, inside long operations too
PROBE_WINDOW_S = 0.1  # probes during a timing or this close to it set its speed
COLD_CODE = "import sys\nfrom distset.cli import main\nsys.exit(main(sys.argv[1:]))\n"

LAYER_TIMES = (
    "cli.main", "rationals.parse_rational", "rationals.format_rational",
    "distance_sets.desc_from_json", "distance_sets.compute_facts",
    "classifier.build_report", "classifier.render_report_text",
    "urysohn.four_values_check", "urysohn.urysohn_stage", "urysohn.verify_universality",
    "urysohn.enumerate_spaces_up_to_isometry", "urysohn.verify_one_point_homogeneity",
    "oracles.find_isometry", "oracles.find_embedding", "oracles.graph_iso", "oracles.graph_embed",
    "oracles.verify_reduction", "metric.validate_metric", "metric.space_from_json_dict",
    "constructions.glue", "constructions.max_product", "constructions.graph_space",
    "constructions.tree_space", "constructions.space_to_graph",
    "metric_preserving.is_metric_preserving_finite",
    "metric_preserving.check_sufficient_condition", "metric_preserving.slope_construction",
)
LAYER_CALLS = (
    "rationals.parse_rational", "rationals.format_rational", "urysohn.four_values_check",
    "oracles.find_isometry", "oracles.find_embedding", "oracles.graph_iso", "oracles.graph_embed",
    "metric.validate_metric",
)
# (metric, function, count key, divide by calls)
LAYER_COUNTS = (
    ("urysohn.four_values_check.quads", "urysohn.four_values_check", "quads", False),
    ("urysohn.four_values_check.pass_ratio", "urysohn.four_values_check", "passed", True),
    ("urysohn.urysohn_stage.points_added", "urysohn.urysohn_stage", "points_added", False),
    ("urysohn.urysohn_stage.saturated_ratio", "urysohn.urysohn_stage", "saturated", True),
    ("urysohn.enumerate_spaces_up_to_isometry.classes", "urysohn.enumerate_spaces_up_to_isometry", "classes", False),
    ("urysohn.enumerate_spaces_up_to_isometry.candidates", "urysohn.enumerate_spaces_up_to_isometry", "candidates", False),
    ("oracles.find_isometry.found_ratio", "oracles.find_isometry", "found", True),
    ("oracles.find_embedding.found_ratio", "oracles.find_embedding", "found", True),
    ("oracles.graph_iso.found_ratio", "oracles.graph_iso", "found", True),
    ("oracles.graph_embed.found_ratio", "oracles.graph_embed", "found", True),
    ("metric.validate_metric.triangles", "metric.validate_metric", "triangles", False),
)
NESTING = (("distance_sets.compute_facts", "urysohn.four_values_check", "analyze"),
           ("urysohn.verify_universality", "oracles.find_embedding", "stage"))


def layer_metrics(tracer, passes: int, overhead_s: float) -> dict:
    """Per-layer metrics per pass of the workload, from the traced executions."""
    out = {}
    for fn in LAYER_TIMES:
        out[f"{fn}.self_s"] = (tracer.layer(fn)[0] / passes, "s")
    for fn in LAYER_CALLS:
        out[f"{fn}.calls"] = (tracer.layer(fn)[1] / passes, "count")
    for metric, fn, key, ratio in LAYER_COUNTS:
        _, calls, counts = tracer.layer(fn)
        value = counts.get(key, 0)
        out[metric] = (value / calls if calls else 0.0, "ratio") if ratio else (value / passes, "count")
    out["trace_overhead_s"] = (overhead_s, "s")
    return out


def probe_arithmetic() -> float:
    """Seconds for a fixed slice of interpreter work that shares no code with
    distset: exact triangle checks over a small rational matrix."""
    t0 = time.perf_counter()
    d = PROBE_MATRIX
    n = len(d)
    if not all(d[i][j] <= d[i][k] + d[k][j] for i in range(n) for j in range(n) for k in range(n)):
        raise AssertionError("probe matrix must be a metric")
    return time.perf_counter() - t0


def probe_overhead() -> float:
    """Seconds for a fixed slice of CLI-style work from the standard library:
    build and run an argparse parser, and a JSON round trip."""
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="cmd")
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        p.add_argument("--input")
        p.add_argument("--format", choices=("json", "text"), default="json")
    args = parser.parse_args(["b", "--input", "f.json", "--format", "text"])
    doc = json.loads(json.dumps(PROBE_DOC))
    io.StringIO().write(json.dumps({"args": vars(args), "doc": doc}, indent=2, sort_keys=True))
    return time.perf_counter() - t0


class Speed:
    """Probe timings along the run. On a shared host, contention can change a
    core's speed by 1.7x from one second to the next (seen on a 2-vCPU VM); a
    timing divided by the probes around it is a time at reference speed.
    Besides the probes before each operation, a timer signal probes every
    PROBE_EVERY_S, so a long operation is scaled by the speed during it; the
    time of the probes inside an operation is taken out of its timing."""

    def __init__(self):
        self.at: list[float] = []
        self.took: tuple[list[float], list[float]] = ([], [])  # per probe
        self.spent: list[float] = []  # both probes together
        self.busy = False

    def sample(self) -> None:
        if self.busy:  # the timer fired during a probe
            return
        self.busy = True
        t0 = time.perf_counter()
        a, b = probe_arithmetic(), probe_overhead()
        self.at.append(t0 + (a + b) / 2)
        self.took[ARITHMETIC].append(a)
        self.took[OVERHEAD].append(b)
        self.spent.append(a + b)
        self.busy = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probing(self, start: float, elapsed: float) -> float:
        """Seconds spent probing within [start, start + elapsed]."""
        return sum(self.spent[bisect_left(self.at, start):bisect_right(self.at, start + elapsed)])

    def scale(self, start: float, elapsed: float, probe: int) -> float:
        """Factor from wall seconds spent at [start, start + elapsed] to
        reference seconds, by the given probe. The mean, not the median, of
        the probe times: a timing pays for every slow stretch within it."""
        a = bisect_left(self.at, start - PROBE_WINDOW_S)
        b = bisect_right(self.at, start + elapsed + PROBE_WINDOW_S)
        return PROBE_REF_S[probe] / statistics.fmean(self.took[probe][a:b])


def invoke(main, argv: list[str]) -> tuple[int, str, str, float]:
    """One CLI call with stdout and stderr captured; only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def resolve(op: gen.Op, workdir: Path) -> list[str]:
    return [str(workdir / tok[1:]) if tok.startswith("@") else tok for tok in op.argv]


def write_inputs(files: dict[str, bytes], workdir: Path) -> None:
    workdir.mkdir(parents=True)
    for fname, data in files.items():
        (workdir / fname).write_bytes(data)


def digest_inputs(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(f"{name}\0{len(files[name])}\0".encode())
        h.update(files[name])
    return h.hexdigest()


def digest_outputs(outputs: list[tuple[int, str, str]]) -> str:
    h = hashlib.sha256()
    for rc, out, err in outputs:
        for part in (str(rc), out, err):
            data = part.encode()
            h.update(f"{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value,
    percentile, samples beyond). Falls back to the maximum below 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def cold_start(op: gen.Op, workdir: Path, files: dict, speed: Speed) -> tuple[list[float], list[str]]:
    """Reference seconds for a fresh interpreter to import distset.cli and run
    op, and the checker's rejections of those runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", COLD_CODE, *resolve(op, workdir)]
    times, failures = [], []
    for i in range(COLD_STARTS + 1):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        speed.sample()
        try:
            checks.check(op, proc.returncode, proc.stdout, proc.stderr, files)
        except checks.Rejected as exc:
            failures.append(f"cold start: {exc}")
        if i:  # the first start only fills the bytecode cache
            times.append(elapsed * speed.scale(t0, elapsed, OVERHEAD))
    return times, failures


class Loop:
    """The closed loop. Pass p runs the workload's operations on fresh inputs
    generated from (seed, p), so a cache kept inside the process across calls
    never sees the same data twice."""

    def __init__(self, name: str, seed: int, workdir: Path):
        from distset import cli

        self.cli = cli  # looked up per call, so the traced run sees the wrapped main
        self.name, self.seed, self.workdir = name, seed, workdir
        self.passes = 0  # passes started
        self.wl = self.first_wl = gen.build(name, seed, ROOT, 0)
        self.dir = self.first_dir = workdir / "pass0"
        write_inputs(self.wl.files, self.dir)
        self.first: list[tuple[int, str, str]] = []  # pass 0 outputs, for the digest
        self.samples: list[tuple[int, float, float]] = []  # (op index, start, wall seconds)
        self.failures: list[str] = []
        self.failed = 0

    def next_pass(self) -> None:
        """Generate and write the inputs of the next pass (pass 0 is ready)."""
        if self.passes:
            if self.dir != self.first_dir:
                shutil.rmtree(self.dir)
            self.wl = gen.build(self.name, self.seed, ROOT, self.passes)
            self.dir = self.workdir / f"pass{self.passes}"
            write_inputs(self.wl.files, self.dir)
        self.argv = [resolve(op, self.dir) for op in self.wl.ops]
        self.passes += 1

    def run(self, k: int, speed: Speed | None = None, same_as: tuple | None = None):
        """Run operation k of the current pass; return its wall seconds and
        output. Outside the timed call the output is checked or, for a repeat,
        compared byte for byte with the earlier output same_as."""
        if speed is not None:
            speed.sample()
        start = time.perf_counter()
        rc, out, err, elapsed = invoke(self.cli.main, list(self.argv[k]))
        result = (rc, out, err)
        self.samples.append((k, start, elapsed))
        op = self.wl.ops[k]
        why = None
        if same_as is not None:
            if result != same_as:
                why = "output changed on a repeat"
        else:
            if self.passes == 1:
                self.first.append(result)
            try:
                checks.check(op, rc, out, err, self.wl.files)
            except checks.Rejected as exc:
                why = str(exc)
        if why:
            self.failed += 1
            self.failures.append(f"pass {self.passes - 1}, {op.kind} #{k}: {why}")
        return elapsed, result

    def output_digest(self) -> str:
        return digest_outputs(self.first)


def end_to_end(name: str, seed: int, workdir: Path, seconds: float) -> dict:
    loop = Loop(name, seed, workdir)
    ops = len(loop.wl.ops)
    speed = Speed()
    deadline = time.perf_counter() + seconds
    i = 0
    speed.start_timer()
    try:
        while i < ops or time.perf_counter() < deadline:
            if i % ops == 0:
                loop.next_pass()
            loop.run(i % ops, speed)
            i += 1
    finally:
        speed.stop_timer()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, failures = len(loop.samples), loop.failed, loop.failures

    wall: dict[int, list[float]] = {k: [] for k in range(ops)}
    ref: dict[int, list[float]] = {k: [] for k in range(ops)}
    probe = [OVERHEAD if op.kind in OVERHEAD_KINDS else ARITHMETIC for op in loop.wl.ops]
    for k, start, s in loop.samples:
        s -= speed.probing(start, s)
        wall[k].append(s)
        ref[k].append(s * speed.scale(start, s, probe[k]))
    # An operation's latency is the median over the passes, each on its own
    # inputs of the same size. Percentiles run over the operations of one
    # pass, so they do not depend on how many passes fit in the run.
    lat = [statistics.median(ref[k]) for k in range(ops)]
    wall_lat = [statistics.median(wall[k]) for k in range(ops)]
    tail_s, tail_pct, beyond = tail(lat)
    wl = loop.first_wl
    cold, cold_failures = cold_start(wl.cold, loop.first_dir, wl.files, speed)
    failures += cold_failures
    correct_share = (attempted - failed) / attempted
    metrics = {
        "ops_per_s": (ops / sum(lat) * correct_share, "1/ref-s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ref-ms"),
        "latency_tail_ms": (tail_s * 1e3, "ref-ms"),
        "setup_s": (statistics.median(cold), "s"),  # reference seconds
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "extra": {
            "error_rate": failed / attempted,
            "latency_tail_percentile": tail_pct,
            "latency_tail_beyond": beyond,
            "pass_ops": ops,
            "passes": attempted / ops,
            "probe_ms": {name: {"median": statistics.median(took) * 1e3, "min": min(took) * 1e3}
                         for name, took in zip(("arithmetic", "overhead"), speed.took)},
            "wall": {  # the same statistics on wall-clock time
                "ops_per_s": ops / sum(wall_lat) * correct_share,
                "latency_p50_ms": statistics.median(wall_lat) * 1e3,
                "latency_tail_ms": tail(wall_lat)[0] * 1e3,
            },
            "setup_runs_ref_s": cold,
            "input_digest": digest_inputs(wl.files),
            "output_digest": loop.output_digest(),
            "per_op_ref_ms": [[op.kind, [round(s * 1e3, 3) for s in ref[k]]] for k, op in enumerate(wl.ops)],
            "per_op_wall_ms": [[op.kind, [round(s * 1e3, 3) for s in wall[k]]] for k, op in enumerate(wl.ops)],
        },
    }


def traced(name: str, seed: int, workdir: Path, seconds: float, spans_path: Path) -> dict:
    """Each operation runs traced, then untraced on the same inputs; the two
    outputs must agree byte for byte. Tracing goes first, so the per-layer
    times never follow an untraced call on the same data."""
    from tracer import Tracer

    loop = Loop(name, seed, workdir)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    t0 = time.perf_counter()
    while True:
        loop.next_pass()
        for k in range(len(loop.wl.ops)):
            tracer.op_id = k
            tracer.install()
            try:
                elapsed, result = loop.run(k)
            finally:
                tracer.uninstall()
            traced_s += elapsed
            untraced_s += loop.run(k, same_as=result)[0]
        elapsed = time.perf_counter() - t0
        if elapsed * (loop.passes + 1) / loop.passes > seconds:
            break
    passes = loop.passes
    failures = loop.failures
    for outer, inner, workload in NESTING:
        if workload == name and not tracer.nested(outer, inner):
            failures.append(f"no {inner} span inside {outer}")
    overhead = (traced_s - untraced_s) / passes
    spans = tracer.write_spans(spans_path)
    return {
        "metrics": layer_metrics(tracer, passes, overhead),
        "attempted": len(loop.samples),
        "failed": loop.failed,
        "failures": failures,
        "extra": {
            "pass_ops": len(loop.wl.ops),
            "passes": passes,
            "untraced_s": untraced_s / passes,
            "traced_s": traced_s / passes,
            "spans": spans,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "input_digest": digest_inputs(loop.first_wl.files),
            "output_digest": loop.output_digest(),
            "all_layers": {
                name: {"self_s": tracer.self_s[i] / passes, "calls": tracer.calls[i] / passes}
                for i, name in enumerate(tracer.names) if tracer.calls[i]
            },
        },
    }


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            res = traced(name, seed, workdir, seconds, results / f"{stem}.spans.csv")
        else:
            res = end_to_end(name, seed, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = res["failed"] == 0 and not res["failures"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "commit": commit(), "nproc": os.cpu_count(), "platform": platform.platform(),
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        **res["extra"],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"{name} seed={seed} trace={int(trace)} python={record['python']} nproc={record['nproc']} "
          f"commit={record['commit'][:12]}")
    print(f"  input_digest={record['input_digest']} output_digest={record['output_digest']}")
    print(f"  ops: {res['attempted']} attempted, {res['failed']} failed over {record['pass_ops']}-op passes"
          " (digests cover pass 0)")
    for k, (v, u) in res["metrics"].items():
        print(f"  {k} {v:.6g} {u}")
    if not trace:
        x = res["extra"]
        print(f"  error_rate {x['error_rate']:.6g} ratio")
        print(f"  latency_tail_ms is p{x['latency_tail_percentile']:.2f} of {x['pass_ops']} operations "
              f"({x['latency_tail_beyond']} beyond), each the median over the passes")
    else:
        print(f"  spans {res['extra']['spans']} written to {res['extra']['spans_file']}")
    for line in res["failures"][:10]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = {}
    for name in gen.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):  # 1: ran, but some output was wrong
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        if not trace:
            rec = json.loads((OUT / "results" / f"{name}-seed{seed}-trace0.json").read_text())
            rows[name]["metrics"]["error_rate"] = {"value": rec["error_rate"], "unit": "ratio"}
    names = list(rows["analyze"]["metrics"])
    print(f"\n{'metric':<58}" + "".join(f"{n:>14}" for n in rows))
    for metric in names:
        unit = rows["analyze"]["metrics"][metric]["unit"]
        cells = "".join(f"{rows[n]['metrics'][metric]['value']:>14.6g}" for n in rows)
        print(f"{metric + ' [' + unit + ']':<58}{cells}")
    print("correct: " + ", ".join(f"{n}={rows[n]['correct']}" for n in rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    if not (ROOT / "src" / "distset" / "cli.py").is_file():
        print(f"error: no distset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "data" / "goldens").is_dir():
        print(f"error: no goldens under {ROOT / 'tests' / 'data'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
