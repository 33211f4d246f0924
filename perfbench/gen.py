"""Seeded inputs and operation schedules for the three benchmark workloads.

A workload is one *pass*: an ordered list of distinct CLI operations and the
input files they read. The benchmark runs passes in a closed loop. Every
operation carries what its checker needs (`expect`), computed here from the
generated data and never from the program under test.

Inputs depend only on the workload name, the seed and the pass number: every
pass of a run gets fresh inputs, so no repeat of an operation sees the same
data twice (the shipped descriptions excepted). Operation sizes and the mix
are fixed per workload; the seed and the pass pick the values. Tiers of
similar cost are interleaved evenly, so any stretch of the loop sees the
stated mix.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import lcm
from pathlib import Path

WORKLOADS = ("analyze", "stage", "search")


@dataclass(frozen=True)
class Op:
    """One CLI invocation. argv tokens starting with '@' name input files."""

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(tok[1:] for tok in self.argv if tok.startswith("@"))


@dataclass
class Workload:
    name: str
    files: dict[str, bytes]
    ops: list[Op]
    cold: Op  # the lightest command, used for the cold-start measurement


def fmt(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dump(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def interleave(tiers: list[list[Op]]) -> list[Op]:
    """Spread every tier evenly over the pass, keeping each tier's order.

    Each mix puts its median and its tail (ten operations beyond) in the
    middle of a tier of operations of like cost: the median tier has as many
    operations below it as above, and the tail tier is sized so the tail is
    its middle element. At a tier's edge an order statistic moves with the
    width of the timing noise; at its middle it does not."""
    keyed = []
    for t, ops in enumerate(tiers):
        for i, op in enumerate(ops):
            keyed.append(((i + 0.5) / len(ops), t, i, op))
    return [op for *_, op in sorted(keyed, key=lambda k: k[:3])]


# --- independent reference computations --------------------------------------


def four_values_witness(values) -> tuple | None:
    """None when the 4-values condition holds, else the lex-first failing
    (a, b, c, d, x). The admissible third sides of (a, b) form the interval
    [|a-b|, a+b], so each existence test is one bisection into sorted A."""
    A = sorted(set(F(v) for v in values))
    scale = lcm(*(v.denominator for v in A))
    S = [int(v * scale) for v in A]

    def first_in(lo: int, hi: int):
        i = bisect_left(S, lo)
        return S[i] if i < len(S) and S[i] <= hi else None

    for a in S:
        for b in S:
            lo_ab, hi_ab = abs(a - b), a + b
            for c in S:
                for d in S:
                    x = first_in(max(lo_ab, abs(c - d)), min(hi_ab, c + d))
                    if x is None:
                        continue
                    if first_in(max(abs(b - c), abs(a - d)), min(b + c, a + d)) is None:
                        return tuple(F(v, scale) for v in (a, b, c, d, x))
    return None


def triangle_signature(positive: list[int]) -> tuple:
    """Which sorted triples of the positive values are metric. Everything a
    stage over {0} | positive decides depends only on this and the order."""
    v = sorted(positive)
    return tuple(
        t for t in itertools.combinations_with_replacement(range(len(v)), 3)
        if v[t[2]] <= v[t[0]] + v[t[1]]
    )


def random_like(rng: random.Random, shape: tuple[int, ...], top: int = 10**4) -> list[int]:
    """Random positive integers with the same triangle signature as shape."""
    want = triangle_signature(list(shape))
    while True:
        vals = sorted(rng.sample(range(1, top), len(shape)))
        if triangle_signature(vals) == want:
            return vals


def rand_q(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3, 4)) -> F:
    return F(rng.randint(lo, hi), rng.choice(dens))


# --- analyze -----------------------------------------------------------------

GEOM_DOWN_Q = (F(1, 2), F(1, 3), F(2, 3), F(2, 5), F(3, 4), F(3, 5))
GEOM_UP_Q = (F(2), F(3), F(3, 2), F(5, 2), F(4, 3))


# Component kinds of the symbolic unions, one shape per operation slot; the
# seed picks the parameters, so the cost mix does not move with the seed.
SYMBOLIC_SHAPES = (
    ("geomdown",), ("geomup",), ("closedinterval",), ("halfopeninterval",), ("denserationals",),
    ("finite", "geomdown"), ("finite", "geomup"), ("geomdown", "geomup"),
    ("closedinterval", "geomup"), ("finite", "denserationals"),
    ("geomdown", "denserationals", "finite"), ("halfopeninterval", "geomdown", "geomup"),
)


def symbolic_desc(rng: random.Random, shape: tuple[str, ...]) -> tuple[list, dict]:
    """A union of the given component kinds, and the facts that follow from
    the kinds alone."""
    comps = []
    for kind in shape:
        if kind == "geomdown":
            comps.append({"kind": kind, "r0": rand_q(rng, 1, 9), "q": rng.choice(GEOM_DOWN_Q)})
        elif kind == "geomup":
            comps.append({"kind": kind, "r0": rand_q(rng, 1, 9), "q": rng.choice(GEOM_UP_Q)})
        elif kind in ("closedinterval", "halfopeninterval"):
            comps.append({"kind": kind, "b": rand_q(rng, 1, 12)})
        elif kind == "denserationals":
            a = F(0) if rng.random() < 0.3 else rand_q(rng, 1, 9)
            comps.append({"kind": kind, "a": a, "b": a + rand_q(rng, 1, 6)})
        else:
            vals = {F(0)} | {rand_q(rng, 1, 20) for _ in range(rng.randint(0, 3))}
            comps.append({"kind": kind, "values": sorted(vals)})
    kinds = [c["kind"] for c in comps]
    intervals = {"closedinterval", "halfopeninterval"}
    zero_in = any(
        (k == "finite" and F(0) in c["values"]) or k in intervals
        or (k == "denserationals" and c["a"] == 0)
        for k, c in zip(kinds, comps)
    )
    zero_isolated = not any(
        k == "geomdown" or k in intervals or (k == "denserationals" and c["a"] == 0)
        for k, c in zip(kinds, comps)
    )
    countable = not any(k in intervals for k in kinds)
    facts = {
        "zero_in_A": zero_in,
        "zero_isolated": zero_isolated,
        "countable": countable,
        "well_founded": all(k in ("finite", "geomup") for k in kinds),
        "four_values": "undecided",
    }
    top = {"realizable": zero_in and (countable or not zero_isolated)}
    return _desc_json(comps), {"facts": facts, "top": top}


def _desc_json(comps: list[dict]) -> list[dict]:
    out = []
    for c in comps:
        item = {}
        for key, val in c.items():
            if key == "values":
                item[key] = [fmt(v) for v in val]
            elif isinstance(val, F):
                item[key] = fmt(val)
            else:
                item[key] = val
        out.append(item)
    return out


def finite_expect(values: list[F]) -> dict:
    ok = four_values_witness(values) is None
    facts = {
        "zero_in_A": True,
        "zero_isolated": True,
        "countable": True,
        "well_founded": True,
        "order_type_if_wf": len(set(values)),
        "has_max": True,
        "dense_near_zero": False,
        "four_values": "true" if ok else "false",
    }
    top = {"realizable": True, "urysohn_exists": "true" if ok else "false"}
    return {"facts": facts, "top": top, "passes": ok}


# Wide value ranges make each pass's sets new, so a result cached inside the
# process never serves a later pass; the values stay machine-word sized.
def arithmetic_set(rng: random.Random, size: int, dens=(1, 2, 3, 4)) -> list[F]:
    d = rand_q(rng, 1, 10**6, dens)
    return [d * k for k in range(size)]


def geometric_set(rng: random.Random, size: int, dens=(1, 2, 3, 4)) -> list[F]:
    r0, ratio = rand_q(rng, 1, 2000, dens), rng.choice((3, 4, 5))
    return [F(0)] + [r0 * ratio**k for k in range(size - 1)]


def failing_set(rng: random.Random, size: int) -> list[F]:
    """{0} plus random integers, redrawn until the 4-values check fails."""
    while True:
        vals = [F(0)] + [F(v) for v in rng.sample(range(1, 60), size - 1)]
        if four_values_witness(vals) is not None:
            return vals


def build_analyze(rng: random.Random, root: Path) -> Workload:
    files: dict[str, bytes] = {}
    fmts = itertools.cycle(("json", "text"))

    def analyze(kind: str, name: str, desc_bytes: bytes, expect: dict, fmt_: str | None = None) -> Op:
        files[name] = desc_bytes
        return Op(kind, ("analyze", "--input", f"@{name}", "--format", fmt_ or next(fmts)), expect)

    shipped = []
    for path in sorted((root / "tests" / "data" / "descs").glob("*.json")):
        golden = (root / "tests" / "data" / "goldens" / path.name).read_bytes()
        for f in ("json", "text"):
            shipped.append(analyze("analyze.shipped", f"shipped-{path.name}", path.read_bytes(), {"golden": golden}, f))

    symbolic = []
    for i in range(60):
        desc, expect = symbolic_desc(rng, SYMBOLIC_SHAPES[i % len(SYMBOLIC_SHAPES)])
        symbolic.append(analyze("analyze.symbolic", f"sym-{i:02d}.json", dump(desc), expect))

    def finite(kind: str, i: int, values: list[F]) -> Op:
        desc = [{"kind": "finite", "values": [fmt(v) for v in values]}]
        return analyze(kind, f"{kind.split('.')[1]}-{i:02d}.json", dump(desc), finite_expect(values))

    small = [finite("analyze.pass", i, (arithmetic_set if i % 2 else geometric_set)(rng, size))
             for i, size in enumerate((5, 5, 5, 5, 6, 6, 6, 6))]
    failing = [finite("analyze.fail", i, failing_set(rng, 5 + i % 2)) for i in range(16)]
    # the costliest tiers use integers, so the seed moves values, not their cost
    tier = [finite("analyze.pass7", i, arithmetic_set(rng, 7, (1,))) for i in range(18)]
    top = [finite("analyze.pass13", 0, arithmetic_set(rng, 13, (1,))),
           finite("analyze.pass9", 0, geometric_set(rng, 9, (1,)))]
    ops = interleave([shipped + symbolic, small, failing, tier, top])
    cold = next(op for op in shipped if "zero-only" in op.argv[2])
    return Workload("analyze", files, ops, cold)


# --- stage -------------------------------------------------------------------

# (shape, budget, embed bound, homog bound). A shape stands for every set
# {0} | values with the same triangle signature; budgets past the size where a
# shape saturates cost the same as that size.
STAGE_TOP = [((1, 2), 20, 5, 2), ((1, 3, 7), 60, 3, 2), ((1, 3), 60, 3, 3)]
STAGE_TIER = [((1, 2, 5) if i % 2 else (1, 3, 5), 20, 4, 2) for i in range(15)]
# (shape, homog bound) of the budget-20 median tier: configurations of like cost
STAGE_MID = [((1, 3, 4), 2), ((1, 3, 7), 2), ((2, 3, 4), 3)]
STAGE_LIGHT = [((1, 2), 20, 3, 2), ((1, 2), 40, 3, 2), ((1, 2), 60, 3, 2),
               ((1, 3), 20, 3, 2), ((1, 3), 60, 3, 2), ((1, 3), 30, 3, 2)]
STAGE_FAIL_SHAPES = [(1, 2, 4), (2, 3, 6), (2, 4, 7), (3, 4, 8)]


def build_stage(rng: random.Random, root: Path) -> Workload:
    files: dict[str, bytes] = {}
    counter = itertools.count()

    def stage(kind: str, shape, budget: int, eb: int, hb: int) -> Op:
        values = [F(0)] + [F(v) for v in random_like(rng, shape)]
        name = f"stage-{next(counter):02d}.json"
        files[name] = dump([{"kind": "finite", "values": [fmt(v) for v in values]}])
        argv = ("urysohn", "--input", f"@{name}", "--budget", str(budget),
                "--embed-bound", str(eb), "--homog-bound", str(hb))
        witness = four_values_witness(values)
        expect = {"values": values, "budget": budget, "embed": eb, "homog": hb,
                  "four_values_witness": witness}
        return Op(kind, argv, expect)

    mid = [stage("stage.budget20", shape, 20, 3, hb) for _ in range(4) for shape, hb in STAGE_MID]
    top = [stage("stage.top", *cfg) for cfg in STAGE_TOP]
    tier = [stage("stage.embed4", *cfg) for cfg in STAGE_TIER]
    light = [stage("stage.small", *cfg) for cfg in STAGE_LIGHT]
    fails = [stage("stage.fourvalues-fails", shape, 40, 3, 2) for _ in range(3) for shape in STAGE_FAIL_SHAPES]
    ops = interleave([light + fails, mid, tier, top])
    cold = light[STAGE_LIGHT.index(((1, 3), 20, 3, 2))]
    return Workload("stage", files, ops, cold)


# --- search ------------------------------------------------------------------


def regular_graph(rng: random.Random, n: int, k: int) -> frozenset:
    """Uniform-ish k-regular simple graph on n vertices (pairing model)."""
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            return frozenset(edges)


def graph_invariant(n: int, edges: frozenset) -> tuple:
    """Sorted per-vertex (triangles, vertices at distance 2). Graphs whose
    invariants differ are not isomorphic."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    rows = []
    for v in range(n):
        tri = sum(1 for a, b in itertools.combinations(sorted(adj[v]), 2) if b in adj[a])
        two = set().union(*(adj[u] for u in adj[v])) - adj[v] - {v} if adj[v] else set()
        rows.append((tri, len(two)))
    return tuple(sorted(rows))


def permute(edges: frozenset, perm: list[int]) -> frozenset:
    return frozenset((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)


def induced(edges: frozenset, keep: list[int]) -> frozenset:
    """Induced subgraph on keep, relabelled 0..len(keep)-1 in keep's order."""
    pos = {v: i for i, v in enumerate(keep)}
    return frozenset(
        (min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in edges if a in pos and b in pos
    )


def graph_json(n: int, edges: frozenset) -> dict:
    return {"edges": [list(e) for e in sorted(edges)], "n": n}


def graph_space_matrix(n: int, edges: frozenset, r: F, rp: F) -> list[list[F]]:
    return [[F(0) if i == j else (r if (min(i, j), max(i, j)) in edges else rp)
             for j in range(n)] for i in range(n)]


def space_json(dist: list[list[F]]) -> dict:
    return {"dist": [[fmt(v) for v in row] for row in dist], "n": len(dist)}


def random_metric(rng: random.Random, n: int, dens=(1, 2, 3)) -> list[list[F]]:
    """Entries drawn from [m, 2m], so every triangle holds."""
    m, den = rng.randint(3, 12), rng.choice(dens)
    d = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = F(rng.randint(m, 2 * m), den)
    return d


def graph_pair(rng: random.Random, n: int, k: int, relation: str):
    """(G, H, expected) where H is a permuted copy, an induced piece of G
    relabelled (embeddings only), or a non-isomorphic k-regular partner."""
    g = regular_graph(rng, n, k)
    if relation == "copy":
        perm = list(range(n))
        rng.shuffle(perm)
        return (n, g), (n, permute(g, perm)), True
    if relation == "piece":
        keep = rng.sample(range(n), n - 3)
        return (n - 3, induced(g, keep)), (n, g), True
    inv = graph_invariant(n, g)
    while True:
        h = regular_graph(rng, n, k)
        if graph_invariant(n, h) != inv:
            return (n, g), (n, h), False


def mpf_table(rng: random.Random, size: int, preserving: bool) -> list[tuple[F, F]]:
    domain = sorted({F(0)} | {rand_q(rng, 1, 400, (1, 2, 3, 5)) for _ in range(4 * size)})
    domain = [F(0)] + rng.sample(domain[1:], size - 1)
    cap = rand_q(rng, 20, 200)
    if preserving:
        # min(x, cap): nondecreasing, subadditive, zero only at 0
        return sorted((x, min(x, cap)) for x in domain)
    # one value far above its neighbours breaks a triangle somewhere
    table = sorted((x, min(x, cap)) for x in domain)
    j = rng.randrange(len(table) // 3, len(table))
    x, y = table[j]
    table[j] = (x, 3 * cap + y)
    return table


def slope_params(rng: random.Random, size: int) -> dict:
    """Tail values with gaps growing to the right, fed in descending order,
    so the greedy choice can always take the next pool value down."""
    a = F(rng.randint(0, 3))
    b = a + rand_q(rng, 1, 4, (1, 2, 3))
    den = size + rng.randint(10, 60)
    pool = [a + (b - a) * F(k, den) for k in range(1, den)]
    tail, gap, v = [], rand_q(rng, 1, 5), b + rand_q(rng, 1, 9, (1, 2, 3))
    for _ in range(size):
        tail.append(v)
        gap += rand_q(rng, 1, 6)
        v += gap
    return {"a": a, "b": b, "tail": sorted(tail, reverse=True), "pool": pool}


def build_search(rng: random.Random, root: Path) -> Workload:
    files: dict[str, bytes] = {}
    counter = itertools.count()

    def put(prefix: str, obj) -> str:
        name = f"{prefix}-{next(counter):03d}.json"
        files[name] = dump(obj)
        return f"@{name}"

    oracles = []
    for i in range(48):
        n, k = ((8, 3), (10, 3), (12, 3), (12, 4))[i % 4]
        rel = ("isometry", "embedding", "graph-iso", "graph-embed")[(i // 4) % 4]
        kind = ("copy", "piece", "partner")[(i // 16) % 3]
        if kind == "piece" and rel in ("isometry", "graph-iso"):
            kind = "copy"
        (gn, g), (hn, h), found = graph_pair(rng, n, k, kind)
        if rel in ("isometry", "embedding"):
            r = rand_q(rng, 1, 9)
            rp = r + r * F(rng.randint(1, 4), 4)
            A, B = graph_space_matrix(gn, g, r, rp), graph_space_matrix(hn, h, r, rp)
            args = (put("space", space_json(A)), put("space", space_json(B)))
            expect = {"relation": rel, "found": found, "A": A, "B": B}
        else:
            args = (put("graph", graph_json(gn, g)), put("graph", graph_json(hn, h)))
            expect = {"relation": rel, "found": found, "A": (gn, g), "B": (hn, h)}
        oracles.append(Op(f"oracle.{rel}.{kind}", ("oracle", rel) + args, expect))

    reductions = []
    for i in range(6):
        rel_in, rel_out = (("graph-iso", "isometry"), ("graph-embed", "embedding"))[i % 2]
        pairs, answers = [], []
        for j in range(3):
            n, k = ((8, 3), (10, 3), (10, 4))[j]
            kind = ("copy" if rel_in == "graph-iso" else "piece") if j % 2 == 0 else "partner"
            (gn, g), (hn, h), found = graph_pair(rng, n, k, kind)
            r = rand_q(rng, 2, 9)
            rp = r + r * F(rng.randint(1, 4), 4)
            pairs.append({
                "input": [graph_json(gn, g), graph_json(hn, h)],
                "transformed": [space_json(graph_space_matrix(gn, g, r, rp)),
                                space_json(graph_space_matrix(hn, h, r, rp))],
            })
            answers.append(found)
        argv = ("reduce", rel_in, rel_out, "--input", put("pairs", pairs))
        reductions.append(Op("reduce", argv, {"answers": answers}))

    def glue_op(n1: int, n2: int, dens=(1, 2, 3)) -> Op:
        X, Y = random_metric(rng, n1, dens), random_metric(rng, n2, dens)
        r = rand_q(rng, 1, 30, dens)
        argv = ("construct", "glue", put("space", space_json(X)), put("space", space_json(Y)), "--r", fmt(r))
        return Op("construct.glue", argv, {"X": X, "Y": Y, "r": r})

    def product_op(n1: int, n2: int, dens=(1, 2, 3)) -> Op:
        X, Z = random_metric(rng, n1, dens), random_metric(rng, n2, dens)
        argv = ("construct", "max-product", put("space", space_json(X)), put("space", space_json(Z)))
        return Op("construct.max-product", argv, {"X": X, "Z": Z})

    def graph_space_op(n: int) -> Op:
        edges = frozenset(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4)
        r = rand_q(rng, 1, 9)
        rp = r + r * F(rng.randint(1, 4), 4)
        argv = ("construct", "graph-space", put("graph", graph_json(n, edges)), "--r", fmt(r), "--rp", fmt(rp))
        return Op("construct.graph-space", argv, {"n": n, "edges": edges, "r": r, "rp": rp})

    def tree_op() -> Op:
        nodes, frontier = [()], [()]
        depth = rng.randint(2, 3)
        for _ in range(depth):
            nxt = []
            for node in frontier:
                for c in range(rng.randint(1, 3)):
                    nodes.append(node + (c,))
                    nxt.append(node + (c,))
            frontier = nxt
        r0, ratio = rand_q(rng, 1, 4), F(rng.randint(1, 3), rng.randint(4, 6))
        x = r0 + rand_q(rng, 1, 20)
        r_seq = [r0 * ratio**i for i in range(depth + 1)]
        rp_seq = [x + r / 2 for r in r_seq]
        data = {"nodes": [list(s) for s in nodes], "r_seq": [fmt(v) for v in r_seq],
                "rp_seq": [fmt(v) for v in rp_seq], "x": fmt(x)}
        argv = ("construct", "tree-space", put("tree", data))
        return Op("construct.tree-space", argv, {"nodes": nodes, "r_seq": r_seq, "rp_seq": rp_seq})

    def to_graph_op(n: int) -> Op:
        edges = frozenset(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3)
        r = rand_q(rng, 1, 9)
        rp = r + r * F(rng.randint(1, 4), 4)
        dist = graph_space_matrix(n, edges, r, rp)
        argv = ("construct", "space-to-graph", put("space", space_json(dist)), "--r", fmt(r))
        return Op("construct.space-to-graph", argv, {"n": n, "edges": edges})

    def mpf_op(action: str, size: int, preserving: bool) -> Op:
        table = mpf_table(rng, size, preserving)
        argv = ("mpf", action, "--input", put("mpf", [[fmt(x), fmt(y)] for x, y in table]))
        return Op(f"mpf.{action}", argv, {"table": table})

    def slope_op(size: int) -> Op:
        p = slope_params(rng, size)
        data = {"a": fmt(p["a"]), "b": fmt(p["b"]), "tail": [fmt(v) for v in p["tail"]],
                "pool": [fmt(v) for v in p["pool"]]}
        return Op("mpf.slope", ("mpf", "slope", "--input", put("slope", data)), p)

    small = [glue_op(6, 6), glue_op(10, 8), product_op(3, 4), product_op(5, 5),
             graph_space_op(6), graph_space_op(12), tree_op(), tree_op(),
             to_graph_op(15), to_graph_op(30),
             mpf_op("check", 30, True), mpf_op("sufficient", 30, True),
             mpf_op("check", 45, False), mpf_op("check", 60, False),
             mpf_op("sufficient", 40, False), mpf_op("check", 36, True),
             slope_op(30), slope_op(40), slope_op(50)]
    scans = [mpf_op(("check", "sufficient")[i % 2], 45, True) for i in range(4)]
    # Round trips between 10-vertex graphs and their spaces: the median cluster.
    light = [graph_space_op(10) if i % 2 else to_graph_op(10) for i in range(138)]
    # 4-vertex round trips, below the median cluster, balance the costlier operations above it
    tiny = [graph_space_op(4) if i % 2 else to_graph_op(4) for i in range(70)]
    # integer matrices in the costliest tiers, as in analyze
    tier = [glue_op(20, 20, (1,)) for _ in range(18)]
    top = [glue_op(28, 28, (1,)), product_op(8, 10, (1,))]
    ops = interleave([tiny, light, oracles, reductions, small, scans, tier, top])
    cold = next(op for op in oracles if op.kind == "oracle.graph-embed.piece")
    return Workload("search", files, ops, cold)


_BUILD = {"analyze": build_analyze, "stage": build_stage, "search": build_search}


def build(name: str, seed: int, root: Path, pass_no: int = 0) -> Workload:
    """Pass pass_no of the workload for this seed."""
    return _BUILD[name](random.Random(f"{name}:{seed}:{pass_no}"), root)
