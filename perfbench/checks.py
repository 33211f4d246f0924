"""Output checkers. Each one re-derives the expected answer from the
generated inputs with its own code and raises Rejected on any mismatch.

The benchmark checks every output here, outside the timed call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from fractions import Fraction as F
from math import lcm

from gen import Op, fmt, graph_space_matrix

_RAT = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class Rejected(Exception):
    pass


def need(cond: bool, why: str) -> None:
    if not cond:
        raise Rejected(why)


def q(text) -> F:
    m = _RAT.match(text) if isinstance(text, str) else None
    need(m is not None, f"not a canonical rational: {text!r}")
    value = F(int(m.group(1)), int(m.group(2) or 1))
    need(fmt(value) == text, f"rational not in lowest terms: {text!r}")
    return value


def sha(files: dict[str, bytes], names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(files[name])
    return h.hexdigest()


def envelope(out: str, files: dict[str, bytes], op: Op, keys: set) -> dict:
    payload = json.loads(out)
    need(set(payload) == keys | {"tool_version", "input_digest"}, f"keys {sorted(payload)}")
    need(payload["input_digest"] == sha(files, op.inputs), "input_digest is not the inputs' SHA-256")
    need(isinstance(payload["tool_version"], str) and payload["tool_version"], "tool_version missing")
    return payload


def metric_problem(dist: list[list[F]]) -> str | None:
    """First defect of a distance matrix, or None for a metric."""
    n = len(dist)
    if any(len(row) != n for row in dist):
        return "matrix is not square"
    scale = lcm(*(v.denominator for row in dist for v in row))
    d = [[int(v * scale) for v in row] for row in dist]
    for i in range(n):
        if d[i][i] != 0:
            return f"nonzero diagonal at {i}"
        for j in range(i + 1, n):
            if d[i][j] != d[j][i] or d[i][j] <= 0:
                return f"bad entry at ({i}, {j})"
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            if any(row[j] > dik + dk[j] for j in range(n)):
                return f"triangle fails through point {k}"
    return None


def read_space(obj) -> list[list[F]]:
    need(isinstance(obj, dict) and set(obj) == {"n", "dist"}, "space needs exactly n and dist")
    dist = [[q(v) for v in row] for row in obj["dist"]]
    need(obj["n"] == len(dist), "n does not match the matrix")
    return dist


# --- analyze -----------------------------------------------------------------

_TOP_SCALARS = ("realizable", "graph_iso_reduces", "isom_equals_isom_star",
                "embeddability_star_bireducible_with_embeddability", "urysohn_exists")


def _as_text(value) -> str:
    """A report value as the text rendering prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "null" if value is None else str(value)


def parse_text_report(body: str) -> dict:
    """Sections of the text rendering: top-level lines and indented blocks."""
    view: dict = {"top": {}, "facts": {}, "topology": {}}
    section = None
    for line in body.splitlines():
        indented = line.startswith("  ")
        key, _, value = line.strip().partition(": ")
        value = value.split("  [")[0]
        if indented:
            need(section is not None, f"indented line outside a block: {line!r}")
            view[section][key] = value
        elif line.endswith(":") and line[:-1] in ("facts", "topology"):
            section = line[:-1]
        else:
            section = None
            view["top"][key] = value
    return view


def golden_expect(golden: bytes) -> dict:
    report = json.loads(golden)
    top = {k: report[k] for k in _TOP_SCALARS}
    return {"facts": report["facts"], "top": top, "topology": report["topology"] or {}}


def check_analyze(op: Op, rc: int, out: str, err: str, files: dict) -> None:
    need(rc == 0 and err == "", f"exit {rc}: {err.strip()[:200]}")
    golden = op.expect.get("golden")
    expect = golden_expect(golden) if golden else op.expect
    if op.argv[-1] == "json":
        report = json.loads(out)
        need(report.pop("input_digest", None) == sha(files, op.inputs), "input_digest mismatch")
        need(isinstance(report.pop("tool_version", None), str), "tool_version missing")
        if golden:
            canon = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
            need(canon == golden, "report differs from its golden")
            return
        for key, value in expect["facts"].items():
            need(report["facts"].get(key) == value, f"fact {key}: {report['facts'].get(key)!r} != {value!r}")
        for key, value in expect["top"].items():
            need(report.get(key) == value, f"{key}: {report.get(key)!r} != {value!r}")
        return
    lines = out.splitlines()
    need(len(lines) > 2 and lines[-1] == f"input_digest: {sha(files, op.inputs)}", "input_digest line")
    need(lines[-2].startswith("tool_version: "), "tool_version line")
    view = parse_text_report("\n".join(lines[:-2]))
    for section in ("facts", "top", "topology"):
        for key, value in expect.get(section, {}).items():
            got = view[section].get(key)
            need(got == _as_text(value), f"{section}.{key}: {got!r} != {_as_text(value)!r}")


# --- stage -------------------------------------------------------------------


def unmet_demand(dist: list[list[F]], positive: list[F], levels: int) -> tuple | None:
    """A subset of at most `levels` points and a one-point extension pattern
    over it (positive values within the two-sided triangle bounds) that no
    point outside the subset realizes; None when every demand is met."""
    n = len(dist)
    for j in range(1, levels + 1):
        pairs = list(itertools.combinations(range(j), 2))
        for sub in itertools.combinations(range(n), j):
            realized = {tuple(dist[w][s] for s in sub) for w in range(n) if w not in sub}
            for g in itertools.product(positive, repeat=j):
                if g not in realized and all(abs(g[a] - g[b]) <= dist[sub[a]][sub[b]] <= g[a] + g[b]
                                             for a, b in pairs):
                    return sub, g
    return None


def embeds(small: list[list[F]], big: list[list[F]]) -> bool:
    """Whether some injective map small -> big preserves every distance."""
    image: list[int] = []

    def extend(i: int) -> bool:
        if i == len(small):
            return True
        for v in range(len(big)):
            if v not in image and all(big[image[a]][v] == small[a][i] for a in range(i)):
                image.append(v)
                if extend(i + 1):
                    return True
                image.pop()
        return False

    return extend(0)


def a_spaces(positive: list[F], max_size: int):
    """Every metric on 1..max_size labelled points with distances in positive."""
    for size in range(1, max_size + 1):
        slots = list(itertools.combinations(range(size), 2))
        for choice in itertools.product(positive, repeat=len(slots)):
            d = [[F(0)] * size for _ in range(size)]
            for (i, j), v in zip(slots, choice):
                d[i][j] = d[j][i] = v
            if metric_problem(d) is None:
                yield d


def homogeneous(dist: list[list[F]], k: int) -> bool:
    """Whether any two ordered tuples of at most k points with the same
    distances are realized by the same one-point extension patterns."""
    n = len(dist)
    for j in range(1, k + 1):
        seen: dict = {}
        for tup in itertools.permutations(range(n), j):
            sig = tuple(dist[tup[a]][tup[b]] for a, b in itertools.combinations(range(j), 2))
            pats = frozenset(tuple(dist[e][t] for t in tup) for e in range(n) if e not in tup)
            if seen.setdefault(sig, pats) != pats:
                return False
    return True


def check_stage(op: Op, rc: int, out: str, err: str, files: dict) -> None:
    e = op.expect
    if e["four_values_witness"] is not None:
        need(rc == 1 and out == "", f"expected exit 1, got {rc}")
        want = f"four-values condition fails at (a, b, c, d, x) = {e['four_values_witness']}\n"
        need(err == want, f"wrong failure report: {err.strip()[:200]}")
        return
    need(rc == 0 and err == "", f"exit {rc}: {err.strip()[:200]}")
    p = envelope(out, files, op, {"space", "log", "saturated", "universality", "homogeneity"})
    A = set(e["values"])
    positive = sorted(v for v in A if v > 0)
    dist = read_space(p["space"])
    n = len(dist)
    need(1 <= n <= e["budget"], f"{n} points for budget {e['budget']}")
    problem = metric_problem(dist)
    need(problem is None, f"stage space is not a metric: {problem}")
    need(all(v in A for row in dist for v in row), "stage spectrum leaves A")
    replay = [[F(0)]]
    for row in p["log"]:
        vals = [q(v) for v in row]
        need(len(vals) == len(replay), "log row length does not match the stage size")
        for i, v in enumerate(vals):
            replay[i].append(v)
        replay.append(vals + [F(0)])
    need(replay == dist, "log does not replay to the stage space")

    unmet = unmet_demand(dist, positive, max(e["embed"] - 1, e["homog"]))
    need(p["saturated"] is (unmet is None), f"saturated={p['saturated']}, unmet demand {unmet}")
    need(unmet is None or n == e["budget"], "unsaturated stage stopped below its budget")
    # A saturated stage realizes every extension pattern over up to
    # max(embed - 1, homog) points. So every A-space on at most `embed` points
    # embeds in it point by point, and tuples of at most `homog` points with
    # the same distances have the same (full) sets of extension patterns.
    saturated = unmet is None

    uni = p["universality"]
    universal = saturated or all(embeds(s, dist) for s in a_spaces(positive, e["embed"]))
    need(uni["holds"] is universal, f"universality.holds={uni['holds']}, but it is {universal}")
    if universal:
        need(uni["witness"] is None, "universality holds but names a missing space")
    else:
        miss = read_space(uni["witness"])
        need(len(miss) <= e["embed"] and metric_problem(miss) is None, "bad universality witness")
        need(all(v in A for row in miss for v in row), "universality witness leaves A")
        need(not embeds(miss, dist), "universality witness embeds in the stage")

    hom = p["homogeneity"]
    homog = saturated or homogeneous(dist, e["homog"])
    need(hom["holds"] is homog, f"homogeneity.holds={hom['holds']}, but it is {homog}")
    if homog:
        need(hom["witness"] is None, "homogeneity holds but names a witness")
    else:
        w = hom["witness"]
        dom, cod, stuck = w["domain"], w["codomain"], w["stuck_point"]
        need(0 < len(dom) == len(cod) <= e["homog"], "witness tuples have bad lengths")
        need(all(0 <= i < n for i in dom + cod + [stuck]), "witness index out of range")
        need(len(set(dom)) == len(dom) and len(set(cod)) == len(cod), "witness tuple repeats a point")
        need(stuck not in dom, "stuck point lies in the domain")
        need(all(dist[dom[a]][dom[b]] == dist[cod[a]][cod[b]]
                 for a, b in itertools.combinations(range(len(dom)), 2)),
             "domain and codomain are not isometric")
        pattern = tuple(dist[stuck][t] for t in dom)
        need(all(tuple(dist[x][t] for t in cod) != pattern for x in range(n) if x not in cod),
             "the stuck point's pattern is realized over the codomain")


# --- search ------------------------------------------------------------------


def _graph_adj(graph) -> tuple[int, set]:
    n, edges = graph
    return n, {frozenset(e) for e in edges}


def verify_map(relation: str, A, B, witness) -> None:
    """witness must be an injective, structure-preserving map A -> B."""
    if relation in ("isometry", "embedding"):
        na, nb = len(A), len(B)
        same = lambda i, j: B[witness[i]][witness[j]] == A[i][j]
    else:
        (na, ea), (nb, eb) = _graph_adj(A), _graph_adj(B)
        same = lambda i, j: (frozenset((i, j)) in ea) == (frozenset((witness[i], witness[j])) in eb)
    need(isinstance(witness, list) and len(witness) == na, "witness has the wrong length")
    need(all(isinstance(v, int) and 0 <= v < nb for v in witness), "witness index out of range")
    need(len(set(witness)) == na, "witness is not injective")
    if relation in ("isometry", "graph-iso"):
        need(na == nb, "bijection between different sizes")
    need(all(same(i, j) for i, j in itertools.combinations(range(na), 2)),
         "witness does not preserve the structure")


def check_oracle(op: Op, rc: int, out: str, err: str, files: dict) -> None:
    e = op.expect
    need(rc == 0 and err == "", f"exit {rc}: {err.strip()[:200]}")
    p = envelope(out, files, op, {"relation", "found", "witness"})
    need(p["relation"] == e["relation"], "wrong relation echoed")
    need(p["found"] is e["found"], f"found={p['found']}, expected {e['found']}")
    if e["found"]:
        verify_map(e["relation"], e["A"], e["B"], p["witness"])
    else:
        need(p["witness"] is None, "witness given for a pair with no map")


def check_reduce(op: Op, rc: int, out: str, err: str, files: dict) -> None:
    need(rc == 0 and err == "", f"exit {rc}: {err.strip()[:200]}")
    p = envelope(out, files, op, {"pairs", "verdict", "counterexample"})
    want = [{"pair": i, "R": a, "S": a, "ok": True} for i, a in enumerate(op.expect["answers"])]
    need(p["pairs"] == want, "per-pair verdicts differ from the known answers")
    need(p["verdict"] == "PASS" and p["counterexample"] is None, "reduction not certified")


def _expected_construct(op: Op):
    e, name = op.expect, op.kind.split(".")[1]
    if name == "glue":
        X, Y, r = e["X"], e["Y"], e["r"]
        nx, ny = len(X), len(Y)
        d = [[F(0)] * (nx + ny) for _ in range(nx + ny)]
        for i, j in itertools.product(range(nx + ny), repeat=2):
            if i < nx and j < nx:
                d[i][j] = X[i][j]
            elif i >= nx and j >= nx:
                d[i][j] = Y[i - nx][j - nx]
            else:
                x, y = (i, j - nx) if i < nx else (j, i - nx)
                d[i][j] = max(X[x][0], Y[y][0], r)
        return d
    if name == "max-product":
        X, Z = e["X"], e["Z"]
        nz = len(Z)
        return [[max(X[a // nz][b // nz], Z[a % nz][b % nz]) for b in range(len(X) * nz)]
                for a in range(len(X) * nz)]
    if name == "graph-space":
        return graph_space_matrix(e["n"], e["edges"], e["r"], e["rp"])
    if name == "tree-space":
        nodes = sorted(set(e["nodes"]), key=lambda s: (len(s), s))
        n = len(nodes) + 1
        d = [[F(0)] * n for _ in range(n)]
        for (i, s), (j, t) in itertools.product(enumerate(nodes), repeat=2):
            if i != j:
                split = next((k for k in range(min(len(s), len(t))) if s[k] != t[k]), min(len(s), len(t)))
                d[i][j] = e["r_seq"][split]
        for i, s in enumerate(nodes):
            d[i][n - 1] = d[n - 1][i] = e["rp_seq"][len(s)]
        return d
    return None


def check_construct(op: Op, rc: int, out: str, err: str, files: dict) -> None:
    need(rc == 0 and err == "", f"exit {rc}: {err.strip()[:200]}")
    payload = json.loads(out)
    if op.kind == "construct.space-to-graph":
        want = {"n": op.expect["n"], "edges": [list(e) for e in sorted(op.expect["edges"])]}
        need(payload == want, "recovered graph differs")
        return
    want = _expected_construct(op)
    need(payload == {"n": len(want), "dist": [[fmt(v) for v in row] for row in want]},
         "constructed matrix differs from its definition")


def preserving_failure(table: list[tuple[F, F]]) -> tuple | None:
    """Brute force over the definition: None, or some failing (c, b, a)."""
    f = dict(table)
    if f.get(F(0)) != 0:
        return (F(0), F(0), F(0))
    for x, y in table:
        if x > 0 and y <= 0:
            return (x, x, F(0))
    dom = sorted(f)
    for a, b, c in itertools.combinations_with_replacement(dom, 3):
        if c <= a + b and not _triangle(f[a], f[b], f[c]):
            return (c, b, a)
    return None


def _triangle(x: F, y: F, z: F) -> bool:
    return x <= y + z and y <= x + z and z <= x + y


def sufficient(table: list[tuple[F, F]]) -> bool:
    """Nondecreasing, and f(r) <= f(s) + f(t) whenever s <= t < r <= s + t."""
    ys = [y for _, y in table]
    if any(y0 > y1 for y0, y1 in zip(ys, ys[1:])):
        return False
    f = dict(table)
    return not any(
        t < r <= s + t and f[r] > f[s] + f[t]
        for s, t in itertools.combinations_with_replacement(sorted(f), 2) for r in f
    )


def check_mpf(op: Op, rc: int, out: str, err: str, files: dict) -> None:
    need(rc == 0 and err == "", f"exit {rc}: {err.strip()[:200]}")
    action = op.kind.split(".")[1]
    if action == "slope":
        _check_slope(op.expect, json.loads(out))
        return
    table = op.expect["table"]
    if action == "sufficient":
        p = envelope(out, files, op, {"sufficient"})
        need(p["sufficient"] is sufficient(table), "sufficient-condition verdict is wrong")
        return
    p = envelope(out, files, op, {"metric_preserving", "witness"})
    failure = preserving_failure(table)
    need(p["metric_preserving"] is (failure is None), "metric-preserving verdict is wrong")
    if failure is None:
        need(p["witness"] is None, "witness given for a preserving function")
        return
    w = p["witness"]
    need(isinstance(w, list) and len(w) == 3, "witness is not a triple")
    c, b, a = (q(v) for v in w)
    f = dict(table)
    need(all(v in f for v in (a, b, c)), "witness leaves the domain")
    if (c, b, a) == (0, 0, 0):
        need(f[F(0)] != 0, "f(0) = 0, so (0, 0, 0) is no witness")
    elif a == 0 and b == c:
        need(f[c] <= 0, "positivity witness with a positive value")
    else:
        need(a <= b <= c <= a + b, "witness is not a triangle of the domain")
        need(not _triangle(f[a], f[b], f[c]), "witness images form a triangle")


def _check_slope(e: dict, payload) -> None:
    pairs = [(q(x), q(y)) for x, y in payload]
    a, b, pool = e["a"], e["b"], set(e["pool"])
    head = [(F(0), F(0))] + ([(a, a)] if a > 0 else [])
    need(pairs[: len(head)] == head, "slope function does not start as the identity")
    tail = pairs[len(head):]
    need(sorted(x for x, _ in tail) == sorted(e["tail"]), "slope domain is not the tail")
    need(all(y in pool and y < x for x, y in tail), "slope value outside the pool or above its input")
    need(pairs == sorted(pairs), "slope pairs are not sorted")
    need(all(y0 < y1 for (_, y0), (_, y1) in zip(pairs, pairs[1:])), "slope values do not increase")
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pairs, pairs[1:])]
    need(all(s0 > s1 for s0, s1 in zip(slopes, slopes[1:])), "slopes do not decrease")
    need(all(y < b for _, y in pairs), "slope range reaches b")
    need(preserving_failure(pairs) is None, "slope function is not metric preserving")


CHECKERS = {
    "analyze": check_analyze,
    "stage": check_stage,
    "oracle": check_oracle,
    "reduce": check_reduce,
    "construct": check_construct,
    "mpf": check_mpf,
}


def check(op: Op, rc: int, out: str, err: str, files: dict) -> None:
    """Raise Rejected unless (rc, out, err) is the right result of op."""
    try:
        CHECKERS[op.kind.split(".")[0]](op, rc, out, err, files)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise Rejected(f"malformed output: {type(exc).__name__}: {exc}") from exc
