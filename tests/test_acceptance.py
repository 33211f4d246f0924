"""Acceptance suite: ten exact, tolerance-free criteria, one test each.

Every test prints one PASS line with its elapsed time; a failure keeps the
line unprinted. All randomness is seeded, all assertions are exact rational
comparisons, and each criterion asserts its own runtime cap.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

from classifier_reference import _jsonable
from distset.classifier import ISOMETRY_GUARDS, build_report
from distset.constructions import Graph, TreeData, check_tree_suitable, glue, graph_space, max_product, tree_space
from distset.distance_sets import SetFacts, desc_from_json, facts_consistent
from distset.metric import FiniteMetricSpace, distance_spectrum, is_ultrametric, validate_metric
from distset.metric_preserving import TabulatedFunction, check_sufficient_condition, is_metric_preserving_finite
from distset.oracles import find_embedding, find_isometry, graph_embed, graph_iso
from distset.urysohn import four_values_check, urysohn_stage, verify_one_point_homogeneity, verify_universality

F = Fraction
DATA = pathlib.Path(__file__).parent / "data"


def passed(num: int, cap: float, started: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < cap, f"criterion {num} took {elapsed:.1f}s, cap {cap}s"
    print(f"ACCEPTANCE [{num:02d}] PASS in {elapsed:.2f}s (cap {cap}s): {detail}")


def doubling_pool(base: Fraction) -> list:
    # off-diagonal values confined to [base, 2*base] can never break the
    # triangle inequality
    return [base, base * F(5, 4), base * F(3, 2), base * F(7, 4), base * 2]


def random_space(rng: random.Random, max_n: int, pool) -> FiniteMetricSpace:
    n = rng.randint(1, max_n)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(pool)
            rows[i][j] = rows[j][i] = v
    return validate_metric(rows)


def permuted_copy(rng: random.Random, X: FiniteMetricSpace) -> FiniteMetricSpace:
    perm = list(range(X.n))
    rng.shuffle(perm)
    rows = [[X.dist[perm[i]][perm[j]] for j in range(X.n)] for i in range(X.n)]
    return validate_metric(rows)


def test_criterion_01_glue_spectrum_law():
    started = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        base = rng.choice([F(1), F(2), F(1, 2), F(3, 4)])
        pool = doubling_pool(base)
        X = random_space(rng, 6, pool)
        Y = random_space(rng, 6, pool)
        xbar = rng.randrange(X.n)
        ybar = rng.randrange(Y.n)
        for r in (base * F(1, 3), base * F(3, 2), base * 5):
            Z = glue(X, Y, r, xbar=xbar, ybar=ybar)
            expected = set(distance_spectrum(X)) | set(distance_spectrum(Y)) | {r}
            assert set(distance_spectrum(Z)) == expected
            checked += 1
    assert checked == 600
    passed(1, 5, started, f"{checked} glued spectra matched the union law")


def all_graphs(n: int) -> list:
    slots = list(itertools.combinations(range(n), 2))
    out = []
    for k in range(len(slots) + 1):
        for chosen in itertools.combinations(slots, k):
            out.append(Graph(n, frozenset(chosen)))
    return out


def permuted_graph(rng: random.Random, G: Graph) -> Graph:
    perm = list(range(G.n))
    rng.shuffle(perm)
    edges = frozenset(
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in G.edges
    )
    return Graph(G.n, edges)


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = frozenset(
        pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.5
    )
    return Graph(n, edges)


def test_criterion_02_graph_reduction():
    started = time.monotonic()
    r, rp = F(1), F(2)
    graphs = [G for n in range(1, 5) for G in all_graphs(n)]
    assert len(graphs) == 75
    spaces = [graph_space(G, r, rp) for G in graphs]
    mismatches = 0
    for (G, XG), (H, XH) in itertools.product(zip(graphs, spaces), repeat=2):
        if (graph_iso(G, H) is not None) != (find_isometry(XG, XH) is not None):
            mismatches += 1
        if (graph_embed(G, H) is not None) != (find_embedding(XG, XH) is not None):
            mismatches += 1
    rng = random.Random(202)
    for _ in range(100):
        G = random_graph(rng, 5)
        H = permuted_graph(rng, G) if rng.random() < 0.5 else random_graph(rng, 5)
        XG, XH = graph_space(G, r, rp), graph_space(H, r, rp)
        if (graph_iso(G, H) is not None) != (find_isometry(XG, XH) is not None):
            mismatches += 1
        if (graph_embed(G, H) is not None) != (find_embedding(XG, XH) is not None):
            mismatches += 1
    assert mismatches == 0
    passed(2, 60, started, "75^2 ordered pairs plus 100 five-vertex pairs, zero mismatches")


def test_criterion_03_ultrametric_dichotomy():
    started = time.monotonic()
    values = [F(1), F(3), F(9)]
    valid = 0
    for n in range(1, 5):
        slots = list(itertools.combinations(range(n), 2))
        for choice in itertools.product(values, repeat=len(slots)):
            rows = [[F(0)] * n for _ in range(n)]
            for (i, j), v in zip(slots, choice):
                rows[i][j] = rows[j][i] = v
            try:
                X = validate_metric(rows)
            except Exception:
                continue
            valid += 1
            assert is_ultrametric(X)
    assert valid > 0
    tri = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert not is_ultrametric(tri)
    passed(3, 10, started, f"{valid} spaces over {{0,1,3,9}} all ultrametric; (1,1,2) is not")


def test_criterion_04_padding_reduction():
    started = time.monotonic()
    Z = validate_metric([[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]])
    r0 = F(5)
    rng = random.Random(404)
    pool = [F(1), F(2)]
    mismatches = 0
    for _ in range(100):
        X = random_space(rng, 4, pool)
        Y = permuted_copy(rng, X) if rng.random() < 0.5 else random_space(rng, 4, pool)
        gx, gy = glue(X, Z, r0), glue(Y, Z, r0)
        if (find_isometry(X, Y) is not None) != (find_isometry(gx, gy) is not None):
            mismatches += 1
        if (find_embedding(X, Y) is not None) != (find_embedding(gx, gy) is not None):
            mismatches += 1
    assert mismatches == 0
    passed(4, 60, started, "100 padded pairs, isometry and embedding both transfer")


def test_criterion_05_product_reduction():
    started = time.monotonic()
    W = validate_metric([[0, 1], [1, 0]])
    V = validate_metric([[0, 3], [3, 0]])
    Z = glue(W, V, F(4))
    assert Z.dist == (
        (F(0), F(1), F(4), F(4)),
        (F(1), F(0), F(4), F(4)),
        (F(4), F(4), F(0), F(3)),
        (F(4), F(4), F(3), F(0)),
    )
    rng = random.Random(505)
    pool = [F(1), F(2)]
    mismatches = 0
    for _ in range(50):
        X = random_space(rng, 3, pool)
        Y = permuted_copy(rng, X) if rng.random() < 0.5 else random_space(rng, 3, pool)
        px, py = max_product(X, Z), max_product(Y, Z)
        direct = find_isometry(X, Y) is not None
        lifted = find_isometry(px, py, max_points=16) is not None
        if direct != lifted:
            mismatches += 1
    assert mismatches == 0
    passed(5, 120, started, "50 product pairs, isometry transfers through max_product")


def random_tree_nodes(rng: random.Random) -> tuple:
    nodes = [()]
    frontier = [()]
    for level in range(3):
        grown = []
        for node in frontier:
            low = 1 if level == 0 else 0
            for c in range(rng.randint(low, 2)):
                child = node + (c,)
                nodes.append(child)
                grown.append(child)
        frontier = grown
        if not frontier:
            break
    return tuple(sorted(nodes, key=lambda t: (len(t), t)))


def test_criterion_06_tree_spaces():
    started = time.monotonic()
    rng = random.Random(606)
    for _ in range(50):
        nodes = random_tree_nodes(rng)
        depth = max(len(t) for t in nodes)
        x = rng.choice([F(1), F(2), F(1, 2)])
        d = rng.choice([F(2), F(4)])
        ratio = rng.choice([F(1, 4), F(1, 8)])
        sign = rng.choice([F(1), F(-1)])
        r_seq = tuple(x / d * ratio**k for k in range(depth + 1))
        rp_seq = tuple(x + sign * rk / 2 for rk in r_seq)
        data = TreeData(nodes=nodes, r_seq=r_seq, rp_seq=rp_seq, x=x)
        ok, why = check_tree_suitable(r_seq, rp_seq, x, depth)
        assert ok, why
        X = tree_space(data)
        validate_metric([list(row) for row in X.dist])
        assert X.n == len(nodes) + 1
        assert x not in set(distance_spectrum(X))
    passed(6, 5, started, "50 random suitable trees validate and never realize x")


def test_criterion_07_urysohn_stage():
    started = time.monotonic()
    A = {F(0), F(1), F(2)}
    assert four_values_check(A) == (True, None)
    result = urysohn_stage(A, 40, 3, 2)
    assert result.saturated
    assert result.space.n == 17
    uni_ok, missing = verify_universality(result.space, A, 3)
    assert uni_ok and missing is None
    hom_ok, stuck = verify_one_point_homogeneity(result.space, 2)
    assert hom_ok and stuck is None
    passed(7, 120, started, "stage over {0,1,2} saturates at 17 points, universal and homogeneous")


def test_criterion_08_metric_preserving_bridge():
    started = time.monotonic()
    f = TabulatedFunction(
        ((F(0), F(0)), (F(1), F(1, 2)), (F(2), F(2, 3)), (F(3), F(3, 4)))
    )
    ok, witness = is_metric_preserving_finite(f)
    assert ok and witness is None
    assert check_sufficient_condition(f)

    rng = random.Random(808)
    values = [F(1), F(2), F(3)]
    spaces = []
    while len(spaces) < 100:
        n = rng.randint(1, 4)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice(values)
                rows[i][j] = rows[j][i] = v
        try:
            spaces.append(validate_metric(rows))
        except Exception:
            continue

    def transformed(X):
        return validate_metric(
            [[f(X.dist[i][j]) for j in range(X.n)] for i in range(X.n)]
        )

    images = [transformed(X) for X in spaces]  # raises if any image fails
    mismatches = 0
    for i in range(0, 100, 2):
        X, Y = spaces[i], spaces[i + 1]
        if rng.random() < 0.5:
            Y = permuted_copy(rng, X)
        if (find_isometry(X, Y) is not None) != (
            find_isometry(transformed(X), transformed(Y)) is not None
        ):
            mismatches += 1
    assert len(images) == 100 and mismatches == 0
    passed(8, 30, started, "r/(1+r) preserves all 100 spaces and reflects isometry")


def test_criterion_09_classifier_golden_suite():
    started = time.monotonic()
    names = sorted(p.stem for p in (DATA / "descs").glob("*.json"))
    assert len(names) == 7
    for name in names:
        desc = desc_from_json(json.loads((DATA / "descs" / f"{name}.json").read_text()))
        report = build_report(desc)
        rendered = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
        assert rendered == (DATA / "goldens" / f"{name}.json").read_text(), name
    passed(9, 1, started, "seven golden reports byte-stable")


def test_criterion_10_guard_exhaustiveness():
    started = time.monotonic()
    bools = [False, True]
    checked = 0
    for combo in itertools.product(bools, repeat=12):
        for order_type in (None, 1, 2, "omega"):
            for fv in ("true", "false", "undecided"):
                facts = SetFacts(
                    zero_in_A=combo[0],
                    zero_isolated=combo[1],
                    countable=combo[2],
                    closed=combo[3],
                    well_spaced=combo[4],
                    well_founded=combo[5],
                    order_type_if_wf=order_type,
                    has_max=combo[6],
                    dense_near_zero=combo[7],
                    contains_right_nbhd_of_zero=combo[8],
                    has_limit_point_other_than_zero=combo[9],
                    some_nonzero_limit_point_in_A=combo[10],
                    interval_from_zero=combo[11],
                    four_values=fv,
                )
                if not facts_consistent(facts):
                    continue
                checked += 1
                hits = sum(1 for _, guard in ISOMETRY_GUARDS if guard(facts))
                assert hits == 1
    assert checked > 100
    passed(10, 1, started, f"{checked} consistent fact vectors, one guard each")
