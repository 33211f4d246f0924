"""The search path on integer codes against the Fraction-bound code it
replaced (tests/search_reference.py): the matrix loaders, the five
constructions, the space order and the two space oracles.

Seeded inputs only. Matrices hold Fractions, ints and "p/q" strings written
in several ways ("2/4", " 3 ", "+3", "-0", "6/-4", 30-digit numerators), and
some carry a malformed string, a zero or negative denominator, a float, a
bool, a wrong row length or a broken metric. Space pairs mix denominators,
so the two spaces of a pair are coded on different scales, and include
scaled copies, whose codes coincide on unequal scales. Every call must give
the reference's space, witness or order, or an exception of the same class
with the same message.
"""

import itertools
import random
from fractions import Fraction

import pytest

import search_reference as ref
from distset.constructions import (
    Graph,
    TreeData,
    glue,
    graph_space,
    max_product,
    space_to_graph,
    tree_space,
)
from distset.errors import DistSetError
from distset.metric import FiniteMetricSpace, space_from_json_dict, validate_metric
from distset.oracles import _space_order, find_embedding, find_isometry

F = Fraction
SEED = 20181113
BLOCKS = 6
PER_BLOCK = 40


def outcome(call, *args):
    """What a call returns, or its exception's class and message."""
    try:
        return "ok", call(*args)
    except (DistSetError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def spelled(rng, v):
    """v as a Fraction, an int, or one of several strings for it."""
    choice = rng.random()
    if choice < 0.25:
        return v
    if choice < 0.4 and v.denominator == 1:
        return int(v)
    k = rng.choice((1, 1, 2, 3))
    p, q = v.numerator * k, v.denominator * k
    if rng.random() < 0.15:
        p, q = -p, -q
    text = str(p) if q == 1 else f"{p}/{q}"
    if rng.random() < 0.15:
        text = f" {text} "
    if rng.random() < 0.1 and not text.strip().startswith("-"):
        text = "+" + text.strip()
    return text


FAULTS = ("1/0", "3/-4", "1.5", "x", "", "1/2/3", 1.5, True, None)


def metric_rows(rng, n, dens, big=False, wide=None):
    """A symmetric zero-diagonal matrix with entries in [m, 2m] (every
    triangle holds), with a share of wider entries that break some."""
    m = rng.randint(1, 6) * (10**30 + rng.randint(0, 9) if big else 1)
    wide = rng.choice((0.0, 0.0, 0.2)) if wide is None else wide
    rows = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        den = rng.choice(dens)
        top = 5 * m * den if rng.random() < wide else 2 * m * den
        rows[i][j] = rows[j][i] = F(rng.randint(m * den, top), den)
    return rows


def spelled_matrix(rng):
    n = rng.randint(1, 9)
    rows = metric_rows(rng, n, rng.choice(((1,), (2, 3), (1, 2, 3, 7))), big=rng.random() < 0.1)
    matrix = [[spelled(rng, v) for v in row] for row in rows]
    fault = rng.random()
    if fault < 0.15:
        i, j = rng.randrange(n), rng.randrange(n)
        matrix[i][j] = rng.choice(FAULTS)
    elif fault < 0.2:
        matrix[rng.randrange(n)].append("1")
    elif fault < 0.25 and n > 1:
        i, j = rng.sample(range(n), 2)
        matrix[i][j] = "100"
    elif fault < 0.3 and n > 1:
        i, j = rng.sample(range(n), 2)
        matrix[i][j] = matrix[j][i] = rng.choice(("0", "-1/2", "6/-4", "3/-4", 0))
    return matrix


MATRICES = [spelled_matrix(random.Random(SEED + k)) for k in range(400)]


def test_matrices_cover_every_outcome():
    kinds = {outcome(validate_metric, m)[0] for m in MATRICES}
    assert kinds >= {
        "ok",
        "ValueError",
        "TypeError",
        "TriangleViolation",
        "AsymmetricMatrix",
        "NonpositiveOffDiagonal",
        "NonzeroDiagonal",
    }


@pytest.mark.parametrize("block", range(4))
def test_validate_metric_matches_reference(block):
    for matrix in MATRICES[block::4]:
        assert outcome(validate_metric, matrix) == outcome(ref.validate_metric, matrix), matrix


@pytest.mark.parametrize("block", range(4))
def test_space_from_json_dict_matches_reference(block):
    for k, matrix in enumerate(MATRICES[block::4]):
        data = {"n": len(matrix) + (k % 17 == 0), "dist": matrix}
        got, want = outcome(space_from_json_dict, data), outcome(ref.space_from_json_dict, data)
        assert got == want, data


def test_loaded_space_carries_codes_of_its_distances():
    for matrix in MATRICES:
        kind, X = outcome(validate_metric, matrix)
        if kind == "ok":
            scale, rows = X._coded
            assert [[F(c, scale) for c in row] for row in rows] == [list(r) for r in X.dist]


def random_space(rng, n=None, dens=None):
    n = n or rng.randint(1, 8)
    dens = dens or rng.choice(((1,), (2,), (3,), (1, 2, 3)))
    return ref.validate_metric(metric_rows(rng, n, dens, wide=0.0))


def random_tree(rng):
    nodes, frontier = [()], [()]
    for _ in range(rng.randint(0, 3)):
        frontier = [s + (c,) for s in frontier for c in range(rng.randint(1, 2))]
        nodes += frontier
    depth = max(map(len, nodes))
    x = F(rng.randint(1, 3), rng.choice((1, 2)))
    ratio = F(1, rng.choice((2, 4, 8)))
    r_seq = tuple(x / rng.choice((2, 4)) * ratio**k for k in range(depth + 1))
    rp_seq = tuple(x + rng.choice((1, -1)) * r / 2 for r in r_seq)
    if rng.random() < 0.3:  # break one clause
        which = rng.randrange(4)
        if which == 0:
            r_seq = r_seq[::-1]
        elif which == 1:
            rp_seq = rp_seq[:-1]
        elif which == 2:
            x = -x
        else:
            rp_seq = (x,) + rp_seq[1:]
    if rng.random() < 0.1:
        nodes = [s for s in nodes if s != ()]
    rng.shuffle(nodes)
    return TreeData(tuple(nodes), r_seq, rp_seq, x)


def rational(rng):
    return spelled(rng, F(rng.randint(-2, 30), rng.choice((1, 2, 3, 4))))


@pytest.mark.parametrize("block", range(BLOCKS))
def test_constructions_match_reference(block):
    rng = random.Random(SEED + 1000 + block)
    for _ in range(PER_BLOCK):
        X, Y = random_space(rng), random_space(rng)
        r = rng.choice((rational(rng), rng.choice(FAULTS)))
        xbar, ybar = rng.randint(-1, X.n), rng.randint(-1, Y.n)
        assert outcome(glue, X, Y, r, xbar, ybar) == outcome(ref.glue, X, Y, r, xbar, ybar)
        assert outcome(glue, X, Y, r) == outcome(ref.glue, X, Y, r)
        assert outcome(max_product, X, Y) == outcome(ref.max_product, X, Y)

        n = rng.randint(1, 9)
        G = Graph(n, frozenset(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5))
        r = rational(rng)
        rp = rng.choice((rational(rng), spelled(rng, ref.rat(r) * F(rng.randint(1, 9), 4))))
        assert outcome(graph_space, G, r, rp) == outcome(ref.graph_space, G, r, rp)

        S = ref.graph_space(G, 2, rng.choice((3, "7/2", 4)))
        for r in (2, "4/2", F(2), rng.choice((3, "7/2", 4)), "5/7", rng.choice(FAULTS)):
            assert outcome(space_to_graph, S, r) == outcome(ref.space_to_graph, S, r)
            assert outcome(space_to_graph, X, r) == outcome(ref.space_to_graph, X, r)

        data = random_tree(rng)
        assert outcome(tree_space, data) == outcome(ref.tree_space, data)


def test_constructions_hit_every_branch():
    rng = random.Random(SEED + 1000)
    kinds = set()
    for _ in range(PER_BLOCK):
        X, Y = random_space(rng), random_space(rng)
        kinds.add(outcome(glue, X, Y, rng.choice((rational(rng), rng.choice(FAULTS))))[0])
        kinds.add(outcome(tree_space, random_tree(rng))[0])
    assert {"ok", "NonpositiveGlueDistance", "InvalidTreeData", "ValueError", "TypeError"} <= kinds


def permuted(rng, X):
    perm = list(range(X.n))
    rng.shuffle(perm)
    return FiniteMetricSpace(X.n, tuple(tuple(X.dist[a][b] for b in perm) for a in perm))


def scaled(X, c):
    return FiniteMetricSpace(X.n, tuple(tuple(v * c for v in row) for row in X.dist))


def space_pair(rng):
    """(X, Y): a permuted copy, a permuted piece, a scaled permuted copy or
    an unrelated space, with denominators that often differ between them."""
    values = rng.sample([F(v, d) for v in range(3, 9) for d in (1, 2, 3)], rng.randint(1, 3))
    n = rng.randint(1, 7)
    rows = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.choice(values)
    try:
        Y = ref.validate_metric(rows)
    except DistSetError:
        Y = random_space(rng, n)
    kind = rng.choice(("copy", "piece", "scaled", "other"))
    if kind == "copy":
        X = permuted(rng, Y)
    elif kind == "piece":
        keep = rng.sample(range(Y.n), rng.randint(1, Y.n))
        X = permuted(rng, FiniteMetricSpace(len(keep), tuple(tuple(Y.dist[a][b] for b in keep) for a in keep)))
    elif kind == "scaled":
        X = permuted(rng, scaled(Y, rng.choice((F(2), F(1, 2), F(3, 2), F(2, 3), F(3)))))
    else:
        X = random_space(rng, rng.randint(1, Y.n))
    return (X, Y) if rng.random() < 0.5 else (Y, X)


@pytest.mark.parametrize("block", range(BLOCKS))
def test_space_oracles_match_reference(block):
    rng = random.Random(SEED + 2000 + block)
    for _ in range(PER_BLOCK):
        X, Y = space_pair(rng)
        # hand-built spaces are coded on first use; loaded ones carry codes
        for A, B in ((X, Y), (validate_metric(X.dist), Y), (X, validate_metric(Y.dist))):
            assert find_isometry(A, B) == ref.find_isometry(A, B)
            assert find_embedding(A, B) == ref.find_embedding(A, B)


def test_space_pairs_find_and_miss_on_unequal_scales():
    found = missed = 0
    for block in range(BLOCKS):
        rng = random.Random(SEED + 2000 + block)
        for _ in range(PER_BLOCK):
            X, Y = space_pair(rng)
            if X._coded[0] != Y._coded[0]:
                hit = ref.find_embedding(X, Y) is not None
                found, missed = found + hit, missed + (not hit)
    assert found >= 10 and missed >= 40


def test_space_order_matches_reference():
    rng = random.Random(SEED + 3000)
    for _ in range(300):
        n = rng.randint(1, 12)
        labels = rng.randint(1, 3)  # few labels: many ties
        rows = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[i][j] = rows[j][i] = rng.randint(1, labels)
        assert _space_order(rows) == ref._space_order(rows)
