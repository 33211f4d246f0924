"""The one backtracking core of distset.oracles against the four searches it
replaced (tests/oracles_reference.py).

Seeded graphs on 1-9 vertices, paired with a permuted copy, an induced piece
or a random partner, run through graph_iso and graph_embed, and their
graph_space spaces through find_isometry and find_embedding, both ways
round. Random metrics with 1-3 distinct distances, paired the same way, run
through the space oracles. Every call must return the reference's witness
tuple, or None where it returns None.
"""

import itertools
import random
from fractions import Fraction

import pytest

import oracles_reference as ref
from distset.constructions import Graph, graph_space
from distset.errors import DistSetError
from distset.metric import FiniteMetricSpace, subspace, validate_metric
from distset.oracles import find_embedding, find_isometry, graph_embed, graph_iso

F = Fraction
BLOCKS = 8
PER_BLOCK = 50


def random_graph(rng: random.Random, n: int) -> Graph:
    density = rng.choice((0.2, 0.5, 0.8))
    edges = frozenset(
        pair for pair in itertools.combinations(range(n), 2) if rng.random() < density
    )
    return Graph(n, edges)


def relabeled(rng: random.Random, G: Graph, keep: list) -> Graph:
    """The subgraph G induces on keep, its vertices in a random order."""
    rng.shuffle(keep)
    new = {v: i for i, v in enumerate(keep)}
    edges = frozenset(
        (min(new[a], new[b]), max(new[a], new[b]))
        for a, b in G.edges
        if a in new and b in new
    )
    return Graph(len(keep), edges)


def graph_pair(rng: random.Random) -> tuple[str, Graph, Graph]:
    H = random_graph(rng, rng.randint(1, 9))
    kind = rng.choice(("permuted", "piece", "random"))
    if kind == "permuted":
        G = relabeled(rng, H, list(range(H.n)))
    elif kind == "piece":
        G = relabeled(rng, H, rng.sample(range(H.n), rng.randint(1, H.n)))
    else:
        G = random_graph(rng, rng.randint(1, H.n))
    return kind, G, H


def random_metric(rng: random.Random, n: int, values: list) -> FiniteMetricSpace:
    while True:
        rows = [[F(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[i][j] = rows[j][i] = rng.choice(values)
        try:
            return validate_metric(rows)
        except DistSetError:
            continue


def permuted_space(rng: random.Random, X: FiniteMetricSpace) -> FiniteMetricSpace:
    perm = list(range(X.n))
    rng.shuffle(perm)
    return FiniteMetricSpace(X.n, tuple(tuple(X.dist[a][b] for b in perm) for a in perm))


def space_pair(rng: random.Random) -> tuple[str, FiniteMetricSpace, FiniteMetricSpace]:
    # Values in [m, 2m] give any matrix; others, such as {1, 3}, leave
    # triangles to reject, so those spaces stay small.
    if rng.random() < 0.5:
        m = rng.randint(1, 6)
        values = rng.sample([F(m + k, 1) for k in range(m + 1)], rng.randint(1, min(3, m + 1)))
        n = rng.randint(1, 9)
    else:
        values = rng.sample([F(v, rng.choice((1, 2))) for v in range(1, 8)], rng.randint(1, 3))
        n = rng.randint(1, 6)
    Y = random_metric(rng, n, values)
    kind = rng.choice(("permuted", "piece", "random"))
    if kind == "permuted":
        X = permuted_space(rng, Y)
    elif kind == "piece":
        X = permuted_space(rng, subspace(Y, rng.sample(range(Y.n), rng.randint(1, Y.n))))
    else:
        X = random_metric(rng, rng.randint(1, Y.n), values)
    return kind, X, Y


def graph_block(block: int) -> list:
    rng = random.Random(9180 + block)
    return [graph_pair(rng) for _ in range(PER_BLOCK)]


def space_block(block: int) -> list:
    rng = random.Random(4710 + block)
    return [space_pair(rng) for _ in range(PER_BLOCK)]


def test_cases_cover_the_stated_ranges():
    graphs = [pair for b in range(BLOCKS) for pair in graph_block(b)]
    spaces = [pair for b in range(BLOCKS) for pair in space_block(b)]
    assert {kind for kind, _, _ in graphs} == {kind for kind, _, _ in spaces} == {
        "permuted",
        "piece",
        "random",
    }
    assert {H.n for _, _, H in graphs} == set(range(1, 10))
    assert {len({Y.dist[i][j] for i in range(Y.n) for j in range(i)}) for _, _, Y in spaces} >= {
        1,
        2,
        3,
    }
    found = sum(graph_iso(G, H) is not None for _, G, H in graphs)
    missed = sum(graph_embed(G, H) is None for _, G, H in graphs)
    assert found > 100 and missed > 40


@pytest.mark.parametrize("block", range(BLOCKS))
def test_graph_oracles_match_reference(block):
    for _, G, H in graph_block(block):
        for A, B in ((G, H), (H, G)):
            assert graph_iso(A, B) == ref.graph_iso(A, B)
            assert graph_embed(A, B) == ref.graph_embed(A, B)
            XA, XB = graph_space(A, 1, 2), graph_space(B, 1, 2)
            assert find_isometry(XA, XB) == ref.find_isometry(XA, XB)
            assert find_embedding(XA, XB) == ref.find_embedding(XA, XB)


@pytest.mark.parametrize("block", range(BLOCKS))
def test_space_oracles_match_reference(block):
    for _, X, Y in space_block(block):
        for A, B in ((X, Y), (Y, X)):
            assert find_isometry(A, B) == ref.find_isometry(A, B)
            assert find_embedding(A, B) == ref.find_embedding(A, B)
