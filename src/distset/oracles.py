"""Brute-force oracles: isometry, isometric embedding, graph isomorphism and
induced embedding, plus a biconditional checker for reduction maps.

All four searches run on one backtracking core, _first_map. It maps the
points of a label matrix dx injectively into the points of a label matrix dy
so that every pair keeps its label. Spaces pass their distance matrices,
graphs a 0/1 adjacency matrix. Each search differs only in its cheap sound
pre-checks and in what it hands the core: the order in which the points of
dx are placed, and for each point the targets it may take, tried in the
order given. The first map found is the witness, so both are part of the
output.

Graphs place their vertices in index order, with targets filtered by degree.
Spaces place the most constrained point first: the one whose sorted
distances to the points already placed are least, ties to the smallest
index. That key depends only on X and on the set of points placed, which
the choices before it fix at each depth, so the sequence is one fixed order
of X, computed once per call.

The searches are meant as ground truth on desk-scale instances, so a
guardrail refuses anything past 12 points unless the caller raises it
explicitly or through the DISTSET_MAX_POINTS environment variable.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Optional, Sequence

from .constructions import Graph
from .errors import GuardrailExceeded
from .metric import FiniteMetricSpace

DEFAULT_MAX_POINTS = 12


def _bound(max_points: Optional[int]) -> int:
    if max_points is not None:
        return max_points
    env = os.environ.get("DISTSET_MAX_POINTS")
    if not env:
        return DEFAULT_MAX_POINTS
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"DISTSET_MAX_POINTS must be an integer, got {env!r}") from None


def _guard(n: int, max_points: Optional[int]) -> None:
    bound = _bound(max_points)
    if n > bound:
        raise GuardrailExceeded(n, bound)


def _first_map(dx, dy, order: Sequence[int], targets) -> Optional[tuple[int, ...]]:
    """First label-preserving injection of dx into dy, or None.

    Places the points of dx in order; point p tries the targets in
    targets[p] in turn, skipping those already taken. An iterator of untried
    targets per depth stands in for recursion, so no recursion limit applies.
    """
    image = [0] * len(order)
    used = [False] * len(dy)
    untried: list = []
    depth = 0
    while depth < len(order):
        p = order[depth]
        if depth == len(untried):
            untried.append(iter(targets[p]))
        row_p = dx[p]
        placed = order[:depth]
        for q in untried[depth]:
            row_q = dy[q]
            if not used[q] and all(row_q[image[t]] == row_p[t] for t in placed):
                image[p] = q
                used[q] = True
                depth += 1
                break
        else:
            untried.pop()
            if not untried:
                return None
            depth -= 1
            used[image[order[depth]]] = False
    return tuple(image)


def _space_order(dist) -> list[int]:
    """The points of a space, most constrained first (see the module doc)."""
    order: list[int] = []
    remaining = list(range(len(dist)))
    while remaining:
        p = min(remaining, key=lambda p: (sorted(dist[p][q] for q in order), p))
        remaining.remove(p)
        order.append(p)
    return order


def _adjacency(G: Graph) -> list[list[int]]:
    adj = [[0] * G.n for _ in range(G.n)]
    for a, b in G.edges:
        adj[a][b] = adj[b][a] = 1
    return adj


def find_isometry(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, *, max_points: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Distance-preserving bijection X -> Y as an index tuple, or None."""
    _guard(max(X.n, Y.n), max_points)
    if X.n != Y.n:
        return None
    row = lambda space, i: tuple(sorted(space.dist[i]))
    if Counter(row(X, i) for i in range(X.n)) != Counter(row(Y, j) for j in range(Y.n)):
        return None
    return _first_map(X.dist, Y.dist, _space_order(X.dist), [range(Y.n)] * X.n)


def find_embedding(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, *, max_points: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Distance-preserving injection X -> Y as an index tuple, or None."""
    _guard(max(X.n, Y.n), max_points)
    if X.n > Y.n:
        return None
    pair_counts = lambda space: Counter(
        space.dist[i][j] for i in range(space.n) for j in range(i + 1, space.n)
    )
    cx, cy = pair_counts(X), pair_counts(Y)
    if any(cy[v] < k for v, k in cx.items()):
        return None
    return _first_map(X.dist, Y.dist, _space_order(X.dist), [range(Y.n)] * X.n)


def graph_iso(G: Graph, H: Graph, *, max_points: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Graph isomorphism witness as an index tuple, or None."""
    _guard(max(G.n, H.n), max_points)
    if G.n != H.n or len(G.edges) != len(H.edges):
        return None
    deg_G, deg_H = G.degrees(), H.degrees()
    if sorted(deg_G) != sorted(deg_H):
        return None
    targets = [[q for q in range(H.n) if deg_H[q] == d] for d in deg_G]
    return _first_map(_adjacency(G), _adjacency(H), range(G.n), targets)


def graph_embed(G: Graph, H: Graph, *, max_points: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Induced-subgraph embedding witness, or None.

    Induced means non-edges map to non-edges too, so the image carries an
    exact copy of G, not merely a supergraph of it.
    """
    _guard(max(G.n, H.n), max_points)
    if G.n > H.n or len(G.edges) > len(H.edges):
        return None
    deg_G, deg_H = G.degrees(), H.degrees()
    targets = [[q for q in range(H.n) if deg_H[q] >= d] for d in deg_G]
    return _first_map(_adjacency(G), _adjacency(H), range(G.n), targets)


Relation = Callable[[object, object], Optional[tuple[int, ...]]]


def verify_reduction(
    pairs: Sequence[tuple[tuple[object, object], tuple[object, object]]],
    relation_in: Relation,
    relation_out: Relation,
) -> dict:
    """Check R(x, x') <=> S(f(x), f(x')) over explicit instance pairs.

    Returns a certificate listing both verdicts per pair, an overall
    PASS/FAIL, and the first counterexample index on failure.
    """
    rows = []
    counterexample = None
    for i, ((a, b), (fa, fb)) in enumerate(pairs):
        r = relation_in(a, b) is not None
        s = relation_out(fa, fb) is not None
        ok = r == s
        rows.append({"pair": i, "R": r, "S": s, "ok": ok})
        if not ok and counterexample is None:
            counterexample = i
    return {
        "pairs": rows,
        "verdict": "PASS" if counterexample is None else "FAIL",
        "counterexample": counterexample,
    }
