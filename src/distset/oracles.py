"""Brute-force oracles: isometry, isometric embedding, graph isomorphism and
induced embedding, plus a biconditional checker for reduction maps.

All four searches run on one backtracking core, _first_map. It maps the
points of a label matrix dx injectively into the points of a label matrix dy
so that every pair keeps its label. Spaces pass their distance matrices,
graphs a 0/1 adjacency matrix. Each search differs only in its cheap sound
pre-checks and in what it hands the core: the order in which the points of
dx are placed, and for each point the targets it may take, tried in
ascending order. The first map found is the witness, so both are part of
the output.

The space searches run on the integer codes of both spaces, brought to one
scale (rationals._joint), so every label comparison is an int comparison
and the witness is the one the rationals give.

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
from bisect import insort
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .constructions import Graph
from .errors import GuardrailExceeded
from .metric import FiniteMetricSpace
from .rationals import _joint

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


def _first_map(dx, dy, order: Sequence[int], targets: Sequence[int]) -> Optional[tuple[int, ...]]:
    """First label-preserving injection of dx into dy, or None.

    Places the points of dx in order; point p tries the points of dy in the
    bit mask targets[p] in ascending order, skipping those already taken.
    When p's depth is reached, its candidates are its free targets that see
    each placed point t's image at label dx[p][t]: one AND per placed point,
    with each needed row of dy split into one mask per label the first time
    it is needed. Striking out the lowest candidate and keeping the rest per
    depth stands in for recursion, so no recursion limit applies.
    """
    rows: dict[int, dict] = {}  # a: {label w: mask of the q with dy[a][q] == w}
    image = [0] * len(order)
    free = (1 << len(dy)) - 1
    left: list[int] = []  # per depth, the candidates not tried yet
    depth = 0
    while depth < len(order):
        p = order[depth]
        if depth == len(left):
            row_p = dx[p]
            candidates = targets[p] & free
            for t in order[:depth]:
                a = image[t]
                if a not in rows:
                    rows[a] = _label_masks(dy[a])
                candidates &= rows[a].get(row_p[t], 0)
            left.append(candidates)
        candidates = left[depth]
        if candidates:
            low = candidates & -candidates
            left[depth] = candidates ^ low
            image[p] = low.bit_length() - 1
            free ^= low
            depth += 1
        else:
            left.pop()
            if not left:
                return None
            depth -= 1
            free |= 1 << image[order[depth]]
    return tuple(image)


def _space_order(dist) -> list[int]:
    """The points of a space, most constrained first (see the module doc).

    seen[p] is the sorted list of p's distances to the points placed, kept
    up to date by one insort per point and step. seen iterates in index
    order and min keeps the first of equal keys, so ties go to the smallest
    index.
    """
    seen: dict[int, list] = {p: [] for p in range(len(dist))}
    order: list[int] = []
    while seen:
        p, _ = min(seen.items(), key=itemgetter(1))
        del seen[p]
        order.append(p)
        row = dist[p]
        for q, placed in seen.items():
            insort(placed, row[q])
    return order


def _mask(points) -> int:
    return sum(1 << q for q in points)


def _label_masks(row) -> dict:
    """{label w: the bit mask of the q with row[q] == w}."""
    masks: dict = {}
    for q, w in enumerate(row):
        masks[w] = masks.get(w, 0) | 1 << q
    return masks


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
    _, (dx, dy) = _joint(X._coded, Y._coded)
    if Counter(map(tuple, map(sorted, dx))) != Counter(map(tuple, map(sorted, dy))):
        return None
    return _first_map(dx, dy, _space_order(dx), [_mask(range(Y.n))] * X.n)


def find_embedding(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, *, max_points: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Distance-preserving injection X -> Y as an index tuple, or None."""
    _guard(max(X.n, Y.n), max_points)
    if X.n > Y.n:
        return None
    _, (dx, dy) = _joint(X._coded, Y._coded)
    # each pair's distance, counted once, over the row slices right of the diagonal
    pairs = lambda d: Counter(chain.from_iterable(row[i + 1 :] for i, row in enumerate(d)))
    cy = pairs(dy)
    if any(cy[v] < k for v, k in pairs(dx).items()):
        return None
    return _first_map(dx, dy, _space_order(dx), [_mask(range(Y.n))] * X.n)


def graph_iso(G: Graph, H: Graph, *, max_points: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Graph isomorphism witness as an index tuple, or None."""
    _guard(max(G.n, H.n), max_points)
    if G.n != H.n or len(G.edges) != len(H.edges):
        return None
    deg_G, deg_H = G.degrees(), H.degrees()
    if sorted(deg_G) != sorted(deg_H):
        return None
    targets = [_mask(q for q in range(H.n) if deg_H[q] == d) for d in deg_G]
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
    targets = [_mask(q for q in range(H.n) if deg_H[q] >= d) for d in deg_G]
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
