"""Test-only reference: the four oracle searches, PartialMap and _next_point
that distset.oracles replaced with one backtracking core.

Kept verbatim on purpose. tests/test_oracles_differential.py runs both on the
same inputs and requires the same witness tuple, not only the same verdict.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from distset.constructions import Graph
from distset.errors import GuardrailExceeded
from distset.metric import FiniteMetricSpace, distance_spectrum

DEFAULT_MAX_POINTS = 12


@dataclass
class PartialMap:
    """Injective partial assignment from 0..n-1 into 0..m-1; the search state.

    Every assigned pair must preserve the pairwise structure, which the
    searches check before calling add().
    """

    n: int
    m: int
    assignment: dict[int, int] = field(default_factory=dict)

    def add(self, p: int, q: int) -> None:
        self.assignment[p] = q

    def remove(self, p: int) -> None:
        del self.assignment[p]

    def is_total(self) -> bool:
        return len(self.assignment) == self.n

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.assignment[i] for i in range(self.n))


def _bound(max_points: Optional[int]) -> int:
    if max_points is not None:
        return max_points
    env = os.environ.get("DISTSET_MAX_POINTS")
    return int(env) if env else DEFAULT_MAX_POINTS


def _guard(n: int, max_points: Optional[int]) -> None:
    bound = _bound(max_points)
    if n > bound:
        raise GuardrailExceeded(n, bound)


def _next_point(remaining: list[int], dist, placed: list[int]) -> int:
    """Pick the next point to assign: most-constrained first.

    Points are keyed by the sorted multiset of distances to already-placed
    points (descending length is constant here, so richer signatures come
    from the ordering itself), ties broken by index.
    """
    return min(remaining, key=lambda p: (tuple(sorted(dist[p][q] for q in placed)), p))


def find_isometry(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, *, max_points: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Distance-preserving bijection X -> Y as an index tuple, or None."""
    _guard(max(X.n, Y.n), max_points)
    if X.n != Y.n:
        return None
    if distance_spectrum(X) != distance_spectrum(Y):
        return None
    row = lambda space, i: tuple(sorted(space.dist[i]))
    if Counter(row(X, i) for i in range(X.n)) != Counter(row(Y, j) for j in range(Y.n)):
        return None

    pm = PartialMap(X.n, Y.n)
    used = [False] * Y.n
    remaining = list(range(X.n))

    def search() -> bool:
        if pm.is_total():
            return True
        placed = list(pm.assignment)
        p = _next_point(remaining, X.dist, placed)
        remaining.remove(p)
        for q in range(Y.n):
            if used[q]:
                continue
            if all(Y.dist[q][pm.assignment[t]] == X.dist[p][t] for t in placed):
                pm.add(p, q)
                used[q] = True
                if search():
                    return True
                used[q] = False
                pm.remove(p)
        remaining.append(p)
        return False

    return pm.as_tuple() if search() else None


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

    pm = PartialMap(X.n, Y.n)
    used = [False] * Y.n
    remaining = list(range(X.n))

    def search() -> bool:
        if pm.is_total():
            return True
        placed = list(pm.assignment)
        p = _next_point(remaining, X.dist, placed)
        remaining.remove(p)
        for q in range(Y.n):
            if used[q]:
                continue
            if all(Y.dist[q][pm.assignment[t]] == X.dist[p][t] for t in placed):
                pm.add(p, q)
                used[q] = True
                if search():
                    return True
                used[q] = False
                pm.remove(p)
        remaining.append(p)
        return False

    return pm.as_tuple() if search() else None


def graph_iso(G: Graph, H: Graph, *, max_points: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Graph isomorphism witness as an index tuple, or None."""
    _guard(max(G.n, H.n), max_points)
    if G.n != H.n or len(G.edges) != len(H.edges):
        return None
    deg_G, deg_H = G.degrees(), H.degrees()
    if sorted(deg_G) != sorted(deg_H):
        return None

    pm = PartialMap(G.n, H.n)
    used = [False] * H.n

    def search() -> bool:
        if pm.is_total():
            return True
        p = len(pm.assignment)
        for q in range(H.n):
            if used[q] or deg_G[p] != deg_H[q]:
                continue
            if all(G.adjacent(p, t) == H.adjacent(q, pm.assignment[t]) for t in pm.assignment):
                pm.add(p, q)
                used[q] = True
                if search():
                    return True
                used[q] = False
                pm.remove(p)
        return False

    return pm.as_tuple() if search() else None


def graph_embed(G: Graph, H: Graph, *, max_points: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Induced-subgraph embedding witness, or None.

    Induced means non-edges map to non-edges too, so the image carries an
    exact copy of G, not merely a supergraph of it.
    """
    _guard(max(G.n, H.n), max_points)
    if G.n > H.n or len(G.edges) > len(H.edges):
        return None
    deg_G, deg_H = G.degrees(), H.degrees()

    pm = PartialMap(G.n, H.n)
    used = [False] * H.n

    def search() -> bool:
        if pm.is_total():
            return True
        p = len(pm.assignment)
        for q in range(H.n):
            if used[q] or deg_H[q] < deg_G[p]:
                continue
            if all(G.adjacent(p, t) == H.adjacent(q, pm.assignment[t]) for t in pm.assignment):
                pm.add(p, q)
                used[q] = True
                if search():
                    return True
                used[q] = False
                pm.remove(p)
        return False

    return pm.as_tuple() if search() else None
