"""Test-only reference: the Fraction implementations of the stage pipeline
that the integer-coded kernels in distset.urysohn replaced.

Kept unoptimized on purpose. tests/test_urysohn_differential.py runs both
on the same inputs and requires equal spaces, logs, saturation flags, class
lists and witnesses, so a change to a kernel cannot change what it finds or
the order it finds it in.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional

from distset.errors import FourValuesFails
from distset.metric import FiniteMetricSpace, validate_metric
from distset.oracles import find_embedding, find_isometry
from distset.urysohn import StageResult, four_values_check

ZERO = Fraction(0)


def _realized_patterns(dist, n, subset):
    pats = set()
    outside = [w for w in range(n) if w not in subset]
    for w in outside:
        pats.add(tuple(dist[w][s] for s in subset))
    return pats


def _first_unmet_demand(dist, n, positive, j_max, skipped):
    for j in range(1, j_max + 1):
        for subset in combinations(range(n), j):
            base_ok = True
            realized = _realized_patterns(dist, n, subset)
            for g in product(positive, repeat=j):
                if g in realized or (subset, g) in skipped:
                    continue
                for a in range(j):
                    for b in range(a + 1, j):
                        d = dist[subset[a]][subset[b]]
                        if not abs(g[a] - g[b]) <= d <= g[a] + g[b]:
                            base_ok = False
                            break
                    if not base_ok:
                        break
                if base_ok:
                    return subset, g
                base_ok = True
    return None


def _complete_new_point(dist, n, positive, subset, g):
    new = [None] * n
    for idx, s in enumerate(subset):
        new[s] = g[idx]
    free = [u for u in range(n) if new[u] is None]

    multiplicity: dict = {}
    for u, t in combinations(range(n), 2):
        for w in range(n):
            if w != u and w != t:
                key = (u, t, dist[w][u], dist[w][t])
                multiplicity[key] = multiplicity.get(key, 0) + 1

    def consistent(u, val):
        for t in range(n):
            if new[t] is None or t == u:
                continue
            if not abs(val - new[t]) <= dist[u][t] <= val + new[t]:
                return False
        return True

    def coverage(u, val):
        hits = Fraction(0)
        for t in range(n):
            if new[t] is None or t == u:
                continue
            a, b = (u, t) if u < t else (t, u)
            va, vb = (val, new[t]) if u < t else (new[t], val)
            hits += Fraction(1, 1 + multiplicity.get((a, b, va, vb), 0))
        return hits

    def fill(pos):
        if pos == len(free):
            return True
        u = free[pos]
        ranked = sorted(
            (v for v in positive if consistent(u, v)),
            key=lambda v: (-coverage(u, v), v),
        )
        for v in ranked:
            new[u] = v
            if fill(pos + 1):
                return True
            new[u] = None
        return False

    return list(new) if fill(0) else None


def urysohn_stage(A: Iterable[Fraction], size_budget, embed_bound, homog_bound) -> StageResult:
    values = set(A)
    ok, witness = four_values_check(values)
    if not ok:
        raise FourValuesFails(witness)
    positive = sorted(v for v in values if v > 0)
    j_max = max(embed_bound - 1, homog_bound)
    dist: list[list[Fraction]] = [[ZERO]]
    n = 1
    log: list[tuple[Fraction, ...]] = []
    skipped: set = set()

    while n < size_budget:
        demand = _first_unmet_demand(dist, n, positive, j_max, skipped)
        if demand is None:
            break
        subset, g = demand
        new = _complete_new_point(dist, n, positive, subset, g)
        if new is None:
            skipped.add((subset, g))
            continue
        for i in range(n):
            dist[i].append(new[i])
        dist.append(new + [ZERO])
        n += 1
        log.append(tuple(new))

    saturated = _first_unmet_demand(dist, n, positive, j_max, set()) is None
    return StageResult(validate_metric(dist), saturated, tuple(log))


def enumerate_spaces_up_to_isometry(A: Iterable[Fraction], max_size: int) -> list[FiniteMetricSpace]:
    positive = sorted(v for v in set(A) if v > 0)
    reps: list[FiniteMetricSpace] = []
    for n in range(1, max_size + 1):
        slots = list(combinations(range(n), 2))
        for choice in product(positive, repeat=len(slots)):
            rows = [[ZERO] * n for _ in range(n)]
            for (i, j), v in zip(slots, choice):
                rows[i][j] = v
                rows[j][i] = v
            if any(
                rows[i][j] > rows[i][k] + rows[k][j]
                for i in range(n)
                for j in range(n)
                for k in range(n)
            ):
                continue
            space = FiniteMetricSpace(n, tuple(tuple(r) for r in rows))
            if not any(
                cand.n == n and find_isometry(space, cand, max_points=n) is not None
                for cand in reps
            ):
                reps.append(space)
    return reps


def verify_universality(U, A, s):
    cap = max(U.n, s)
    for space in enumerate_spaces_up_to_isometry(A, s):
        if find_embedding(space, U, max_points=cap) is None:
            return False, space
    return True, None


def verify_one_point_homogeneity(U: FiniteMetricSpace, k: int) -> tuple[bool, Optional[tuple]]:
    d = U.dist
    for j in range(1, k + 1):
        groups: dict = {}
        for tup in _ordered_tuples(U.n, j):
            sig = tuple(d[tup[a]][tup[b]] for a in range(j) for b in range(a + 1, j))
            groups.setdefault(sig, []).append(tup)
        for members in groups.values():
            first = members[0]
            base = _extension_patterns(d, U.n, first)
            for other in members[1:]:
                pats = _extension_patterns(d, U.n, other)
                if pats == base:
                    continue
                for pattern in sorted(base - pats):
                    return False, (first, other, _point_realizing(d, U.n, first, pattern))
                for pattern in sorted(pats - base):
                    return False, (other, first, _point_realizing(d, U.n, other, pattern))
    return True, None


def _ordered_tuples(n, j):
    def rec(prefix):
        if len(prefix) == j:
            yield tuple(prefix)
            return
        for p in range(n):
            if p not in prefix:
                yield from rec(prefix + [p])

    yield from rec([])


def _extension_patterns(d, n, tup):
    return {tuple(d[e][t] for t in tup) for e in range(n) if e not in tup}


def _point_realizing(d, n, tup, pattern):
    for e in range(n):
        if e not in tup and tuple(d[e][t] for t in tup) == pattern:
            return e
    raise AssertionError("pattern was drawn from the extension set")
