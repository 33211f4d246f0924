"""Amalgamation machinery: the 4-values condition, one-point Katětov
extensions, finite saturation stages, and the checks that make a stage's
universality and homogeneity claims verifiable.

A stage grows a space over a finite distance set A by repeatedly realizing
the first unrealized one-point extension demand, in a fixed deterministic
order, until either no demand is left at the requested levels or the size
budget is hit. Determinism makes stages replayable and prefix-monotone in
the budget.

Stage growth, the class listing and the homogeneity check run on integer
codes; Fractions appear only in their arguments and results. A stage
multiplies A by L, the lcm of its denominators, so every code is an int.
The triangle and Katětov inequalities are linear and homogeneous, so scaling
by L > 0 keeps every comparison, and with it every sort order and every
choice the stage makes, exactly as on the rationals. The homogeneity check
replaces distances by their rank in the space's spectrum, a strictly
monotone map, so the lex order of distance patterns is kept too.

The class listing buckets candidate spaces by an isometry invariant: the
sorted multiset of their sorted distance rows. Isometric spaces share it, so
a candidate is tested with find_isometry only against the earlier classes in
its own bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Iterable, Optional

from .errors import BudgetTooSmall, FourValuesFails, InvariantViolation, SpectrumNotInA
from .metric import (
    FiniteMetricSpace,
    _check_metric,
    _is_metric_triple,
    distance_spectrum,
    validate_metric,
)
from .oracles import find_embedding, find_isometry

ZERO = Fraction(0)


def four_values_check(values: Iterable[Fraction]) -> tuple[bool, Optional[tuple]]:
    """Whether two triangles sharing a side can always be amalgamated.

    For all a, b, c, d in A: if some x in A makes (a, b, x) and (c, d, x)
    metric, some y in A must make (b, c, y) and (a, d, y) metric. Returns
    (True, None) or (False, (a, b, c, d, x)) with the first failure in lex
    order.
    """
    A = sorted(set(values))
    for a in A:
        for b in A:
            for c in A:
                for d in A:
                    x = next(
                        (
                            v
                            for v in A
                            if _is_metric_triple(a, b, v) and _is_metric_triple(c, d, v)
                        ),
                        None,
                    )
                    if x is None:
                        continue
                    if not any(
                        _is_metric_triple(b, c, y) and _is_metric_triple(a, d, y) for y in A
                    ):
                        return False, (a, b, c, d, x)
    return True, None


@dataclass(frozen=True)
class KatetovFunction:
    """Candidate one-point extension: a distance from each point of base.

    Not validated on construction; extend_one_point rejects invalid data so
    tests can force the failure path.
    """

    base: FiniteMetricSpace
    values: tuple[Fraction, ...]


def is_valid_katetov(base: FiniteMetricSpace, values: tuple[Fraction, ...]) -> bool:
    if len(values) != base.n or any(v <= 0 for v in values):
        return False
    for i in range(base.n):
        for j in range(i + 1, base.n):
            d = base.dist[i][j]
            if not abs(values[i] - values[j]) <= d <= values[i] + values[j]:
                return False
    return True


def katetov_extensions(X: FiniteMetricSpace, A: Iterable[Fraction]) -> list[KatetovFunction]:
    """All one-point extension value tuples over A, in lex order."""
    allowed = set(A)
    for v in distance_spectrum(X):
        if v not in allowed:
            raise SpectrumNotInA(v)
    positive = sorted(v for v in allowed if v > 0)
    out = []
    for values in product(positive, repeat=X.n):
        if is_valid_katetov(X, values):
            out.append(KatetovFunction(X, values))
    return out


def extend_one_point(X: FiniteMetricSpace, g: KatetovFunction) -> FiniteMetricSpace:
    """Adjoin one point at the distances g prescribes."""
    if not is_valid_katetov(X, g.values):
        raise InvariantViolation(
            "extension values break the two-sided bounds |g(x)-g(y)| <= d(x,y) <= g(x)+g(y)"
        )
    n = X.n + 1
    rows = [list(X.dist[i]) + [g.values[i]] for i in range(X.n)]
    rows.append(list(g.values) + [ZERO])
    return validate_metric(rows)


@dataclass(frozen=True)
class StageResult:
    space: FiniteMetricSpace
    saturated: bool
    log: tuple[tuple[Fraction, ...], ...]


def _codes(values: set) -> dict:
    """Integer code v * L of each value, L the lcm of the denominators."""
    scale = lcm(*(Fraction(v).denominator for v in values))
    return {v: int(Fraction(v) * scale) for v in values}


def _decoder(codes: dict) -> dict:
    """The inverse of _codes, with 0 decoding to Fraction 0."""
    return {0: ZERO, **{c: Fraction(v) for v, c in codes.items()}}


def _decode_space(dist, value_of: dict) -> FiniteMetricSpace:
    return FiniteMetricSpace(len(dist), tuple(tuple(value_of[c] for c in row) for row in dist))


def _realized_patterns(dist, n: int, subset: tuple[int, ...]) -> set:
    pats = set()
    outside = [w for w in range(n) if w not in subset]
    for w in outside:
        pats.add(tuple(dist[w][s] for s in subset))
    return pats


def _first_unmet_demand(dist, n: int, positive, j_max: int, skipped: set):
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


def _add_point(dist, multiplicity: dict, new: list[int]) -> None:
    """Adjoin a point at distances new, counting the pair patterns it adds.

    multiplicity[(u, t, a, b)] counts the points w other than u < t with
    d(w, u) = a and d(w, t) = b. The new point p adds one pattern to every
    old pair and creates the pairs (u, p); no other count changes.
    """
    p = len(dist)
    for u, t in combinations(range(p), 2):
        key = (u, t, new[u], new[t])
        multiplicity[key] = multiplicity.get(key, 0) + 1
    for i in range(p):
        dist[i].append(new[i])
    dist.append(new + [0])
    for u in range(p):
        for w in range(p):
            if w != u:
                key = (u, p, dist[w][u], new[w])
                multiplicity[key] = multiplicity.get(key, 0) + 1


def _complete_new_point(
    dist, n: int, positive, multiplicity: dict, subset, g
) -> Optional[list[int]]:
    """Distances of a new point realizing g over subset, or None.

    Free coordinates are filled by depth-first search; candidate values are
    ranked by how rare the pair patterns they produce currently are (weight
    1/(1+multiplicity) per pair), ties to the smallest value. Rewarding rare
    patterns keeps rows decorrelated; a plain unmet-only count lets one
    value flood the space and pair demands then regenerate forever. The
    weights are kept exact as integers: scaled by lcm(1, ..., n), they are
    whole numbers, and scaling every sum by one positive factor keeps the
    ranking.
    """
    new = [None] * n
    for idx, s in enumerate(subset):
        new[s] = g[idx]
    free = [u for u in range(n) if new[u] is None]

    scale = lcm(*range(1, n + 1))
    weight = [scale // (1 + m) for m in range(n)]

    def consistent(u: int, val: int) -> bool:
        for t in range(n):
            if new[t] is None or t == u:
                continue
            if not abs(val - new[t]) <= dist[u][t] <= val + new[t]:
                return False
        return True

    def coverage(u: int, val: int) -> int:
        hits = 0
        for t in range(n):
            if new[t] is None or t == u:
                continue
            a, b = (u, t) if u < t else (t, u)
            va, vb = (val, new[t]) if u < t else (new[t], val)
            hits += weight[multiplicity.get((a, b, va, vb), 0)]
        return hits

    def fill(pos: int) -> bool:
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


def urysohn_stage(
    A: Iterable[Fraction],
    size_budget: int,
    embed_bound: int,
    homog_bound: int,
    *,
    strict: bool = False,
) -> StageResult:
    """Grow a deterministic saturation stage over the finite set A.

    Demands are one-point extension patterns over subsets of size below
    embed_bound or up to homog_bound; processing order is (subset size,
    subset, value tuple), all lex. Returns the space, a saturation flag, and
    the replay log of adjoined value tuples. With strict=True an unsaturated
    stage raises BudgetTooSmall instead; the exception carries the result.
    """
    values = set(A)
    codes = _codes(values)
    value_of = _decoder(codes)
    ok, witness = four_values_check(set(codes.values()))
    if not ok:
        raise FourValuesFails(tuple(value_of[c] for c in witness))
    if ZERO not in values:
        raise ValueError("the distance set must contain 0")
    if size_budget < 1 or embed_bound < 1 or homog_bound < 1:
        raise ValueError("budgets and bounds must be >= 1")

    positive = sorted(c for c in codes.values() if c > 0)
    j_max = max(embed_bound - 1, homog_bound)
    dist: list[list[int]] = [[0]]
    n = 1
    log: list[list[int]] = []
    skipped: set = set()
    multiplicity: dict = {}

    while n < size_budget:
        demand = _first_unmet_demand(dist, n, positive, j_max, skipped)
        if demand is None:
            break
        subset, g = demand
        new = _complete_new_point(dist, n, positive, multiplicity, subset, g)
        if new is None:
            skipped.add((subset, g))
            continue
        _add_point(dist, multiplicity, new)
        n += 1
        log.append(new)

    saturated = _first_unmet_demand(dist, n, positive, j_max, set()) is None
    _check_metric(dist)
    space = _decode_space(dist, value_of)
    result = StageResult(
        space, saturated, tuple(tuple(value_of[c] for c in new) for new in log)
    )
    if strict and not saturated:
        raise BudgetTooSmall(result)
    return result


def enumerate_spaces_up_to_isometry(A: Iterable[Fraction], max_size: int) -> list[FiniteMetricSpace]:
    """All spaces with distances in A on at most max_size points, one per
    isometry class, smallest first."""
    codes = _codes(set(A))
    positive = sorted(c for c in codes.values() if c > 0)
    reps: list[FiniteMetricSpace] = []
    buckets: dict = {}
    for n in range(1, max_size + 1):
        slots = list(combinations(range(n), 2))
        slot_of = {pair: s for s, pair in enumerate(slots)}
        sides = [
            (slot_of[i, j], slot_of[i, k], slot_of[j, k])
            for i, j, k in combinations(range(n), 3)
        ]
        for choice in product(positive, repeat=len(slots)):
            if not all(_is_metric_triple(choice[a], choice[b], choice[c]) for a, b, c in sides):
                continue
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(slots, choice):
                rows[i][j] = v
                rows[j][i] = v
            space = FiniteMetricSpace(n, tuple(tuple(r) for r in rows))
            bucket = buckets.setdefault(tuple(sorted(tuple(sorted(r)) for r in rows)), [])
            if not any(find_isometry(space, cand, max_points=n) is not None for cand in bucket):
                bucket.append(space)
                reps.append(space)
    value_of = _decoder(codes)
    return [_decode_space(X.dist, value_of) for X in reps]


def verify_universality(
    U: FiniteMetricSpace, A: Iterable[Fraction], s: int
) -> tuple[bool, Optional[FiniteMetricSpace]]:
    """Check every A-space on at most s points embeds in U.

    Returns (True, None) or (False, missing-space).
    """
    cap = max(U.n, s)
    for space in enumerate_spaces_up_to_isometry(A, s):
        if find_embedding(space, U, max_points=cap) is None:
            return False, space
    return True, None


def verify_one_point_homogeneity(
    U: FiniteMetricSpace, k: int
) -> tuple[bool, Optional[tuple]]:
    """Check every partial isometry on at most k points extends by any point.

    Tuples are grouped by their pairwise-distance pattern; within a group the
    sets of reachable one-point distance patterns must coincide. Returns
    (True, None) or (False, (domain_tuple, codomain_tuple, stuck_point)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rank = {v: r for r, v in enumerate(distance_spectrum(U))}
    d = [[rank[v] for v in row] for row in U.dist]
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
                    e = _point_realizing(d, U.n, first, pattern)
                    return False, (first, other, e)
                for pattern in sorted(pats - base):
                    e = _point_realizing(d, U.n, other, pattern)
                    return False, (other, first, e)
    return True, None


def _ordered_tuples(n: int, j: int):
    def rec(prefix):
        if len(prefix) == j:
            yield tuple(prefix)
            return
        for p in range(n):
            if p not in prefix:
                yield from rec(prefix + [p])

    yield from rec([])


def _extension_patterns(d, n: int, tup: tuple[int, ...]) -> set:
    return {
        tuple(d[e][t] for t in tup) for e in range(n) if e not in tup
    }


def _point_realizing(d, n: int, tup: tuple[int, ...], pattern) -> int:
    for e in range(n):
        if e not in tup and tuple(d[e][t] for t in tup) == pattern:
            return e
    raise AssertionError("pattern was drawn from the extension set")
