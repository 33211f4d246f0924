"""Amalgamation machinery: the 4-values condition, one-point Katětov
extensions, finite saturation stages, and the checks that make a stage's
universality and homogeneity claims verifiable.

A stage grows a space over a finite distance set A by repeatedly realizing
the first unrealized one-point extension demand, in a fixed deterministic
order, until either no demand is left at the requested levels or the size
budget is hit. Determinism makes stages replayable and prefix-monotone in
the budget.

A stage keeps one unmet-demand frontier for its whole growth: for each
subset the scan has reached, the points it has taken in so far and the value
tuples g, in lex order, that _extends accepts over the subset and that no
outside point realizes yet. Distances never change once a point is added, so
the accepted tuples are fixed when the subset is first reached, and each scan
only strikes out the patterns of the points added since the last one. Every
demand it finds is met: A passes the 4-values condition, which is
amalgamation for finite A-spaces, so a new point is filled greedily.

Stage growth, the class listing, universality and the homogeneity check run
on the integer codes of rationals._codes, which states why every comparison,
sort order and choice is the one the rationals would give; Fractions appear
only in their arguments and results, and the spaces they return carry
their codes. verify_universality runs every embedding search through the
public find_embedding, which brings a class and U to one scale (U may
realize distances outside A).

The class listing grows each size from the one before: deleting a point of
an A-space leaves one, so it extends each representative on n - 1 points by
every value tuple _extends accepts and keeps one space per canonical key, the
least upper-triangle slot tuple (combinations order) over all n! relabelings,
each read off the flattened matrix by one cached itemgetter.
The keys are sorted because a lex-ordered product over all slot tuples (the
test reference) meets each class first at exactly its key, in key order; so
the representatives, their order, and the first missing space that
verify_universality reports are the same.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, islice, permutations, product, repeat
from math import lcm
from operator import add, itemgetter, sub
from typing import Iterable, Optional

from .errors import BudgetTooSmall, FourValuesFails, InvariantViolation, SpectrumNotInA
from .metric import (
    FiniteMetricSpace,
    _coded_space,
    _extends,
    _space,
    distance_spectrum,
    validate_metric,
)
from .oracles import find_embedding
from .rationals import _codes, _decoded

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
                        (v for v in A if abs(a - b) <= v <= a + b and abs(c - d) <= v <= c + d),
                        None,
                    )
                    if x is None:
                        continue
                    if not any(
                        abs(b - c) <= y <= b + c and abs(a - d) <= y <= a + d for y in A
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
    return _extends(base.dist, range(base.n), values)


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
    rows = [list(X.dist[i]) + [g.values[i]] for i in range(X.n)]
    rows.append(list(g.values) + [ZERO])
    return validate_metric(rows)


@dataclass(frozen=True)
class StageResult:
    space: FiniteMetricSpace
    saturated: bool
    log: tuple[tuple[Fraction, ...], ...]


def _first_unmet_demand(dist, n: int, positive, j_max: int, frontier: dict, accepted: dict):
    """The first (subset, g) in (size, subset, g) lex order that _extends
    accepts and no point outside subset realizes.

    frontier[subset] is [points seen, dict of the unmet g in lex order]. What
    _extends accepts over a subset depends only on the distances inside it,
    so accepted keeps that list per (inner distances, size). The column
    slices of the subset's rows give the patterns of the new points; a point
    inside the subset has a 0 in its pattern, which no g has.
    """
    for j in range(1, j_max + 1):
        for subset in combinations(range(n), j):
            entry = frontier.get(subset)
            if entry is None:
                inner = tuple(dist[a][b] for a, b in combinations(subset, 2)), j
                if inner not in accepted:
                    tuples = product(positive, repeat=j)
                    accepted[inner] = [g for g in tuples if _extends(dist, subset, g)]
                entry = frontier[subset] = [0, dict.fromkeys(accepted[inner])]
            seen, unmet = entry
            if seen < n and unmet:
                for pattern in zip(*(dist[s][seen:n] for s in subset)):
                    unmet.pop(pattern, None)
                entry[0] = n
            if unmet:
                return subset, next(iter(unmet))
    return None


def _add_point(dist, multiplicity: Counter, new: list[int]) -> None:
    """Adjoin a point at distances new, counting the pair patterns it adds.

    multiplicity[(u, t, a, b)] counts the points w other than u < t with
    d(w, u) = a and d(w, t) = b. The new point p adds one pattern to every
    old pair and creates the pairs (u, p); no other count changes. The keys
    are zipped row by row and counted at C level.
    """
    p = len(dist)
    multiplicity.update(chain.from_iterable(
        zip(repeat(u), range(u + 1, p), repeat(new[u]), new[u + 1 :]) for u in range(p)
    ))
    # d(w, u) is row u at w, d being symmetric; w runs over the old points but u
    multiplicity.update(chain.from_iterable(
        zip(repeat(u), repeat(p), dist[u][:u] + dist[u][u + 1 :], new[:u] + new[u + 1 :])
        for u in range(p)
    ))
    for i in range(p):
        dist[i].append(new[i])
    dist.append(new + [0])


def _complete_new_point(dist, n: int, positive, multiplicity: Counter, subset, g) -> list | None:
    """Distances of a new point realizing g over subset, or None.

    Free coordinates are filled in index order, so when u is filled the
    placed points are the ones below u and the subset's above it. v is
    admissible for u iff |d(u, t) - new[t]| <= v <= d(u, t) + new[t] for each
    placed t: one interval, None if it holds no value. u takes the admissible
    value whose pair patterns are rarest now (weight lcm(1, ..., n) // (1 +
    multiplicity) per pair), ties to the smallest: an unmet-only count lets
    one value flood the space, and pair demands then regenerate forever.

    No choice is undone: the placed values form a one-point extension of the
    placed points that no point realizes (it would realize g, which is
    unmet), and the 4-values condition is amalgamation for finite A-spaces
    (Sauer), so the extension reaches all n points.
    """
    new = [None] * n
    for s, v in zip(subset, g):
        new[s] = v

    scale = lcm(*range(1, n + 1))
    weight = [scale // (1 + m) for m in range(n)]

    for u in sorted(set(range(n)) - set(subset)):
        above = [s for s in subset if s > u]
        at_below = new[:u]
        at_above = [new[t] for t in above]
        d_placed = dist[u][:u] + [dist[u][t] for t in above]
        at_placed = at_below + at_above
        lo = max(map(abs, map(sub, d_placed, at_placed)))
        hi = min(map(add, d_placed, at_placed))

        def coverage(v: int) -> int:
            keys = chain(
                zip(range(u), repeat(u), at_below, repeat(v)),
                zip(repeat(u), above, repeat(v), at_above),
            )
            return sum(map(weight.__getitem__, map(multiplicity.get, keys, repeat(0))))

        admissible = positive[bisect_left(positive, lo) : bisect_right(positive, hi)]
        if not admissible:
            return None
        new[u] = min(admissible, key=lambda v: (-coverage(v), v))
    return new


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
    scale, (codes,) = _codes([sorted(values)])
    ok, witness = four_values_check(codes)
    if not ok:
        raise FourValuesFails(_decoded([witness], scale)[0])
    if ZERO not in values:
        raise ValueError("the distance set must contain 0")
    if size_budget < 1 or embed_bound < 1 or homog_bound < 1:
        raise ValueError("budgets and bounds must be >= 1")

    positive = [c for c in codes if c > 0]
    j_max = max(embed_bound - 1, homog_bound)
    dist: list[list[int]] = [[0]]
    n = 1
    log: list[list[int]] = []
    multiplicity: Counter = Counter()
    frontier: dict = {}
    accepted: dict = {}

    while (demand := _first_unmet_demand(dist, n, positive, j_max, frontier, accepted)) and (
        n < size_budget
    ):
        subset, g = demand
        new = _complete_new_point(dist, n, positive, multiplicity, subset, g)
        if new is None:
            g_values = ", ".join(map(str, _decoded([g], scale)[0]))
            raise InvariantViolation(f"no point over A realizes g = ({g_values}) on {subset}")
        _add_point(dist, multiplicity, new)
        n += 1
        log.append(new)

    saturated = demand is None
    result = StageResult(_space(scale, dist), saturated, _decoded(log, scale))
    if strict and not saturated:
        raise BudgetTooSmall(result)
    return result


@cache
def _relabelings(n: int) -> tuple:
    """One getter per relabeling p of n >= 3 points, reading a flattened
    n x n matrix at (p[i], p[j]) for each upper-triangle slot (i, j)."""
    slots = list(combinations(range(n), 2))
    return tuple(
        itemgetter(*(p[i] * n + p[j] for i, j in slots)) for p in permutations(range(n))
    )


def _canonical_key(dist) -> tuple:
    """The least upper-triangle slot tuple of dist over all relabelings."""
    n = len(dist)
    if n <= 2:  # one slot at most: itemgetter would return a scalar
        return tuple(dist[i][j] for i, j in combinations(range(n), 2))
    flat = list(chain.from_iterable(dist))
    return min(get(flat) for get in _relabelings(n))


def enumerate_spaces_up_to_isometry(A: Iterable[Fraction], max_size: int) -> list[FiniteMetricSpace]:
    """All spaces with distances in A on at most max_size points, one per
    isometry class, smallest first."""
    scale, (codes,) = _codes([sorted(set(A))])
    positive = [c for c in codes if c > 0]
    level: list = [[]]  # the empty space, whose one extension is the point
    reps: list = []
    for n in range(1, max_size + 1):
        keys = {
            _canonical_key([row + [g[i]] for i, row in enumerate(dist)] + [[*g, 0]])
            for dist in level
            for g in product(positive, repeat=n - 1)
            if _extends(dist, range(n - 1), g)
        }
        level = []
        for key in sorted(keys):
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(combinations(range(n), 2), key):
                rows[i][j] = rows[j][i] = v
            level.append(rows)
        reps.extend(level)
    # one decode for all classes: a Fraction per distinct code, not per class
    rows = iter(_decoded([row for dist in reps for row in dist], scale))
    return [_coded_space(scale, dist, tuple(islice(rows, len(dist)))) for dist in reps]


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
    d = U._coded[1]
    for j in range(1, k + 1):
        groups: dict = {}
        for tup in permutations(range(U.n), j):
            sig = tuple(d[tup[a]][tup[b]] for a in range(j) for b in range(a + 1, j))
            groups.setdefault(sig, []).append(tup)
        for members in groups.values():
            first = members[0]
            base = _extension_patterns(d, first)
            for other in members[1:]:
                pats = _extension_patterns(d, other)
                if pats == base:
                    continue
                for pattern in sorted(base - pats):
                    e = _point_realizing(d, U.n, first, pattern)
                    return False, (first, other, e)
                for pattern in sorted(pats - base):
                    e = _point_realizing(d, U.n, other, pattern)
                    return False, (other, first, e)
    return True, None


def _extension_patterns(d, tup: tuple[int, ...]) -> set:
    """The distance patterns to tup of the points outside it.

    Column e of the rows of tup is the pattern of e, d being symmetric. The
    rows of tup's own points hold a 0, which no outside pattern does, so
    taking them out removes no outside pattern.
    """
    rows = [d[t] for t in tup]
    pats = set(zip(*rows))
    pats.difference_update(zip(*([row[e] for e in tup] for row in rows)))
    return pats


def _point_realizing(d, n: int, tup: tuple[int, ...], pattern) -> int:
    for e in range(n):
        if e not in tup and tuple(d[e][t] for t in tup) == pattern:
            return e
    raise AssertionError("pattern was drawn from the extension set")
