"""Test-only reference: the Fraction implementations of the stage pipeline
that the integer-coded kernels in distset.urysohn replaced.

Kept unoptimized on purpose. tests/test_urysohn_differential.py runs both
on the same inputs and requires equal spaces, logs, saturation flags, class
lists and witnesses, so a change to a kernel cannot change what it finds or
the order it finds it in. four_values_check is the loop over the triangle
predicate _is_metric_triple that distset.urysohn now writes as two-sided
bounds |a - b| <= x <= a + b.

The integer section holds the int-coded stage kernels and the canonical key
distset.urysohn used before its unmet-demand frontier, C-level pair counts,
greedy interval completion and itemgetter keys, verbatim:
int_first_unmet_demand rebuilds every subset's realized patterns on every
scan, and int_complete_new_point fills the free coordinates by depth-first
search. They are patched into counter_urysohn_stage to replay stages too
large for the Fraction pipeline.

counter_urysohn_stage is distset.urysohn's stage before the growth index:
the pair counts are a Counter of (u, t, a, b) keys. The listing_ pair is its
universality check before the class tree: every class through find_embedding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, islice, permutations, product, repeat
from math import lcm
from operator import add, sub
from typing import Iterable, Optional

import distset.urysohn as urysohn
from distset.errors import BudgetTooSmall, FourValuesFails, InvariantViolation
from distset.metric import FiniteMetricSpace, _coded_space, _extends, _space, validate_metric
from distset.oracles import find_embedding, find_isometry
from distset.rationals import _codes, _decoded
from distset.urysohn import StageResult

ZERO = Fraction(0)


def _is_metric_triple(a, b, c) -> bool:
    """Whether three distances can be the sides of a (possibly degenerate)
    triangle."""
    return a <= b + c and b <= a + c and c <= a + b


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


# --- integer-coded kernels ---------------------------------------------------


def int_first_unmet_demand(dist, n: int, positive, j_max: int, skipped: set):
    for j in range(1, j_max + 1):
        for subset in combinations(range(n), j):
            realized = _realized_patterns(dist, n, subset)
            for g in product(positive, repeat=j):
                if g in realized or (subset, g) in skipped:
                    continue
                if _extends(dist, subset, g):
                    return subset, g
    return None


def int_add_point(dist, multiplicity: dict, new: list[int]) -> None:
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


def int_complete_new_point(
    dist, n: int, positive, multiplicity: dict, subset, g
) -> Optional[list[int]]:
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


def int_canonical_key(dist) -> tuple:
    """The least upper-triangle slot tuple of dist over all relabelings."""
    slots = list(combinations(range(len(dist)), 2))
    return min(
        tuple(dist[p[i]][p[j]] for i, j in slots) for p in permutations(range(len(dist)))
    )


# --- the stage kernels before the growth index ----------------------------------
# distset.urysohn's Counter-keyed pair counts, verbatim but for the names:
# counter_urysohn_stage is urysohn_stage; it calls distset.urysohn's
# four_values_check (the Fraction loop above is too slow for a thousand
# stages) and finds its demands through the module attribute
# first_unmet_demand, the frontier scan distset.urysohn still uses, so a test
# can put int_first_unmet_demand's rescan in its place.

first_unmet_demand = urysohn._first_unmet_demand


def counter_add_point(dist, multiplicity: Counter, new: list[int]) -> None:
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


def counter_complete_new_point(dist, n: int, positive, multiplicity: Counter, subset, g) -> list | None:
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


def counter_urysohn_stage(
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
    ok, witness = urysohn.four_values_check(codes)
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

    while (demand := first_unmet_demand(dist, n, positive, j_max, frontier, accepted)) and (
        n < size_budget
    ):
        subset, g = demand
        new = counter_complete_new_point(dist, n, positive, multiplicity, subset, g)
        if new is None:
            g_values = ", ".join(map(str, _decoded([g], scale)[0]))
            raise InvariantViolation(f"no point over A realizes g = ({g_values}) on {subset}")
        counter_add_point(dist, multiplicity, new)
        n += 1
        log.append(new)

    saturated = demand is None
    result = StageResult(_space(scale, dist), saturated, _decoded(log, scale))
    if strict and not saturated:
        raise BudgetTooSmall(result)
    return result


# --- the class listing before the class tree ------------------------------------
# distset.urysohn's listing and universality check before the tree walk,
# verbatim but for the names and the canonical key, which is int_canonical_key
# (equal to the itemgetter key it replaced: test_canonical_key_matches_brute_force).
# The Fraction listing above tries all |A|^(s(s-1)/2) matrices, minutes at
# s = 4 past 3 positive values; this one extends the classes of the size before.


def listing_enumerate_spaces_up_to_isometry(
    A: Iterable[Fraction], max_size: int
) -> list[FiniteMetricSpace]:
    """All spaces with distances in A on at most max_size points, one per
    isometry class, smallest first."""
    scale, (codes,) = _codes([sorted(set(A))])
    positive = [c for c in codes if c > 0]
    level: list = [[]]  # the empty space, whose one extension is the point
    reps: list = []
    for n in range(1, max_size + 1):
        keys = {
            int_canonical_key([row + [g[i]] for i, row in enumerate(dist)] + [[*g, 0]])
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


def listing_verify_universality(
    U: FiniteMetricSpace, A: Iterable[Fraction], s: int
) -> tuple[bool, Optional[FiniteMetricSpace]]:
    """Check every A-space on at most s points embeds in U.

    Returns (True, None) or (False, missing-space).
    """
    cap = max(U.n, s)
    for space in listing_enumerate_spaces_up_to_isometry(A, s):
        if find_embedding(space, U, max_points=cap) is None:
            return False, space
    return True, None
