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
the pair counts are a Counter of (u, t, a, b) keys. Its demands come from
first_unmet_demand, distset.urysohn's scan before it read the growth index:
a dict copy of each subset's unmet Katetov tuples, from which each scan pops
the column patterns of the points added since the last one. The listing_
pair is its universality check before the class tree: every class through
find_embedding.

product_katetov_tuples and product_katetov_extensions are the filter that
distset.urysohn's walk over the interval-mask table replaced in the stage's
accepted lists, the class listing and katetov_extensions: every tuple of
the product, kept when _extends accepts it.

_extends is the one-point triangle test distset.metric kept for
is_valid_katetov after every other one-point test had moved to
urysohn._fits. is_valid_katetov, katetov_extensions and extend_one_point
are those functions as they read a space's Fractions: the first through
_extends, the second coding A with the decoded rows of X, the third
validating the extended matrix from Fractions. They call this module's
is_valid_katetov and metric_reference's distance_spectrum.

The keyed_ functions are distset.urysohn's class listing and universality
check when each size grew from the key-ordered rows: every class carried
the relabeling from the extension it was first met as to its rows, and its
image in U was read through it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, islice, permutations, product, repeat
from math import lcm
from operator import add, and_, itemgetter, sub
from typing import Iterable, Optional, Sequence

import distset.urysohn as urysohn
from distset.errors import BudgetTooSmall, FourValuesFails, InvariantViolation, SpectrumNotInA
from distset.metric import FiniteMetricSpace, _coded_space, _space, validate_metric
from distset.oracles import _label_masks, find_embedding, find_isometry
from distset.rationals import _codes, _decoded, _joint
from distset.urysohn import KatetovFunction, StageResult, _fits, _katetov_tuples
from metric_reference import distance_spectrum

ZERO = Fraction(0)


def _extends(dist, points: Sequence[int], values: Sequence) -> bool:
    """Whether a new point at distance values[a] from points[a], for each a,
    keeps every triangle it closes: |v_a - v_b| <= d(p_a, p_b) <= v_a + v_b.
    """
    for a, va in enumerate(values):
        row = dist[points[a]]
        for b in range(a + 1, len(values)):
            vb = values[b]
            if not abs(va - vb) <= row[points[b]] <= va + vb:
                return False
    return True


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
# first_unmet_demand, so a test can put int_first_unmet_demand's rescan in
# its place. first_unmet_demand is distset.urysohn's scan before it read the
# growth index, verbatim but for the name; it takes the stage's interval-mask
# table, distset.urysohn._fits, last.


def first_unmet_demand(dist, n: int, positive, j_max: int, frontier: dict, accepted: dict, fits: dict):
    """The first (subset, g) in (size, subset, g) lex order such that g is a
    Katetov tuple over subset (_katetov_tuples) that no point outside subset
    realizes.

    frontier[subset] is [points seen, dict of the unmet g in lex order]. The
    Katetov tuples over a subset depend only on the distances inside it, so
    accepted keeps their list per (inner distances, size). The column
    slices of the subset's rows give the patterns of the new points; a point
    inside the subset has a 0 in its pattern, which no g has.
    """
    for j in range(1, min(j_max, n) + 1):  # no j-subsets past n
        for subset in combinations(range(n), j):
            entry = frontier.get(subset)
            if entry is None:
                inner = tuple(dist[a][b] for a, b in combinations(subset, 2)), j
                if inner not in accepted:
                    rows = [[dist[s][t] for t in subset[:i]] for i, s in enumerate(subset)]
                    accepted[inner] = _katetov_tuples(rows, positive, fits)
                entry = frontier[subset] = [0, dict.fromkeys(accepted[inner])]
            seen, unmet = entry
            if seen < n and unmet:
                for pattern in zip(*(dist[s][seen:n] for s in subset)):
                    unmet.pop(pattern, None)
                entry[0] = n
            if unmet:
                return subset, next(iter(unmet))
    return None


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

    fits = urysohn._fits(positive)
    while (demand := first_unmet_demand(dist, n, positive, j_max, frontier, accepted, fits)) and (
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


# --- the completion before the interval masks -----------------------------------
# distset.urysohn's _complete_new_point before it read each free coordinate's
# admissible values off one AND of interval masks, verbatim but for the name:
# it slices positive between two bisects and rebuilds the lcm weights per call.
# tests/test_urysohn_differential.py replays every completion of a stage sweep
# through both.


def bisect_complete_new_point(dist, at: list, n: int, positive, subset, g) -> list | None:
    """Distances of a new point realizing g over subset, or None.

    Free coordinates are filled in index order, so when u is filled the
    placed points are the ones below u and the subset's above it. v is
    admissible for u iff |d(u, t) - new[t]| <= v <= d(u, t) + new[t] for each
    placed t: one interval, None if it holds no value. u takes the admissible
    value whose pair patterns are rarest now, ties to the smallest: an
    unmet-only count lets one value flood the space, and pair demands then
    regenerate forever. The pair (u, t) weighs lcm(1, ..., n) // (1 + m),
    m the number of points w with d(w, u) = v and d(w, t) = new[t], which is
    the bit count of at[u][v] & at[t][new[t]]; both labels are positive, so
    neither u nor t is among them.

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
        d_placed = dist[u][:u] + [dist[u][t] for t in above]
        at_placed = new[:u] + [new[t] for t in above]
        lo = max(map(abs, map(sub, d_placed, at_placed)))
        hi = min(map(add, d_placed, at_placed))
        admissible = positive[bisect_left(positive, lo) : bisect_right(positive, hi)]
        if len(admissible) < 2:
            if not admissible:
                return None
            new[u] = admissible[0]
            continue
        seen = list(map(dict.get, at[:u] + [at[t] for t in above], at_placed, repeat(0)))
        masks = at[u]

        def coverage(v: int) -> int:
            pairs = map(int.bit_count, map(masks.get(v, 0).__and__, seen))
            return sum(map(weight.__getitem__, pairs))

        new[u] = min(admissible, key=lambda v: (-coverage(v), v))
    return new


# --- Katetov tuples before the interval-mask walk ---------------------------------
# the product filter distset.urysohn ran in _first_unmet_demand, _class_levels
# and katetov_extensions, verbatim but for the names.


def product_katetov_tuples(dist, positive) -> list:
    """Every tuple over positive, in lex order, that _extends accepts over the
    points of the square matrix dist."""
    m = len(dist)
    return [g for g in product(positive, repeat=m) if _extends(dist, range(m), g)]


def product_katetov_extensions(X: FiniteMetricSpace, A: Iterable[Fraction]) -> list:
    """All one-point extension value tuples over A, in lex order."""
    allowed = set(A)
    for v in distance_spectrum(X):
        if v not in allowed:
            raise SpectrumNotInA(v)
    positive = sorted(v for v in allowed if v > 0)
    out = []
    for values in product(positive, repeat=X.n):
        if is_valid_katetov(X, values):
            out.append(urysohn.KatetovFunction(X, values))
    return out


# --- the one-point functions before codes -----------------------------------------
# distset.urysohn's is_valid_katetov, katetov_extensions and extend_one_point
# as they read X.dist, verbatim.


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
    _, (codes, *rows) = _codes([positive, *X.dist])
    value_of = dict(zip(codes, positive))
    tuples = _katetov_tuples([row[:i] for i, row in enumerate(rows)], codes, _fits(codes))
    return [KatetovFunction(X, tuple(map(value_of.__getitem__, g))) for g in tuples]


def extend_one_point(X: FiniteMetricSpace, g: KatetovFunction) -> FiniteMetricSpace:
    """Adjoin one point at the distances g prescribes."""
    if not is_valid_katetov(X, g.values):
        raise InvariantViolation(
            "extension values break the two-sided bounds |g(x)-g(y)| <= d(x,y) <= g(x)+g(y)"
        )
    rows = [list(X.dist[i]) + [g.values[i]] for i in range(X.n)]
    rows.append(list(g.values) + [ZERO])
    return validate_metric(rows)


# --- the class tree before it grew from extensions ----------------------------------
# distset.urysohn's class listing and universality check when each size grew
# from the key-ordered rows, verbatim but for the names (the canonical key is
# distset.urysohn's, unchanged): every class carried the relabeling p from
# the extension it was first met as to its rows, found by an n! scan over
# (p, getter) pairs, and its image in U was read through p.


@cache
def keyed_relabelings(n: int) -> tuple:
    """One (p, getter) per relabeling p of n >= 3 points; the getter reads a
    flattened n x n matrix at (p[i], p[j]) for each upper-triangle slot
    (i, j)."""
    slots = list(combinations(range(n), 2))
    return tuple(
        (p, itemgetter(*(p[i] * n + p[j] for i, j in slots))) for p in permutations(range(n))
    )


def keyed_relabeling(dist, key: tuple) -> tuple:
    """The first relabeling p whose slot tuple of dist is key."""
    n = len(dist)
    if n <= 2:
        return tuple(range(n))
    flat = list(chain.from_iterable(dist))
    return next(p for p, get in keyed_relabelings(n) if get(flat) == key)


def keyed_class_levels(positive: list, max_size: int):
    """The class listing, one size at a time from 1 to max_size: a list of
    (rows, parent, g, p) per class in key order.

    rows is the representative, read off its key. It is first met as the
    extension E of representative number parent of the size before by the
    value tuple g, and E at (p[i], p[j]) is rows at (i, j).
    """
    fits = _fits(positive)
    level: list = [[]]  # the empty space, whose one extension is the point
    for n in range(1, max_size + 1):
        first: dict = {}
        for parent, dist in enumerate(level):
            for g in _katetov_tuples([row[:i] for i, row in enumerate(dist)], positive, fits):
                ext = [row + [g[i]] for i, row in enumerate(dist)] + [[*g, 0]]
                key = urysohn._canonical_key(ext)
                if key not in first:
                    first[key] = parent, g, ext
        classes = []
        for key in sorted(first):
            parent, g, ext = first[key]
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(combinations(range(n), 2), key):
                rows[i][j] = rows[j][i] = v
            classes.append((rows, parent, g, keyed_relabeling(ext, key)))
        yield classes
        level = [rows for rows, *_ in classes]


def keyed_class_embeddings(U: FiniteMetricSpace, A: Iterable[Fraction], s: int):
    """(scale, rows, image) per class of the listing up to s points, in its
    order (see the module doc): the representative's rows on the joint scale
    of A and U, and an embedding into U as an index tuple, or None, after
    which it stops."""
    cap = max(U.n, s)
    scale, ((codes,), d) = _joint(_codes([sorted(set(A))]), U._coded)
    at = list(map(_label_masks, d))
    everyone = (1 << U.n) - 1
    images: list = [()]
    for level in keyed_class_levels([c for c in codes if c > 0], s):
        parents, images = images, []
        for rows, parent, g, p in level:
            base = parents[parent]
            hits = reduce(and_, map(dict.get, map(at.__getitem__, base), g, repeat(0)), everyone)
            if hits:
                ext = (*base, (hits & -hits).bit_length() - 1)
                image = tuple(map(ext.__getitem__, p))
            else:
                image = find_embedding(_coded_space(scale, rows), U, max_points=cap)
            yield scale, rows, image
            if image is None:
                return
            images.append(image)


def keyed_verify_universality(
    U: FiniteMetricSpace, A: Iterable[Fraction], s: int
) -> tuple[bool, Optional[FiniteMetricSpace]]:
    """Check every A-space on at most s points embeds in U.

    Returns (True, None) or (False, missing-space).
    """
    for scale, rows, image in keyed_class_embeddings(U, A, s):
        if image is None:
            return False, _coded_space(scale, rows)
    return True, None
