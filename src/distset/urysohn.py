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

A stage also keeps one index, at[t][a]: the bit mask of the points at
distance code a from point t (the row's oracles._label_masks). A new point
sets one bit per old point and brings its own row, and the completion reads
how many points see a pair (u, t) at labels (a, b) as the bit count of
at[u][a] & at[t][b].

Stage growth, the class listing, universality and the homogeneity check run
on the integer codes of rationals._codes, which states why every comparison,
sort order and choice is the one the rationals would give; Fractions appear
only in their arguments and results, and the spaces they return carry
their codes.

The class listing grows each size from the one before: deleting a point of
an A-space leaves one, so it extends each representative on n - 1 points by
every value tuple _extends accepts and keeps one space per canonical key, the
least upper-triangle slot tuple (combinations order) over all n! relabelings,
each read off the flattened matrix by one cached itemgetter.
The keys are sorted because a lex-ordered product over all slot tuples (the
test reference) meets each class first at exactly its key, in key order; so
the representatives, their order, and the first missing space that
verify_universality reports are the same.

verify_universality walks the listing as a tree. Each class records the
parent and the tuple g it was first met from, and the relabeling that reads
its key off that extension; A and U go to one scale (U may realize
distances outside A), and U gets the index above. A class embeds as its
parent's image plus the lowest point of U at distance g[k] from the image
of the parent's point k for every k: one AND of masks. Only when no point
is does the public find_embedding search; a parent's other images may still
extend, so its None alone marks a class missing, and classes are decided in
listing order, so the verdict and the missing space are those of one search
per class. On a stage saturated at the level the parent's image spans the
AND is never empty (Katětov), so only unsaturated stages search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, islice, permutations, product, repeat
from math import lcm
from operator import add, and_, itemgetter, sub
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
from .oracles import _label_masks, find_embedding
from .rationals import _codes, _decoded, _joint

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


def _add_point(dist, at: list, new: list[int]) -> None:
    """Adjoin a point at distances new, keeping the index at (see the module
    doc): the point sets its bit in one mask per old point and brings its
    own row's masks; no other mask changes."""
    bit = 1 << len(dist)
    for t, a in enumerate(new):
        at[t][a] = at[t].get(a, 0) | bit
        dist[t].append(a)
    dist.append(new + [0])
    at.append(_label_masks(dist[-1]))


def _complete_new_point(dist, at: list, n: int, positive, subset, g) -> list | None:
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
    at: list[dict] = [{0: 1}]  # _label_masks of each row
    frontier: dict = {}
    accepted: dict = {}

    while (demand := _first_unmet_demand(dist, n, positive, j_max, frontier, accepted)) and (
        n < size_budget
    ):
        subset, g = demand
        new = _complete_new_point(dist, at, n, positive, subset, g)
        if new is None:
            g_values = ", ".join(map(str, _decoded([g], scale)[0]))
            raise InvariantViolation(f"no point over A realizes g = ({g_values}) on {subset}")
        _add_point(dist, at, new)
        n += 1
        log.append(new)

    saturated = demand is None
    result = StageResult(_space(scale, dist), saturated, _decoded(log, scale))
    if strict and not saturated:
        raise BudgetTooSmall(result)
    return result


@cache
def _relabelings(n: int) -> tuple:
    """One (p, getter) per relabeling p of n >= 3 points; the getter reads a
    flattened n x n matrix at (p[i], p[j]) for each upper-triangle slot
    (i, j)."""
    slots = list(combinations(range(n), 2))
    return tuple(
        (p, itemgetter(*(p[i] * n + p[j] for i, j in slots))) for p in permutations(range(n))
    )


def _canonical_key(dist) -> tuple:
    """The least upper-triangle slot tuple of dist over all relabelings."""
    n = len(dist)
    if n <= 2:  # one slot at most: itemgetter would return a scalar
        return tuple(dist[i][j] for i, j in combinations(range(n), 2))
    flat = list(chain.from_iterable(dist))
    return min(get(flat) for _, get in _relabelings(n))


def _relabeling(dist, key: tuple) -> tuple:
    """The first relabeling p whose slot tuple of dist is key."""
    n = len(dist)
    if n <= 2:
        return tuple(range(n))
    flat = list(chain.from_iterable(dist))
    return next(p for p, get in _relabelings(n) if get(flat) == key)


def _class_levels(positive: list, max_size: int):
    """The class listing, one size at a time from 1 to max_size: a list of
    (rows, parent, g, p) per class in key order.

    rows is the representative, read off its key. It is first met as the
    extension E of representative number parent of the size before by the
    value tuple g, and E at (p[i], p[j]) is rows at (i, j).
    """
    level: list = [[]]  # the empty space, whose one extension is the point
    for n in range(1, max_size + 1):
        first: dict = {}
        for parent, dist in enumerate(level):
            for g in product(positive, repeat=n - 1):
                if _extends(dist, range(n - 1), g):
                    ext = [row + [g[i]] for i, row in enumerate(dist)] + [[*g, 0]]
                    key = _canonical_key(ext)
                    if key not in first:
                        first[key] = parent, g, ext
        classes = []
        for key in sorted(first):
            parent, g, ext = first[key]
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(combinations(range(n), 2), key):
                rows[i][j] = rows[j][i] = v
            classes.append((rows, parent, g, _relabeling(ext, key)))
        yield classes
        level = [rows for rows, *_ in classes]


def enumerate_spaces_up_to_isometry(A: Iterable[Fraction], max_size: int) -> list[FiniteMetricSpace]:
    """All spaces with distances in A on at most max_size points, one per
    isometry class, smallest first."""
    scale, (codes,) = _codes([sorted(set(A))])
    positive = [c for c in codes if c > 0]
    reps = [rows for level in _class_levels(positive, max_size) for rows, *_ in level]
    # one decode for all classes: a Fraction per distinct code, not per class
    rows = iter(_decoded([row for dist in reps for row in dist], scale))
    return [_coded_space(scale, dist, tuple(islice(rows, len(dist)))) for dist in reps]


def _class_embeddings(U: FiniteMetricSpace, A: Iterable[Fraction], s: int):
    """(scale, rows, image) per class of the listing up to s points, in its
    order (see the module doc): the representative's rows on the joint scale
    of A and U, and an embedding into U as an index tuple, or None, after
    which it stops."""
    cap = max(U.n, s)
    scale, ((codes,), d) = _joint(_codes([sorted(set(A))]), U._coded)
    at = list(map(_label_masks, d))
    everyone = (1 << U.n) - 1
    images: list = [()]
    for level in _class_levels([c for c in codes if c > 0], s):
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


def verify_universality(
    U: FiniteMetricSpace, A: Iterable[Fraction], s: int
) -> tuple[bool, Optional[FiniteMetricSpace]]:
    """Check every A-space on at most s points embeds in U.

    Returns (True, None) or (False, missing-space).
    """
    for scale, rows, image in _class_embeddings(U, A, s):
        if image is None:
            return False, _coded_space(scale, rows)
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
