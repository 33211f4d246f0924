"""Amalgamation machinery: the 4-values condition, one-point Katětov
extensions, finite saturation stages, and the checks that make a stage's
universality and homogeneity claims verifiable.

A stage grows a space over a finite distance set A by repeatedly realizing
the first unrealized one-point extension demand, in a fixed deterministic
order, until either no demand is left at the requested levels or the size
budget is hit. Determinism makes stages replayable and prefix-monotone in
the budget.

Every Katetov value tuple comes from one interval-mask table, fits[a][b]:
the bit mask over the positive codes of the v with |a - b| <= v <= a + b,
an interval. _katetov_tuples walks the tuples g over a set of points depth
first, in lex order, and the values coordinate i admits are one AND of
fits[d(i, t)][g[t]] over t < i, so a prefix that breaks a triangle is never
extended; the stage, the class listing and katetov_extensions take their
tuples from it. is_valid_katetov reads one entry per pair s < t of a
tuple g, the bit of d(s, t) in _fit(codes, g[s], g[t]) over the space's
codes: the same triangle, as v is in [|a - b|, a + b] exactly when a is in
[|v - b|, v + b].

A stage keeps one index, at[t][a]: the bit mask of the points at distance
code a from point t (the row's oracles._label_masks). A new point sets one
bit per old point and brings its own row. The points realizing a tuple g
over a subset are the AND of at[s][g[s]] over s in the subset (no g holds
0, so the subset's own points are never among them), and the scan keeps,
per subset it has reached, only how many of the subset's Katetov tuples,
in lex order, are realized: points are only added, so a realized tuple
stays realized, and each scan resumes at the first tuple that was not.
Every demand it finds is met: A passes the 4-values condition, which is
amalgamation for finite A-spaces, so a new point is filled greedily. The
completion reads how many points see a pair (u, t) at labels (a, b) as the
bit count of at[u][a] & at[t][b], and keeps one admissible mask per
coordinate, narrowed through fits each time a value is placed.

Stage growth, the class listing, universality, homogeneity and one-point
extensions run on the integer codes of rationals._codes, which states why
every comparison, sort order and choice is the one the rationals would give;
Fractions appear only in their arguments and results, and the spaces they
return carry their codes.

The class listing grows each size from the one before: deleting a point of
an A-space leaves one, so it extends each class on n - 1 points by each of
its Katetov tuples, in the walk's lex order, and keeps one extension per
canonical key, the least upper-triangle slot tuple (combinations order) over
all n! relabelings, each read off the flattened matrix by one cached
itemgetter. A class is kept as ext, the extension it was first met as, new
point last, and the next size grows from the exts; the classes met from a
space, so each class's first parent, do not depend on its labelling. The
keys are sorted because a lex-ordered product over all slot tuples (the
test reference) meets each class first at exactly its key, in key order; so
the representatives (read off the keys), their order, and the first missing
space that verify_universality reports are the same.

verify_universality walks the listing as a tree. A and U go to one scale
(U may realize distances outside A), and U gets the index above. A class's
ext is its parent's ext plus one point, so it embeds as its parent's image
plus the lowest point of U at distance ext[-1][k] from the image of the
parent's point k for every k: one AND of masks, and no relabeling. Only
when no point is does the public find_embedding search, on ext; a parent's
other images may still extend, so its None alone marks a class missing,
and classes are decided in listing order, so the verdict and the missing
space, read off its key, are those of one search per class. On a stage
saturated at the level the parent's image spans the AND is never empty
(Katětov), so only unsaturated stages search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, islice, permutations, repeat
from math import lcm
from operator import and_, itemgetter
from typing import Iterable, Optional

from .errors import BudgetTooSmall, FourValuesFails, InvariantViolation, SpectrumNotInA
from .metric import FiniteMetricSpace, _coded_space, _space, _spectrum
from .oracles import _label_masks, find_embedding
from .rationals import _codes, _decoded, _joint


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
    """Whether values gives one positive distance per point of base and
    keeps every triangle (module doc), base and values on one scale; as
    g[s], g[t] > 0, each mask is an interval, exact whatever base holds."""
    if len(values) != base.n or any(v <= 0 for v in values):
        return False
    _, ((g,), d) = _joint(_codes([values]), base._coded)
    codes = sorted(set(chain.from_iterable(d)))
    return all(
        _fit(codes, v, w) >> bisect_left(codes, a) & 1
        for s, v in enumerate(g)
        for a, w in zip(d[s][s + 1 :], g[s + 1 :])
    )


def _fit(positive: list, a: int, b: int) -> int:
    """The bit mask over the sorted codes positive of the v with |a - b| <=
    v <= a + b: an interval of bits, symmetric in a and b."""
    return (1 << bisect_right(positive, a + b)) - (1 << bisect_left(positive, abs(a - b)))


def _fits(positive: list) -> dict:
    """fits[a][b] = _fit(positive, a, b), for codes a and b in 0 and
    positive. A new point at v from u and at new[t] from t keeps the
    triangle on u and t iff v is in fits[d(u, t)][new[t]]. For a positive,
    fits[a][0] is the bit of a alone, so a whole matrix row, its 0 included,
    can be read through fits[a]."""
    codes = [0, *positive]
    return {a: {b: _fit(positive, a, b) for b in codes} for a in codes}


def _katetov_tuples(rows, positive: list, fits: dict) -> list:
    """Every tuple g over positive, in lex order, with |g[i] - g[t]| <=
    d(i, t) <= g[i] + g[t] for all points t < i < len(rows), where rows[i]
    holds the codes d(i, t) for t < i, and fits is _fits(positive).

    A depth-first walk: the values coordinate i admits are one AND of
    fits[d(i, t)][g[t]] over t < i (all of positive at i = 0), an interval,
    tried from its lowest value, so the tuples come in product order and a
    prefix that breaks a triangle is never extended. Each value the last
    coordinate admits completes one tuple.
    """
    last = len(rows) - 1
    if last < 0:
        return [()]
    full = (1 << len(positive)) - 1
    g = [0] * len(rows)
    out: list = []
    todo: list = []  # todo[k] iterates over the values left to try at coordinate k
    i = 0
    while True:
        admit = reduce(and_, map(dict.__getitem__, map(fits.__getitem__, rows[i]), g), full)
        if admit:
            values = positive[(admit & -admit).bit_length() - 1 : admit.bit_length()]
            if i == last:
                prefix = tuple(g[:last])
                out += [(*prefix, v) for v in values]
            else:
                todo.append(iter(values))
        while todo:  # the next value of the deepest coordinate that has one
            v = next(todo[-1], None)
            if v is not None:
                i = len(todo)
                g[i - 1] = v
                break
            todo.pop()
        else:
            return out


def katetov_extensions(X: FiniteMetricSpace, A: Iterable[Fraction]) -> list[KatetovFunction]:
    """All one-point extension value tuples over A, in lex order."""
    allowed = set(A)
    positive = sorted(v for v in allowed if v > 0)
    scale, ((codes,), rows) = _joint(_codes([positive]), X._coded)
    outside = _spectrum(rows).difference(codes, [0] if 0 in allowed else [])
    if outside:
        raise SpectrumNotInA(Fraction(min(outside), scale))
    value_of = dict(zip(codes, positive))
    tuples = _katetov_tuples([row[:i] for i, row in enumerate(rows)], codes, _fits(codes))
    return [KatetovFunction(X, tuple(map(value_of.__getitem__, g))) for g in tuples]


def extend_one_point(X: FiniteMetricSpace, g: KatetovFunction) -> FiniteMetricSpace:
    """Adjoin one point at the distances g prescribes."""
    if not is_valid_katetov(X, g.values):
        raise InvariantViolation(
            "extension values break the two-sided bounds |g(x)-g(y)| <= d(x,y) <= g(x)+g(y)"
        )
    scale, ((new,), rows) = _joint(_codes([g.values]), X._coded)
    return _space(scale, [row + [v] for row, v in zip(rows, new)] + [new + [0]])


@dataclass(frozen=True)
class StageResult:
    space: FiniteMetricSpace
    saturated: bool
    log: tuple[tuple[Fraction, ...], ...]


def _first_unmet_demand(dist, at: list, positive, j_max: int, frontier: dict, accepted: dict, fits: dict):
    """The first (subset, g) in (size, subset, g) lex order such that g is a
    Katetov tuple over subset (_katetov_tuples) that no point outside subset
    realizes.

    frontier[subset] is [k, tuples]: tuples lists the Katetov tuples over
    subset in lex order, and its first k are realized. The tuples depend
    only on the distances inside subset, so accepted keeps one list per
    (inner distances, size), which every subset with those shares. A tuple
    g is realized iff the AND of at[s][g[s]] over s in subset is nonzero: a
    point of subset is at 0 from itself, which no g holds.
    """
    n = len(dist)
    for j in range(1, min(j_max, n) + 1):  # no j-subsets past n
        for subset in combinations(range(n), j):
            entry = frontier.get(subset)
            if entry is None:
                inner = tuple(dist[a][b] for a, b in combinations(subset, 2)), j
                if inner not in accepted:
                    rows = [[dist[s][t] for t in subset[:i]] for i, s in enumerate(subset)]
                    accepted[inner] = _katetov_tuples(rows, positive, fits)
                entry = frontier[subset] = [0, accepted[inner]]
            k, tuples = entry
            if k < len(tuples):
                masks = list(map(at.__getitem__, subset))
                while k < len(tuples) and reduce(and_, map(dict.get, masks, tuples[k], repeat(0))):
                    k += 1
                entry[0] = k
                if k < len(tuples):
                    return subset, tuples[k]
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


@cache
def _weights(n: int) -> list[int]:
    """The pair weights of _complete_new_point on n points."""
    scale = lcm(*range(1, n + 1))
    return [scale // (1 + m) for m in range(n)]


def _complete_new_point(dist, at: list, n: int, positive, fits: dict, subset, g) -> list | None:
    """Distances of a new point realizing g over subset, or None.

    Free coordinates are filled in index order, so when u is filled the
    placed points are the ones below u and the subset's above it. v is
    admissible for u iff |d(u, t) - new[t]| <= v <= d(u, t) + new[t] for each
    placed t, that is iff v is in fits[new[t]][d(u, t)] (see _fits). admit
    holds that AND for every coordinate: placing new[t] narrows all the
    coordinates after t (all of them, for a point of subset) by one
    C-level map through the row fits[new[t]]. The AND of intervals is an
    interval; None if it is empty. u takes the admissible value whose pair
    patterns are rarest now, ties to the smallest: an unmet-only count lets
    one value flood the space, and pair demands then regenerate forever.
    The pair (u, t) weighs lcm(1, ..., n) // (1 + m), m the number of points
    w with d(w, u) = v and d(w, t) = new[t], which is the bit count of
    at[u][v] & at[t][new[t]], and seen lists at[t][new[t]] for each placed
    t; both labels are positive, so neither u nor t is among the w.

    No choice is undone: the placed values form a one-point extension of the
    placed points that no point realizes (it would realize g, which is
    unmet), and the 4-values condition is amalgamation for finite A-spaces
    (Sauer), so the extension reaches all n points.
    """
    new = [None] * n
    admit = [(1 << len(positive)) - 1] * n
    seen = []
    for s, v in zip(subset, g):
        new[s] = v
        admit = list(map(and_, admit, map(fits[v].__getitem__, dist[s])))
        seen.append(at[s].get(v, 0))
    weight = _weights(n)

    for u in range(n):
        if new[u] is not None:  # u is in subset: the free points are filled in order
            continue
        mask, masks = admit[u], at[u]
        if not mask & (mask - 1):
            if not mask:
                return None
            v = positive[mask.bit_length() - 1]
        else:
            values = positive[(mask & -mask).bit_length() - 1 : mask.bit_length()]
            coverage = [
                sum(map(weight.__getitem__, map(int.bit_count, map(masks.get(v, 0).__and__, seen))))
                for v in values
            ]
            v = values[coverage.index(max(coverage))]  # the first, so the smallest, of the best
        new[u] = v
        seen.append(masks.get(v, 0))
        admit[u + 1 :] = map(and_, admit[u + 1 :], map(fits[v].__getitem__, dist[u][u + 1 :]))
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
    if 0 not in values:
        raise ValueError("the distance set must contain 0")
    if size_budget < 1 or embed_bound < 1 or homog_bound < 1:
        raise ValueError("budgets and bounds must be >= 1")
    scale, (codes,) = _codes([sorted(values)])
    ok, witness = four_values_check(codes)
    if not ok:
        raise FourValuesFails(_decoded([witness], scale)[0])

    positive = [c for c in codes if c > 0]
    fits = _fits(positive)
    j_max = max(embed_bound - 1, homog_bound)
    dist: list[list[int]] = [[0]]
    at: list[dict] = [{0: 1}]  # _label_masks of each row
    frontier: dict = {}
    accepted: dict = {}

    while (demand := _first_unmet_demand(dist, at, positive, j_max, frontier, accepted, fits)) and (
        len(dist) < size_budget
    ):
        subset, g = demand
        new = _complete_new_point(dist, at, len(dist), positive, fits, subset, g)
        if new is None:
            g_values = ", ".join(map(str, _decoded([g], scale)[0]))
            raise InvariantViolation(f"no point over A realizes g = ({g_values}) on {subset}")
        _add_point(dist, at, new)

    saturated = demand is None
    log = [row[:i] for i, row in enumerate(dist)][1:]  # each point's distances to the ones before
    result = StageResult(_space(scale, dist), saturated, _decoded(log, scale))
    if strict and not saturated:
        raise BudgetTooSmall(result)
    return result


@cache
def _relabelings(n: int) -> tuple:
    """One getter per relabeling p of n >= 3 points; it reads a flattened
    n x n matrix at (p[i], p[j]) for each upper-triangle slot (i, j)."""
    slots = list(combinations(range(n), 2))
    return tuple(itemgetter(*(p[i] * n + p[j] for i, j in slots)) for p in permutations(range(n)))


def _canonical_key(dist) -> tuple:
    """The least upper-triangle slot tuple of dist over all relabelings."""
    n = len(dist)
    if n <= 2:  # one slot at most: itemgetter would return a scalar
        return tuple(dist[i][j] for i, j in combinations(range(n), 2))
    flat = list(chain.from_iterable(dist))
    return min(get(flat) for get in _relabelings(n))


def _from_key(key: tuple, n: int) -> list:
    """The n x n rows whose upper-triangle slot tuple is key."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(combinations(range(n), 2), key):
        rows[i][j] = rows[j][i] = v
    return rows


def _class_levels(positive: list, max_size: int):
    """The class listing, one size at a time from 1 to max_size, or to the
    first size with no class: a list of (key, parent, ext) per class in key
    order. ext is the extension the class was first met as: the ext of class
    number parent of the size before, with one point added, listed last."""
    fits = _fits(positive)
    level: list = [[]]  # the empty space, whose one extension is the point
    for _ in range(max_size):
        first: dict = {}
        for parent, dist in enumerate(level):
            for g in _katetov_tuples([row[:i] for i, row in enumerate(dist)], positive, fits):
                ext = [row + [g[i]] for i, row in enumerate(dist)] + [[*g, 0]]
                first.setdefault(_canonical_key(ext), (parent, ext))
        classes = [(key, *first[key]) for key in sorted(first)]
        yield classes
        level = [ext for *_, ext in classes]
        if not level:  # then no larger space has a class either
            return


def enumerate_spaces_up_to_isometry(A: Iterable[Fraction], max_size: int) -> list[FiniteMetricSpace]:
    """All spaces with distances in A on at most max_size points, one per
    isometry class, smallest first."""
    scale, (codes,) = _codes([sorted(set(A))])
    positive = [c for c in codes if c > 0]
    levels = _class_levels(positive, max_size)
    reps = [_from_key(key, len(ext)) for level in levels for key, _, ext in level]
    # one decode for all classes: a Fraction per distinct code, not per class
    rows = iter(_decoded([row for dist in reps for row in dist], scale))
    return [_coded_space(scale, dist, tuple(islice(rows, len(dist)))) for dist in reps]


def _class_embeddings(U: FiniteMetricSpace, A: Iterable[Fraction], s: int):
    """(scale, ext, image) per class of the listing up to s points, in its
    order (see the module doc): the extension the class was first met as,
    on the joint scale of A and U, and an embedding of it into U as an
    index tuple, or None, after which it stops."""
    cap = max(U.n, s)
    scale, ((codes,), d) = _joint(_codes([sorted(set(A))]), U._coded)
    at = list(map(_label_masks, d))
    everyone = (1 << U.n) - 1
    images: list = [()]
    for level in _class_levels([c for c in codes if c > 0], s):
        parents, images = images, []
        for _, parent, ext in level:
            base = parents[parent]
            hits = reduce(and_, map(dict.get, map(at.__getitem__, base), ext[-1], repeat(0)), everyone)
            if hits:
                image = (*base, (hits & -hits).bit_length() - 1)
            else:
                image = find_embedding(_coded_space(scale, ext), U, max_points=cap)
            yield scale, ext, image
            if image is None:
                return
            images.append(image)


def verify_universality(
    U: FiniteMetricSpace, A: Iterable[Fraction], s: int
) -> tuple[bool, Optional[FiniteMetricSpace]]:
    """Check every A-space on at most s points embeds in U.

    Returns (True, None) or (False, missing-space).
    """
    for scale, ext, image in _class_embeddings(U, A, s):
        if image is None:
            return False, _coded_space(scale, _from_key(_canonical_key(ext), len(ext)))
    return True, None


def verify_one_point_homogeneity(
    U: FiniteMetricSpace, k: int
) -> tuple[bool, Optional[tuple]]:
    """Check every partial isometry on at most k points extends by any point.

    Tuples are grouped by their pairwise-distance pattern; within a group the
    sets of reachable one-point distance patterns must coincide. Returns
    (True, None) or (False, (domain_tuple, codomain_tuple, stuck_point)).

    A member's patterns are read as the set of columns of its rows, its own
    points' columns included (column e is the pattern of e, d being
    symmetric). Each own column holds a 0, which no outside pattern does, and
    depends only on the group's distance pattern, so two members' column sets
    differ exactly where their outside patterns do, and the stuck point is the
    first whose column is the least lost pattern.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = U._coded[1]
    for j in range(1, min(k, U.n) + 1):  # no j-tuples past U.n
        slots = list(combinations(range(j), 2))
        groups: dict = {}
        for tup in permutations(range(U.n), j):
            sig = tuple([d[tup[a]][tup[b]] for a, b in slots])
            groups.setdefault(sig, []).append(tup)
        for members in groups.values():
            first = members[0]
            base = set(zip(*map(d.__getitem__, first)))
            for other in members[1:]:
                pats = set(zip(*map(d.__getitem__, other)))
                if pats == base:
                    continue
                for dom, cod, lost in ((first, other, base - pats), (other, first, pats - base)):
                    if lost:
                        stuck = list(zip(*map(d.__getitem__, dom))).index(min(lost))
                        return False, (dom, cod, stuck)
    return True, None
