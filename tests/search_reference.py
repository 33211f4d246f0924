"""Test-only reference: the Fraction-bound search path that distset now runs
on integer codes: the matrix loaders, the five constructions and the two
space oracles, with the parser, coder, metric check and backtracking core
they called.

The code is kept verbatim on purpose, with shorter docstrings.
tests/test_search_differential.py runs both on the same inputs and requires
the same space, witness, or exception class and message.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Optional, Sequence

from distset.constructions import Graph, TreeData
from distset.errors import (
    AsymmetricMatrix,
    BadDistancePair,
    EmptySelection,
    IndexOutOfRange,
    InvalidTreeData,
    NonpositiveGlueDistance,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    TriangleViolation,
)
from distset.metric import FiniteMetricSpace
from distset.oracles import _guard
from distset.rationals import INT, Leaf, ListOf, RationalLike, read_shape

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string. Decimal and float forms, and
    anything that is not a string (a JSON number, say), are rejected."""
    if not isinstance(text, str):
        raise TypeError(f"expected a 'p/q' string, got {text!r}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, canonical strings, and Fractions. Floats are never accepted."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _codes(
    rows: Sequence[Iterable[Fraction | int]], scale: int = 0
) -> tuple[int, list[list[int]]]:
    scale = scale or lcm(*{v.denominator for row in rows for v in row})
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in rows]


# --- distset.metric ----------------------------------------------------------


def validate_metric(matrix: Sequence[Sequence[RationalLike]]) -> FiniteMetricSpace:
    """Check a square matrix and freeze it into a FiniteMetricSpace.

    Raises, in scan order: NonzeroDiagonal, AsymmetricMatrix,
    NonpositiveOffDiagonal, TriangleViolation.
    """
    n = len(matrix)
    if n == 0:
        raise EmptySelection()
    rows = []
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"matrix is not square: row of length {len(row)}, expected {n}")
        rows.append(tuple(rat(v) for v in row))
    d = tuple(rows)
    _check_metric(_codes(d)[1])
    return FiniteMetricSpace(n, d)


def _check_metric(d: Sequence[Sequence[int]]) -> None:
    """The checks of validate_metric on a square matrix of integer codes."""
    n = len(d)
    for i in range(n):
        if d[i][i] != 0:
            raise NonzeroDiagonal(i)
        for j in range(n):
            if d[i][j] != d[j][i]:
                raise AsymmetricMatrix(i, j)
            if i != j and d[i][j] <= 0:
                raise NonpositiveOffDiagonal(i, j)
    for i in range(n):
        row_i = d[i]
        for j in range(i + 1, n):
            row_j = d[j]
            if row_i[j] > min(map(add, row_i, row_j)):
                k = next(k for k in range(n) if row_i[j] > row_i[k] + row_j[k])
                raise TriangleViolation(i, j, k)


# distances, 'p/q' strings or integers, are parsed by validate_metric
_MATRIX = {"n": INT, "dist": ListOf(ListOf(Leaf(frozenset({str, int})), "distance"), "row")}


def space_from_json_dict(data: dict) -> FiniteMetricSpace:
    matrix = read_shape(data, _MATRIX, "matrix")
    n, rows = matrix["n"], matrix["dist"]
    if n != len(rows):
        raise ValueError("matrix file: 'n' must equal the row count of 'dist'")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix file: every row of 'dist' must have 'n' entries")
    return validate_metric(rows)


# --- distset.constructions ---------------------------------------------------


def glue(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    r: RationalLike,
    xbar: int = 0,
    ybar: int = 0,
) -> FiniteMetricSpace:
    r = rat(r)
    if r <= 0:
        raise NonpositiveGlueDistance()
    if not 0 <= xbar < X.n:
        raise IndexOutOfRange(xbar, X.n)
    if not 0 <= ybar < Y.n:
        raise IndexOutOfRange(ybar, Y.n)
    n = X.n + Y.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(X.n):
        for j in range(X.n):
            rows[i][j] = X.dist[i][j]
    for i in range(Y.n):
        for j in range(Y.n):
            rows[X.n + i][X.n + j] = Y.dist[i][j]
    for i in range(X.n):
        for j in range(Y.n):
            d = max(X.dist[i][xbar], Y.dist[j][ybar], r)
            rows[i][X.n + j] = d
            rows[X.n + j][i] = d
    return validate_metric(rows)


def max_product(X: FiniteMetricSpace, Z: FiniteMetricSpace) -> FiniteMetricSpace:
    n = X.n * Z.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(X.n):
        for j in range(Z.n):
            for k in range(X.n):
                for l in range(Z.n):
                    rows[i * Z.n + j][k * Z.n + l] = max(X.dist[i][k], Z.dist[j][l])
    return validate_metric(rows)


def check_tree_suitable(
    r_seq: tuple[Fraction, ...],
    rp_seq: tuple[Fraction, ...],
    x: Fraction,
    depth: int,
) -> tuple[bool, str | None]:
    if len(r_seq) != len(rp_seq):
        return False, "r_seq and rp_seq must have equal length"
    n = len(r_seq)
    if n <= depth:
        return False, f"need more sequence terms ({n}) than the tree depth ({depth})"
    if x <= 0:
        return False, "x must be positive"
    if any(v <= 0 for v in r_seq):
        return False, "r_seq values must be positive"
    if any(r_seq[i] <= r_seq[i + 1] for i in range(n - 1)):
        return False, "r_seq must be strictly decreasing"
    increasing = all(rp_seq[i] < rp_seq[i + 1] for i in range(n - 1))
    decreasing = all(rp_seq[i] > rp_seq[i + 1] for i in range(n - 1))
    if not (increasing or decreasing):
        return False, "rp_seq must be strictly monotone"
    if r_seq[0] >= min(x, rp_seq[0]):
        return False, "need r_seq[0] < min(x, rp_seq[0])"
    for i in range(n):
        gap = abs(rp_seq[i] - x)
        if gap == 0:
            return False, f"rp_seq[{i}] must differ from x"
        if gap >= r_seq[i]:
            return False, f"need |rp_seq[{i}] - x| < r_seq[{i}]"
    return True, None


def tree_space(data: TreeData) -> FiniteMetricSpace:
    nodes = sorted(set(data.nodes), key=lambda s: (len(s), s))
    if not nodes:
        raise InvalidTreeData("tree must contain the root")
    node_set = set(nodes)
    for s in nodes:
        if s and s[:-1] not in node_set:
            raise InvalidTreeData(f"node {s} lacks its parent; tree must be prefix-closed")
    if nodes[0] != ():
        raise InvalidTreeData("tree must contain the root")
    depth = max(len(s) for s in nodes)
    ok, why = check_tree_suitable(data.r_seq, data.rp_seq, data.x, depth)
    if not ok:
        raise InvalidTreeData(why)

    n = len(nodes) + 1
    star = n - 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, s in enumerate(nodes):
        for j, t in enumerate(nodes):
            if i == j:
                continue
            split = 0
            while split < min(len(s), len(t)) and s[split] == t[split]:
                split += 1
            rows[i][j] = data.r_seq[split]
        rows[i][star] = data.rp_seq[len(s)]
        rows[star][i] = rows[i][star]
    return validate_metric(rows)


def graph_space(G: Graph, r: RationalLike, rp: RationalLike) -> FiniteMetricSpace:
    r, rp = rat(r), rat(rp)
    if r <= 0:
        raise BadDistancePair(f"r = {r} is not positive")
    if rp <= r:
        raise BadDistancePair(f"rp = {rp} does not exceed r = {r}")
    if rp > 2 * r:
        raise BadDistancePair(f"rp = {rp} exceeds 2r = {2 * r}")
    rows = [
        [Fraction(0) if i == j else (r if G.adjacent(i, j) else rp) for j in range(G.n)]
        for i in range(G.n)
    ]
    return validate_metric(rows)


def space_to_graph(X: FiniteMetricSpace, r: RationalLike) -> Graph:
    r = rat(r)
    edges = {
        (i, j) for i in range(X.n) for j in range(i + 1, X.n) if X.dist[i][j] == r
    }
    return Graph(X.n, frozenset(edges))


# --- distset.oracles ---------------------------------------------------------


def _first_map(dx, dy, order: Sequence[int], targets) -> Optional[tuple[int, ...]]:
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
    order: list[int] = []
    remaining = list(range(len(dist)))
    while remaining:
        p = min(remaining, key=lambda p: (sorted(dist[p][q] for q in order), p))
        remaining.remove(p)
        order.append(p)
    return order


def find_isometry(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, *, max_points: Optional[int] = None
) -> Optional[tuple[int, ...]]:
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
