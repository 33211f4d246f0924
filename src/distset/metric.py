"""Finite metric spaces with exact rational distances.

A space is stored as a full symmetric matrix of Fractions. Validation scans
row-major and reports the first witness, so error positions are
reproducible.

The checks run on integer codes. validate_metric multiplies every entry by
L, the lcm of the matrix's denominators, so each code is the int
v.numerator * (L // v.denominator). The metric inequalities are linear and
homogeneous, so scaling by L > 0 keeps every comparison exact and every
witness where it was.

The triangle check is a detour test. Once the first O(n^2) loop has found
the matrix symmetric with a zero diagonal, column j equals row j, so the
pair (i, j) breaks a triangle iff row_i[j] > min(row_i[k] + row_j[k]) over
all k, a minimum taken at C level. The terms k = i and k = j equal
row_i[j], so only a proper detour can fail the strict test. Only j > i is
tested: (j, i) fails exactly when (i, j) does, so the first failing pair in
row-major order has j > i. Re-scanning k in order for that pair alone gives
the first (i, j, k) of the row-major triple scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence

from .errors import (
    AsymmetricMatrix,
    EmptySelection,
    IndexOutOfRange,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    TriangleViolation,
)
from .rationals import INT, Leaf, ListOf, RationalLike, format_rational, rat, read_shape

ZERO = Fraction(0)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Immutable n-point metric space; dist is an n x n tuple-of-tuples."""

    n: int
    dist: tuple[tuple[Fraction, ...], ...]

    def distance(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]


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
    _check_metric(_codes(d))
    return FiniteMetricSpace(n, d)


def _codes(d: Sequence[Sequence[Fraction]], scale: int = 0) -> list[list[int]]:
    """The matrix scaled by the lcm of its denominators, as ints. A nonzero
    scale, a multiple of every denominator, is used instead."""
    scale = scale or lcm(*{v.denominator for row in d for v in row})
    return [[v.numerator * (scale // v.denominator) for v in row] for row in d]


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


def distance_spectrum(space: FiniteMetricSpace) -> tuple[Fraction, ...]:
    """All realized distances including 0, deduplicated, ascending."""
    values = {ZERO}
    for i in range(space.n):
        for j in range(i + 1, space.n):
            values.add(space.dist[i][j])
    return tuple(sorted(values))


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """True when every triangle satisfies d(i,k) <= max(d(i,j), d(j,k)).

    On a symmetric matrix, d(j,k) is row_k[j], so the pair (i, k) fails
    iff d(i,k) > min(max(row_i[j], row_k[j])) over all j.
    """
    d = _codes(space.dist)
    for i, row_i in enumerate(d):
        for k in range(i + 1, space.n):
            if row_i[k] > min(map(max, row_i, d[k])):
                return False
    return True


def subspace(space: FiniteMetricSpace, indices: Iterable[int]) -> FiniteMetricSpace:
    """Induced metric on the selected points, in ascending index order."""
    picked = sorted(set(indices))
    if not picked:
        raise EmptySelection()
    for i in picked:
        if not 0 <= i < space.n:
            raise IndexOutOfRange(i, space.n)
    d = tuple(tuple(space.dist[i][j] for j in picked) for i in picked)
    return FiniteMetricSpace(len(picked), d)


def space_to_json_dict(space: FiniteMetricSpace) -> dict:
    return {
        "n": space.n,
        "dist": [[format_rational(v) for v in row] for row in space.dist],
    }


# distances, 'p/q' strings or integers, are parsed by validate_metric
_MATRIX = {"n": INT, "dist": ListOf(ListOf(Leaf(frozenset({str, int})), "distance"), "row")}


def space_from_json_dict(data: dict) -> FiniteMetricSpace:
    matrix = read_shape(data, _MATRIX, "matrix")
    if matrix["n"] != len(matrix["dist"]):
        raise ValueError("matrix file: 'n' must equal the row count of 'dist'")
    return validate_metric(matrix["dist"])
