"""Finite metric spaces with exact rational distances.

A space is stored as a full symmetric matrix. Validation scans row-major and
reports the first witness, so error positions are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    AsymmetricMatrix,
    EmptySelection,
    IndexOutOfRange,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    TriangleViolation,
)
from .rationals import RationalLike, format_rational, rat

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
    _check_metric(d)
    return FiniteMetricSpace(n, d)


def _check_metric(d: Sequence[Sequence]) -> None:
    """The checks of validate_metric on a square matrix of any exact
    ordered numbers (Fractions, or integer codes scaled from them)."""
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
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    raise TriangleViolation(i, j, k)


def _is_metric_triple(a, b, c) -> bool:
    """Whether three distances can be the sides of a (possibly degenerate)
    triangle."""
    return a <= b + c and b <= a + c and c <= a + b


def distance_spectrum(space: FiniteMetricSpace) -> tuple[Fraction, ...]:
    """All realized distances including 0, deduplicated, ascending."""
    values = {ZERO}
    for i in range(space.n):
        for j in range(i + 1, space.n):
            values.add(space.dist[i][j])
    return tuple(sorted(values))


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """True when every triangle satisfies d(i,k) <= max(d(i,j), d(j,k))."""
    d = space.dist
    for i in range(space.n):
        for j in range(space.n):
            for k in range(space.n):
                if d[i][k] > max(d[i][j], d[j][k]):
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


def space_from_json_dict(data: dict) -> FiniteMetricSpace:
    if not isinstance(data, dict) or set(data) != {"n", "dist"}:
        raise ValueError("matrix file must be an object with exactly the keys 'n' and 'dist'")
    n = data["n"]
    dist = data["dist"]
    if not isinstance(n, int) or not isinstance(dist, list) or len(dist) != n:
        raise ValueError("matrix file: 'n' must match the row count of 'dist'")
    return validate_metric(dist)
