"""Test-only reference: the triple-loop triangle and ultrametric checks that
the integer detour kernels in distset.metric replaced, and distance_spectrum
and subspace as they read a space's Fractions before they read its codes.

Kept unoptimized on purpose. tests/test_metric_differential.py runs both on
the same matrices and requires the same exception class and witness, or the
same ultrametric verdict; tests/test_urysohn_differential.py requires the
same spectra, subspaces and errors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from distset.errors import (
    AsymmetricMatrix,
    EmptySelection,
    IndexOutOfRange,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    TriangleViolation,
)
from distset.metric import FiniteMetricSpace

ZERO = Fraction(0)


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


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """True when every triangle satisfies d(i,k) <= max(d(i,j), d(j,k))."""
    d = space.dist
    for i in range(space.n):
        for j in range(space.n):
            for k in range(space.n):
                if d[i][k] > max(d[i][j], d[j][k]):
                    return False
    return True


def distance_spectrum(space: FiniteMetricSpace) -> tuple[Fraction, ...]:
    """All realized distances including 0, deduplicated, ascending."""
    values = {ZERO}
    for i in range(space.n):
        for j in range(i + 1, space.n):
            values.add(space.dist[i][j])
    return tuple(sorted(values))


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
