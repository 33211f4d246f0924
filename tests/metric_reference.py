"""Test-only reference: the triple-loop triangle and ultrametric checks that
the integer detour kernels in distset.metric replaced.

Kept unoptimized on purpose. tests/test_metric_differential.py runs both on
the same matrices and requires the same exception class and witness, or the
same ultrametric verdict.
"""

from __future__ import annotations

from typing import Sequence

from distset.errors import (
    AsymmetricMatrix,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    TriangleViolation,
)
from distset.metric import FiniteMetricSpace


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
