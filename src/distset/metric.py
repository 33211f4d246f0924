"""Finite metric spaces with exact rational distances.

A space holds its symmetric matrix as integer codes over one scale, which
every kernel of the package runs on, and as Fractions in dist;
rationals._codes states why every comparison and every witness stays where
the rationals put it. A space built here carries the codes it was checked
on, and dist is decoded from them when it is first read, one Fraction per
distinct code; a space built by hand as FiniteMetricSpace(n, dist) is coded
on first use. Either way it equals, hashes and prints as the other.
Outside FiniteMetricSpace nothing reads dist: the spectrum is decoded from
the codes, and a subspace carries its parent's codes, sliced, on the
parent's scale. Validation scans row-major and reports the first witness,
so error positions are reproducible.

The first checks run at C level, row by row and on the transpose; only a
matrix that fails them is scanned entry by entry for the first fault. The
triangle check is then a detour test. Column j equals row j, so the pair
(i, j) breaks a triangle iff row_i[j] > min(row_i[k] + row_j[k]) over all
k, a minimum taken at C level. The terms k = i and k = j equal row_i[j], so
only a proper detour can fail the strict test, and a proper detour is at
least low_i + low_j, the least distances off the diagonal in rows i and j:
pairs at or below that bound are skipped, a filter run at C level per row.
Only j > i is tested: (j, i) fails exactly when (i, j) does, so the first
failing pair in row-major order has j > i. Re-scanning k in order for that
pair alone gives the first (i, j, k) of the row-major triple scan.

Two accepts run first; the scan runs only when both fail, so the first
witness is always its own. One passes the whole matrix when no distance
exceeds twice the least: d_ij <= max <= 2 min <= d_ik + d_kj. The other
packs each row into one int of w-bit fields, w the bit length of 2 * top
(the greatest entry) plus a guard bit. The entries are nonnegative by then,
so row_i <= d(i, k) + row_k holds in every field iff every guard survives
in P_k + d(i, k) * ONES + GUARD - P_i: a field stays below 2^w, and above
GUARD - top > 0, so no field carries into or borrows from the next. Pairs
with max(row_i) - low_k <= d(i, k) are skipped, as d(i, j) <= max(row_i) <=
d(i, k) + d(k, j) for every j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import add, and_, gt, lshift, mul, sub
from typing import Iterable, Sequence

from .errors import (
    AsymmetricMatrix,
    EmptySelection,
    IndexOutOfRange,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    TriangleViolation,
)
from .rationals import INT, Leaf, ListOf, RationalLike, _codes, _decoded, _formatted, _ratio, read_shape


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Immutable n-point metric space; dist is an n x n tuple-of-tuples."""

    n: int
    dist: tuple[tuple[Fraction, ...], ...]

    def distance(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    @cached_property
    def _coded(self) -> tuple[int, list[list[int]]]:
        """(L, the rows of dist times L as ints), as rationals._codes."""
        return _codes(self.dist)

    def __getattr__(self, name: str):
        # only a space made by _coded_space lacks dist: decode it on first read
        coded = self.__dict__.get("_coded")
        if name != "dist" or coded is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dist = self.__dict__["dist"] = _decoded(coded[1], coded[0])
        return dist


def validate_metric(matrix: Sequence[Sequence[RationalLike]]) -> FiniteMetricSpace:
    """Check a square matrix and freeze it into a FiniteMetricSpace.

    Raises, in scan order: NonzeroDiagonal, AsymmetricMatrix,
    NonpositiveOffDiagonal, TriangleViolation. Entries are read to codes
    before any of these, and a row of the wrong length is reported after
    the faulty entries of the rows above it.
    """
    n = len(matrix)
    if n == 0:
        raise EmptySelection()
    try:
        square = all(len(row) == n for row in matrix)
    except TypeError:  # a row with no length
        square = False
    if not square:  # the first fault in row-major order raises
        for row in matrix:
            if len(row) != n:
                raise ValueError(f"matrix is not square: row of length {len(row)}, expected {n}")
            for v in row:
                _ratio(v)
    return _space(*_codes(matrix))


def _space(scale: int, rows: list[list[int]]) -> FiniteMetricSpace:
    """The space of a square matrix of codes over scale, checked by
    _check_metric; it carries those codes."""
    _check_metric(rows)
    return _coded_space(scale, rows)


def _coded_space(scale: int, rows: list[list[int]], dist=None) -> FiniteMetricSpace:
    """The space of a metric given by codes over scale, unchecked, carrying
    them; dist is their decoding, made on first read if not given."""
    space = object.__new__(FiniteMetricSpace)  # what __init__ would set, less dist
    space.__dict__.update(n=len(rows), _coded=(scale, rows))  # _coded as its property would
    if dist is not None:
        space.__dict__["dist"] = dist
    return space


def _check_metric(d: Sequence[Sequence[int]]) -> None:
    """The checks of validate_metric on a square matrix of integer codes."""
    n = len(d)
    zero_diagonal_positive_rest = all(
        row[i] == 0 and min(row) == 0 and row.count(0) == 1 for i, row in enumerate(d)
    )
    if not (zero_diagonal_positive_rest and list(zip(*d)) == list(map(tuple, d))):
        for i in range(n):  # the first fault, in scan order
            if d[i][i] != 0:
                raise NonzeroDiagonal(i)
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise AsymmetricMatrix(i, j)
                if i != j and d[i][j] <= 0:
                    raise NonpositiveOffDiagonal(i, j)
    low = [min(filter(None, row), default=0) for row in d]  # least off the diagonal
    top = max(map(max, d))
    if top <= 2 * min(low) or _triangles_hold(d, low, top):
        return
    for i, row_i in enumerate(d):
        above = map(add, repeat(low[i]), low[i + 1 :])
        for j in compress(range(i + 1, n), map(gt, row_i[i + 1 :], above)):
            row_j = d[j]
            if row_i[j] > min(map(add, row_i, row_j)):
                k = next(k for k in range(n) if row_i[j] > row_i[k] + row_j[k])
                raise TriangleViolation(i, j, k)


def _triangles_hold(d: Sequence[Sequence[int]], low: list[int], top: int) -> bool:
    """Whether every triangle of d holds, tested on packed rows (module doc);
    d has passed the first checks, and low and top are as _check_metric's."""
    width = (2 * top).bit_length() + 1  # a field holds 2 top, and a guard bit above it
    shifts = range(0, len(d) * width, width)
    ones = sum(map(lshift, repeat(1), shifts))
    guard = ones << (width - 1)
    packed = [sum(map(lshift, row, shifts)) for row in d]
    for row_i, spare in zip(d, map(sub, repeat(guard), packed)):
        keep = list(map(gt, map(sub, repeat(max(row_i)), low), row_i))
        detours = map(add, compress(packed, keep), map(mul, compress(row_i, keep), repeat(ones)))
        if not all(map(guard.__eq__, map(and_, map(add, detours, repeat(spare)), repeat(guard)))):
            return False
    return True


def distance_spectrum(space: FiniteMetricSpace) -> tuple[Fraction, ...]:
    """All realized distances including 0, deduplicated, ascending."""
    scale, rows = space._coded
    return _decoded([sorted(_spectrum(rows))], scale)[0]


def _spectrum(rows: Sequence[Sequence[int]]) -> set:
    """The codes of distance_spectrum: 0 and every entry above the diagonal."""
    return {0}.union(*(row[i + 1 :] for i, row in enumerate(rows)))


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """True when every triangle satisfies d(i,k) <= max(d(i,j), d(j,k)).

    On a symmetric matrix, d(j,k) is row_k[j], so the pair (i, k) fails
    iff d(i,k) > min(max(row_i[j], row_k[j])) over all j.
    """
    d = space._coded[1]
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
    scale, rows = space._coded
    return _coded_space(scale, [[rows[i][j] for j in picked] for i in picked])


def space_to_json_dict(space: FiniteMetricSpace) -> dict:
    scale, rows = space._coded
    return {"n": space.n, "dist": _formatted(rows, scale)}


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
