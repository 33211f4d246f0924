"""Metric-preserving functions on finite tabulated domains.

A function f with f(0) = 0 is metric preserving on its domain when composing
it with any metric whose distances lie in the domain yields a metric again.
On finite data this reduces to checking triples, since any violation is
already visible on two or three points.

The kernels run on the integer codes of rationals._codes, which states why
no verdict and no witness moves. The domain and the values are coded each
on its own scale, since every test is homogeneous in each separately. The
slope construction codes a, tail and pool on one scale, since its identity
part compares inputs with values.

For a domain pair i <= j (sorted domain D, values V), the third points a
triangle admits are the indices k in [j, bisect_right(D, D[i] + D[j])), and
the triple is preserved iff |V[i] - V[j]| <= V[k] <= V[i] + V[j]. So each
pair tests the minimum and maximum of one slice of V at C level, and only
the first failing pair is re-scanned in k order, so the witness is the
first failing triple in (i, j, k) order. Once f is nondecreasing, the sufficient
condition needs only the last index of each range. In the slope
construction the points kept so far are already admissible, so a candidate
changes only the slopes next to its insertion point: at most three
comparisons, made by cross-multiplication.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoolExhausted, ZeroNotInDomain
from .rationals import RATIONAL, ListOf, _codes, _decoded, format_rational, read_shape

Triple = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class TabulatedFunction:
    """Finite map from nonnegative rationals to rationals, domain-sorted."""

    pairs: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        domain = [p for p, _ in self.pairs]
        if len(set(domain)) != len(domain):
            raise ValueError("tabulated function has a repeated domain point")
        if any(p < 0 for p in domain):
            raise ValueError("tabulated function domain points must be >= 0")
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @property
    def domain(self) -> tuple[Fraction, ...]:
        return tuple(p for p, _ in self.pairs)

    def __call__(self, point: Fraction) -> Fraction:
        for p, v in self.pairs:
            if p == point:
                return v
        raise KeyError(f"{point} not in the tabulated domain")


def _domain_and_value_codes(f: TabulatedFunction) -> tuple[list[int], list[int]]:
    """The domain and the values, each scaled by the lcm of its own
    denominators."""
    (_, (D,)), (_, (V,)) = _codes([f.domain]), _codes([[v for _, v in f.pairs]])
    return D, V


def is_metric_preserving_finite(f: TabulatedFunction) -> tuple[bool, Triple | None]:
    """Exhaustive triple check; returns (verdict, witness).

    The witness is the failing domain triple, largest entry first. A
    positivity failure is reported as (a, a, 0): the doubled point marks the
    two-point space whose image distance collapses to <= 0.
    """
    if not f.pairs or f.pairs[0][0] != 0:
        raise ZeroNotInDomain()
    domain = f.domain
    D, V = _domain_and_value_codes(f)
    if V[0] != 0:
        return False, (Fraction(0), Fraction(0), Fraction(0))
    for k in range(1, len(V)):
        if V[k] <= 0:
            return False, (domain[k], domain[k], Fraction(0))
    n = len(D)
    for i in range(n):
        for j in range(i, n):
            lo, hi = abs(V[i] - V[j]), V[i] + V[j]
            end = bisect_right(D, D[i] + D[j], j)
            images = V[j:end]
            if min(images) < lo or max(images) > hi:
                k = next(k for k in range(j, end) if not lo <= V[k] <= hi)
                return False, (domain[k], domain[j], domain[i])
    return True, None


def check_sufficient_condition(f: TabulatedFunction) -> bool:
    """The domain starts at 0, f(0) = 0 and f > 0 elsewhere; f is
    nondecreasing, and f(r) <= f(s) + f(t) whenever s <= t < r <= s + t.

    A cheap sound criterion: anything passing it is metric preserving on the
    domain. Without the premise on 0 it is not.
    """
    D, V = _domain_and_value_codes(f)
    if not D or D[0] != 0 or V[0] != 0 or 0 in V[1:]:
        return False
    if any(v > w for v, w in zip(V, V[1:])):
        return False
    n = len(D)
    for i in range(n):
        for j in range(i, n):
            last = bisect_right(D, D[i] + D[j], j) - 1
            if last > j and V[last] > V[i] + V[j]:
                return False
    return True


def slope_construction(
    a: Fraction,
    b: Fraction,
    tail: tuple[Fraction, ...],
    pool: frozenset[Fraction] | set[Fraction],
) -> TabulatedFunction:
    """Build a shrinking reparametrization: identity up to a, then values
    picked from the pool inside (a, b).

    The tail values (all > a, processed in the order given) each receive the
    largest pool value that keeps the function strictly increasing, keeps
    every image below its input, and keeps the piecewise-linear slopes
    strictly decreasing left to right. That concavity discipline makes the
    result metric preserving and keeps b out of the range.
    """
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")
    if not tail:
        raise ValueError("tail must be nonempty")
    if len(set(tail)) != len(tail) or any(v <= a for v in tail):
        raise ValueError("tail values must be distinct and exceed a")
    for y in pool:
        if not a < y < b:
            raise ValueError(f"pool value {y} outside the open interval ({a}, {b})")

    scale, ((x_a, *x_tail), ladder) = _codes([(a, *tail), sorted(set(pool))])
    xs = [0, x_a] if a > 0 else [0]
    ys = xs.copy()
    for v, x in zip(tail, x_tail):
        t = bisect_left(xs, x)
        for rank in range(bisect_left(ladder, x) - 1, -1, -1):
            y = ladder[rank]
            if _fits(xs, ys, t, x, y):
                break
        else:
            raise PoolExhausted(v)
        xs.insert(t, x)
        ys.insert(t, y)
    return TabulatedFunction(tuple(zip(*_decoded([xs, ys], scale))))


def _fits(xs: list[int], ys: list[int], t: int, x: int, y: int) -> bool:
    """Whether (x, y), inserted at index t of an admissible polyline, keeps
    it admissible: values strictly increasing, slopes strictly decreasing.

    Only the segments next to the new point change, so this compares the
    new slopes with their neighbours by cross-multiplication; every x
    difference is positive.
    """
    x0, y0 = xs[t - 1], ys[t - 1]
    if y <= y0:
        return False
    if t >= 2 and (y0 - ys[t - 2]) * (x - x0) <= (y - y0) * (x0 - xs[t - 2]):
        return False
    if t < len(xs):
        x1, y1 = xs[t], ys[t]
        if y1 <= y or (y - y0) * (x1 - x) <= (y1 - y) * (x - x0):
            return False
        if t + 1 < len(xs) and (y1 - y) * (xs[t + 1] - x1) <= (ys[t + 1] - y1) * (x1 - x):
            return False
    return True


def func_to_json(f: TabulatedFunction) -> list[list[str]]:
    return [[format_rational(p), format_rational(v)] for p, v in f.pairs]


_TABLE = ListOf(ListOf(RATIONAL, "'p/q' string", 2), "pair")


def func_from_json(data: object) -> TabulatedFunction:
    return TabulatedFunction(read_shape(data, _TABLE, "tabulated function"))
