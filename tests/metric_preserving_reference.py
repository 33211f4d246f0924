"""Test-only reference: the Fraction kernels that the integer-coded kernels
in distset.metric_preserving replaced.

Kept unoptimized on purpose. tests/test_metric_preserving_differential.py
runs both on the same tables and requires the same verdict and witness, and
for the slope construction the same pairs or the same exception.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from distset.errors import PoolExhausted, ZeroNotInDomain
from distset.metric_preserving import TabulatedFunction, Triple


def _is_metric_triple(a, b, c) -> bool:
    """Whether three distances can be the sides of a (possibly degenerate)
    triangle."""
    return a <= b + c and b <= a + c and c <= a + b


def is_metric_preserving_finite(f: TabulatedFunction) -> tuple[bool, Triple | None]:
    """Exhaustive triple check; returns (verdict, witness).

    The witness is the failing domain triple, largest entry first. A
    positivity failure is reported as (a, a, 0): the doubled point marks the
    two-point space whose image distance collapses to <= 0.
    """
    values = dict(f.pairs)
    if Fraction(0) not in values:
        raise ZeroNotInDomain()
    if values[Fraction(0)] != 0:
        return False, (Fraction(0), Fraction(0), Fraction(0))
    for a, fa in f.pairs:
        if a > 0 and fa <= 0:
            return False, (a, a, Fraction(0))
    domain = f.domain
    for a, b, c in combinations_with_replacement(domain, 3):
        if c > a + b:
            continue
        if not _is_metric_triple(values[a], values[b], values[c]):
            return False, (c, b, a)
    return True, None


def check_sufficient_condition(f: TabulatedFunction) -> bool:
    """Nondecreasing, and f(r) <= f(s) + f(t) whenever s <= t < r <= s + t.

    A cheap sound criterion: anything passing it is metric preserving on the
    domain.
    """
    values = dict(f.pairs)
    domain = f.domain
    for (p, v), (q, w) in zip(f.pairs, f.pairs[1:]):
        if v > w:
            return False
    for s in domain:
        for t in domain:
            if t < s:
                continue
            for r in domain:
                if t < r <= s + t and values[r] > values[s] + values[t]:
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

    points: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    if a > 0:
        points.append((a, a))

    def admissible(candidate: list[tuple[Fraction, Fraction]]) -> bool:
        for (x0, y0), (x1, y1) in zip(candidate, candidate[1:]):
            if y1 <= y0:
                return False
        slopes = [
            (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(candidate, candidate[1:])
        ]
        return all(s0 > s1 for s0, s1 in zip(slopes, slopes[1:]))

    for v in tail:
        chosen = None
        for y in sorted(pool, reverse=True):
            if y >= v:
                continue
            candidate = sorted(points + [(v, y)])
            if admissible(candidate):
                chosen = y
                break
        if chosen is None:
            raise PoolExhausted(v)
        points = sorted(points + [(v, chosen)])
    return TabulatedFunction(tuple(points))
