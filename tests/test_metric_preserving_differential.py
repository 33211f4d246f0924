"""The integer-coded kernels of distset.metric_preserving against the Fraction
kernels they replaced (tests/metric_preserving_reference.py).

Seeded tables with domains of 1 to 40 points, domain and value denominators
drawn apart from each other (1, 2, 3, 7), of five kinds: min(m*x, cap),
which preserves metrics; random values including 0 and negatives, with
f(0) sometimes nonzero; a domain without 0; min(m*x, cap) with one planted
spike; and a concave table with small random dents, which fails late in the
scan. is_metric_preserving_finite must return the reference's verdict and
first witness (or raise the same exception with the same message), and
check_sufficient_condition the same verdict. Seeded slope inputs, tails in
ascending, descending and shuffled order, must give the same pairs, or the
same exception class and message.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

import metric_preserving_reference as ref
from distset.errors import DistSetError
from distset.metric_preserving import (
    TabulatedFunction,
    check_sufficient_condition,
    is_metric_preserving_finite,
    slope_construction,
)

DENOMINATORS = (1, 2, 3, 7)
SEED = 19990501
KINDS = ("cap", "random", "missing-zero", "spike", "dented")
BATCHES = 10


def _q(rng, lo, hi, dens=DENOMINATORS):
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _domain(rng, size, with_zero):
    # A narrow range makes sums land on domain points, so the bisected
    # triple range must keep its right end.
    dens = rng.choice((DENOMINATORS, (1,), (2,), (1, 2)))
    width = rng.choice((size, 2 * size, 6 * size))
    points = {_q(rng, 1, width, dens) for _ in range(3 * size)}
    points = rng.sample(sorted(points), min(len(points), size - with_zero))
    return sorted(points + [Fraction(0)] * with_zero)


def _table(rng, kind, size):
    domain = _domain(rng, size, kind != "missing-zero")
    m = _q(rng, 1, 4, (1, 3, 5))
    cap = _q(rng, 1, 3 * size, (1, 5, 11))
    values = [min(m * x, cap) for x in domain]
    if kind in ("random", "missing-zero"):
        # a small value range brings ties, some on the ends of a range
        values = [_q(rng, 1, 3 * size, (1, 5, 11)) if rng.random() < 0.5
                  else Fraction(rng.randint(1, 4)) for _ in domain]
        if rng.random() < 0.3:
            values[rng.randrange(len(values))] = _q(rng, -2, 0, (1, 5))
        if kind == "random" and rng.random() < 0.85:
            values[0] = Fraction(0)
    elif kind == "spike":
        j = rng.randrange(len(domain))
        values[j] += rng.choice((cap, 3 * cap, Fraction(1, 11), m * domain[-1]))
    elif kind == "dented":
        for k in range(1, len(values)):
            dent = cap / rng.randint(2, 9) * rng.choice((-1, 1))
            if rng.random() < 0.25 and values[k] + dent > 0:
                values[k] += dent
    return TabulatedFunction(tuple(zip(domain, values)))


def _tables(count, seed=SEED):
    rng = random.Random(seed)
    tables = []
    for index in range(count):
        size = rng.randint(1, 40) if rng.random() < 0.15 else rng.randint(1, 14)
        tables.append(_table(rng, KINDS[index % len(KINDS)], size))
    return tables


def _outcome(fn, *args):
    """The result, or (exception class name, message)."""
    try:
        return fn(*args)
    except (DistSetError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _slope_case(rng):
    a = Fraction(0) if rng.random() < 0.3 else _q(rng, 0, 3)
    b = a + _q(rng, 1, 4, (1, 2, 3))
    size = rng.randint(1, 30)
    loose = rng.choice((DENOMINATORS, (1, 2), (1,)))
    if rng.random() < 0.7:
        den = size + rng.randint(1, 50)
        pool = [a + (b - a) * Fraction(k, den) for k in range(1, den) if rng.random() < 0.8]
    else:
        # denominators unrelated to a's, so a must be in the shared lcm
        pool = list({_q(rng, 0, 7, loose) for _ in range(2 * size)} - {a, b})
        pool = [y for y in pool if a < y < b] or [(a + b) / 2]
    if rng.random() < 0.7:
        # beyond b with growing gaps: the greedy choice can go on
        tail, gap, v = [], _q(rng, 1, 5, (1, 2, 3)), b + _q(rng, 0, 9, (1, 2, 3))
        for _ in range(size):
            tail.append(v)
            gap += _q(rng, 1 if rng.random() < 0.9 else -1, 6, (1, 2, 3))
            gap = max(gap, Fraction(1, 7))
            v += gap
    else:
        # some inside (a, b), where "image below its input" bites, and
        # inserted between earlier points, where the left slope bites
        top = 2 * b.numerator // b.denominator + 1
        tail = sorted({v for v in (_q(rng, 0, top, loose) for _ in range(rng.randint(1, 8))) if v > a})
        tail = tail or [b]
    order = rng.choice(("ascending", "descending", "descending", "descending", "shuffled"))
    if order == "descending":
        tail.reverse()
    elif order == "shuffled":
        rng.shuffle(tail)
    fault = rng.choice((None,) * 25 + ("base", "empty", "repeat", "low", "window"))
    if fault == "base":
        a, b = b, a
    elif fault == "empty":
        tail = []
    elif fault == "repeat":
        tail.append(rng.choice(tail))
    elif fault == "low":
        tail.insert(rng.randrange(len(tail) + 1), a)
    elif fault == "window":
        pool.insert(rng.randrange(len(pool) + 1), rng.choice((a, b, b + 1)))
    rng.shuffle(pool)
    return a, b, tail, pool


TABLES = _tables(1500)
SLOPES = [_slope_case(random.Random(SEED + i)) for i in range(500)]


@cache
def _reference_check(index):
    return _outcome(ref.is_metric_preserving_finite, TABLES[index])


@cache
def _reference_sufficient(index):
    return ref.check_sufficient_condition(TABLES[index])


@cache
def _reference_slope(index):
    return _outcome(ref.slope_construction, *SLOPES[index])


def test_tables_cover_every_outcome():
    outcomes = [_reference_check(i) for i in range(len(TABLES))]
    message = "tabulated function must include 0 in its domain"
    zero_missing = [o for o in outcomes if o == ("ZeroNotInDomain", message)]
    assert len(zero_missing) >= len(TABLES) // 5
    verdicts = [o for o in outcomes if o not in zero_missing]
    passed = sum(1 for ok, _ in verdicts if ok)
    witnesses = [w for ok, w in verdicts if not ok]
    assert passed >= 500 and len(witnesses) >= 400
    triples = [w for w in witnesses if w[2] != 0]
    assert len(triples) >= 300
    # some witnesses sit on the right end of their range: c == a + b
    assert sum(1 for c, b, a in triples if c == a + b) >= 60
    assert {len(f.pairs) for f in TABLES} == set(range(1, 41))
    value_dens = {v.denominator for f in TABLES for _, v in f.pairs}
    assert {5, 11} <= value_dens


def test_witnesses_are_not_all_the_extreme_image():
    # A kernel that reports the argmin or argmax of the images in the failing
    # pair's range, instead of re-scanning k in order, must disagree here.
    differs = 0
    for index, f in enumerate(TABLES):
        outcome = _reference_check(index)
        if outcome[0] is False and outcome[1][2] != 0:
            c, b, a = outcome[1]
            domain, values = f.domain, [v for _, v in f.pairs]
            j = domain.index(b)
            lo, hi = abs(f(a) - f(b)), f(a) + f(b)
            span = [k for k in range(j, len(domain)) if domain[k] <= a + b]
            bad = [k for k in span if not lo <= values[k] <= hi]
            extreme = min(bad, key=values.__getitem__) if values[bad[0]] < lo else max(
                bad, key=values.__getitem__)
            differs += domain[extreme] != c
    assert differs >= 15


@pytest.mark.parametrize("batch", range(BATCHES))
def test_check_matches_fraction_kernel(batch):
    for index in range(batch, len(TABLES), BATCHES):
        assert _outcome(is_metric_preserving_finite, TABLES[index]) == _reference_check(index), index


def _premise(f):
    """The domain starts at 0, f(0) = 0 and every other value is positive."""
    return bool(f.pairs) and f.pairs[0] == (0, 0) and all(v > 0 for _, v in f.pairs[1:])


@pytest.mark.parametrize("batch", range(BATCHES))
def test_sufficient_matches_fraction_kernel(batch):
    # The reference omits the premise on 0, without which the criterion is
    # not sound (see the test below).
    for index in range(batch, len(TABLES), BATCHES):
        want = _premise(TABLES[index]) and _reference_sufficient(index)
        assert check_sufficient_condition(TABLES[index]) == want, index


def test_sufficient_implies_metric_preserving():
    passed = [f for f in TABLES if check_sufficient_condition(f)]
    assert len(passed) >= 300
    for f in passed:
        assert is_metric_preserving_finite(f) == (True, None), f.pairs


def test_sufficient_verdicts_are_mixed():
    verdicts = [_reference_sufficient(i) for i in range(len(TABLES))]
    assert sum(verdicts) >= 300 and verdicts.count(False) >= 300


def test_slope_cases_cover_every_outcome():
    outcomes = [_reference_slope(i) for i in range(len(SLOPES))]
    built = [o for o in outcomes if isinstance(o, TabulatedFunction)]
    names = [o[0] for o in outcomes if isinstance(o, tuple)]
    assert len(built) >= 100
    assert names.count("PoolExhausted") >= 100
    assert names.count("ValueError") >= 50
    assert sum(1 for f in built if len(f.pairs) >= 15) >= 10


@pytest.mark.parametrize("batch", range(BATCHES))
def test_slope_matches_fraction_kernel(batch):
    for index in range(batch, len(SLOPES), BATCHES):
        got = _outcome(slope_construction, *SLOPES[index])
        want = _reference_slope(index)
        assert got == want, index
        if isinstance(got, TabulatedFunction):
            assert all(type(v) is Fraction for pair in got.pairs for v in pair)
