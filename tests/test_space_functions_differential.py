"""The five space functions that read a space's codes against the Fraction
bodies they replaced: distance_spectrum and subspace (tests/metric_reference.py),
is_valid_katetov, katetov_extensions and extend_one_point
(tests/urysohn_reference.py, is_valid_katetov through _extends).

Seeded spaces of 0 to 5 points over denominators 1, 2, 3, 7 and 11, each
built one of six ways: validated; by hand as FiniteMetricSpace(n, dist) with
Fractions; by hand with integral entries as ints; with codes above 2^64;
as a subspace, coded on its parent's scale; and by hand with one planted
fault (a negative or zero entry off the diagonal, an asymmetric pair, a
nonzero diagonal entry, a pair too far apart), which katetov_extensions is
not given. Every space
has values tuples that are Katetov, random ones over its spectrum, 0, a
negative and values on unrelated denominators, and ones of the wrong arity;
the sets A for katetov_extensions are its spectrum with extra values, and
without 0 or without a realized distance. Results must be equal by == and
by hash, and errors must have the same type and message.
"""

import random
from fractions import Fraction
from itertools import chain

import pytest

import metric_reference as mref
import urysohn_reference as ref
from distset.errors import (
    AsymmetricMatrix,
    EmptySelection,
    IndexOutOfRange,
    InvariantViolation,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    SpectrumNotInA,
    TriangleViolation,
)
from distset.metric import FiniteMetricSpace, distance_spectrum, subspace, validate_metric
from distset.urysohn import KatetovFunction, extend_one_point, is_valid_katetov, katetov_extensions

SEED = 20180921
KINDS = ("validated", "fractions", "mixed", "big", "subspace", "faulty")
BIG = 2**64 + 1


def _metric(rng, n, den):
    """Shortest-path distances over random positive edge weights: a metric
    whose entries sit on denominators dividing den."""
    d = [[Fraction(0) if i == j else Fraction(rng.randint(1, 4 * den), den) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def _frozen(rows):
    return tuple(map(tuple, rows))


def _space(rng, case):
    kind, n = KINDS[case % len(KINDS)], case // len(KINDS) % 6
    den = rng.choice((1, 2, 3, 7, 11))
    if kind == "subspace":
        parent = validate_metric(_metric(rng, n + 2, den))
        return kind, subspace(parent, sorted(rng.sample(range(n + 2), max(n, 1))))
    rows = _metric(rng, n, den)
    if kind == "big":
        rows = [[v * BIG for v in row] for row in rows]
        return kind, validate_metric(rows) if n and case % 2 else FiniteMetricSpace(n, _frozen(rows))
    if kind == "validated" and n:
        return kind, validate_metric(rows)
    if kind == "mixed":
        rows = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
    if kind == "faulty" and n >= 2:
        i, j = rng.sample(range(n), 2)
        fault = rng.choice(("negative", "zero", "asymmetric", "diagonal", "triangle"))
        if fault == "triangle":  # a triangle breaks when n > 2
            rows[i][j] = rows[j][i] = 3 * max(map(max, rows))
        elif fault == "diagonal":
            rows[i][i] = Fraction(1, den)
        elif fault == "asymmetric":
            rows[i][j] += 1
        else:
            rows[i][j] = rows[j][i] = Fraction(-1 if fault == "negative" else 0)
    return kind, FiniteMetricSpace(n, _frozen(rows))


def _entries(X):
    return sorted(set(chain.from_iterable(X.dist)))


def _values_tuples(rng, X):
    """Katetov tuples, random tuples over the spectrum, 0, a negative and
    unrelated denominators, rows of X, and tuples of the wrong arity."""
    positive = [v for v in _entries(X) if v > 0] or [Fraction(1)]
    pool = positive + [Fraction(0), Fraction(-1), Fraction(1, 13), Fraction(22, 17), 3]
    out = [tuple(rng.choice(positive) for _ in range(X.n)) for _ in range(4)]
    out += [tuple(rng.choice(pool) for _ in range(X.n)) for _ in range(8)]
    out += [tuple(row) for row in X.dist[:2]]  # a point's own row: 0 and every triangle kept
    out += [tuple(positive[:1] * (X.n + 1)), tuple(positive[:1] * max(X.n - 1, 0))]
    if X.n and min(positive) > 0 and all(v >= 0 for row in X.dist for v in row):
        top = max(positive)  # the constant tuple at the largest value is Katetov
        out += [(top,) * X.n, tuple(v + top for v in X.dist[0])]
    return out


def _sets(rng, X):
    spectrum = set(_entries(X)) | {Fraction(0)}
    realized = sorted(spectrum - {0})
    extra = {Fraction(1, 13), Fraction(rng.randint(1, 40), rng.choice((5, 9)))}
    return [
        spectrum,
        spectrum | extra,
        spectrum - {0},
        spectrum - set(realized[-1:]) | extra,
        {int(v) if v.denominator == 1 else v for v in spectrum},
    ]


def _outcome(f, *args):
    try:
        got = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return got, hash(tuple(got) if type(got) is list else got)


CASES = range(len(KINDS) * 6 * 4)


@pytest.mark.parametrize("case", CASES)
def test_space_functions_match_fraction_references(case):
    rng = random.Random(SEED + case)
    kind, X = _space(rng, case)
    assert _outcome(distance_spectrum, X) == _outcome(mref.distance_spectrum, X)
    for indices in ([], [X.n], [-1], sorted(rng.sample(range(X.n), rng.randint(1, X.n))) if X.n else [0]):
        assert _outcome(subspace, X, indices) == _outcome(mref.subspace, X, indices)
    if X.n:
        picked = [rng.randrange(X.n) for _ in range(X.n + 1)]
        assert _outcome(subspace, X, picked) == _outcome(mref.subspace, X, picked)
    for values in _values_tuples(rng, X):
        assert _outcome(is_valid_katetov, X, values) == _outcome(ref.is_valid_katetov, X, values)
        g = KatetovFunction(X, values)
        assert _outcome(extend_one_point, X, g) == _outcome(ref.extend_one_point, X, g)
    if kind != "faulty":
        for A in _sets(rng, X):
            assert _outcome(katetov_extensions, X, A) == _outcome(ref.katetov_extensions, X, A)


def test_cases_cover_the_stated_ranges():
    kinds, sizes, verdicts, outcomes = set(), set(), set(), []
    big = 0
    for case in CASES:
        rng = random.Random(SEED + case)
        kind, X = _space(rng, case)
        kinds.add(kind)
        sizes.add(X.n)
        big += any(v > 2**64 for v in _entries(X))
        for values in _values_tuples(rng, X):
            verdicts.add(ref.is_valid_katetov(X, values))
            outcomes.append(_outcome(ref.extend_one_point, X, KatetovFunction(X, values))[0])
        if kind != "faulty":
            outcomes += [_outcome(ref.katetov_extensions, X, A)[0] for A in _sets(rng, X)]
        outcomes += [_outcome(mref.subspace, X, indices)[0] for indices in ([], [X.n])]
    errors = {got for got in outcomes if isinstance(got, type)}
    assert kinds == set(KINDS) and sizes == set(range(6)) and verdicts == {True, False}
    faults = {NonzeroDiagonal, AsymmetricMatrix, NonpositiveOffDiagonal, TriangleViolation}
    assert errors == {SpectrumNotInA, InvariantViolation, IndexOutOfRange, EmptySelection} | faults
    assert sum(type(got) is list and len(got) > 1 for got in outcomes) >= 50
    assert sum(type(got) is FiniteMetricSpace for got in outcomes) >= 200
    assert big >= 10


def test_fraction_references_see_the_edge_cases():
    # the hand-built empty space's spectrum is (0,), and a values tuple with
    # 0 that keeps every triangle is still refused
    empty = FiniteMetricSpace(0, ())
    assert distance_spectrum(empty) == mref.distance_spectrum(empty) == (Fraction(0),)
    pair = validate_metric([[0, 1], [1, 0]])
    assert ref._extends(pair.dist, range(2), (Fraction(0), Fraction(1)))
    assert not is_valid_katetov(pair, (Fraction(0), Fraction(1)))
    # the pair (0, 2) alone breaks a triangle: 1/2 + 1/2 < 2
    path = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    half = (Fraction(1, 2),) * 3
    assert ref._extends(path.dist, range(2), half[:2]) and ref._extends(path.dist, range(1, 3), half[:2])
    assert not is_valid_katetov(path, half) and not ref.is_valid_katetov(path, half)
