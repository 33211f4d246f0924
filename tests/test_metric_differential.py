"""The integer detour kernels of distset.metric against the triple loops they
replaced (tests/metric_reference.py).

Seeded matrices with n from 1 to 30 and denominators 1, 2, 3 and 7. Entries
come from [m, 2m], where every triangle holds, and some are drawn wider to
break triangles. Some matrices get a planted nonzero diagonal, asymmetric
pair or non-positive entry. Each goes through validate_metric as rationals
and through _check_metric as raw ints (the code path of urysohn_stage); the
exception class and its witness indices must equal the reference's.
is_ultrametric is compared on every matrix that passes the first checks,
and on planted ultrametrics with and without one broken pair. Hand-made
matrices at the edge of the whole-matrix accept (no distance above twice
the least) are compared too.

The packed-row accept is compared on L1 spaces past that accept: 2 top at
and just past a power of two, codes above 2^64, 3 points and 80, each as
drawn and with one entry moved by one. Its verdict must be the triple
loop's, and it must test exactly the pairs its filter keeps.
"""

import math
import random
from fractions import Fraction
from functools import cache
from math import lcm

import pytest

import metric_reference as ref
from distset import metric
from distset.errors import DistSetError, TriangleViolation
from distset.metric import (
    FiniteMetricSpace,
    _check_metric,
    is_ultrametric,
    validate_metric,
)
from distset.rationals import format_rational, rat

DENOMINATORS = (1, 2, 3, 7)
SEED = 20180918


def _entry(rng, m, den, wide):
    if wide:
        return Fraction(rng.randint(1, 5 * m * den), den)
    return Fraction(rng.randint(m * den, 2 * m * den), den)


def _matrix(rng, n, dens, wide_share, plant):
    """A symmetric matrix with zero diagonal, then at most one planted defect."""
    m = rng.randint(1, 6)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = _entry(rng, m, rng.choice(dens), rng.random() < wide_share)
            rows[i][j] = rows[j][i] = v
    if plant == "diagonal":
        i = rng.randrange(n)
        rows[i][i] = Fraction(rng.choice((-1, 1)), rng.choice(dens))
    elif plant == "asymmetry" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i][j] += Fraction(1, rng.choice(dens))
    elif plant == "nonpositive" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = Fraction(-rng.randint(0, 2), rng.choice(dens))
    return rows


def _ultrametric(rng, n, dens):
    """Points at distinct leaves of a binary tree; distance by split level."""
    depth = max(1, n.bit_length())
    levels = sorted({Fraction(rng.randint(1, 40), rng.choice(dens)) for _ in range(depth + 4)})
    levels = levels[::-1][: depth + 1]
    while len(levels) < depth + 1:
        levels.append(levels[-1] / 2)
    leaves = rng.sample(range(2 ** depth), n)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            split = depth - (leaves[i] ^ leaves[j]).bit_length()
            rows[i][j] = rows[j][i] = levels[split]
    if n > 2 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] * Fraction(rng.choice((2, 3)), rng.choice((1, 2, 3)))
    return rows


def _cases(count, seed=SEED):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 30) if rng.random() < 0.3 else rng.randint(1, 12)
        dens = rng.choice((DENOMINATORS, (1,), (rng.choice(DENOMINATORS),)))
        wide_share = rng.choice((0.0, 0.0, 0.02, 0.1, 0.3))
        plant = rng.choice((None, None, None, "diagonal", "asymmetry", "nonpositive"))
        cases.append(_matrix(rng, n, dens, wide_share, plant))
    return cases


def _ultrametric_cases(count, seed=SEED):
    rng = random.Random(seed)
    return [_ultrametric(rng, rng.randint(1, 20), DENOMINATORS) for _ in range(count)]


def _outcome(check, matrix):
    """(error class name, witness indices), or None when the check passes."""
    try:
        check(matrix)
    except DistSetError as exc:
        return type(exc).__name__, tuple(getattr(exc, a) for a in "ijk" if hasattr(exc, a))
    return None


def _reference_validate(matrix):
    ref._check_metric([[rat(v) for v in row] for row in matrix])


def _int_codes(matrix):
    scale = lcm(*(v.denominator for row in matrix for v in row))
    return [[int(v * scale) for v in row] for row in matrix]


CASES = _cases(1200)
ULTRA = _ultrametric_cases(120)


@cache
def _reference(index):
    return _outcome(_reference_validate, CASES[index])


def _mixed_types(rng, matrix):
    """The same matrix with entries given as Fraction, int or 'p/q' text."""
    out = []
    for row in matrix:
        out.append([
            v if rng.random() < 0.4
            else format_rational(v) if rng.random() < 0.5 or v.denominator != 1
            else int(v)
            for v in row
        ])
    return out


def test_cases_cover_the_stated_ranges():
    sizes = {len(rows) for rows in CASES}
    assert sizes == set(range(1, 31))
    denominators = {v.denominator for rows in CASES for row in rows for v in row}
    assert set(DENOMINATORS) <= denominators
    names = [o[0] for o in map(_reference, range(len(CASES))) if o]
    for name in ("NonzeroDiagonal", "AsymmetricMatrix", "NonpositiveOffDiagonal"):
        assert names.count(name) >= 50, name
    assert names.count("TriangleViolation") >= 200
    assert len(names) < len(CASES) - 300  # plenty of valid spaces too
    big = [_reference(i) for i, rows in enumerate(CASES) if len(rows) > 12]
    assert big.count(None) >= 30 and len(big) - big.count(None) >= 30


def test_triangle_witnesses_are_not_all_the_cheapest_detour():
    # A kernel that reports the argmin of row_i + row_j instead of
    # re-scanning k in order must disagree on some case.
    differs = 0
    for index, rows in enumerate(CASES):
        outcome = _reference(index)
        if outcome and outcome[0] == "TriangleViolation":
            i, j, k = outcome[1]
            sums = [rows[i][t] + rows[t][j] for t in range(len(rows))]
            differs += sums.index(min(sums)) != k
    assert differs >= 20


@pytest.mark.parametrize("batch", range(12))
def test_validate_metric_matches_triple_loop(batch):
    rng = random.Random(SEED + batch)
    for index in range(batch, len(CASES), 12):
        rows = CASES[index]
        given = _mixed_types(rng, rows)
        assert _outcome(validate_metric, given) == _reference(index), index


@pytest.mark.parametrize("batch", range(12))
def test_int_check_matches_triple_loop(batch):
    for index in range(batch, len(CASES), 12):
        codes = _int_codes(CASES[index])
        assert all(type(v) is int for row in codes for v in row)
        want = _outcome(ref._check_metric, codes)
        assert _outcome(_check_metric, codes) == want, index
        assert _outcome(validate_metric, codes) == want, index


def test_valid_results_keep_fractions():
    for index, rows in enumerate(CASES[:200]):
        if _reference(index) is None:
            X = validate_metric(rows)
            assert X.dist == tuple(tuple(row) for row in rows)
            assert all(type(v) is Fraction for row in X.dist for v in row)


def test_is_ultrametric_matches_triple_loop():
    checked = [
        rows for index, rows in enumerate(CASES)
        if _reference(index) is None or _reference(index)[0] == "TriangleViolation"
    ]
    spaces = [FiniteMetricSpace(len(rows), tuple(map(tuple, rows))) for rows in checked + ULTRA]
    verdicts = [ref.is_ultrametric(X) for X in spaces]
    assert sum(verdicts) >= 60 and verdicts.count(False) >= 60
    for X, want in zip(spaces, verdicts):
        assert is_ultrametric(X) == want, X.dist


def test_triangle_witness_is_the_first_detour_not_the_cheapest():
    # Row 0 holds; (1, 2) fails through k = 0 and, more cheaply, through
    # k = 3. The row-major scan reports k = 0.
    d = [
        [0, 2, 2, 2],
        [2, 0, 5, 1],
        [2, 5, 0, 1],
        [2, 1, 1, 0],
    ]
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(d)
    assert (exc.value.i, exc.value.j, exc.value.k) == (1, 2, 0)
    with pytest.raises(TriangleViolation) as ref_exc:
        ref._check_metric(d)
    assert (ref_exc.value.i, ref_exc.value.j, ref_exc.value.k) == (1, 2, 0)


F = Fraction
# the whole-matrix accept: no distance above twice the least
SPREAD_EDGES = {
    "n = 1": [[0]],
    "n = 2": [[0, 5], [5, 0]],
    "max exactly 2 min": [[0, 3, 6, 5], [3, 0, 3, 4], [6, 3, 0, 6], [5, 4, 6, 0]],
    "max exactly 2 min, fractions": [
        [F(0), F(1, 3), F(2, 3)], [F(1, 3), F(0), F(1, 2)], [F(2, 3), F(1, 2), F(0)]
    ],
    "2 min + 1 breaks a triangle": [[0, 3, 4, 3], [3, 0, 3, 7], [4, 3, 0, 4], [3, 7, 4, 0]],
    "2 min + 1, every triangle holds": [[0, 4, 7], [4, 0, 3], [7, 3, 0]],
    "asymmetric inside the window": [[0, 3, 4], [3, 0, 5], [5, 5, 0]],
    "zero off the diagonal": [[0, 0], [0, 0]],
    "nonzero diagonal inside the window": [[2, 2], [2, 0]],
}
WITHIN_TWICE_THE_LEAST = ("n = 1", "n = 2", "max exactly 2 min", "max exactly 2 min, fractions")


@pytest.mark.parametrize("name", SPREAD_EDGES)
def test_spread_edges_match_triple_loop(name):
    rows = [list(map(F, row)) for row in SPREAD_EDGES[name]]
    want = _outcome(_reference_validate, rows)
    assert _outcome(validate_metric, rows) == want
    codes = _int_codes(rows)
    assert _outcome(_check_metric, codes) == _outcome(ref._check_metric, codes) == want
    if name == "2 min + 1 breaks a triangle":
        assert want == ("TriangleViolation", (1, 3, 0))


def test_within_twice_the_least_distance_no_pair_is_scanned(monkeypatch):
    monkeypatch.setattr(metric, "compress", None)  # the per-pair filter
    for name in WITHIN_TWICE_THE_LEAST:
        _check_metric(_int_codes([list(map(F, row)) for row in SPREAD_EDGES[name]]))
    with pytest.raises(TypeError):  # one distance more, and the pairs are scanned
        _check_metric(SPREAD_EDGES["2 min + 1, every triangle holds"])


# --- the packed-row accept ------------------------------------------------------


def _l1(rng, n, dims, top):
    """At most n distinct points of a box whose L1 diameter is top, two of
    them opposite corners: integer codes whose greatest entry is exactly top."""
    sides = [top // dims + (k < top % dims) for k in range(dims)]
    points = {tuple(0 for _ in sides): None, tuple(sides): None}
    volume = math.prod(s + 1 for s in sides)
    while len(points) < min(n, volume):
        points[tuple(rng.randint(0, s) for s in sides)] = None
    return [[sum(abs(a - b) for a, b in zip(p, q)) for q in points] for p in points]


def _perturbed(rng, rows):
    """rows with one pair moved by one, up or down, and still positive."""
    rows = [list(row) for row in rows]
    i, j = rng.sample(range(len(rows)), 2)
    rows[i][j] = rows[j][i] = max(1, rows[i][j] + rng.choice((-1, 1)))
    return rows


def _packed_cases(seed=SEED):
    """(name, integer codes), most of them past the whole-matrix accept: L1
    spaces with 2 top at and just past a power of two, with codes above
    2^64, on 3 points and on 80, each as drawn and with one entry moved by
    one."""
    rng = random.Random(seed)
    shapes = []
    for m in (3, 4, 5, 6, 9):  # 2 top = 2^m, and 2^m + 2
        shapes += [(f"2top=2^{m}", 12, 2**m // 2), (f"2top=2^{m}+2", 12, 2**m // 2 + 1)]
    shapes += [("n=3", 3, 7), ("n=3", 3, 16), ("n=80", 80, 40), ("n=80", 80, 33)]
    cases = []
    for name, n, top in shapes:
        for dims in (1, 2, 3):
            rows = _l1(rng, n, dims, top)
            cases += [(name, rows), (name + " perturbed", _perturbed(rng, rows))]
    big = 2**64 + 13  # codes past a machine word
    for name, rows in cases[:12]:
        cases.append((name + " times 2^64+13", [[v * big for v in row] for row in rows]))
    return cases


PACKED_CASES = _packed_cases()


def _triangles_hold(rows):
    """metric._triangles_hold on rows, as _check_metric calls it."""
    low = [min(filter(None, row), default=0) for row in rows]
    return metric._triangles_hold(rows, low, max(map(max, rows)))


@cache
def _packed_reference(index):
    return _outcome(ref._check_metric, PACKED_CASES[index][1])


def test_packed_cases_pass_and_fail_past_the_accept():
    kinds = []
    for case, (name, rows) in enumerate(PACKED_CASES):
        top = max(map(max, rows))
        if name.startswith("2top=") and "perturbed" not in name and "times" not in name:
            m, _, plus = name[len("2top=2^"):].partition("+")
            assert 2 * top == 2 ** int(m) + int(plus or 0), name
        # within twice the least distance, the whole-matrix accept answers
        if top > 2 * min(v for row in rows for v in row if v):
            kinds.append((_packed_reference(case) or ("holds",))[0])
    assert kinds.count("holds") >= 40 and kinds.count("TriangleViolation") >= 20
    assert set(kinds) == {"holds", "TriangleViolation"}


@pytest.mark.parametrize("case", range(len(PACKED_CASES)))
def test_packed_accept_matches_triple_loop(case):
    name, rows = PACKED_CASES[case]
    want = _packed_reference(case)
    assert _outcome(_check_metric, rows) == want, name
    assert _triangles_hold(rows) == (want is None), name


def test_packed_accept_tests_only_the_pairs_its_filter_keeps(monkeypatch):
    # (i, k) with max(row_i) - low_k <= d(i, k) needs no test: every
    # d(i, j) <= max(row_i) <= d(i, k) + low_k <= d(i, k) + d(k, j). Each
    # tested pair multiplies d(i, k) by the ones word once.
    tested = []
    monkeypatch.setattr(metric, "mul", lambda a, b: tested.append(a) or a * b)
    for case, (name, rows) in enumerate(PACKED_CASES):
        if _packed_reference(case) is None:
            low = [min(filter(None, row), default=0) for row in rows]
            tested.clear()
            assert _triangles_hold(rows), name
            needed = [d for row in rows for d, m in zip(row, low) if max(row) - m > d]
            assert tested == needed, name
