"""The integer-coded stage pipeline against the Fraction reference it
replaced (tests/urysohn_reference.py).

Sixty seeded distance sets that pass the 4-values check, with 1-3 positive
values over denominators 1, 2, 3 and 7, budgets 8 and 15 and bounds 1-3.
Spaces, logs, saturation flags, class lists (order included) and the first
universality and homogeneity witnesses must all be equal. Class lists are
compared up to 5 points for sets with at most 2 positive values and up to 3
for the rest (the reference is too slow beyond that), and on two dense sets.
The 4-values check is compared on its own over wider seeded sets, on
Fractions and on the integer codes a stage passes it.

Stages too large for the Fraction pipeline (budgets up to 150, twenty
seeded sets at budgets 20-60, and twenty-four with 4-9 positive values at
budgets 20-40) are replayed with the integer kernels that came before the
unmet-demand frontier and the greedy completion, patched into urysohn_stage:
the scan that rebuilds every subset's realized patterns, the per-key pair
counts and the depth-first completion. Over a set that passes the 4-values
check that search never backtracks, so both must pick the same values; with
the check patched out, a set that fails it must raise InvariantViolation.
Canonical keys, the universality coding of a U with distances outside A,
and the homogeneity patterns are compared with their references on their
own.
"""

import itertools
import random
from fractions import Fraction
from functools import cache
from math import lcm

import pytest

import distset.urysohn as urysohn
import urysohn_reference as ref
from distset.errors import InvariantViolation
from distset.metric import FiniteMetricSpace, subspace, validate_metric
from distset.rationals import _codes
from distset.urysohn import (
    _canonical_key,
    _extension_patterns,
    enumerate_spaces_up_to_isometry,
    four_values_check,
    urysohn_stage,
    verify_one_point_homogeneity,
    verify_universality,
)


def _cases(count: int, seed: int = 20180918, budgets=lambda rng: rng.choice((8, 15))) -> list:
    """count seeded (values, budget, embed bound, homog bound) whose values
    pass the 4-values check; at most 100 * count draws, so a broken check
    gives a short list (test_cases_are_the_pinned_draws) instead of a hang."""
    rng = random.Random(seed)
    cases = []
    for _ in range(100 * count):
        if len(cases) == count:
            break
        size = rng.randint(1, 3)
        values = {Fraction(0)} | {
            Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 7))) for _ in range(size)
        }
        if not four_values_check(values)[0]:
            continue
        budget = budgets(rng)
        cases.append((frozenset(values), budget, rng.randint(1, 3), rng.randint(1, 3)))
    return cases


CASES = _cases(60)


def test_cases_are_the_pinned_draws():
    assert len(CASES) == 60, f"only {len(CASES)} of 60 drawn sets pass the 4-values check"
    assert CASES[0] == (frozenset({Fraction(0), Fraction(9, 2)}), 8, 1, 3)


def test_cases_cover_the_stated_ranges():
    denominators = {v.denominator for values, *_ in CASES for v in values}
    assert denominators == {1, 2, 3, 7}
    assert {len(values) - 1 for values, *_ in CASES} == {1, 2, 3}
    assert {budget for _, budget, _, _ in CASES} == {8, 15}
    assert {eb for *_, eb, _ in CASES} == {hb for *_, hb in CASES} == {1, 2, 3}


@pytest.mark.parametrize("case", range(len(CASES)))
def test_stage_pipeline_matches_fraction_reference(case):
    values, budget, eb, hb = CASES[case]
    got = urysohn_stage(values, budget, eb, hb)
    want = ref.urysohn_stage(values, budget, eb, hb)
    assert got.space == want.space
    assert got.saturated == want.saturated
    assert got.log == want.log
    assert all(type(v) is Fraction for row in got.space.dist for v in row)
    assert all(type(v) is Fraction for row in got.log for v in row)

    assert verify_universality(got.space, values, eb) == ref.verify_universality(
        want.space, values, eb
    )
    assert verify_one_point_homogeneity(got.space, hb) == ref.verify_one_point_homogeneity(
        want.space, hb
    )

    # a four-point prefix often misses a class, so first missing classes are compared too
    prefix = subspace(got.space, range(min(got.space.n, 4)))
    s = max(eb, 2)
    assert verify_universality(prefix, values, s) == ref.verify_universality(prefix, values, s)
    assert verify_one_point_homogeneity(prefix, hb) == ref.verify_one_point_homogeneity(prefix, hb)


@pytest.mark.parametrize("case", range(0, len(CASES), 6))
def test_class_listing_matches_fraction_reference(case):
    values = CASES[case][0]
    max_size = 5 if len(values) <= 3 else 3
    got = enumerate_spaces_up_to_isometry(values, max_size)
    assert got == ref.enumerate_spaces_up_to_isometry(values, max_size)
    assert all(type(v) is Fraction for X in got for row in X.dist for v in row)


@pytest.mark.parametrize(
    "values, max_size", [((0, 1, 2), 5), ((0, 1, 2, 3), 4)], ids=["0-1-2_to_5", "0-1-2-3_to_4"]
)
def test_class_listing_matches_fraction_reference_on_dense_sets(values, max_size):
    # the seeded sets admit few classes each; here every size has many, so
    # the order of classes within a size is tested too
    values = frozenset(Fraction(v) for v in values)
    got = enumerate_spaces_up_to_isometry(values, max_size)
    assert got == ref.enumerate_spaces_up_to_isometry(values, max_size)


# sets whose first failure closes a degenerate triangle, x = |a - b| or
# x = c + d: a strict bound there changes the witness, and random sets
# rarely hit that
DEGENERATE_WITNESS_SETS = (
    ("2", "9/2", "9", "11"),
    ("1/3", "1", "3", "6", "7"),
    ("11/7", "9/2", "9", "10"),
    ("1/3", "1/2", "2/3", "1", "9/7"),
)


def _four_values_sets(count: int, seed: int = 20180919) -> list:
    rng = random.Random(seed)
    sets = [frozenset(Fraction(v) for v in (0, *(3**i for i in range(k)))) for k in range(1, 6)]
    sets += [frozenset(map(Fraction, values)) for values in DEGENERATE_WITNESS_SETS]
    while len(sets) < count:
        sets.append(
            frozenset(
                Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 7)))
                for _ in range(rng.randint(1, 9))
            )
        )
    return sets


FOUR_VALUES_SETS = _four_values_sets(150)


def test_four_values_sets_cover_both_verdicts():
    verdicts = [ref.four_values_check(values)[0] for values in FOUR_VALUES_SETS]
    assert 20 <= verdicts.count(True) and 20 <= verdicts.count(False)
    assert {len(values) for values in FOUR_VALUES_SETS} >= set(range(1, 10))


@pytest.mark.parametrize("case", range(len(FOUR_VALUES_SETS)))
def test_four_values_check_matches_fraction_reference(case):
    values = FOUR_VALUES_SETS[case]
    assert four_values_check(values) == ref.four_values_check(values)
    # a stage checks the int codes v * L, L the lcm of the denominators
    scale = lcm(*(v.denominator for v in values))
    codes = {int(v * scale) for v in values}
    got = four_values_check(codes)
    assert got == ref.four_values_check(codes)
    assert all(type(v) is int for v in got[1] or ())


# --- stages past the Fraction reference's reach --------------------------------

LARGE_STAGES = [
    ((0, 1, 2), 60, 4, 2),
    ((0, 1, 2, 3), 150, 3, 2),
    ((0, 1, 2), 40, 3, 3),
    ((0, 1, 3, 7), 60, 3, 2),  # saturates at 27 points
]


def _many_valued_cases(count: int, seed: int = 20181020) -> list:
    """count seeded sets with 4-9 distinct positive values, cycling through
    the sizes, that pass the 4-values check, at budgets 20-40 and bounds
    (3, 2), (2, 1) or (4, 2). Sets this large rarely pass the check, and
    their completion intervals hold more values, so the ranking and its ties
    decide more choices. The check runs on the int codes v * 42 (42 is the
    lcm of the denominators drawn): the Fraction loop takes seconds here."""
    rng = random.Random(seed)
    cases = []
    for _ in range(100 * count):
        if len(cases) == count:
            break
        positive = set()
        while len(positive) < 4 + len(cases) % 6:
            positive.add(Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 7))))
        values = frozenset({Fraction(0), *positive})
        if four_values_check({int(v * 42) for v in values})[0]:
            cases.append((values, rng.randint(20, 40), *rng.choice(((3, 2), (2, 1), (4, 2)))))
    return cases


MANY_VALUED_CASES = _many_valued_cases(24)
LARGE_CASES = (
    [(frozenset(Fraction(v) for v in values), *rest) for values, *rest in LARGE_STAGES]
    + _cases(20, seed=20181018, budgets=lambda rng: rng.randint(20, 60))
    + MANY_VALUED_CASES
)


def _int_reference_stage(monkeypatch, values, budget, eb, hb):
    """urysohn_stage run on the integer kernels it had before the frontier
    and the greedy completion."""

    def rescan(dist, n, positive, j_max, *frontier):
        return ref.int_first_unmet_demand(dist, n, positive, j_max, set())

    with monkeypatch.context() as m:
        m.setattr(urysohn, "_first_unmet_demand", rescan)
        m.setattr(urysohn, "_add_point", ref.int_add_point)
        m.setattr(urysohn, "_complete_new_point", ref.int_complete_new_point)
        return urysohn_stage(values, budget, eb, hb)


@cache
def _large_stage(case: int):
    return urysohn_stage(*LARGE_CASES[case])


def test_large_cases_cover_the_stated_ranges():
    seeded = LARGE_CASES[len(LARGE_STAGES) : -len(MANY_VALUED_CASES)]
    assert len(seeded) == 20
    assert {budget for _, budget, _, _ in seeded} <= set(range(20, 61))
    assert {eb for *_, eb, _ in seeded} == {hb for *_, hb in seeded} == {1, 2, 3}
    assert _large_stage(3).space.n == 27 and _large_stage(3).saturated
    assert _large_stage(1).space.n == 150 and not _large_stage(1).saturated

    assert len(MANY_VALUED_CASES) == 24
    assert [len(values) - 1 for values, *_ in MANY_VALUED_CASES] == [4, 5, 6, 7, 8, 9] * 4
    assert {budget for _, budget, _, _ in MANY_VALUED_CASES} <= set(range(20, 41))
    assert {(eb, hb) for *_, eb, hb in MANY_VALUED_CASES} == {(3, 2), (2, 1), (4, 2)}


@pytest.mark.parametrize("case", range(len(LARGE_CASES)))
def test_frontier_stage_matches_int_reference(case, monkeypatch):
    got = _large_stage(case)
    want = _int_reference_stage(monkeypatch, *LARGE_CASES[case])
    assert got.log == want.log
    assert got.saturated == want.saturated
    assert got.space == want.space


def test_an_uncompletable_demand_is_an_invariant_violation(monkeypatch):
    # {0, 1, 2, 4} fails the 4-values check; passed anyway, a stage meets a
    # demand whose completion has an empty interval, and says so
    monkeypatch.setattr(urysohn, "four_values_check", lambda values: (True, None))
    values = frozenset(Fraction(v) for v in (0, 1, 2, 4))
    with pytest.raises(InvariantViolation, match=r"realizes g = \(1\) on \(6,\)$"):
        urysohn_stage(values, 40, 3, 2)


@pytest.mark.parametrize("case", range(len(LARGE_STAGES)))
@pytest.mark.parametrize("k", (2, 3))
def test_homogeneity_matches_reference_on_large_stages(case, k):
    space = _large_stage(case).space
    assert verify_one_point_homogeneity(space, k) == ref.verify_one_point_homogeneity(space, k)


@pytest.mark.parametrize("case", range(len(LARGE_STAGES)))
def test_extension_patterns_leave_out_the_tuples_own_points(case):
    # pinned: the set holds only outside points' patterns, as the reference's
    space = subspace(_large_stage(case).space, range(12))
    _, d = _codes(space.dist)
    for j in (1, 2, 3):
        for tup in itertools.permutations(range(space.n), j):
            assert _extension_patterns(d, tup) == ref._extension_patterns(d, space.n, tup)


# --- canonical keys -------------------------------------------------------------


def _int_matrices(count: int, seed: int = 20181019) -> list:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 1 + i % 6
        top = rng.choice((2, 3, 5))  # few values, so relabelings tie often
        rows = [[0] * n for _ in range(n)]
        for a, b in itertools.combinations(range(n), 2):
            rows[a][b] = rows[b][a] = rng.randint(1, top)
        out.append(rows)
    return out


KEY_MATRICES = _int_matrices(120)


@pytest.mark.parametrize("case", range(len(KEY_MATRICES)))
def test_canonical_key_matches_brute_force(case):
    dist = KEY_MATRICES[case]
    assert _canonical_key(dist) == ref.int_canonical_key(dist)


# --- universality on codes ------------------------------------------------------


def test_universality_codes_distances_outside_a():
    # 3/4 is not in A; scaled by A's lcm 6 alone it would code as 3, which
    # is 1/2's code, and the missing two-point space at 1/2 would embed
    A = frozenset(Fraction(v) for v in ("0", "1/3", "1/2"))
    U = validate_metric([["0", "1/3", "3/4"], ["1/3", "0", "3/4"], ["3/4", "3/4", "0"]])
    want = ref.verify_universality(U, A, 2)
    assert want == (False, FiniteMetricSpace(2, ((0, Fraction(1, 2)), (Fraction(1, 2), 0))))
    assert verify_universality(U, A, 2) == want


UNIVERSALITY_CASES = [
    (values, budget, s, drop)
    for values, budget, _, s in CASES[:30]
    if len(values) >= 3
    for drop in (1, 2)
]


@pytest.mark.parametrize("case", range(len(UNIVERSALITY_CASES)))
def test_universality_on_a_superset_stage_matches_reference(case):
    # U is a stage over a superset of A, so it realizes distances outside A
    values, budget, s, drop = UNIVERSALITY_CASES[case]
    A = frozenset(sorted(values)[:drop]) | {max(values)}
    U = urysohn_stage(values, budget, 3, 1).space
    assert verify_universality(U, A, s) == ref.verify_universality(U, A, s)
