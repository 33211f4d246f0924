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
unmet-demand frontier and the greedy completion, patched into the
reference's copy of urysohn_stage: the scan that rebuilds every subset's
realized patterns, the per-key pair counts and the depth-first completion.
Over a set that passes the 4-values check that search never backtracks, so
both must pick the same values; with the check patched out, a set that
fails it must raise InvariantViolation. The same stages and a thousand more
(3-9 values, budgets 10-60, bounds 1-4) are compared with the Counter pair
counts the growth index replaced. Canonical keys, the universality coding
of a U with distances outside A, and the homogeneity patterns are compared
with their references on their own.

Universality along the class tree is compared with the reference on every
large stage at s = 1-4 and on shapes the stages miss: a U where the tree's
extension fails but find_embedding finds a map, a U with distances outside
A or on another scale, and s > U.n; every image the tree records must keep
distances. A saturated stage never calls find_embedding; a failing one does.
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
from distset.oracles import find_embedding
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
    """The stage on the integer kernels it had before the frontier and the
    greedy completion, driven by the reference's copy of urysohn_stage."""

    def rescan(dist, n, positive, j_max, *frontier):
        return ref.int_first_unmet_demand(dist, n, positive, j_max, set())

    with monkeypatch.context() as m:
        m.setattr(ref, "first_unmet_demand", rescan)
        m.setattr(ref, "counter_add_point", ref.int_add_point)
        m.setattr(ref, "counter_complete_new_point", ref.int_complete_new_point)
        return ref.counter_urysohn_stage(values, budget, eb, hb)


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


# --- the growth index against the Counter pair counts ----------------------------


def _seeded_stages(count: int, seed: int = 20181021) -> list:
    """count seeded stages over 3-9 values that pass the 4-values check (on
    the int codes v * 42), at budgets 10-60 and both bounds 1-4."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        size = rng.randint(3, 9)
        values = {Fraction(0)}
        while len(values) < size:
            values.add(Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 7))))
        if four_values_check({int(v * 42) for v in values})[0]:
            cases.append((frozenset(values), rng.randint(10, 60), rng.randint(1, 4), rng.randint(1, 4)))
    return cases


SEEDED_STAGES = _seeded_stages(1000)
CHUNK = 50


def test_seeded_stages_cover_the_stated_ranges():
    assert {len(values) for values, *_ in SEEDED_STAGES} == set(range(3, 10))
    assert {budget for _, budget, _, _ in SEEDED_STAGES} == set(range(10, 61))
    assert {eb for *_, eb, _ in SEEDED_STAGES} == {hb for *_, hb in SEEDED_STAGES} == {1, 2, 3, 4}


def _assert_same_stage(got, case):
    want = ref.counter_urysohn_stage(*case)
    assert got.log == want.log
    assert got.saturated == want.saturated
    assert got.space == want.space


@pytest.mark.parametrize("case", range(len(LARGE_CASES)))
def test_indexed_stage_matches_counter_reference(case):
    _assert_same_stage(_large_stage(case), LARGE_CASES[case])


@pytest.mark.parametrize("chunk", range(len(SEEDED_STAGES) // CHUNK))
def test_indexed_stage_matches_counter_reference_on_seeded_stages(chunk):
    for case in SEEDED_STAGES[chunk * CHUNK : (chunk + 1) * CHUNK]:
        _assert_same_stage(urysohn_stage(*case), case)


# --- universality along the class tree --------------------------------------------

# a space over {0, 1, 2} where the tree places the pair at 1 on points 0 and
# 1, from which no point is at 1 and 2; the path 1, 1, 2 still embeds, on
# (1, 0, 3), and the class (1, 2, 2) is missing
DETOUR = validate_metric([[0, 1, 1, 2], [1, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]])
ZERO_ONE_TWO = frozenset(map(Fraction, (0, 1, 2)))


def _halves():
    return urysohn_stage(frozenset(Fraction(v, 2) for v in range(5)), 40, 3, 2).space


def _large(case: int):
    return lambda: _large_stage(case).space


# (a thunk for U, A, s); stages are grown when a test runs, not at collection
UNIVERSALITY_TREE_CASES = [
    (_large(case), LARGE_CASES[case][0], s) for case in range(len(LARGE_CASES)) for s in (1, 2, 3, 4)
] + [
    (lambda: DETOUR, ZERO_ONE_TWO, 3),
    (_large(3), frozenset(map(Fraction, (0, 1, 3))), 3),  # U over {0, 1, 3, 7} realizes 7
    (_large(3), frozenset(map(Fraction, (0, 3, 7))), 4),
    (_halves, ZERO_ONE_TWO, 3),  # A on scale 1, U on scale 2
    (_halves, frozenset(map(Fraction, ("0", "1/3", "1/2", "1"))), 2),
    (lambda: validate_metric([[0, 1], [1, 0]]), frozenset(map(Fraction, (0, 1))), 3),  # s > U.n
]


def _reference_universality(U, A, s):
    """ref.verify_universality, or where its brute-force listing of all
    |A|^(s(s-1)/2) matrices takes minutes (s = 4 past 3 positive values),
    the listing by one-point extension that the class tree replaced."""
    if s <= 3 or len(A) <= 4:
        return ref.verify_universality(U, A, s)
    return ref.listing_verify_universality(U, A, s)


@pytest.mark.parametrize("case", range(len(UNIVERSALITY_TREE_CASES)))
def test_universality_tree_matches_reference(case):
    space, A, s = UNIVERSALITY_TREE_CASES[case]
    U = space()
    assert verify_universality(U, A, s) == _reference_universality(U, A, s)
    for scale, rows, image in urysohn._class_embeddings(U, A, s):
        if image is not None:
            assert len(set(image)) == len(image)
            for i, j in itertools.combinations(range(len(rows)), 2):
                assert U.dist[image[i]][image[j]] == Fraction(rows[i][j], scale)


def _counted_fallback(monkeypatch) -> list:
    """The results of the find_embedding calls urysohn makes from now on."""
    results = []

    def counted(*args, **kwargs):
        results.append(find_embedding(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(urysohn, "find_embedding", counted)
    return results


def test_the_fallback_finds_a_map_the_tree_misses(monkeypatch):
    fallback = _counted_fallback(monkeypatch)
    ok, missing = verify_universality(DETOUR, ZERO_ONE_TWO, 3)
    assert fallback == [(1, 0, 3), None]
    assert not ok and missing == validate_metric([[0, 1, 2], [1, 0, 2], [2, 2, 0]])


SATURATED = {
    "0-1-3-7_to_27": (LARGE_CASES[3], 27),
    "0-1-3_to_16": ((frozenset(map(Fraction, (0, 1, 3))), 60, 3, 3), 16),
}


@pytest.mark.parametrize("name", SATURATED)
def test_a_saturated_stage_never_falls_back(name, monkeypatch):
    # Katetov: the parent's image is a subset of at most embed_bound - 1
    # points, and a saturated stage realizes every extension over it
    (values, budget, eb, hb), size = SATURATED[name]
    stage = urysohn_stage(values, budget, eb, hb)
    assert stage.saturated and stage.space.n == size
    fallback = _counted_fallback(monkeypatch)
    assert verify_universality(stage.space, values, eb) == (True, None)
    assert fallback == []


def test_a_failing_embed4_stage_falls_back(monkeypatch):
    values = frozenset(map(Fraction, (0, 1, 2, 5)))
    stage = urysohn_stage(values, 20, 4, 2)
    fallback = _counted_fallback(monkeypatch)
    ok, missing = verify_universality(stage.space, values, 4)
    assert not ok and missing.n == 4
    assert fallback and fallback[-1] is None
