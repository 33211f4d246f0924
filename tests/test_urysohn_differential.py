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
"""

import random
from fractions import Fraction
from math import lcm

import pytest

import urysohn_reference as ref
from distset.metric import subspace
from distset.urysohn import (
    enumerate_spaces_up_to_isometry,
    four_values_check,
    urysohn_stage,
    verify_one_point_homogeneity,
    verify_universality,
)


def _cases(count: int, seed: int = 20180918) -> list:
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        size = rng.randint(1, 3)
        values = {Fraction(0)} | {
            Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 7))) for _ in range(size)
        }
        if not four_values_check(values)[0]:
            continue
        budget = rng.choice((8, 15))
        cases.append((frozenset(values), budget, rng.randint(1, 3), rng.randint(1, 3)))
    return cases


CASES = _cases(60)


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
