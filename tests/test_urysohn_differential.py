"""The integer-coded stage pipeline against the Fraction reference it
replaced (tests/urysohn_reference.py).

Sixty seeded distance sets that pass the 4-values check, with 1-3 positive
values over denominators 1, 2, 3 and 7, budgets 8 and 15 and bounds 1-3.
Spaces, logs, saturation flags, class lists (order included) and the first
universality and homogeneity witnesses must all be equal.
"""

import random
from fractions import Fraction

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
    max_size = 4 if len(values) <= 3 else 3
    got = enumerate_spaces_up_to_isometry(values, max_size)
    assert got == ref.enumerate_spaces_up_to_isometry(values, max_size)
    assert all(type(v) is Fraction for X in got for row in X.dist for v in row)
