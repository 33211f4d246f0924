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
counts the growth index replaced, and the thousand stages' homogeneity
witnesses at k <= 2 with the Fraction reference's. That reference scans
with the dict frontier that the scan over the index replaced; on four of
the thousand and one stage over {0, 1, 2}, at homogeneity bound 4, both
scans run side by side and must find the same demand at every step. Canonical keys and the
universality coding of a U with distances outside A are compared with their
references on their own.

Homogeneity compares column sets, each tuple's own columns included; on the
twelve-point subspaces of the large stages a column set minus the own
columns must be the reference's outside patterns, and tuples at equal
distances must have equal own columns. Its witness is compared with the
reference's on 240 seeded spaces no stage grows (capped graph distances,
circulants and small subspaces of the large stages), which fail at j = 1,
2 and 3 or not at all.

Universality along the class tree is compared with the reference on every
large stage at s = 1-4 and on shapes the stages miss: a U where the tree's
extension fails but find_embedding finds a map, a U with distances outside
A or on another scale, and s > U.n; every image the tree records must keep
distances. A saturated stage never calls find_embedding; a failing one does.

The class tree, grown from the extension each class was first met as, is
compared with the keyed reference it replaced (ref.keyed_class_levels and
ref.keyed_verify_universality) on 240 seeded (A, s, U): U a stage over A
or over A and one more value, mostly unsaturated, or a subspace of one.
Each size's (key, parent) list, the verdict and the missing space must be
equal, each ext must be its parent's ext with the new point last, and each
image must keep distances. A class whose ext is not its key's rows is made
the first missing one on three sets, by a U of every class before it at a
distance outside A.

Every completion of the large stages and of one in twenty seeded stages runs
through both the interval-mask completion and the bisect-slice one it
replaced, which must give the same new point. Their free values include
forced single values, ties broken to the smallest value and unique best
values, each counted from the definitions; the uncompletable demand above
compares the None path.

The walk over the interval-mask table must list the same Katetov tuples, in
the same order, as the product filter it replaced (ref.product_katetov_tuples)
on 240 seeded coded spaces of 0-5 points over 1-5 positive values: small
integers, powers of ten such as {1, 10, 100}, where most tuples fail, and
codes above 2^64. katetov_extensions must give the old loop's list, order
and SpectrumNotInA on the same spaces over Fractions.
"""

import collections
import itertools
import random
from fractions import Fraction
from functools import cache
from math import lcm

import pytest

import distset.urysohn as urysohn
import urysohn_reference as ref
from distset.errors import InvariantViolation, SpectrumNotInA
from distset.metric import (
    FiniteMetricSpace,
    _coded_space,
    distance_spectrum,
    subspace,
    validate_metric,
)
from distset.oracles import find_embedding
from distset.rationals import _codes
from distset.urysohn import (
    _canonical_key,
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
    # demand whose completion has an empty interval, and says so, as the
    # completion it replaced does (_compared_completions, below)
    monkeypatch.setattr(urysohn, "four_values_check", lambda values: (True, None))
    calls = _compared_completions(monkeypatch)
    values = frozenset(Fraction(v) for v in (0, 1, 2, 4))
    with pytest.raises(InvariantViolation, match=r"realizes g = \(1\) on \(6,\)$"):
        urysohn_stage(values, 40, 3, 2)
    assert calls


@pytest.mark.parametrize("case", range(len(LARGE_STAGES)))
@pytest.mark.parametrize("k", (2, 3))
def test_homogeneity_matches_reference_on_large_stages(case, k):
    space = _large_stage(case).space
    assert verify_one_point_homogeneity(space, k) == ref.verify_one_point_homogeneity(space, k)


@pytest.mark.parametrize("case", range(len(LARGE_STAGES)))
def test_column_sets_are_the_reference_patterns_and_own_columns(case):
    # a tuple's column set is its outside points' patterns, as the
    # reference's, plus its own columns, which the tuple's distances fix
    space = subspace(_large_stage(case).space, range(12))
    _, d = _codes(space.dist)
    for j in (1, 2, 3):
        own_by_sig: dict = {}
        for tup in itertools.permutations(range(space.n), j):
            own = {tuple(d[t][e] for t in tup) for e in tup}
            columns = set(zip(*map(d.__getitem__, tup)))
            assert columns - own == ref._extension_patterns(d, space.n, tup)
            sig = tuple(d[a][b] for a, b in itertools.combinations(tup, 2))
            assert own_by_sig.setdefault(sig, own) == own


def _capped_graph_metric(n: int, edges, cap: int) -> list:
    """Graph distances on n points, capped at cap: a metric over 1..cap."""
    d = [[0 if i == j else 1 if {i, j} in edges else cap for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def _homogeneity_cases(count: int, seed: int = 20181022) -> list:
    """count seeded spaces that are not stages, cycling through three kinds:
    a random graph's distances capped at 2 or 3 (any {1, 2}-valued space is
    one); a circulant, the same on Z_m with an edge when x - y is in a
    random set, so every point looks alike and a failure comes at j = 2 or
    3; and 5-12 points of a large stage, as (stage, size, seed of the draw)."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n, cap = rng.randint(4, 9), rng.choice((2, 3))
        if i % 3 == 0:
            p = rng.uniform(0.3, 0.7)
            edges = [{x, y} for x, y in itertools.combinations(range(n), 2) if rng.random() < p]
            cases.append(("graph", _capped_graph_metric(n, edges, cap)))
        elif i % 3 == 1:
            steps = {s for s in range(1, n // 2 + 1) if rng.random() < 0.5} or {1}
            pairs = itertools.combinations(range(n), 2)
            edges = [{x, y} for x, y in pairs if {(y - x) % n, (x - y) % n} & steps]
            cases.append(("circulant", _capped_graph_metric(n, edges, cap)))
        else:
            draw = rng.randrange(len(LARGE_CASES)), rng.randint(5, 12), rng.random()
            cases.append(("stage", draw))
    return cases


HOMOGENEITY_CASES = _homogeneity_cases(240)


@cache
def _homogeneity_space(case: int) -> FiniteMetricSpace:
    kind, data = HOMOGENEITY_CASES[case]
    if kind == "stage":
        stage, size, seed = data
        space = _large_stage(stage).space
        return subspace(space, sorted(random.Random(seed).sample(range(space.n), min(size, space.n))))
    return validate_metric(data)


def test_homogeneity_cases_fail_at_every_level():
    levels = {kind: set() for kind in ("graph", "circulant", "stage")}
    for case, (kind, _) in enumerate(HOMOGENEITY_CASES):
        ok, witness = verify_one_point_homogeneity(_homogeneity_space(case), 3)
        levels[kind].add(0 if ok else len(witness[0]))
    assert levels["graph"] >= {1, 2} and levels["circulant"] == {0, 2, 3}
    assert set.union(*levels.values()) == {0, 1, 2, 3}
    spaces = map(_homogeneity_space, range(len(HOMOGENEITY_CASES)))
    assert {v for space in spaces for row in space.dist for v in row} > {0, 1, 2, 3}


@pytest.mark.parametrize("case", range(len(HOMOGENEITY_CASES)))
def test_homogeneity_matches_reference_on_spaces_no_stage_grows(case):
    space = _homogeneity_space(case)
    assert verify_one_point_homogeneity(space, 3) == ref.verify_one_point_homogeneity(space, 3)


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
        got = urysohn_stage(*case)
        _assert_same_stage(got, case)
        # homogeneity too, at k <= 2: the Fraction reference is slow past that
        k = min(case[3], 2)
        assert verify_one_point_homogeneity(got.space, k) == ref.verify_one_point_homogeneity(
            got.space, k
        )


# at homogeneity bound 4: three seeded stages that saturate (their last
# demands are over 4 points), one that hits its budget on a demand over 3
# points, and a stage over {0, 1, 2} that hits it too
STEP_STAGES = [SEEDED_STAGES[i] for i in (3, 19, 39, 42)] + [
    (frozenset(map(Fraction, (0, 1, 2))), 60, 3, 4)
]


@pytest.mark.parametrize("case", range(len(STEP_STAGES)))
def test_scan_matches_the_dict_frontier_at_every_step(case, monkeypatch):
    # the dict-frontier scan keeps its own frontier beside the stage's; both
    # must find the same demand on every scan, and the stage's count must
    # stop at the tuple it returns
    scan = urysohn._first_unmet_demand
    old_frontier, old_accepted = {}, {}
    found = []

    def compared(dist, at, positive, j_max, frontier, accepted, fits):
        got = scan(dist, at, positive, j_max, frontier, accepted, fits)
        want = ref.first_unmet_demand(dist, len(dist), positive, j_max, old_frontier, old_accepted, fits)
        assert got == want, len(dist)
        if got is not None:
            k, tuples = frontier[got[0]]
            assert tuples[k] == got[1]
        found.append(got)
        return got

    monkeypatch.setattr(urysohn, "_first_unmet_demand", compared)
    stage = urysohn_stage(*STEP_STAGES[case])
    assert len(found) == stage.space.n  # one scan per point added, and the last
    assert (found[-1] is None) == stage.saturated


def test_step_stages_are_the_stated_stages():
    assert {hb for *_, hb in STEP_STAGES} == {4}
    assert [urysohn_stage(*case).saturated for case in STEP_STAGES] == [True] * 3 + [False] * 2


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
    for scale, ext, image in urysohn._class_embeddings(U, A, s):
        if image is not None:
            assert len(set(image)) == len(image)
            for i, j in itertools.combinations(range(len(ext)), 2):
                assert U.dist[image[i]][image[j]] == Fraction(ext[i][j], scale)


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


# --- the class tree grown from extensions against the one grown from keys ---------


def _tree_cases(count: int, seed: int = 20181025) -> list:
    """count seeded (A, s, stage, sub): U is urysohn_stage(*stage).space,
    over a set of 1-4 positive values that passes the 4-values check, at
    budgets 2-25 (mostly unsaturated), and when sub is not None a subspace
    of it on points drawn with that seed. A is the stage's set, or in three
    cases of ten the set without one positive value, which U may realize;
    s is 1-4, and 5 over at most 3 positive values."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        over = {Fraction(0)} | {
            Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))
        }
        if not four_values_check(over)[0]:
            continue
        A = set(over)
        if rng.random() < 0.3:
            A.remove(rng.choice(sorted(over - {0})))
        stage = (frozenset(over), rng.randint(2, 25), rng.randint(1, 4), rng.randint(1, 3))
        sub = rng.randrange(1 << 30) if rng.random() < 0.3 else None
        cases.append((frozenset(A), rng.randint(1, 5 if len(A) <= 4 else 4), stage, sub))
    return cases


TREE_CASES = _tree_cases(240)
TREE_CHUNK = 20


def _tree_space(stage, sub) -> FiniteMetricSpace:
    U = urysohn_stage(*stage).space
    if sub is None:
        return U
    rng = random.Random(sub)
    return subspace(U, sorted(rng.sample(range(U.n), rng.randint(1, U.n))))


def _check_tree(A, s, U) -> tuple:
    """Assert that the class tree equals the keyed reference on (A, s, U),
    and return the verdict, the sizes at which some class's ext is not its
    key's rows, and whether the missing class's is not."""
    positive = [c for c in _codes([sorted(A)])[1][0] if c > 0]
    prev: list = [[]]
    relabeled = set()
    # the tree stops after its first empty size, where the reference lists empty sizes to s
    levels = itertools.zip_longest(
        urysohn._class_levels(positive, s), ref.keyed_class_levels(positive, s), fillvalue=[]
    )
    for n, (level, want) in enumerate(levels, 1):
        slots = list(itertools.combinations(range(n), 2))
        keys = [(tuple(rows[i][j] for i, j in slots), parent) for rows, parent, _, _ in want]
        assert [(key, parent) for key, parent, _ in level] == keys
        for key, parent, ext in level:
            # the parent's ext with one point added, listed last
            assert [row[:-1] for row in ext[:-1]] == prev[parent] and ext[-1][-1] == 0
            assert [row[-1] for row in ext] == ext[-1]
            assert urysohn._canonical_key(ext) == key
            if ext != urysohn._from_key(key, n):
                relabeled.add(n)
        prev = [ext for *_, ext in level]
    got = verify_universality(U, A, s)
    assert got == ref.keyed_verify_universality(U, A, s)
    for scale, ext, image in urysohn._class_embeddings(U, A, s):
        if image is not None:
            assert len(set(image)) == len(image)
            for i, j in itertools.combinations(range(len(ext)), 2):
                assert U.dist[image[i]][image[j]] == Fraction(ext[i][j], scale)
    ok = got[0]
    return ok, relabeled, not ok and ext != urysohn._from_key(urysohn._canonical_key(ext), len(ext))


@pytest.mark.parametrize("chunk", range(len(TREE_CASES) // TREE_CHUNK))
def test_class_tree_matches_keyed_reference(chunk):
    for A, s, stage, sub in TREE_CASES[chunk * TREE_CHUNK : (chunk + 1) * TREE_CHUNK]:
        _check_tree(A, s, _tree_space(stage, sub))


def _relabeled_missing(values, count: int) -> list:
    """(A, U, missing) for the first count classes on 4 points over the
    integers values and 0 whose first extension is not its key's rows (the
    reference's relabeling is not the identity): U is every class of A
    before it, and every smaller one, each on its own points and all at
    distance max(values) + 1 from each other. That distance is outside A,
    so no A-space spans two parts, and the class is the first missing one."""
    A = frozenset(map(Fraction, (0, *values)))
    spaces = enumerate_spaces_up_to_isometry(A, 4)
    *_, level = ref.keyed_class_levels(list(values), 4)
    smaller = len(spaces) - len(level)
    gap = max(values) + 1
    targets = [index for index, (*_, p) in enumerate(level) if p != tuple(range(4))]
    out = []
    for index in targets[:count]:
        parts = [space._coded[1] for space in spaces[: smaller + index]]
        rows = [[gap] * sum(map(len, parts)) for _ in range(sum(map(len, parts)))]
        start = 0
        for part in parts:
            for i, row in enumerate(part):
                rows[start + i][start : start + len(row)] = row
            start += len(part)
        out.append((A, _coded_space(1, rows), spaces[smaller + index]))
    return out


# the relabeled classes on 4 points are 1 of 48 over {0, 1, 2, 3}, 4 of 66
# over {0, 2, 3, 4} and 6 of 158 over {0, 1, 2, 3, 4}, the first at index 34
RELABELED_SETS = [((1, 2, 3), 1), ((2, 3, 4), 4), ((1, 2, 3, 4), 1)]


@pytest.mark.parametrize("values, count", RELABELED_SETS)
def test_a_relabeled_class_missing_first(values, count):
    cases = _relabeled_missing(values, count)
    assert len(cases) == count
    for A, U, missing in cases:
        want = (False, missing)
        assert ref.keyed_verify_universality(U, A, 4) == want
        assert _check_tree(A, 4, U) == (False, {4}, True)
        assert verify_universality(U, A, 4) == want


def test_tree_cases_cover_the_stated_shapes():
    spaces = [_tree_space(stage, sub) for _, _, stage, sub in TREE_CASES]
    outcomes = [_check_tree(A, s, U) for (A, s, _, _), U in zip(TREE_CASES, spaces)]
    assert sum(not ok for ok, _, _ in outcomes) >= 80  # failing verdicts
    # sizes at which some ext is not its key's rows, and cases whose next size grows from one
    relabeled = [(s, sizes) for (_, s, *_), (_, sizes, _) in zip(TREE_CASES, outcomes) if sizes]
    assert len(relabeled) >= 8
    assert sum(min(sizes) < s for s, sizes in relabeled) >= 3
    stages = {stage for _, _, stage, _ in TREE_CASES}
    assert sum(not urysohn_stage(*stage).saturated for stage in stages) >= 100
    outside = [set(distance_spectrum(U)) - A for (A, *_), U in zip(TREE_CASES, spaces)]
    assert sum(map(bool, outside)) >= 40
    assert sum(sub is not None for *_, sub in TREE_CASES) >= 40
    assert {s for _, s, _, _ in TREE_CASES} == {1, 2, 3, 4, 5}


# --- the completion on interval masks against the bisect slices it replaced -------


def _choice(dist, n, positive, subset, new, u) -> str:
    """How u's value was chosen, restated from the definitions and not from
    either kernel: 'single' when one value fits every placed point, 'tie'
    when two or more values share the best score, else 'best'."""
    placed = [t for t in range(n) if t < u or t in subset]
    fits = [
        v for v in positive
        if all(abs(dist[u][t] - new[t]) <= v <= dist[u][t] + new[t] for t in placed)
    ]
    if len(fits) == 1:
        return "single"

    def seen(v, t):
        return sum(dist[w][u] == v and dist[w][t] == new[t] for w in range(n))

    scores = [sum(Fraction(1, 1 + seen(v, t)) for t in placed) for v in fits]
    return "tie" if scores.count(max(scores)) > 1 else "best"


def _compared_completions(monkeypatch, choices=None) -> list:
    """From now on every completion urysohn makes also runs through the
    reference, and must give the same new list. Returns the list of calls
    compared; choices, if given, counts how the free values of calls on at
    most 12 points were chosen."""
    calls = []
    complete = urysohn._complete_new_point

    def compared(dist, at, n, positive, fits, subset, g):
        got = complete(dist, at, n, positive, fits, subset, g)
        assert got == ref.bisect_complete_new_point(dist, at, n, positive, subset, g), (subset, g)
        calls.append(n)
        if choices is not None and got is not None and n <= 12:
            for u in set(range(n)) - set(subset):
                choices[_choice(dist, n, positive, subset, got, u)] += 1
        return got

    monkeypatch.setattr(urysohn, "_complete_new_point", compared)
    return calls


COMPLETION_CASES = LARGE_CASES + SEEDED_STAGES[::20]


def test_completion_matches_bisect_reference(monkeypatch):
    # every demand of the large stages and of one in twenty seeded stages;
    # all thousand would grow them again, about 30 s
    choices = collections.Counter()
    calls = _compared_completions(monkeypatch, choices)
    for case in COMPLETION_CASES:
        urysohn_stage(*case)
    assert len(calls) > 2000
    assert min(choices[kind] for kind in ("single", "tie", "best")) >= 100, choices



# --- Katetov tuples from the interval-mask table -----------------------------------


def _katetov_space(rng, positive: list, n: int) -> list:
    """A coded space on up to n points over positive, grown one point at a
    time at a random tuple the product reference accepts; it stops early
    when no tuple is accepted."""
    dist: list = []
    while len(dist) < n:
        tuples = ref.product_katetov_tuples(dist, positive)
        if not tuples:
            break
        g = rng.choice(tuples)
        dist = [row + [v] for row, v in zip(dist, g)] + [[*g, 0]]
    return dist


def _katetov_cases(count: int, seed: int = 20181023) -> list:
    """count seeded (space, positive) pairs, cycling through three kinds of
    positive sets, each of 1-5 values: small integers, where most tuples
    pass; powers of ten such as {1, 10, 100}, where most triples fail; and
    small integers times 2^64 + 1 plus a small offset, codes above 2^64. The
    spaces have 0-5 points."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        size = 1 + i % 5
        if i % 3 == 0:
            positive = sorted(rng.sample(range(1, 13), size))
        elif i % 3 == 1:
            positive = [10**k for k in sorted(rng.sample(range(6), size))]
        else:
            positive = sorted({v * (2**64 + 1) + rng.randint(0, 2) for v in rng.sample(range(1, 9), size)})
        cases.append((_katetov_space(rng, positive, (i // 5) % 6), positive))
    return cases


KATETOV_CASES = _katetov_cases(240)


def test_katetov_cases_cover_the_stated_ranges():
    assert {len(dist) for dist, _ in KATETOV_CASES} == set(range(6))
    assert {len(positive) for _, positive in KATETOV_CASES} == set(range(1, 6))
    assert [10, 100] in [positive[1:3] for _, positive in KATETOV_CASES]
    assert max(max(positive) for _, positive in KATETOV_CASES) > 2**64
    counts = [len(ref.product_katetov_tuples(dist, positive)) for dist, positive in KATETOV_CASES]
    assert sum(count > 1 for count in counts) >= 100
    # on the powers of ten most tuples fail
    sparse = [(dist, p) for dist, p in KATETOV_CASES[1::3] if len(dist) >= 3 and len(p) >= 3]
    tried = sum(len(p) ** len(dist) for dist, p in sparse)
    assert sum(len(ref.product_katetov_tuples(dist, p)) for dist, p in sparse) < tried // 4


@pytest.mark.parametrize("case", range(len(KATETOV_CASES)))
def test_katetov_tuples_match_product_reference(case):
    dist, positive = KATETOV_CASES[case]
    rows = [row[:i] for i, row in enumerate(dist)]
    got = urysohn._katetov_tuples(rows, positive, urysohn._fits(positive))
    assert got == ref.product_katetov_tuples(dist, positive)


@pytest.mark.parametrize("n", (0, 1, 2))
def test_katetov_tuples_over_no_values(n):
    # the constant tuple at the largest value always fits, so only an empty
    # value set leaves a nonempty space with no tuple
    dist = [[0] * n for _ in range(n)]
    got = urysohn._katetov_tuples([row[:i] for i, row in enumerate(dist)], [], urysohn._fits([]))
    assert got == ref.product_katetov_tuples(dist, []) == ([()] if n == 0 else [])


def _outcome(extensions, X, A):
    try:
        return [g.values for g in extensions(X, A)]
    except SpectrumNotInA as exc:
        return type(exc), exc.args


@pytest.mark.parametrize("case", range(0, len(KATETOV_CASES), 4))
def test_katetov_extensions_match_product_reference(case):
    # the same space on a Fraction scale, over its values with 0, without
    # one of its distances, and with two values it does not realize
    dist, positive = KATETOV_CASES[case]
    X = validate_metric([[Fraction(v, 3) for v in row] for row in dist]) if dist else FiniteMetricSpace(0, ())
    values = {Fraction(v, 3) for v in positive} | {Fraction(0)}
    realized = set(distance_spectrum(X)) - {0}
    for A in (values, values - set(sorted(realized)[-1:]), values | {Fraction(1, 7), Fraction(99)}):
        want = _outcome(ref.product_katetov_extensions, X, A)
        assert _outcome(urysohn.katetov_extensions, X, A) == want
        got = urysohn.katetov_extensions(X, A) if type(want) is list else []
        assert all(g.base is X and type(v) is Fraction for g in got for v in g.values)
