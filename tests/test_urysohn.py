"""Amalgamation, one-point extensions, and saturation stages."""

import re
import time
from fractions import Fraction

import pytest

from distset.errors import (
    BudgetTooSmall,
    FourValuesFails,
    InvariantViolation,
    SpectrumNotInA,
)
from distset.metric import distance_spectrum, validate_metric
from distset.urysohn import (
    KatetovFunction,
    enumerate_spaces_up_to_isometry,
    extend_one_point,
    four_values_check,
    is_valid_katetov,
    katetov_extensions,
    urysohn_stage,
    verify_one_point_homogeneity,
    verify_universality,
)

F = Fraction

TRI_112 = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def frs(*vals):
    return frozenset(F(v) for v in vals)


@pytest.mark.parametrize(
    "values",
    [frs(0, 1, 2), frs(0, 1, 3, 9), frs(0, 5), frs(0, 1, 2, 3, 4)],
)
def test_four_values_holds(values):
    assert four_values_check(values) == (True, None)


def test_four_values_fails_with_witness():
    ok, witness = four_values_check(frs(0, 1, 2, 4))
    assert not ok
    assert witness == (F(1), F(1), F(2), F(4), F(2))
    # spell the failure out: x = 2 glues (1,1,.) to (2,4,.), but no y in A
    # satisfies both |1-1| <= y <= 1+1 and |4-1| <= y <= 4+1
    a, b, c, d, x = witness
    assert abs(a - b) <= x <= a + b and abs(c - d) <= x <= c + d
    for y in frs(1, 2, 4):
        assert not (abs(b - c) <= y <= b + c and abs(a - d) <= y <= a + d)


def test_katetov_extensions_singleton():
    point = validate_metric([[0]])
    exts = katetov_extensions(point, frs(0, 1, 2))
    assert [g.values for g in exts] == [(F(1),), (F(2),)]


def test_katetov_extensions_two_points_lex():
    pair = validate_metric([[0, 2], [2, 0]])
    exts = katetov_extensions(pair, frs(0, 1, 2))
    assert [g.values for g in exts] == [
        (F(1), F(1)),
        (F(1), F(2)),
        (F(2), F(1)),
        (F(2), F(2)),
    ]


def test_katetov_extensions_spectrum_must_sit_in_A():
    pair = validate_metric([[0, 3], [3, 0]])
    with pytest.raises(SpectrumNotInA) as exc:
        katetov_extensions(pair, frs(0, 1, 2))
    assert exc.value.value == F(3)


def test_is_valid_katetov_negatives():
    pair = validate_metric([[0, 2], [2, 0]])
    assert not is_valid_katetov(pair, (F(1),))  # wrong arity
    assert not is_valid_katetov(pair, (F(0), F(1)))  # zero distance
    assert not is_valid_katetov(pair, (F(1), F(4)))  # |4-1| > 2
    assert not is_valid_katetov(pair, (F(1), F(1, 2)))  # 1 + 1/2 < 2
    assert is_valid_katetov(pair, (F(1), F(3)))  # |3-1| = 2, lower bound met
    assert is_valid_katetov(pair, (F(1), F(1)))  # 1 + 1 = 2, upper bound met
    assert is_valid_katetov(pair, (F(1), F(2)))


@pytest.mark.parametrize(
    "values, message",
    [
        ((1.0, 1.5), "not an exact rational: 1.0"),
        ((True, True), "bool is not a rational"),
        ((0.1 + 0.2, F(3, 10)), "not an exact rational: 0.30000000000000004"),
    ],
)
def test_is_valid_katetov_refuses_floats_and_bools(values, message):
    # values are read by the rationals coder, as everywhere else: a float
    # raises, where compared as a float 0.1 + 0.2 would not be 3/10
    pair = validate_metric([[0, 2], [2, 0]])
    with pytest.raises(TypeError, match=re.escape(message)):
        is_valid_katetov(pair, values)
    with pytest.raises(TypeError, match=re.escape(message)):
        extend_one_point(pair, KatetovFunction(pair, values))


def test_strings_are_refused_as_values_and_as_A():
    pair = validate_metric([[0, 2], [2, 0]])
    with pytest.raises(TypeError):
        is_valid_katetov(pair, ("1", "3"))
    with pytest.raises(TypeError):
        katetov_extensions(pair, {F(0), F(2), "3"})


def test_extend_one_point_grows_space():
    g = KatetovFunction(TRI_112, (F(1), F(1), F(1)))
    Y = extend_one_point(TRI_112, g)
    assert Y.n == 4
    assert Y.dist[3][0] == F(1) and Y.dist[0][3] == F(1)
    assert tuple(tuple(r[:3]) for r in Y.dist[:3]) == TRI_112.dist


def test_extend_one_point_rejects_invalid_values():
    g = KatetovFunction(TRI_112, (F(1), F(1), F(5)))
    with pytest.raises(
        InvariantViolation,
        match=r"extension values break the two-sided bounds \|g\(x\)-g\(y\)\| <= d\(x,y\) <= g\(x\)\+g\(y\)",
    ):
        extend_one_point(TRI_112, g)


def test_stage_over_three_values_saturates():
    start = time.monotonic()
    result = urysohn_stage(frs(0, 1, 2), 40, 3, 2)
    elapsed = time.monotonic() - start
    assert result.saturated
    assert result.space.n == 17
    assert len(result.log) == 16
    assert set(distance_spectrum(result.space)) <= frs(0, 1, 2)
    assert elapsed < 5


def test_stage_log_replays_to_the_same_space():
    result = urysohn_stage(frs(0, 1, 2), 40, 3, 2)
    X = validate_metric([[0]])
    for values in result.log:
        X = extend_one_point(X, KatetovFunction(X, values))
    assert X == result.space


def test_stage_is_prefix_monotone_in_budget():
    full = urysohn_stage(frs(0, 1, 2), 40, 3, 2)
    for budget in (5, 10, 17):
        partial = urysohn_stage(frs(0, 1, 2), budget, 3, 2)
        k = partial.space.n
        assert partial.saturated == (k == full.space.n)
        assert partial.log == full.log[: k - 1]
        assert partial.space.dist == tuple(
            tuple(row[:k]) for row in full.space.dist[:k]
        )


def test_stage_strict_raises_and_carries_result():
    with pytest.raises(BudgetTooSmall, match="stalled unsaturated at 5 points") as exc:
        urysohn_stage(frs(0, 1, 2), 5, 3, 2, strict=True)
    assert exc.value.result.space.n == 5
    assert not exc.value.result.saturated


def test_stage_non_strict_reports_unsaturated():
    result = urysohn_stage(frs(0, 1, 2), 5, 3, 2)
    assert result.space.n == 5
    assert not result.saturated


def test_stage_rejects_four_values_failure():
    with pytest.raises(FourValuesFails, match="four-values condition fails") as exc:
        urysohn_stage(frs(0, 1, 2, 4), 10, 2, 1)
    assert exc.value.witness == (F(1), F(1), F(2), F(4), F(2))


def test_stage_rejects_missing_zero():
    with pytest.raises(ValueError, match="must contain 0"):
        urysohn_stage(frs(1, 2), 10, 2, 1)


def test_stage_rejects_bad_budgets():
    with pytest.raises(ValueError, match=">= 1"):
        urysohn_stage(frs(0, 1), 0, 2, 1)
    with pytest.raises(ValueError, match=">= 1"):
        urysohn_stage(frs(0, 1), 10, 0, 1)
    with pytest.raises(ValueError, match=">= 1"):
        urysohn_stage(frs(0, 1), 10, 2, 0)


def test_stage_checks_its_arguments_before_the_four_values_check(monkeypatch):
    import distset.urysohn

    def forbidden(codes):
        raise AssertionError("urysohn_stage ran the 4-values check on bad arguments")

    monkeypatch.setattr(distset.urysohn, "four_values_check", forbidden)
    # {1, 2, 4} also fails the 4-values check: the missing 0 is reported first
    with pytest.raises(ValueError, match="must contain 0"):
        urysohn_stage(frs(1, 2, 4), 10, 2, 1)
    with pytest.raises(ValueError, match=">= 1"):
        urysohn_stage(frs(0, *(3**e for e in range(29))), 0, 2, 1)


def test_enumerate_isometry_classes_small_counts():
    # over {1, 2}: one 1-point, two 2-point = 3; plus four 3-point = 7
    assert len(enumerate_spaces_up_to_isometry(frs(0, 1, 2), 2)) == 3
    reps = enumerate_spaces_up_to_isometry(frs(0, 1, 2), 3)
    assert len(reps) == 7
    assert [X.n for X in reps] == [1, 2, 2, 3, 3, 3, 3]


def test_class_counts_over_one_and_two_are_graph_counts():
    # every 1/2 assignment is a metric, and the 1-pairs form a graph, so the
    # classes on n points are the graphs on n vertices (OEIS A000088)
    reps = enumerate_spaces_up_to_isometry(frs(0, 1, 2), 6)
    assert [sum(X.n == n for X in reps) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_class_listing_runs_no_isometry_search(monkeypatch):
    import distset.oracles
    import distset.urysohn

    def forbidden(*args, **kwargs):
        raise AssertionError("the class listing ran find_isometry")

    # patched where it is defined, and in urysohn in case it is imported there
    monkeypatch.setattr(distset.oracles, "find_isometry", forbidden)
    monkeypatch.setattr(distset.urysohn, "find_isometry", forbidden, raising=False)
    assert len(enumerate_spaces_up_to_isometry(frs(0, 1, 2), 5)) == 1 + 2 + 4 + 11 + 34


def test_stage_is_universal_for_small_spaces():
    result = urysohn_stage(frs(0, 1, 2), 40, 3, 2)
    ok, missing = verify_universality(result.space, frs(0, 1, 2), 3)
    assert ok and missing is None


def test_universality_counterexample():
    pair1 = validate_metric([[0, 1], [1, 0]])
    ok, missing = verify_universality(pair1, frs(0, 1, 2), 2)
    assert not ok
    assert missing is not None
    assert missing.n == 2 and missing.dist[0][1] == F(2)


def test_universality_trivial_size():
    pair1 = validate_metric([[0, 1], [1, 0]])
    ok, missing = verify_universality(pair1, frs(0, 1, 2), 1)
    assert ok and missing is None


def test_stage_is_one_point_homogeneous():
    result = urysohn_stage(frs(0, 1, 2), 40, 3, 2)
    ok, witness = verify_one_point_homogeneity(result.space, 2)
    assert ok and witness is None


def test_homogeneity_counterexample_on_isoceles_triangle():
    ok, witness = verify_one_point_homogeneity(TRI_112, 1)
    assert not ok
    assert witness == ((0,), (1,), 2)
    dom, cod, stuck = witness
    # the map 0 -> 1 cannot be extended to cover point 2: no point sits at
    # distance d(0, 2) = 2 from point 1
    assert all(TRI_112.dist[1][e] != TRI_112.dist[0][2] for e in (0, 2))


def test_homogeneity_holds_on_equilateral():
    eq = validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    ok, witness = verify_one_point_homogeneity(eq, 2)
    assert ok and witness is None


def test_homogeneity_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be >= 1"):
        verify_one_point_homogeneity(TRI_112, 0)


@pytest.mark.parametrize(
    "space",
    [
        validate_metric([[0]]),
        TRI_112,
        validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        validate_metric([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]),
        urysohn_stage(frs(0, 1), 5, 3, 2).space,
    ],
)
def test_homogeneity_bound_past_the_point_count(space):
    # no j-tuples exist past U.n, so a larger k checks nothing more and
    # must cost no more
    start = time.perf_counter()
    assert verify_one_point_homogeneity(space, 10**9) == verify_one_point_homogeneity(space, space.n)
    assert time.perf_counter() - start < 5


def test_bounds_past_every_class_and_point():
    # over {0} the one class is the point, and a stage is the point
    start = time.perf_counter()
    assert enumerate_spaces_up_to_isometry(frs(0), 10**9) == [validate_metric([[0]])]
    stage = urysohn_stage(frs(0), 10**9, 10**9, 10**9)
    assert stage.space == validate_metric([[0]]) and stage.saturated
    assert verify_universality(stage.space, frs(0), 10**9) == (True, None)
    assert time.perf_counter() - start < 5
