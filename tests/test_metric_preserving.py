"""Finite checks for distance-transform functions and the slope construction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from distset.errors import PoolExhausted, ZeroNotInDomain
from distset.metric import validate_metric
from distset.metric_preserving import (
    TabulatedFunction,
    check_sufficient_condition,
    func_from_json,
    func_to_json,
    is_metric_preserving_finite,
    slope_construction,
)

F = Fraction


def tab(*pairs):
    return TabulatedFunction(tuple((F(a), F(b)) for a, b in pairs))


# r/(1+r) on {0,1,2,3}: concave, increasing, fixes 0
SNAPPED = tab((0, 0), (1, F(1, 2)), (2, F(2, 3)), (3, F(3, 4)))


def test_concave_increasing_function_preserves():
    ok, witness = is_metric_preserving_finite(SNAPPED)
    assert ok and witness is None


def test_concave_increasing_function_is_sufficient():
    assert check_sufficient_condition(SNAPPED)


def test_nonzero_at_zero_rejected():
    f = tab((0, 1), (1, 2))
    ok, witness = is_metric_preserving_finite(f)
    assert not ok
    assert witness == (F(0), F(0), F(0))


def test_domain_must_contain_zero():
    f = tab((1, 1), (2, 2))
    with pytest.raises(ZeroNotInDomain, match="must include 0"):
        is_metric_preserving_finite(f)


def test_nonpositive_value_witnessed_as_doubled_point():
    f = tab((0, 0), (1, 1), (2, 0))
    ok, witness = is_metric_preserving_finite(f)
    assert not ok
    assert witness == (F(2), F(2), F(0))


def test_fast_growth_breaks_triangle():
    f = tab((0, 0), (1, 1), (2, 5))
    ok, witness = is_metric_preserving_finite(f)
    assert not ok
    assert witness == (F(2), F(1), F(1))
    c, b, a = witness
    assert c <= a + b  # the domain triple is realizable
    assert f(c) > f(a) + f(b)  # its image is not


def test_witness_is_first_in_scan_order_past_a_degenerate_triangle():
    # Pair (1, 3) admits c in {3, 7/2, 4}. At 7/2 the image sits exactly on
    # |f(1) - f(3)| = 2, a degenerate triangle; 4 is the first failure.
    f = tab((0, 0), (1, 1), (3, 3), (F(7, 2), 2), (4, 1))
    assert is_metric_preserving_finite(f) == (False, (F(4), F(3), F(1)))


def test_unrealizable_triples_are_skipped():
    # 1,1,3 never occurs in a metric, so the huge jump at 3 is harmless
    f = tab((0, 0), (1, 1), (3, 100))
    ok, witness = is_metric_preserving_finite(f)
    assert ok and witness is None


def test_sufficient_condition_is_one_sided():
    # dips on the way up, yet still metric preserving
    f = tab((0, 0), (1, 3), (2, 2))
    ok, _ = is_metric_preserving_finite(f)
    assert ok
    assert not check_sufficient_condition(f)


def test_slope_single_tail_value():
    f = slope_construction(F(1), F(2), (F(3),), {F(3, 2)})
    assert f.pairs == ((F(0), F(0)), (F(1), F(1)), (F(3), F(3, 2)))
    ok, _ = is_metric_preserving_finite(f)
    assert ok


def test_slope_picks_largest_admissible_pool_value():
    f = slope_construction(F(1), F(2), (F(3), F(2)), {F(5, 4), F(3, 2), F(13, 8)})
    assert f.pairs == (
        (F(0), F(0)),
        (F(1), F(1)),
        (F(2), F(3, 2)),
        (F(3), F(13, 8)),
    )
    assert check_sufficient_condition(f)
    ok, _ = is_metric_preserving_finite(f)
    assert ok


def test_slope_identity_part_keeps_its_own_denominator():
    # a = 1/2 shares no denominator with the tail or the pool
    f = slope_construction(F(1, 2), F(2), (F(3),), [F(1)])
    assert f.pairs == ((F(0), F(0)), (F(1, 2), F(1, 2)), (F(3), F(1)))


def test_slope_processes_tail_in_given_order():
    # greedy choice at 2 burns the top pool value that 3 would have needed
    with pytest.raises(PoolExhausted) as exc:
        slope_construction(F(1), F(2), (F(2), F(3)), {F(5, 4), F(3, 2), F(13, 8)})
    assert exc.value.point == F(3)


def test_slope_range_stays_below_cap():
    f = slope_construction(F(1), F(2), (F(3), F(2)), {F(5, 4), F(3, 2), F(13, 8)})
    assert all(v < F(2) for _, v in f.pairs)


def test_slope_pool_exhaustion():
    with pytest.raises(PoolExhausted, match="no admissible pool value remains for input 3") as exc:
        slope_construction(F(1), F(2), (F(2), F(3)), {F(3, 2)})
    assert exc.value.point == F(3)


def test_slope_rejects_bad_base():
    with pytest.raises(ValueError, match="need 0 <= a < b"):
        slope_construction(F(-1), F(2), (F(3),), {F(3, 2)})
    with pytest.raises(ValueError, match="need 0 <= a < b"):
        slope_construction(F(2), F(1), (F(3),), {F(3, 2)})


def test_slope_rejects_empty_tail():
    with pytest.raises(ValueError, match="tail must be nonempty"):
        slope_construction(F(1), F(2), (), {F(3, 2)})


def test_slope_rejects_tail_not_above_a():
    with pytest.raises(ValueError, match="exceed a"):
        slope_construction(F(1), F(2), (F(1),), {F(3, 2)})
    with pytest.raises(ValueError, match="distinct"):
        slope_construction(F(1), F(2), (F(3), F(3)), {F(3, 2)})


def test_slope_rejects_pool_outside_window():
    with pytest.raises(ValueError, match="outside the open interval"):
        slope_construction(F(1), F(2), (F(3),), {F(5)})


def test_composition_stays_preserving():
    # r/(1+r) applied twice gives r/(1+2r)
    g = tab((0, 0), (1, F(1, 3)), (2, F(2, 5)), (3, F(3, 7)))
    ok, _ = is_metric_preserving_finite(g)
    assert ok
    assert check_sufficient_condition(g)


def test_tabulated_function_rejects_repeats_and_negatives():
    with pytest.raises(ValueError, match="repeated domain point"):
        tab((0, 0), (1, 1), (1, 2))
    with pytest.raises(ValueError, match=">= 0"):
        tab((-1, 0), (0, 0))


def test_tabulated_function_sorts_and_looks_up():
    f = TabulatedFunction(((F(2), F(5)), (F(0), F(0))))
    assert f.domain == (F(0), F(2))
    assert f(F(2)) == F(5)
    with pytest.raises(KeyError):
        f(F(1))


def test_func_json_round_trip():
    d = func_to_json(SNAPPED)
    assert d == [
        ["0", "0"],
        ["1", "1/2"],
        ["2", "2/3"],
        ["3", "3/4"],
    ]
    assert func_from_json(d) == SNAPPED


@pytest.mark.parametrize(
    "payload",
    [
        "nope",
        [["0"]],
        [["0", "0", "0"]],
        [{"x": "0", "y": "0"}],
        [["0", "0"], ["0", "1"]],
    ],
)
def test_func_json_rejects_bad_shapes(payload):
    with pytest.raises(ValueError):
        func_from_json(payload)


def test_preserving_function_transforms_valid_space():
    X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    rows = [[SNAPPED(X.dist[i][j]) for j in range(X.n)] for i in range(X.n)]
    Y = validate_metric(rows)
    assert Y.n == 3


positive_rationals = st.builds(F, st.integers(1, 40), st.integers(1, 12))


@st.composite
def tables(draw):
    domain = draw(st.sets(positive_rationals, max_size=7))
    values = [draw(st.sampled_from((F(-1), F(0), F(1, 3), F(1), F(2), F(5, 2), F(7))))
              for _ in domain]
    return TabulatedFunction(((F(0), F(0)), *zip(sorted(domain), values)))


@settings(derandomize=True, max_examples=300)
@given(tables(), positive_rationals, positive_rationals)
def test_positive_scaling_keeps_verdicts(f, c, d):
    # The integer kernels rest on this: domain and values are scaled apart,
    # so multiplying each by its own positive factor changes no verdict and
    # moves the witness with the domain.
    scaled = TabulatedFunction(tuple((c * x, d * v) for x, v in f.pairs))
    ok, witness = is_metric_preserving_finite(f)
    want = None if witness is None else tuple(c * x for x in witness)
    assert is_metric_preserving_finite(scaled) == (ok, want)
    assert check_sufficient_condition(scaled) == check_sufficient_condition(f)
