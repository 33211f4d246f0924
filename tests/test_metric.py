"""Matrix validation, spectra, ultrametric checks, subspaces, JSON shape."""

import copy
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from distset.errors import (
    AsymmetricMatrix,
    DistSetError,
    EmptySelection,
    IndexOutOfRange,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    TriangleViolation,
)
from distset.metric import (
    FiniteMetricSpace,
    _coded_space,
    distance_spectrum,
    is_ultrametric,
    space_from_json_dict,
    space_to_json_dict,
    subspace,
    validate_metric,
)
from distset.oracles import find_embedding, find_isometry


def test_validate_accepts_mixed_exact_inputs():
    X = validate_metric([[0, "1/2", 1], ["1/2", 0, "1/2"], [1, "1/2", 0]])
    assert X.n == 3
    assert X.distance(0, 2) == Fraction(1)
    assert all(isinstance(v, Fraction) for row in X.dist for v in row)


def test_validate_rejects_empty_matrix():
    with pytest.raises(EmptySelection):
        validate_metric([])


def test_validate_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        validate_metric([[0, 1], [1, 0], [1, 1]])
    # a row with no length comes after the entries of the rows above it
    with pytest.raises(ValueError, match="malformed rational 'x'"):
        validate_metric([[0, "x"], 5])
    with pytest.raises(TypeError):
        validate_metric([5])


def test_validate_reports_nonzero_diagonal_first():
    with pytest.raises(NonzeroDiagonal) as exc:
        validate_metric([[1, 1], [1, 0]])
    assert exc.value.i == 0


def test_validate_reports_asymmetry():
    with pytest.raises(AsymmetricMatrix) as exc:
        validate_metric([[0, 1], [2, 0]])
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_validate_reports_nonpositive_off_diagonal():
    with pytest.raises(NonpositiveOffDiagonal) as exc:
        validate_metric([[0, 0], [0, 0]])
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_triangle_violation_names_first_row_major_witness():
    # d[0][2] = 3 > d[0][1] + d[1][2] = 2; the scan hits (0,2,1) first.
    with pytest.raises(TriangleViolation) as exc:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, 2, 1)


def test_error_order_asymmetry_beats_later_diagonal():
    # Row 0 is scanned in full before row 1's diagonal.
    with pytest.raises(AsymmetricMatrix):
        validate_metric([[0, 1], [2, 5]])


def test_error_order_diagonal_beats_same_row_asymmetry():
    with pytest.raises(NonzeroDiagonal):
        validate_metric([[5, 1], [2, 0]])


def test_spectrum_includes_zero_and_is_sorted_unique():
    X = validate_metric([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    assert distance_spectrum(X) == (Fraction(0), Fraction(1), Fraction(2))


def test_spectrum_of_singleton():
    X = validate_metric([[0]])
    assert distance_spectrum(X) == (Fraction(0),)


def test_is_ultrametric_accepts_well_spaced_sides():
    X = validate_metric([[0, 1, 3], [1, 0, 3], [3, 3, 0]])
    assert is_ultrametric(X)


def test_is_ultrametric_rejects_1_1_2_triangle():
    X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert not is_ultrametric(X)


def test_subspace_induces_the_restricted_metric():
    X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    S = subspace(X, [0, 2])
    assert S.n == 2
    assert S.distance(0, 1) == Fraction(2)


def test_subspace_deduplicates_and_sorts_indices():
    X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert subspace(X, [2, 0, 2]).dist == subspace(X, [0, 2]).dist


def test_subspace_rejects_bad_indices():
    X = validate_metric([[0, 1], [1, 0]])
    with pytest.raises(IndexOutOfRange) as exc:
        subspace(X, [0, 3])
    assert (exc.value.index, exc.value.n) == (3, 2)
    with pytest.raises(EmptySelection):
        subspace(X, [])


def test_json_round_trip_preserves_distances():
    X = validate_metric([[0, "1/2"], ["1/2", 0]])
    data = space_to_json_dict(X)
    assert data == {"n": 2, "dist": [["0", "1/2"], ["1/2", "0"]]}
    assert space_from_json_dict(data).dist == X.dist


def test_json_dict_requires_exact_keys():
    with pytest.raises(ValueError, match="exactly the keys"):
        space_from_json_dict({"n": 1, "dist": [["0"]], "extra": 1})
    with pytest.raises(ValueError, match="row count"):
        space_from_json_dict({"n": 3, "dist": [["0"]]})


def test_json_dict_requires_list_rows_and_an_int_size():
    with pytest.raises(ValueError, match="row 0 of 'dist' must be a list"):
        space_from_json_dict({"n": 2, "dist": ["01", "10"]})
    with pytest.raises(ValueError, match="'n' must be an integer"):
        space_from_json_dict({"n": True, "dist": [["0"]]})
    with pytest.raises(ValueError, match="row 1 of 'dist'"):
        space_from_json_dict({"n": 2, "dist": [["0", "1"], ["1", False]]})


# Off-diagonal values drawn from [v, 2v] cannot break the triangle
# inequality, so these matrices are valid by construction.
@st.composite
def doubling_window_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    base = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(5)]))
    pool = [base, base * Fraction(3, 2), 2 * base]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.sampled_from(pool))
            rows[i][j] = rows[j][i] = v
    return rows, pool


@given(doubling_window_matrix())
def test_doubling_window_matrices_always_validate(case):
    rows, pool = case
    X = validate_metric(rows)
    assert set(distance_spectrum(X)) <= {Fraction(0), *pool}


@given(doubling_window_matrix(), st.data())
def test_subspace_of_valid_space_validates(case, data):
    rows, _ = case
    X = validate_metric(rows)
    picked = data.draw(
        st.lists(st.integers(0, X.n - 1), min_size=1, max_size=X.n, unique=True)
    )
    S = subspace(X, picked)
    assert validate_metric([list(r) for r in S.dist]).dist == S.dist


# Any symmetric zero-diagonal matrix over a small pool, so triangles both
# hold and break, with an occasional planted nonzero diagonal, asymmetric
# pair or non-positive entry.
@st.composite
def matrix_with_defects(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pool = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(pool))
    defect = draw(st.sampled_from([None, None, None, "diagonal", "asymmetry", "nonpositive"]))
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1).filter(lambda j: j != i)) if n > 1 else i
    if defect == "diagonal":
        rows[i][i] = Fraction(1, 2)
    elif defect == "asymmetry" and i != j:
        rows[i][j] += 1
    elif defect == "nonpositive" and i != j:
        rows[i][j] = rows[j][i] = draw(st.sampled_from([Fraction(0), Fraction(-1, 3)]))
    return rows


def _validation_outcome(rows):
    try:
        return validate_metric(rows)
    except DistSetError as exc:
        return type(exc), tuple(getattr(exc, a) for a in "ijk" if hasattr(exc, a))


@settings(derandomize=True, max_examples=300)
@given(
    matrix_with_defects(),
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
)
def test_positive_scaling_keeps_validation_outcome(rows, q):
    # The integer kernels rest on this: the checks are homogeneous, so
    # multiplying every entry by q > 0 changes no verdict and no witness.
    got = _validation_outcome(rows)
    scaled = _validation_outcome([[v * q for v in row] for row in rows])
    if isinstance(got, tuple):
        assert scaled == got
    else:
        assert isinstance(scaled, type(got))
        assert is_ultrametric(scaled) == is_ultrametric(got)


@settings(derandomize=True, max_examples=200)
@given(
    doubling_window_matrix(),
    doubling_window_matrix(),
    st.data(),
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
)
def test_positive_scaling_keeps_oracle_witnesses(case, other, data, q):
    # The oracles compare codes of both spaces on one scale: multiplying
    # every distance of both by q > 0 changes no verdict and no witness.
    rows, _ = case
    Y = validate_metric(rows)
    picked = data.draw(st.permutations(range(Y.n)))[: data.draw(st.integers(1, Y.n))]
    X = validate_metric([[rows[a][b] for b in picked] for a in picked])  # a piece of Y
    Z = validate_metric(other[0])

    def scaled(S):
        return validate_metric([[v * q for v in row] for row in S.dist])

    for A, B in ((X, Y), (Y, X), (Z, Y), (Y, Z)):
        assert find_isometry(scaled(A), scaled(B)) == find_isometry(A, B)
        assert find_embedding(scaled(A), scaled(B)) == find_embedding(A, B)


def test_codes_leave_equality_hash_repr_and_fields_alone():
    X = validate_metric([[0, "1/2"], ["2/4", 0]])
    Y = FiniteMetricSpace(2, ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))))
    assert X == Y and hash(X) == hash(Y) and repr(X) == repr(Y)
    assert [f.name for f in fields(FiniteMetricSpace)] == ["n", "dist"]
    assert X._coded == Y._coded == (2, [[0, 1], [1, 0]])  # Y is coded on first use


def test_a_coded_space_decodes_dist_on_first_read_and_acts_as_built_by_hand():
    rows = [[0, "1/2", 1], ["1/2", 0, "3/4"], [1, "3/4", 0]]
    H = FiniteMetricSpace(3, tuple(tuple(map(Fraction, row)) for row in rows))
    made = (
        lambda: validate_metric(rows),
        lambda: _coded_space(4, [[0, 2, 4], [2, 0, 3], [4, 3, 0]]),
        lambda: pickle.loads(pickle.dumps(validate_metric(rows))),
        lambda: copy.copy(validate_metric(rows)),
        lambda: copy.deepcopy(validate_metric(rows)),
    )
    for make in made:
        assert "dist" not in vars(make())  # nothing decoded yet
        # each comparison on a space that has not decoded dist yet
        assert make() == H and H == make() and make() != subspace(H, (0, 1))
        assert hash(make()) == hash(H)
        assert repr(make()) == repr(H)
        assert make()._coded == H._coded == (4, [[0, 2, 4], [2, 0, 3], [4, 3, 0]])
        X = make()
        assert X.dist == H.dist and X.dist is X.dist  # decoded once
        assert all(type(v) is Fraction for row in X.dist for v in row)
        assert X == H and hash(X) == hash(H) and repr(X) == repr(H)
        for twin in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
            assert twin == H and twin.dist == H.dist and twin._coded == H._coded
    assert [f.name for f in fields(FiniteMetricSpace)] == ["n", "dist"]
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        validate_metric(rows).missing
