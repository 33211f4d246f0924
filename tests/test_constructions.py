"""Gluing, max products, tree spaces, and the graph/space dictionary."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from distset.constructions import (
    Graph,
    TreeData,
    check_tree_suitable,
    glue,
    graph_from_json_dict,
    graph_space,
    graph_to_json_dict,
    max_product,
    space_to_graph,
    tree_space,
)
from distset.errors import (
    BadDistancePair,
    IndexOutOfRange,
    InvalidTreeData,
    NonpositiveGlueDistance,
)
from distset.metric import distance_spectrum, validate_metric
from distset.oracles import find_isometry

F = Fraction

SINGLETON = validate_metric([[0]])
TWO_AT_3 = validate_metric([[0, 3], [3, 0]])


def spectrum_set(space):
    return set(distance_spectrum(space))


# --- glue ---


def test_glue_singletons_gives_bridge_length():
    X = glue(SINGLETON, SINGLETON, 1)
    assert X.n == 2
    assert X.distance(0, 1) == F(1)


def test_glue_spectrum_union_example():
    X = glue(TWO_AT_3, SINGLETON, 1)
    assert spectrum_set(X) == {F(0), F(1), F(3)}


def test_glue_keeps_block_metrics():
    Y = validate_metric([[0, 2], [2, 0]])
    X = glue(TWO_AT_3, Y, 5)
    assert X.dist[0][1] == F(3)
    assert X.dist[2][3] == F(2)
    # cross distances follow the max formula against the anchors
    assert X.dist[1][2] == max(F(3), F(0), F(5))
    assert X.dist[1][3] == max(F(3), F(2), F(5))


def test_glue_spectrum_law_holds_when_r_already_realized():
    X = glue(TWO_AT_3, TWO_AT_3, 3)
    assert spectrum_set(X) == {F(0), F(3)}


def test_glue_anchor_choice_changes_cross_distances():
    Y = validate_metric([[0, 2], [2, 0]])
    default = glue(TWO_AT_3, Y, 1)
    other = glue(TWO_AT_3, Y, 1, xbar=1, ybar=1)
    assert default.dist[0][2] == F(1)
    assert other.dist[0][2] == F(3)


def test_glue_anchor_is_irrelevant_for_spectrum_in_max_dominated_regime():
    Y = validate_metric([[0, 2], [2, 0]])
    spectra = {
        distance_spectrum(glue(TWO_AT_3, Y, 5, xbar=i, ybar=j))
        for i in range(2)
        for j in range(2)
    }
    assert spectra == {(F(0), F(2), F(3), F(5))}


def test_glue_rejects_nonpositive_r():
    with pytest.raises(NonpositiveGlueDistance):
        glue(SINGLETON, SINGLETON, 0)
    with pytest.raises(NonpositiveGlueDistance):
        glue(SINGLETON, SINGLETON, -1)


def test_glue_rejects_bad_anchor():
    with pytest.raises(IndexOutOfRange):
        glue(SINGLETON, SINGLETON, 1, xbar=1)
    with pytest.raises(IndexOutOfRange):
        glue(SINGLETON, SINGLETON, 1, ybar=2)


@st.composite
def small_space(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    pool = [F(2), F(3), F(4)]
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.sampled_from(pool))
            rows[i][j] = rows[j][i] = v
    return validate_metric(rows)


@given(small_space(), small_space(), st.sampled_from([F(1), F(3), F(7, 2), F(10)]))
def test_glue_spectrum_law_property(X, Y, r):
    assert spectrum_set(glue(X, Y, r)) == spectrum_set(X) | spectrum_set(Y) | {r}


# --- max product ---


def test_max_product_with_singleton_is_isometric_copy():
    X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    P = max_product(X, SINGLETON)
    assert P.dist == X.dist


def test_max_product_two_by_two_example():
    X = validate_metric([[0, 1], [1, 0]])
    Y = validate_metric([[0, 2], [2, 0]])
    P = max_product(X, Y)
    assert P.n == 4
    assert spectrum_set(P) == {F(0), F(1), F(2)}


def test_max_product_row_major_indexing():
    X = validate_metric([[0, 1], [1, 0]])
    Y = validate_metric([[0, 2], [2, 0]])
    P = max_product(X, Y)
    # point (i, j) lives at i*|Y| + j
    assert P.dist[0][1] == F(2)  # (0,0) vs (0,1): max(0, 2)
    assert P.dist[0][2] == F(1)  # (0,0) vs (1,0): max(1, 0)
    assert P.dist[0][3] == F(2)  # (0,0) vs (1,1): max(1, 2)


def test_max_product_commutes_up_to_isometry():
    X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    Y = validate_metric([[0, 2], [2, 0]])
    assert find_isometry(max_product(X, Y), max_product(Y, X)) is not None


@given(small_space(), small_space())
def test_max_product_spectrum_is_union(X, Y):
    P = max_product(X, Y)
    assert spectrum_set(P) == spectrum_set(X) | spectrum_set(Y)


# --- tree spaces ---

TREE = TreeData(
    nodes=((), (0,), (1,)),
    r_seq=(F(1, 4), F(1, 16)),
    rp_seq=(F(9, 8), F(33, 32)),
    x=F(1),
)


def test_tree_space_distances_follow_the_split_formula():
    T = tree_space(TREE)
    assert T.n == 4
    # nodes sorted (length, lex): root, <0>, <1>, then the extra point
    assert T.dist[0][1] == F(1, 4)
    assert T.dist[0][2] == F(1, 4)
    # siblings split at the root, so they sit at r_0, not r_1
    assert T.dist[1][2] == F(1, 4)
    assert T.dist[1][3] == F(33, 32)
    assert T.dist[2][3] == F(33, 32)
    assert T.dist[0][3] == F(9, 8)


def test_tree_space_never_realizes_x():
    T = tree_space(TREE)
    assert TREE.x not in distance_spectrum(T)
    assert spectrum_set(T) == {F(0), F(1, 4), F(33, 32), F(9, 8)}


def test_tree_space_root_only():
    data = TreeData(nodes=((),), r_seq=(F(1, 4),), rp_seq=(F(9, 8),), x=F(1))
    T = tree_space(data)
    assert T.n == 2
    assert T.distance(0, 1) == F(9, 8)


def test_deeper_split_uses_later_sequence_entry():
    data = TreeData(
        nodes=((), (0,), (0, 0), (0, 1)),
        r_seq=(F(1, 4), F(1, 16), F(1, 64)),
        rp_seq=(F(9, 8), F(33, 32), F(129, 128)),
        x=F(1),
    )
    T = tree_space(data)
    # <0,0> and <0,1> share the prefix <0> of length 1
    assert T.dist[2][3] == F(1, 16)
    assert T.dist[1][2] == F(1, 16)
    assert T.dist[0][2] == F(1, 4)


def test_tree_space_rejects_missing_parent():
    data = TreeData(
        nodes=((), (0, 0)), r_seq=(F(1, 4), F(1, 16)), rp_seq=(F(9, 8), F(33, 32)), x=F(1)
    )
    with pytest.raises(InvalidTreeData, match="prefix-closed"):
        tree_space(data)


def test_tree_space_rejects_empty_tree():
    data = TreeData(
        nodes=(), r_seq=(F(1, 4), F(1, 16)), rp_seq=(F(9, 8), F(33, 32)), x=F(1)
    )
    with pytest.raises(InvalidTreeData, match="root"):
        tree_space(data)


def test_check_tree_suitable_accepts_the_example():
    ok, why = check_tree_suitable(TREE.r_seq, TREE.rp_seq, TREE.x, 1)
    assert ok and why is None


@pytest.mark.parametrize(
    "r_seq,rp_seq,x,depth,fragment",
    [
        ((F(1, 4),), (F(9, 8), F(33, 32)), F(1), 0, "equal length"),
        ((F(1, 4),), (F(9, 8),), F(1), 1, "more sequence terms"),
        ((F(1, 4), F(1, 16)), (F(9, 8), F(33, 32)), F(-1), 1, "x must be positive"),
        ((F(1, 4), F(1, 2)), (F(9, 8), F(33, 32)), F(1), 1, "strictly decreasing"),
        ((F(1, 4), F(1, 16)), (F(9, 8), F(9, 8)), F(1), 1, "strictly monotone"),
        ((F(2), F(1, 16)), (F(9, 8), F(33, 32)), F(1), 1, "need r_seq[0] < min(x, rp_seq[0])"),
        ((F(1, 4), F(1, 16)), (F(9, 8), F(1)), F(1), 1, "rp_seq[1] must differ from x"),
        ((F(1, 4), F(1, 16)), (F(9, 8), F(17, 16)), F(1), 1, "need |rp_seq[1] - x| < r_seq[1]"),
        ((F(1), F(-1)), (F(2), F(3)), F(5), 1, "r_seq values must be positive"),
    ],
)
def test_check_tree_suitable_names_the_violated_clause(r_seq, rp_seq, x, depth, fragment):
    ok, why = check_tree_suitable(r_seq, rp_seq, x, depth)
    assert not ok
    assert fragment in why


def test_tree_space_surfaces_unsuitable_data():
    bad = TreeData(
        nodes=((), (0,)), r_seq=(F(2), F(1, 16)), rp_seq=(F(9, 8), F(33, 32)), x=F(1)
    )
    with pytest.raises(InvalidTreeData, match="r_seq\\[0\\]"):
        tree_space(bad)


# --- graphs ---


def test_graph_normalizes_edge_order():
    G = Graph(3, frozenset({(2, 0)}))
    assert G.edges == frozenset({(0, 2)})
    assert G.adjacent(0, 2) and G.adjacent(2, 0)
    assert G.degrees() == [1, 0, 1]


@given(st.integers(1, 8), st.data())
def test_graph_degrees_count_incident_edges(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    G = Graph(n, frozenset(edges))
    assert G.degrees() == [sum(1 for e in edges if i in e) for i in range(n)]


def test_graph_rejects_loops_and_range_errors():
    with pytest.raises(ValueError, match="loop"):
        Graph(2, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph(0, frozenset())


def test_graph_space_path_example():
    P3 = Graph(3, frozenset({(0, 1), (1, 2)}))
    X = graph_space(P3, 1, 2)
    assert X.dist[0][1] == F(1)
    assert X.dist[1][2] == F(1)
    assert X.dist[0][2] == F(2)


def test_graph_space_empty_and_complete():
    E3 = Graph(3, frozenset())
    assert spectrum_set(graph_space(E3, 1, 2)) == {F(0), F(2)}
    K3 = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert spectrum_set(graph_space(K3, 1, 2)) == {F(0), F(1)}


@pytest.mark.parametrize("r,rp", [(0, 1), (2, 1), (2, 2), (1, 3)])
def test_graph_space_rejects_bad_distance_pairs(r, rp):
    G = Graph(2, frozenset({(0, 1)}))
    with pytest.raises(BadDistancePair, match="need 0 < r < rp <= 2r"):
        graph_space(G, r, rp)


def test_space_to_graph_inverts_graph_space():
    for edges in [set(), {(0, 1)}, {(0, 1), (1, 2)}, {(0, 1), (1, 2), (0, 2)}]:
        G = Graph(3, frozenset(edges))
        assert space_to_graph(graph_space(G, 1, 2), 1) == G


def test_space_to_graph_on_non_graph_space():
    X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    G = space_to_graph(X, 1)
    assert G.edges == frozenset({(0, 1), (1, 2)})
    assert space_to_graph(X, 5).edges == frozenset()


def test_graph_json_round_trip():
    G = Graph(4, frozenset({(0, 3), (1, 2)}))
    data = graph_to_json_dict(G)
    assert data == {"n": 4, "edges": [[0, 3], [1, 2]]}
    assert graph_from_json_dict(data) == G


@pytest.mark.parametrize(
    "raw",
    [
        {"n": 2},
        {"n": 2, "edges": [[0, 1]], "extra": True},
        {"n": "2", "edges": []},
        {"n": 2, "edges": [[0]]},
        {"n": 2, "edges": [["0", "1"]]},
        {"n": 2, "edges": [[True, False]]},
        {"n": True, "edges": []},
    ],
)
def test_graph_from_json_rejects_bad_shapes(raw):
    with pytest.raises(ValueError):
        graph_from_json_dict(raw)
