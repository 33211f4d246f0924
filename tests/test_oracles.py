"""Backtracking oracles and the reduction certificate checker."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from distset.constructions import Graph
from distset.errors import GuardrailExceeded
from distset.metric import validate_metric
from distset.oracles import (
    find_embedding,
    find_isometry,
    graph_embed,
    graph_iso,
    verify_reduction,
)

F = Fraction

TRI_112 = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
EQUILATERAL = validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

C4 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
P4 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
P3 = Graph(3, frozenset({(0, 1), (1, 2)}))
K3 = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))


def preserves(witness, X, Y):
    return all(
        Y.dist[witness[i]][witness[j]] == X.dist[i][j]
        for i in range(X.n)
        for j in range(X.n)
    )


def test_isometry_identity():
    assert find_isometry(TRI_112, TRI_112) == (0, 1, 2)


def test_isometry_finds_relabeling():
    # same triangle with points listed in reverse
    Y = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    Z = validate_metric([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    w = find_isometry(Y, Z)
    assert w is not None and preserves(w, Y, Z)


def test_isometry_rejects_different_spectra():
    assert find_isometry(TRI_112, EQUILATERAL) is None


def test_isometry_rejects_same_spectrum_different_counts():
    X = validate_metric([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]])
    Y = validate_metric([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]])
    assert find_isometry(X, Y) is None


def test_isometry_rejects_size_mismatch():
    assert find_isometry(TRI_112, validate_metric([[0, 1], [1, 0]])) is None


def test_embedding_finds_sub_triangle():
    pair = validate_metric([[0, 2], [2, 0]])
    w = find_embedding(pair, TRI_112)
    assert w == (0, 2)


def test_embedding_respects_distances():
    pair = validate_metric([[0, 3], [3, 0]])
    assert find_embedding(pair, TRI_112) is None


def test_embedding_total_space():
    w = find_embedding(TRI_112, TRI_112)
    assert w is not None and preserves(w, TRI_112, TRI_112)


def test_embedding_rejects_larger_into_smaller():
    assert find_embedding(TRI_112, validate_metric([[0, 1], [1, 0]])) is None


def test_graph_iso_finds_relabeling_witness():
    # C4 with vertices 1 and 2 swapped
    H = Graph(4, frozenset({(0, 2), (1, 2), (1, 3), (0, 3)}))
    assert graph_iso(C4, H) == (0, 2, 1, 3)


def test_graph_iso_distinguishes_cycle_from_path():
    assert graph_iso(C4, P4) is None


def test_graph_embed_induced_positive():
    assert graph_embed(P3, C4) == (0, 1, 2)


def test_graph_embed_rejects_triangle_into_square():
    assert graph_embed(K3, C4) is None


def test_graph_embed_is_induced_not_subgraph():
    # two isolated vertices need a non-edge; K3 has none
    E2 = Graph(2, frozenset())
    assert graph_embed(E2, K3) is None
    assert graph_embed(E2, P3) == (0, 2)


def test_graph_embed_edge_count_filter():
    assert graph_embed(K3, P3) is None


def big_space(n):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(1)
    return validate_metric(rows)


def test_guardrail_refuses_13_points_by_default():
    X = big_space(13)
    with pytest.raises(GuardrailExceeded) as exc:
        find_isometry(X, X)
    assert exc.value.n == 13
    assert exc.value.bound == 12
    assert "DISTSET_MAX_POINTS" in str(exc.value)


def test_guardrail_lifted_by_explicit_parameter():
    X = big_space(13)
    assert find_isometry(X, X, max_points=13) is not None


def test_guardrail_lifted_by_environment(monkeypatch):
    monkeypatch.setenv("DISTSET_MAX_POINTS", "13")
    X = big_space(13)
    assert find_isometry(X, X) is not None


def test_explicit_parameter_beats_environment(monkeypatch):
    monkeypatch.setenv("DISTSET_MAX_POINTS", "20")
    X = big_space(6)
    with pytest.raises(GuardrailExceeded):
        find_isometry(X, X, max_points=5)


def test_guardrail_applies_to_graph_searches():
    G = Graph(13, frozenset())
    with pytest.raises(GuardrailExceeded):
        graph_iso(G, G)
    with pytest.raises(GuardrailExceeded):
        graph_embed(G, G)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # one search level per placed point, far past the default recursion limit
    G = Graph(1100, frozenset())
    assert graph_iso(G, G, max_points=2000) == tuple(range(1100))


def test_graph_oracles_agree_with_vf2():
    # An outside reference: the graph and space oracles share one core, so
    # acceptance criterion 02 alone would partly check the core against
    # itself. networkx's GraphMatcher implements VF2 (Cordella et al., 2004);
    # subgraph_is_isomorphic tests induced subgraphs, as graph_embed does.
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    graphs = []
    for n in range(1, 5):
        slots = list(itertools.combinations(range(n), 2))
        for k in range(len(slots) + 1):
            graphs.extend(Graph(n, frozenset(c)) for c in itertools.combinations(slots, k))
    assert len(graphs) == 75

    def to_nx(G):
        g = nx.Graph()
        g.add_nodes_from(range(G.n))
        g.add_edges_from(G.edges)
        return g

    nxs = [to_nx(G) for G in graphs]
    for (G, g), (H, h) in itertools.product(zip(graphs, nxs), repeat=2):
        assert (graph_iso(G, H) is not None) == GraphMatcher(g, h).is_isomorphic()
        assert (graph_embed(G, H) is not None) == GraphMatcher(h, g).subgraph_is_isomorphic()


def test_verify_reduction_pass_certificate():
    pair1 = validate_metric([[0, 1], [1, 0]])
    pair2 = validate_metric([[0, 2], [2, 0]])
    result = verify_reduction(
        [((pair1, pair1), (pair2, pair2)), ((pair1, pair2), (pair1, pair2))],
        find_isometry,
        find_isometry,
    )
    assert result["verdict"] == "PASS"
    assert result["counterexample"] is None
    assert result["pairs"] == [
        {"pair": 0, "R": True, "S": True, "ok": True},
        {"pair": 1, "R": False, "S": False, "ok": True},
    ]


def test_verify_reduction_reports_first_counterexample():
    pair1 = validate_metric([[0, 1], [1, 0]])
    pair2 = validate_metric([[0, 2], [2, 0]])
    result = verify_reduction(
        [((pair1, pair1), (pair1, pair2)), ((pair1, pair2), (pair1, pair2))],
        find_isometry,
        find_isometry,
    )
    assert result["verdict"] == "FAIL"
    assert result["counterexample"] == 0
    assert result["pairs"][0] == {"pair": 0, "R": True, "S": False, "ok": False}
    assert result["pairs"][1]["ok"] is True


def test_self_isometry_of_a_200_point_space_takes_under_half_a_second():
    # The space order updates each point's sorted distances by one insort
    # per step, and the core keeps candidate sets as bit masks; re-sorting
    # every key at every step took seconds at this size.
    rng = random.Random(200)
    n = 200
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        den = rng.choice((1, 2, 3))
        rows[i][j] = rows[j][i] = Fraction(rng.randint(10 * den, 20 * den), den)
    X = validate_metric(rows)
    started = time.perf_counter()
    assert find_isometry(X, X, max_points=n) == tuple(range(n))
    assert time.perf_counter() - started < 0.5
