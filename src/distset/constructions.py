"""Space-building devices: gluing, max products, tree spaces, graph spaces.

Every constructor returns a validated FiniteMetricSpace, so a bug here
surfaces as a named validation error instead of a silently bad matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadDistancePair,
    IndexOutOfRange,
    InvalidTreeData,
    NonpositiveGlueDistance,
)
from .metric import FiniteMetricSpace, validate_metric
from .rationals import RationalLike, rat


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges normalized to i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            a, b = (i, j) if i < j else (j, i)
            if not 0 <= a < b < self.n:
                raise ValueError(f"edge ({i},{j}) out of range for {self.n} vertices")
            normalized.add((a, b))
        object.__setattr__(self, "edges", frozenset(normalized))

    def adjacent(self, i: int, j: int) -> bool:
        a, b = (i, j) if i < j else (j, i)
        return (a, b) in self.edges

    def degrees(self) -> list[int]:
        """Every vertex's degree, in one pass over the edges."""
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg


def glue(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    r: RationalLike,
    xbar: int = 0,
    ybar: int = 0,
) -> FiniteMetricSpace:
    """Join two spaces across a bridge of length r anchored at xbar and ybar.

    Cross distances are max(d_X(x, xbar), d_Y(y, ybar), r); the blocks keep
    their own metrics, and the spectrum of the result is exactly
    D(X) | D(Y) | {r}.
    """
    r = rat(r)
    if r <= 0:
        raise NonpositiveGlueDistance()
    if not 0 <= xbar < X.n:
        raise IndexOutOfRange(xbar, X.n)
    if not 0 <= ybar < Y.n:
        raise IndexOutOfRange(ybar, Y.n)
    n = X.n + Y.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(X.n):
        for j in range(X.n):
            rows[i][j] = X.dist[i][j]
    for i in range(Y.n):
        for j in range(Y.n):
            rows[X.n + i][X.n + j] = Y.dist[i][j]
    for i in range(X.n):
        for j in range(Y.n):
            d = max(X.dist[i][xbar], Y.dist[j][ybar], r)
            rows[i][X.n + j] = d
            rows[X.n + j][i] = d
    return validate_metric(rows)


def max_product(X: FiniteMetricSpace, Z: FiniteMetricSpace) -> FiniteMetricSpace:
    """Product set with the max metric; point (i, j) sits at index i*|Z| + j."""
    n = X.n * Z.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(X.n):
        for j in range(Z.n):
            for k in range(X.n):
                for l in range(Z.n):
                    rows[i * Z.n + j][k * Z.n + l] = max(X.dist[i][k], Z.dist[j][l])
    return validate_metric(rows)


@dataclass(frozen=True)
class TreeData:
    """A finite prefix-closed tree plus the distance data driving tree_space.

    r_seq gives the separation of branches splitting at each level, rp_seq
    the distance from each level to the extra point, and x a value the
    resulting space must avoid.
    """

    nodes: tuple[tuple[int, ...], ...]
    r_seq: tuple[Fraction, ...]
    rp_seq: tuple[Fraction, ...]
    x: Fraction


def check_tree_suitable(
    r_seq: tuple[Fraction, ...],
    rp_seq: tuple[Fraction, ...],
    x: Fraction,
    depth: int,
) -> tuple[bool, str | None]:
    """Check the distance data against every clause; report the first failure."""
    if len(r_seq) != len(rp_seq):
        return False, "r_seq and rp_seq must have equal length"
    n = len(r_seq)
    if n <= depth:
        return False, f"need more sequence terms ({n}) than the tree depth ({depth})"
    if x <= 0:
        return False, "x must be positive"
    if any(v <= 0 for v in r_seq):
        return False, "r_seq values must be positive"
    if any(r_seq[i] <= r_seq[i + 1] for i in range(n - 1)):
        return False, "r_seq must be strictly decreasing"
    increasing = all(rp_seq[i] < rp_seq[i + 1] for i in range(n - 1))
    decreasing = all(rp_seq[i] > rp_seq[i + 1] for i in range(n - 1))
    if not (increasing or decreasing):
        return False, "rp_seq must be strictly monotone"
    if r_seq[0] >= min(x, rp_seq[0]):
        return False, "need r_seq[0] < min(x, rp_seq[0])"
    for i in range(n):
        gap = abs(rp_seq[i] - x)
        if gap == 0:
            return False, f"rp_seq[{i}] must differ from x"
        if gap >= r_seq[i]:
            return False, f"need |rp_seq[{i}] - x| < r_seq[{i}]"
    return True, None


def tree_space(data: TreeData) -> FiniteMetricSpace:
    """Metric space on the tree nodes plus one extra point.

    Two distinct nodes sit at r_n where n is the length of their longest
    common prefix; a node of length k sits at rp_k from the extra point. The
    value x is never realized.
    """
    nodes = sorted(set(data.nodes), key=lambda s: (len(s), s))
    if not nodes:
        raise InvalidTreeData("tree must contain the root")
    node_set = set(nodes)
    for s in nodes:
        if s and s[:-1] not in node_set:
            raise InvalidTreeData(f"node {s} lacks its parent; tree must be prefix-closed")
    if nodes[0] != ():
        raise InvalidTreeData("tree must contain the root")
    depth = max(len(s) for s in nodes)
    ok, why = check_tree_suitable(data.r_seq, data.rp_seq, data.x, depth)
    if not ok:
        raise InvalidTreeData(why)

    n = len(nodes) + 1
    star = n - 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, s in enumerate(nodes):
        for j, t in enumerate(nodes):
            if i == j:
                continue
            split = 0
            while split < min(len(s), len(t)) and s[split] == t[split]:
                split += 1
            rows[i][j] = data.r_seq[split]
        rows[i][star] = data.rp_seq[len(s)]
        rows[star][i] = rows[i][star]
    return validate_metric(rows)


def graph_space(G: Graph, r: RationalLike, rp: RationalLike) -> FiniteMetricSpace:
    """Metric space on the vertices: edges at distance r, non-edges at rp.

    The window 0 < r < rp <= 2r makes every triangle valid and lets
    space_to_graph invert the construction.
    """
    r, rp = rat(r), rat(rp)
    if r <= 0:
        raise BadDistancePair(f"r = {r} is not positive")
    if rp <= r:
        raise BadDistancePair(f"rp = {rp} does not exceed r = {r}")
    if rp > 2 * r:
        raise BadDistancePair(f"rp = {rp} exceeds 2r = {2 * r}")
    rows = [
        [Fraction(0) if i == j else (r if G.adjacent(i, j) else rp) for j in range(G.n)]
        for i in range(G.n)
    ]
    return validate_metric(rows)


def space_to_graph(X: FiniteMetricSpace, r: RationalLike) -> Graph:
    """Graph with an edge wherever the space realizes distance exactly r."""
    r = rat(r)
    edges = {
        (i, j) for i in range(X.n) for j in range(i + 1, X.n) if X.dist[i][j] == r
    }
    return Graph(X.n, frozenset(edges))


def graph_to_json_dict(G: Graph) -> dict:
    return {"n": G.n, "edges": [list(e) for e in sorted(G.edges)]}


def graph_from_json_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or set(data) != {"n", "edges"}:
        raise ValueError("graph file must be an object with exactly the keys 'n' and 'edges'")
    n = data["n"]
    edges = data["edges"]
    if type(n) is not int or not isinstance(edges, list):
        raise ValueError("graph file: 'n' must be an integer and 'edges' a list")
    pairs = set()
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(type(v) is int for v in e):
            raise ValueError(f"graph file: bad edge entry {e!r}")
        pairs.add((e[0], e[1]))
    return Graph(n, frozenset(pairs))
