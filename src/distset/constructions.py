"""Space-building devices: gluing, max products, tree spaces, graph spaces.

Every constructor builds the integer codes of its matrix (rationals._codes)
from the codes of its inputs, brought to one scale, and returns a space
checked by the full metric check, so a bug here surfaces as a named
validation error instead of a silently bad matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat

from .errors import (
    BadDistancePair,
    IndexOutOfRange,
    InvalidTreeData,
    NonpositiveGlueDistance,
)
from .metric import FiniteMetricSpace, _space
from .rationals import INT, ListOf, RationalLike, _codes, _joint, read_shape


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
    q, ((r,),) = _codes([[r]])
    if r <= 0:
        raise NonpositiveGlueDistance()
    if not 0 <= xbar < X.n:
        raise IndexOutOfRange(xbar, X.n)
    if not 0 <= ybar < Y.n:
        raise IndexOutOfRange(ybar, Y.n)
    scale, (dx, dy, ((r,),)) = _joint(X._coded, Y._coded, (q, [[r]]))
    # the cross distance of (x, y) is max(max(d_X(x, xbar), r), d_Y(y, ybar))
    ax = [max(row[xbar], r) for row in dx]
    by = [row[ybar] for row in dy]
    rows = [row + list(map(max, repeat(a), by)) for row, a in zip(dx, ax)]
    rows += [list(map(max, ax, repeat(b))) + row for row, b in zip(dy, by)]
    return _space(scale, rows)


def max_product(X: FiniteMetricSpace, Z: FiniteMetricSpace) -> FiniteMetricSpace:
    """Product set with the max metric; point (i, j) sits at index i*|Z| + j."""
    scale, (dx, dz) = _joint(X._coded, Z._coded)
    rows = [
        list(chain.from_iterable(map(max, repeat(a), z_row) for a in x_row))
        for x_row in dx
        for z_row in dz
    ]
    return _space(scale, rows)


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
    _, (r_seq, rp_seq, (x,)) = _codes([r_seq, rp_seq, [x]])
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
    depth = max(len(s) for s in nodes)
    ok, why = check_tree_suitable(data.r_seq, data.rp_seq, data.x, depth)
    if not ok:
        raise InvalidTreeData(why)

    scale, (r_seq, rp_seq) = _codes([data.r_seq, data.rp_seq])
    n = len(nodes) + 1
    star = n - 1
    rows = [[0] * n for _ in range(n)]
    for i, s in enumerate(nodes):
        for j, t in enumerate(nodes):
            if i == j:
                continue
            split = 0
            while split < min(len(s), len(t)) and s[split] == t[split]:
                split += 1
            rows[i][j] = r_seq[split]
        rows[i][star] = rp_seq[len(s)]
        rows[star][i] = rows[i][star]
    return _space(scale, rows)


def graph_space(G: Graph, r: RationalLike, rp: RationalLike) -> FiniteMetricSpace:
    """Metric space on the vertices: edges at distance r, non-edges at rp.

    The window 0 < r < rp <= 2r makes every triangle valid and lets
    space_to_graph invert the construction.
    """
    scale, ((r, rp),) = _codes([[r, rp]])
    value = lambda code: Fraction(code, scale)  # for messages
    if r <= 0:
        raise BadDistancePair(f"r = {value(r)} is not positive")
    if rp <= r:
        raise BadDistancePair(f"rp = {value(rp)} does not exceed r = {value(r)}")
    if rp > 2 * r:
        raise BadDistancePair(f"rp = {value(rp)} exceeds 2r = {value(2 * r)}")
    rows = [[rp] * G.n for _ in range(G.n)]
    for a, b in G.edges:
        rows[a][b] = rows[b][a] = r
    for i, row in enumerate(rows):
        row[i] = 0
    return _space(scale, rows)


def space_to_graph(X: FiniteMetricSpace, r: RationalLike) -> Graph:
    """Graph with an edge wherever the space realizes distance exactly r."""
    q, ((r,),) = _codes([[r]])
    _, (d, ((r,),)) = _joint(X._coded, (q, [[r]]))
    edges = {
        (i, j)
        for i, row in enumerate(d)
        for j in compress(range(i + 1, X.n), map(r.__eq__, row[i + 1 :]))
    }
    return Graph(X.n, frozenset(edges))


def graph_to_json_dict(G: Graph) -> dict:
    return {"n": G.n, "edges": [list(e) for e in sorted(G.edges)]}


_GRAPH = {"n": INT, "edges": ListOf(ListOf(INT, "integer", 2), "edge")}


def graph_from_json_dict(data: dict) -> Graph:
    return Graph(**read_shape(data, _GRAPH, "graph"))
