"""Direct (tensor) products of graphs, and the crown graphs they specialise to.

Product vertices are packed row-major: the pair (i, j) with i indexing the
first factor and j the second lives at index i * |V(H)| + j, so each fibre
{i} x V(H) is a contiguous index range.
"""

from __future__ import annotations

from .errors import DomainError
from .graph_core import Graph, Pair, Record, make_graph


class ProductVertexMap(Record):
    """Bijection between product vertex indices and factor-index pairs."""

    g_size: int
    h_size: int
    _fields = ("g_size", "h_size")

    def __init__(self, g_size: int, h_size: int) -> None:
        self._init(g_size, h_size)

    def index(self, i: int, j: int) -> int:
        if not (0 <= i < self.g_size and 0 <= j < self.h_size):
            raise DomainError(f"pair ({i},{j}) outside the factor ranges")
        return i * self.h_size + j

    def pair(self, p: int) -> tuple[int, int]:
        if not 0 <= p < self.g_size * self.h_size:
            raise DomainError(f"index {p} outside the product range")
        return divmod(p, self.h_size)


def direct_product(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """The direct product: (u,v) ~ (u',v') iff uu' in E(G) and vv' in E(H).

    Isolated factor vertices are kept so the product's vertex set is exactly
    V(G) x V(H); the edge count is 2 |E(G)| |E(H)|.
    """
    if g.n == 0 or h.n == 0:
        raise DomainError("direct product factors must have at least one vertex")
    # vertex (i, j) is i * |V(H)| + j, so its edges to larger vertices go to
    # (i2, j2) with i2 > i, and walking i2 then j2 upwards emits them sorted;
    # simple factors give no loop or repeat, so no make_graph re-check
    edges: list[Pair] = []
    for i, g_here in enumerate(g.adjacency):
        rows = [i2 * h.n for i2 in g_here if i2 > i]
        for p, run in enumerate(h.adjacency, i * h.n):
            for row in rows:
                edges += [(p, row + j2) for j2 in run]
    labels = tuple(
        f"({g.label(i)},{h.label(j)})" for i in range(g.n) for j in range(h.n)
    )
    return Graph(g.n * h.n, tuple(edges), labels), ProductVertexMap(g.n, h.n)


def crown_graph(m: int) -> Graph:
    """The crown graph on 2m vertices: K_{m,m} minus a perfect matching.

    Parts are x_k = k and y_t = m + t with edges x_k y_t for all k != t; the
    result is (m-1)-regular and isomorphic to the direct product K_m x K_2.
    """
    if m < 2:
        raise DomainError("crown graph needs m >= 2")
    edges = [(k, m + t) for k in range(m) for t in range(m) if k != t]
    labels = tuple(f"x{k}" for k in range(m)) + tuple(f"y{t}" for t in range(m))
    return make_graph(2 * m, edges, labels)
