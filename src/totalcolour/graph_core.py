"""Finite simple undirected graphs and their elements (vertices and edges).

Vertices are dense integer indices 0..n-1; optional string labels are
metadata only and never used for identity.  Edges are canonical unordered
pairs (min, max) in one sorted tuple.  Graphs are immutable once built.

An element is a plain tuple: ``("v", i)`` for vertex i and ``("e", u, v)``
with u < v for edge uv, which is what its JSON encoding ``["v", i]`` /
``["e", u, v]`` reads back as.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

from .errors import DomainError, GraphConstructionError

Pair = tuple[int, int]


def canonical_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


Element = tuple[str, int] | tuple[str, int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; ``edges`` holds its
    canonical pairs (u < v) in ascending order, without repeats."""

    n: int
    edges: tuple[Pair, ...]
    labels: tuple[str, ...] | None = None

    @cached_property
    def _edge_set(self) -> frozenset[Pair]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, ascending, as sorted edges list them."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    def incidence(self) -> list[list[int]]:
        """Each vertex's edge ids (indices into ``edges``), ascending; built
        on each call, so the lists live only as long as the caller's use."""
        at: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            at[u].append(i)
            at[v].append(i)
        return at

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        count = [0] * self.n
        for u, v in self.edges:
            count[u] += 1
            count[v] += 1
        return tuple(count)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_pair(u, v) in self._edge_set

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v)

    def elements(self) -> Iterator[Element]:
        """All elements in canonical order: vertices by index, then edges sorted."""
        for i in range(self.n):
            yield ("v", i)
        for u, v in self.edges:
            yield ("e", u, v)

    def element_count(self) -> int:
        return self.n + len(self.edges)

    def contains_element(self, el: Element) -> bool:
        if el[0] == "v" and len(el) == 2:
            return 0 <= el[1] < self.n
        return el[0] == "e" and el[1:] in self._edge_set


def make_graph(
    vertex_count: int,
    edge_list: Iterable[tuple[int, int]],
    labels: Iterable[str] | None = None,
) -> Graph:
    """Build a graph, deduplicating and canonicalizing the edge list.

    Raises GraphConstructionError for self-loops or out-of-range endpoints.
    A list of canonical pairs in strictly ascending order, the form of
    ``Graph.edges`` and of every graph document this package writes, becomes
    ``edges`` after one linear check; any other list is sorted and
    deduplicated, which gives the same graph.
    """
    if vertex_count < 0:
        raise GraphConstructionError(f"negative vertex count {vertex_count}")
    pairs: list[Pair] = []
    for u, v in edge_list:
        if u == v:
            raise GraphConstructionError(f"self-loop on vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphConstructionError(
                f"edge ({u},{v}) has an endpoint outside [0,{vertex_count})"
            )
        pairs.append((u, v) if u < v else (v, u))
    label_tuple: tuple[str, ...] | None = None
    if labels is not None:
        label_tuple = tuple(str(s) for s in labels)
        if len(label_tuple) != vertex_count:
            raise GraphConstructionError(
                f"{len(label_tuple)} labels for {vertex_count} vertices"
            )
    if all(map(operator.lt, pairs, islice(pairs, 1, None))):
        return Graph(vertex_count, tuple(pairs), label_tuple)
    return Graph(vertex_count, tuple(dict.fromkeys(sorted(pairs))), label_tuple)


def complete_graph(n: int) -> Graph:
    """K_n.  Rejects n = 0; K_1 is the single vertex with no edges."""
    if n < 1:
        raise GraphConstructionError("complete graph needs at least one vertex")
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the first part on indices 0..a-1 and the second on a..a+b-1."""
    if a < 1 or b < 1:
        raise GraphConstructionError("complete bipartite graph needs nonempty parts")
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def path_graph(n: int) -> Graph:
    """P_n: the path 0-1-...-(n-1)."""
    if n < 1:
        raise GraphConstructionError("path needs at least one vertex")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n: the cycle on n >= 3 vertices."""
    if n < 3:
        raise GraphConstructionError("cycle needs at least three vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: centre 0 joined to each of the given number of leaves."""
    if leaves < 1:
        raise GraphConstructionError("star needs at least one leaf")
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def edgeless_graph(n: int) -> Graph:
    if n < 0:
        raise GraphConstructionError(f"negative vertex count {n}")
    return Graph(n, ())


def _require_element(g: Graph, el: Element) -> None:
    if not g.contains_element(el):
        raise DomainError(f"element {el} is not in the graph")


def incidence_conflicts(g: Graph, a: Element, b: Element) -> bool:
    """True iff two distinct elements may not share a colour in a total colouring.

    That is: adjacent vertices, edges sharing an endpoint, or an edge and one
    of its endpoints.  Symmetric and irreflexive.  An edge must be given as
    ``("e", u, v)`` with u < v; ``("e", v, u)`` is not in the graph and
    raises DomainError like any other foreign element.
    """
    _require_element(g, a)
    _require_element(g, b)
    if a == b:
        return False
    if a[0] == b[0] == "v":
        return g.has_edge(a[1], b[1])
    # two edges, or an edge and a vertex: do their ends meet?
    return not set(a[1:]).isdisjoint(b[1:])
