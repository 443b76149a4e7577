"""Finite simple undirected graphs and their elements (vertices and edges).

Vertices are dense integer indices 0..n-1; optional string labels are
metadata only and never used for identity.  Edges are canonical unordered
pairs (min, max) in one sorted tuple.  Graphs are immutable once built.

An element is a plain tuple: ``("v", i)`` for vertex i and ``("e", u, v)``
with u < v for edge uv, which is what its JSON encoding ``["v", i]`` /
``["e", u, v]`` reads back as.

:class:`Record` gives ``Graph`` and the package's other value types the
equality, hash, repr and read-only fields of a frozen dataclass without
importing ``dataclasses``, which loads ``inspect``, ``ast`` and ``dis`` and
would slow every command's start-up.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

from .errors import DomainError, GraphConstructionError

Pair = tuple[int, int]


def canonical_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


Element = tuple[str, int] | tuple[str, int, int]


class Record:
    """A value type whose fields, named in order in ``_fields``, are set once
    by ``__init__`` through :meth:`_init`.

    Two records are equal when they are of one class and their fields are
    equal, a record hashes as the tuple of its fields (so one with a list
    field raises TypeError), its repr is ``Name(field=value, ...)``, and
    assigning or deleting an attribute raises AttributeError: what
    ``@dataclass(frozen=True)`` generates.
    """

    _fields: tuple[str, ...] = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Record):
    """Simple undirected graph on vertices 0..n-1; ``edges`` holds its
    canonical pairs (u < v) in ascending order, without repeats."""

    n: int
    edges: tuple[Pair, ...]
    labels: tuple[str, ...] | None
    _fields = ("n", "edges", "labels")

    def __init__(
        self, n: int, edges: tuple[Pair, ...], labels: tuple[str, ...] | None = None
    ) -> None:
        self._init(n, edges, labels)

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

    Raises GraphConstructionError for a vertex count or an endpoint whose
    type is not exactly ``int`` (so a bool or a float is refused), a negative
    vertex count, a self-loop or an out-of-range endpoint.  Each pair is
    checked and canonicalised in one loop; :func:`graph_from_pairs` then
    builds the graph.
    """
    if type(vertex_count) is not int:
        raise GraphConstructionError(f"vertex count {vertex_count!r} is not an int")
    if vertex_count < 0:
        raise GraphConstructionError(f"negative vertex count {vertex_count}")
    pairs: list[Pair] = []
    for u, v in edge_list:
        if not type(u) is type(v) is int:
            raise GraphConstructionError(
                f"edge ({u!r},{v!r}) has an endpoint that is not an int"
            )
        if u == v or not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise edge_error(u, v, vertex_count)
        pairs.append((u, v) if u < v else (v, u))
    return graph_from_pairs(vertex_count, pairs, labels)


def edge_error(u: int, v: int, n: int) -> GraphConstructionError:
    """The error for an edge (u, v), as listed, that is a self-loop or has an
    end outside [0, n)."""
    if u == v:
        return GraphConstructionError(f"self-loop on vertex {u}")
    return GraphConstructionError(f"edge ({u},{v}) has an endpoint outside [0,{n})")


def graph_from_pairs(
    n: int, pairs: list[Pair], labels: Iterable[str] | None = None
) -> Graph:
    """The graph on n vertices whose edges are ``pairs``, canonical pairs of
    vertices in [0, n) listed in any order and maybe more than once.

    An ascending list, the form of ``Graph.edges`` and of every graph
    document this package writes, becomes ``edges`` after one linear check;
    any other list is sorted and deduplicated, which gives the same graph.
    Raises GraphConstructionError when the labels do not number n.
    """
    label_tuple: tuple[str, ...] | None = None
    if labels is not None:
        label_tuple = tuple(str(s) for s in labels)
        if len(label_tuple) != n:
            raise GraphConstructionError(f"{len(label_tuple)} labels for {n} vertices")
    if all(map(operator.lt, pairs, islice(pairs, 1, None))):
        return Graph(n, tuple(pairs), label_tuple)
    return Graph(n, tuple(dict.fromkeys(sorted(pairs))), label_tuple)


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
