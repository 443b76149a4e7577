"""Total and edge colourings, the properness verifiers, and type classification.

A total colouring is read only as two flat lists: ``vertex_colours[i]``
colours vertex i and ``edge_colours[i]`` colours ``edges[i]``, the sorted
tuple of canonical ``(u, v)`` pairs, so checking that it covers a graph is
one tuple comparison with ``Graph.edges``, or an identity test when it
shares that tuple.  An edge colouring is a list of colours aligned with its
graph's ``edges``, as the edge-colouring primitives return.  Both verifiers
share one edge-conflict routine over ``Graph.incidence()``, and a report
lists each conflict as two elements, ``("v", i)`` or ``("e", u, v)``, and
the colour they share.

Colours are 0-based non-negative integers.  Palettes need not be contiguous;
``colours_used`` always counts distinct values and :func:`normalize_total`
compacts a palette when a contiguous one is wanted for output.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    GraphConstructionError,
    IncompleteColouringError,
    OutOfConjectureRangeError,
)
from .graph_core import Element, Graph, Pair, Record


class TotalColouring(Record):
    """One colour per vertex (listed by index) and per edge of a target graph.

    ``edge_colours[i]`` colours ``edges[i]``, and ``edges`` holds canonical
    pairs in ascending order; :meth:`from_parts` builds one from
    ``(u, v, colour)`` triples listed in any order.
    """

    vertex_colours: list[int]
    edges: tuple[Pair, ...]
    edge_colours: list[int]
    _fields = ("vertex_colours", "edges", "edge_colours")

    def __init__(
        self, vertex_colours: list[int], edges: tuple[Pair, ...], edge_colours: list[int]
    ) -> None:
        if len(edge_colours) != len(edges):
            raise DomainError("edge_colours and edges differ in length")
        for i, c in enumerate(vertex_colours):
            if c < 0:
                raise DomainError(f"negative colour {c} on vertex {i}")
        _reject_negative(edges, edge_colours)
        self._init(vertex_colours, edges, edge_colours)

    @classmethod
    def from_parts(
        cls, vertex_colours: Sequence[int], triples: Iterable[Sequence[int]]
    ) -> "TotalColouring":
        """Build one from ``(u, v, colour)`` triples in any order and orientation,
        refusing a self-loop or a pair given twice, repeated or reversed."""
        fixed: dict[Pair, int] = {}
        for u, v, c in triples:
            if u == v:
                raise GraphConstructionError(f"self-loop on vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in fixed:
                raise GraphConstructionError("edge (%d,%d) is coloured more than once" % pair)
            fixed[pair] = c
        edges = tuple(sorted(fixed))
        return cls(list(vertex_colours), edges, list(map(fixed.__getitem__, edges)))

    @property
    def colours(self) -> frozenset[int]:
        return frozenset(self.vertex_colours).union(self.edge_colours)

    @property
    def palette_size(self) -> int:
        return len(self.colours)


class VerificationReport(Record):
    """A verifier's verdict: each conflict as two elements and their colour.
    Unlike the other records it is mutable, and so unhashable."""

    valid: bool
    violations: list[tuple[Element, Element, int]]
    colours_used: int
    _fields = ("valid", "violations", "colours_used")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        valid: bool,
        violations: list[tuple[Element, Element, int]] | None = None,
        colours_used: int = 0,
    ) -> None:
        self._init(valid, [] if violations is None else violations, colours_used)


class TypeClass(Enum):
    TYPE_I = 1
    TYPE_II = 2


def check_cover(g: Graph, tc: TotalColouring) -> None:
    """Raise IncompleteColouringError unless ``tc`` colours exactly g's elements.

    A colouring decoded against ``g`` (a ``colour -o`` bundle, or a colouring
    document listed in ``g.edges`` order) shares the ``g.edges`` tuple, so
    the check is an identity test; any other is compared pair by pair.
    """
    n, edges = len(tc.vertex_colours), tc.edges
    if n == g.n and (edges is g.edges or edges == g.edges):
        return
    have = set(edges)
    found = sum(u < v and g.has_edge(u, v) for u, v in have)
    missing, extra = len(g.edges) - found, len(have) - found
    raise IncompleteColouringError(
        f"colouring does not match the graph's elements "
        f"({missing + max(g.n - n, 0)} missing, {extra + max(n - g.n, 0)} unknown)"
    )


def _reject_negative(edges: Sequence[Pair], colours: Sequence[int]) -> None:
    """Raise DomainError naming the lowest colour below 0, if there is one."""
    if min(colours, default=0) < 0:
        c, (u, v) = min(zip(colours, edges))
        raise DomainError(f"negative colour {c} on edge ({u},{v})")


def _edge_conflicts(
    g: Graph, colours: Sequence[int]
) -> list[tuple[Element, Element, int]]:
    """Every pair of equal-coloured edges of g that share an endpoint.

    ``colours[i]`` colours ``g.edges[i]``.  The edge ids of ``g.incidence()``
    are bucketed by colour at each vertex, so only the conflicting pairs are
    ever formed.  Two distinct edges of a simple graph share at most one
    endpoint, so each pair is reported exactly once: by shared vertex, then
    by its (i, j) edge ids, which is its order in that vertex's incidence list.
    Each edge's ``("e", u, v)`` element is built once, at the first conflict,
    and shared by every pair it is in.
    """
    violations: list[tuple[Element, Element, int]] = []
    elements: list[Element] = []
    for ids in g.incidence():
        if len(set(map(colours.__getitem__, ids))) == len(ids):
            continue
        if not elements:
            elements = [("e", u, v) for u, v in g.edges]
        buckets: dict[int, list[int]] = {}
        for i in ids:
            buckets.setdefault(colours[i], []).append(i)
        for i, j in sorted(p for b in buckets.values() for p in combinations(b, 2)):
            violations.append((elements[i], elements[j], colours[i]))
    return violations


def verify_total(g: Graph, tc: TotalColouring) -> VerificationReport:
    """Certify a total colouring, listing every conflicting element pair.

    A conflict is a pair of equal-coloured elements that are adjacent vertices,
    edges sharing an endpoint, or an edge and one of its endpoints.  A colouring
    that misses (or invents) elements raises IncompleteColouringError instead,
    which is distinct from being invalid.
    """
    check_cover(g, tc)
    vc, edges, ec = tc.vertex_colours, tc.edges, tc.edge_colours
    violations: list[tuple[Element, Element, int]] = [
        (("v", u), ("v", v), vc[u]) for u, v in edges if vc[u] == vc[v]
    ]
    violations += _edge_conflicts(g, ec)
    for (u, v), c in zip(edges, ec):
        if vc[u] == c or vc[v] == c:
            violations += [(("v", w), ("e", u, v), c) for w in (u, v) if vc[w] == c]
    return VerificationReport(not violations, violations, tc.palette_size)


def verify_edge(g: Graph, colours: Sequence[int]) -> VerificationReport:
    """Certify a proper edge colouring: no two edges sharing an endpoint agree.

    ``colours[i]`` colours ``g.edges[i]``; a list of another length
    raises IncompleteColouringError, and a negative colour DomainError.
    """
    if len(colours) != len(g.edges):
        raise IncompleteColouringError(
            f"edge colouring has {len(colours)} colours for {len(g.edges)} edges"
        )
    _reject_negative(g.edges, colours)
    violations = _edge_conflicts(g, colours)
    return VerificationReport(not violations, violations, len(set(colours)))


def classify(g: Graph, chi_total: int) -> TypeClass:
    """Type I when chi_total = max_degree + 1, type II when it is max_degree + 2.

    Anything outside that range would contradict the total colouring
    conjecture's bounds (or the trivial lower bound) and is surfaced loudly
    rather than clamped.
    """
    delta = g.max_degree
    if chi_total == delta + 1:
        return TypeClass.TYPE_I
    if chi_total == delta + 2:
        return TypeClass.TYPE_II
    raise OutOfConjectureRangeError(
        f"chi_total={chi_total} outside [{delta + 1}, {delta + 2}] "
        f"for max degree {delta}"
    )


def normalize_total(tc: TotalColouring) -> TotalColouring:
    """Relabel colours order-preservingly onto 0..k-1 (k = palette size)."""
    rank = {c: i for i, c in enumerate(sorted(tc.colours))}
    return TotalColouring(
        [rank[c] for c in tc.vertex_colours],
        tc.edges,
        [rank[c] for c in tc.edge_colours],
    )
