"""Total and edge colourings, the properness verifiers, and type classification.

A total colouring is a list of vertex colours indexed by vertex plus an
:class:`EdgeColouring` keyed by canonical ``(u, v)`` pairs.  Both verifiers
share one edge-conflict routine.

Colours are 0-based non-negative integers.  Palettes need not be contiguous;
``colours_used`` always counts distinct values and :func:`normalize_total`
compacts a palette when a contiguous one is wanted for output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Mapping, Sequence

from .errors import (
    DomainError,
    GraphConstructionError,
    IncompleteColouringError,
    OutOfConjectureRangeError,
)
from .graph_core import Edge, Element, Graph, Pair, Vertex, canonical_pair


@dataclass
class EdgeColouring:
    """Assignment of one colour to every edge of a target graph."""

    assignment: dict[Pair, int]

    def __post_init__(self) -> None:
        fixed: dict[Pair, int] = {}
        for (u, v), c in self.assignment.items():
            if u == v:
                raise GraphConstructionError(f"self-loop on vertex {u}")
            if c < 0:
                raise DomainError(f"negative colour {c} on edge ({u},{v})")
            pair = canonical_pair(u, v)
            if pair in fixed:  # (u, v) and (v, u) both given
                raise GraphConstructionError(
                    f"edge ({pair[0]},{pair[1]}) is coloured more than once"
                )
            fixed[pair] = c
        self.assignment = fixed

    def colour(self, u: int, v: int) -> int:
        return self.assignment[canonical_pair(u, v)]

    @property
    def colours(self) -> frozenset[int]:
        return frozenset(self.assignment.values())

    @property
    def palette_size(self) -> int:
        return len(self.colours)


@dataclass
class TotalColouring:
    """One colour per vertex (listed by index) and per edge of a target graph."""

    vertex_colours: list[int]
    edges: EdgeColouring

    def __post_init__(self) -> None:
        for i, c in enumerate(self.vertex_colours):
            if c < 0:
                raise DomainError(f"negative colour {c} on vertex {i}")

    @classmethod
    def from_parts(
        cls,
        vertex_colours: Sequence[int],
        edge_colours: Mapping[Pair, int],
    ) -> "TotalColouring":
        return cls(list(vertex_colours), EdgeColouring(dict(edge_colours)))

    def vertex_colour(self, i: int) -> int:
        return self.vertex_colours[i]

    def edge_colour(self, u: int, v: int) -> int:
        return self.edges.colour(u, v)

    @property
    def colours(self) -> frozenset[int]:
        return frozenset(self.vertex_colours) | self.edges.colours

    @property
    def palette_size(self) -> int:
        return len(self.colours)


@dataclass
class VerificationReport:
    valid: bool
    violations: list[tuple[Element, Element, int]] = field(default_factory=list)
    colours_used: int = 0


class TypeClass(Enum):
    TYPE_I = 1
    TYPE_II = 2


def _edge_cover_gap(g: Graph, ec: EdgeColouring) -> tuple[int, int]:
    """How many of the graph's edges ``ec`` misses, and how many it invents."""
    have = set(ec.assignment)
    return len(g.edges - have), len(have - g.edges)


def _edge_conflicts(g: Graph, ec: EdgeColouring) -> list[tuple[Element, Element, int]]:
    """Every pair of equal-coloured edges that share an endpoint.

    Incident edges are bucketed by colour at each vertex, so only the
    conflicting pairs are ever formed.  Two distinct edges of a simple graph
    share at most one endpoint, so each pair is reported exactly once: by
    shared vertex, then by its (i, j) positions in that vertex's sorted
    incidence list.
    """
    colour = ec.assignment
    incident: list[list[Pair]] = [[] for _ in range(g.n)]
    for e in g.sorted_edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    violations: list[tuple[Element, Element, int]] = []
    for edges_here in incident:
        buckets: dict[int, list[int]] = {}
        for i, e in enumerate(edges_here):
            buckets.setdefault(colour[e], []).append(i)
        if len(buckets) == len(edges_here):
            continue
        for i, j in sorted(p for b in buckets.values() for p in combinations(b, 2)):
            e, f = edges_here[i], edges_here[j]
            violations.append((Edge(*e), Edge(*f), colour[e]))
    return violations


def verify_total(g: Graph, tc: TotalColouring) -> VerificationReport:
    """Certify a total colouring, listing every conflicting element pair.

    A conflict is a pair of equal-coloured elements that are adjacent vertices,
    edges sharing an endpoint, or an edge and one of its endpoints.  A colouring
    that misses (or invents) elements raises IncompleteColouringError instead,
    which is distinct from being invalid.
    """
    missing, extra = _edge_cover_gap(g, tc.edges)
    missing += max(g.n - len(tc.vertex_colours), 0)
    extra += max(len(tc.vertex_colours) - g.n, 0)
    if missing or extra:
        raise IncompleteColouringError(
            f"colouring does not match the graph's elements "
            f"({missing} missing, {extra} unknown)"
        )
    vc = tc.vertex_colours
    violations: list[tuple[Element, Element, int]] = [
        (Vertex(u), Vertex(v), vc[u]) for u, v in g.sorted_edges if vc[u] == vc[v]
    ]
    violations += _edge_conflicts(g, tc.edges)
    ec = tc.edges.assignment
    for u, v in g.sorted_edges:
        c = ec[(u, v)]
        for w in (u, v):
            if vc[w] == c:
                violations.append((Vertex(w), Edge(u, v), c))
    return VerificationReport(not violations, violations, tc.palette_size)


def verify_edge(g: Graph, ec: EdgeColouring) -> VerificationReport:
    """Certify a proper edge colouring: no two edges sharing an endpoint agree."""
    missing, extra = _edge_cover_gap(g, ec)
    if missing or extra:
        raise IncompleteColouringError(
            f"edge colouring does not match the graph's edges "
            f"({missing} missing, {extra} unknown)"
        )
    violations = _edge_conflicts(g, ec)
    return VerificationReport(not violations, violations, ec.palette_size)


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
    return TotalColouring.from_parts(
        [rank[c] for c in tc.vertex_colours],
        {e: rank[c] for e, c in tc.edges.assignment.items()},
    )
