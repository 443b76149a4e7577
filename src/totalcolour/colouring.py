"""Total and edge colourings and the properness verifiers.

A total colouring is read only as two flat lists: ``vertex_colours[i]``
colours vertex i and ``edge_colours[i]`` colours ``edges[i]``, the sorted
tuple of canonical ``(u, v)`` pairs, so checking that it covers a graph is
one tuple comparison with ``Graph.edges``, or an identity test when it
shares that tuple.  An edge colouring is a list of colours aligned with its
graph's ``edges``, as the edge-colouring primitives return.  Both verifiers
share one edge-conflict routine over each vertex's edge ids, which
:func:`verify_total` builds in its one loop over the edges and
:func:`verify_edge` takes from ``Graph.incidence()``; a report lists each
conflict as two elements, ``("v", i)`` or ``("e", u, v)``, and the colour
they share.

A colour is a non-negative ``int``, never a bool or a float: one helper
checks every :class:`TotalColouring` and every :func:`verify_edge` list.
Palettes need not be contiguous; ``colours_used`` always counts distinct
values and :func:`normalize_total` compacts a palette for output.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .errors import DomainError, GraphConstructionError, IncompleteColouringError
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
        _check_colours(vertex_colours)
        _check_colours(edge_colours, edges)
        self._init(vertex_colours, edges, edge_colours)

    @classmethod
    def from_parts(
        cls, vertex_colours: Sequence[int], triples: Iterable[Sequence[int]]
    ) -> "TotalColouring":
        """Build one from ``(u, v, colour)`` triples in any order and orientation,
        refusing, in the order given, a self-loop, a pair given twice, repeated
        or reversed, and an endpoint whose type is not exactly ``int``; the
        constructor then checks the colours."""
        fixed: dict[Pair, int] = {}
        for u, v, c in triples:
            if not type(u) is type(v) is int:
                raise GraphConstructionError(
                    f"edge ({u!r},{v!r}) has an endpoint that is not an int"
                )
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
    """A verifier's verdict: each conflict as two elements and their colour."""

    valid: bool
    violations: list[tuple[Element, Element, int]]
    colours_used: int
    _fields = ("valid", "violations", "colours_used")

    def __init__(
        self, valid: bool, violations: list[tuple[Element, Element, int]], colours_used: int
    ) -> None:
        self._init(valid, violations, colours_used)


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


def _check_colours(colours: Sequence[int], edges: Sequence[Pair] | None = None) -> None:
    """Raise DomainError naming the first colour, by index, whose type is not
    exactly ``int`` or that is below 0; ``colours[i]`` colours vertex i, or
    ``edges[i]`` when ``edges`` is given."""
    if set(map(type, colours)) <= {int} and min(colours, default=0) >= 0:
        return
    for i, c in enumerate(colours):
        if type(c) is not int or c < 0:
            at = f"vertex {i}" if edges is None else "edge (%s,%s)" % tuple(edges[i])
            if type(c) is not int:
                raise DomainError(f"colour {c!r} on {at} is not an int")
            raise DomainError(f"negative colour {c} on {at}")


def _edge_conflicts(
    edges: Sequence[Pair], colours: Sequence[int], incidence: list[list[int]]
) -> list[tuple[Element, Element, int]]:
    """Every pair of equal-coloured edges that share an endpoint.

    ``colours[i]`` colours ``edges[i]`` and ``incidence[w]`` lists the ids of
    the edges at vertex w, ascending, as ``Graph.incidence()`` does.  At a
    vertex whose colours are not all distinct, only the edges of a colour that
    repeats there are paired.  Two distinct edges of a simple graph share at
    most one endpoint, so each pair is reported exactly once: by shared
    vertex, then by its (i, j) edge ids.  Each edge's ``("e", u, v)`` element
    is built once, at the first conflict, and shared by every pair it is in.
    """
    violations: list[tuple[Element, Element, int]] = []
    elements: list[Element] = []
    for ids in incidence:
        if len(set(map(colours.__getitem__, ids))) == len(ids):
            continue
        if not elements:
            elements = [("e", u, v) for u, v in edges]
        here = [colours[i] for i in ids]
        seen: set[int] = set()
        # seen.add returns None, so a colour is kept from its second sighting
        repeats = {c for c in here if c in seen or seen.add(c)}
        pairs: list[tuple[int, int]] = []
        for r in repeats:
            pairs += combinations([i for i, c in zip(ids, here) if c == r], 2)
        pairs.sort()
        violations += [(elements[i], elements[j], colours[i]) for i, j in pairs]
    return violations


def verify_total(g: Graph, tc: TotalColouring) -> VerificationReport:
    """Certify a total colouring, listing every conflicting element pair.

    A conflict is a pair of equal-coloured elements that are adjacent vertices,
    edges sharing an endpoint, or an edge and one of its endpoints.  A colouring
    that misses (or invents) elements raises IncompleteColouringError instead,
    which is distinct from being invalid.

    One loop over the edges builds each vertex's edge ids and records the
    edges whose two ends, or an end and the edge, share a colour; the report
    lists the vertex pairs, then the edge pairs, then the vertex-edge pairs,
    each in sorted-edge order.  The endpoints are read from ``g.edges``, which
    the cover check has shown equal to ``tc.edges``.
    """
    check_cover(g, tc)
    vc, edges, ec = tc.vertex_colours, g.edges, tc.edge_colours
    incidence: list[list[int]] = [[] for _ in range(g.n)]
    clashes: list[int] = []
    i = 0
    for (u, v), c in zip(edges, ec):
        incidence[u].append(i)
        incidence[v].append(i)
        a, b = vc[u], vc[v]
        if a == b or a == c or b == c:
            clashes.append(i)
        i += 1
    violations: list[tuple[Element, Element, int]] = []
    for i in clashes:
        u, v = edges[i]
        if vc[u] == vc[v]:
            violations.append((("v", u), ("v", v), vc[u]))
    violations += _edge_conflicts(edges, ec, incidence)
    for i in clashes:
        (u, v), c = edges[i], ec[i]
        violations += [(("v", w), ("e", u, v), c) for w in (u, v) if vc[w] == c]
    return VerificationReport(not violations, violations, tc.palette_size)


def verify_edge(g: Graph, colours: Sequence[int]) -> VerificationReport:
    """Certify a proper edge colouring: no two edges sharing an endpoint agree.

    ``colours[i]`` colours ``g.edges[i]``; a list of another length raises
    IncompleteColouringError, and a colour that is not a non-negative int
    DomainError.
    """
    if len(colours) != len(g.edges):
        raise IncompleteColouringError(
            f"edge colouring has {len(colours)} colours for {len(g.edges)} edges"
        )
    _check_colours(colours, g.edges)
    violations = _edge_conflicts(g.edges, colours, g.incidence())
    return VerificationReport(not violations, violations, len(set(colours)))


def normalize_total(tc: TotalColouring) -> TotalColouring:
    """Relabel colours order-preservingly onto 0..k-1 (k = palette size)."""
    rank = {c: i for i, c in enumerate(sorted(tc.colours))}
    return TotalColouring(
        [rank[c] for c in tc.vertex_colours],
        tc.edges,
        [rank[c] for c in tc.edge_colours],
    )
