"""The graph decoder as it stood before it checked each ``[u, v]`` entry in
one loop: ``_pairs`` fed the entries as they stand to ``make_graph``, which
checked and canonicalised them in a loop of its own.  Kept as the reference
that the one-loop decoder must agree with, error for error."""

from __future__ import annotations

import operator
from itertools import islice
from typing import Any, Iterable, Iterator

from totalcolour import Graph, GraphConstructionError, ParseError, TotalColourError


def _pairs(edges: list[Any]) -> Iterator[list[int]]:
    """Each ``[u, v]`` entry as it stands, once it holds two ints."""
    for item in edges:
        # type() rather than isinstance(): a bool is an int but not a vertex
        if type(item) is not list or len(item) != 2:
            raise ParseError(f"bad edge entry {item!r}")
        u, v = item
        if not type(u) is type(v) is int:
            raise ParseError(f"bad edge entry {item!r}")
        yield item


def make_graph(
    vertex_count: int,
    edge_list: Iterable[tuple[int, int]],
    labels: Iterable[str] | None = None,
) -> Graph:
    if vertex_count < 0:
        raise GraphConstructionError(f"negative vertex count {vertex_count}")
    pairs = []
    for u, v in edge_list:
        if u == v:
            raise GraphConstructionError(f"self-loop on vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphConstructionError(
                f"edge ({u},{v}) has an endpoint outside [0,{vertex_count})"
            )
        pairs.append((u, v) if u < v else (v, u))
    label_tuple = None
    if labels is not None:
        label_tuple = tuple(str(s) for s in labels)
        if len(label_tuple) != vertex_count:
            raise GraphConstructionError(
                f"{len(label_tuple)} labels for {vertex_count} vertices"
            )
    if all(map(operator.lt, pairs, islice(pairs, 1, None))):
        return Graph(vertex_count, tuple(pairs), label_tuple)
    return Graph(vertex_count, tuple(dict.fromkeys(sorted(pairs))), label_tuple)


def graph_from_obj(obj: Any) -> Graph:
    if not isinstance(obj, dict):
        raise ParseError("graph document must be a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError('graph field "n" must be a non-negative integer')
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise ParseError('graph field "edges" must be a list of [u, v] pairs')
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ParseError('graph field "labels" must be a list of strings')
    try:
        return make_graph(n, _pairs(edges), labels)
    except ParseError:
        raise
    except TotalColourError as exc:
        raise ParseError(f"invalid graph: {exc}")
