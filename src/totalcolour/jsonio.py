"""JSON interchange formats and DOT export.

Schemas (all canonical, so serialize-parse round-trips are identity):

* graph:      {"n": int, "edges": [[u, v], ...], "labels": [str, ...]?}
* colouring:  {"vertex_colours": [int, ...], "edge_colours": [[u, v, c], ...]}
* report:     {"valid": bool, "colours_used": int, "violations": [[elem, elem, c], ...]}
              with elements encoded as ["v", i] or ["e", u, v]
* bundle:     {"graph": ..., "colouring": ..., "report": ..., "meta": {...}?}
* oracle run: {"graph": ..., "chi_total": int|null, "lower": int, "upper": int,
               "nodes": int, "status": str}
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .colouring import TotalColouring, VerificationReport, check_cover
from .errors import GraphConstructionError, ParseError, TotalColourError
from .graph_core import Graph, Pair, edge_error, graph_from_pairs

if TYPE_CHECKING:  # annotations only: decoding a bundle must not load the oracle
    from pathlib import Path

    from .oracle import OracleResult

# Fill colours for DOT export; colour indices beyond the table wrap.
DOT_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc949", "#af7aa1", "#ff9da7", "#9c755f", "#bab0ab",
    "#1f77b4", "#aec7e8", "#ffbb78", "#2ca02c", "#98df8a",
    "#d62728", "#ff9896", "#9467bd", "#c5b0d5", "#8c564b",
)


def load_json(path: str | Path) -> Any:
    """The JSON document in the file at ``path``, read as UTF-8 with no BOM.

    The file is read whole, with no buffer, and its bytes are decoded
    explicitly: ``json.loads`` given bytes would also take UTF-16, UTF-32
    and a UTF-8 BOM."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return _decode(fh.read().decode("utf-8"))
    # ValueError covers bad UTF-8 and bad JSON; deep nesting is a RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object as a dict, refusing a key it repeats: left to itself,
    json keeps the last value and says nothing."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, _ in pairs if counts[key] > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return obj


# one decoder for every file: json.load with a hook builds a new one per call
_decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def save_json(path: str | Path, obj: Any) -> None:
    """Write ``json.dumps(obj, separators=(",", ":"))`` and a newline.

    Lists longer than ``_SLICE`` go through the C encoder a slice at a time,
    so memory stays bounded by the text of one slice.  ``obj`` must be
    acyclic, as every ``*_to_obj`` tree is: the encoder skips the
    circular-reference check.
    """
    save_text(path, chain(_json_pieces(obj), ["\n"]))


def save_text(path: str | Path, pieces: Iterable[str]) -> None:
    """Write the pieces to ``path``; an OSError becomes a ParseError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}")


_SLICE = 2048
# json.dumps(obj, separators=(",", ":")) without the circular-reference check
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _json_pieces(obj: Any) -> Iterator[str]:
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "{") + _compact(key) + ":"
            yield from _json_pieces(value)
        yield "}"
    elif isinstance(obj, list) and len(obj) > _SLICE:
        for i in range(0, len(obj), _SLICE):
            yield ("," if i else "[") + _compact(obj[i : i + _SLICE])[1:-1]
        yield "]"
    else:
        yield _compact(obj)


def graph_to_obj(g: Graph) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "n": g.n,
        "edges": list(map(list, g.edges)),
    }
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj


def graph_from_obj(obj: Any) -> Graph:
    """Decode a graph document, checking and canonicalising each ``[u, v]``
    entry in one loop, so the first bad entry in list order is the one named;
    :func:`graph_from_pairs` then builds the graph, as for ``make_graph``."""
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
    pairs: list[Pair] = []
    try:
        for item in edges:
            if type(item) is not list:
                raise ParseError(f"bad edge entry {item!r}")
            try:
                u, v = item
            except ValueError:
                raise ParseError(f"bad edge entry {item!r}") from None
            # type() rather than isinstance(): a bool is an int but not a vertex
            if not type(u) is type(v) is int:
                raise ParseError(f"bad edge entry {item!r}")
            # ordered first, so the range test takes two comparisons, not four
            if u < v:
                if u < 0 or v >= n:
                    raise edge_error(u, v, n)
                pairs.append((u, v))
            elif v < u:
                if v < 0 or u >= n:
                    raise edge_error(u, v, n)
                pairs.append((v, u))
            else:
                raise edge_error(u, v, n)
        return graph_from_pairs(n, pairs, labels)
    except GraphConstructionError as exc:
        raise ParseError(f"invalid graph: {exc}")


def colouring_to_obj(tc: TotalColouring) -> dict[str, Any]:
    return {
        "vertex_colours": list(tc.vertex_colours),
        "edge_colours": [[u, v, c] for (u, v), c in zip(tc.edges, tc.edge_colours)],
    }


def _triples(edge_colours: list[Any]) -> Iterator[list[int]]:
    """Each ``[u, v, colour]`` entry as it stands, once it holds three ints."""
    for item in edge_colours:
        # type() rather than isinstance(): a bool is an int but not a colour
        if type(item) is not list or len(item) != 3:
            raise ParseError(f"bad edge colour entry {item!r}")
        u, v, c = item
        if not type(u) is type(v) is type(c) is int:
            raise ParseError(f"bad edge colour entry {item!r}")
        yield item


def _aligned_colours(ecs: list[Any], edges: tuple[Pair, ...]) -> list[int] | None:
    """The colours of ``ecs`` when it lists exactly ``edges`` as ``[u, v, c]``
    entries of three ints, in that order; None at the first entry that does not."""
    if len(ecs) != len(edges):
        return None
    colours = []
    for item, (a, b) in zip(ecs, edges):
        # type() rather than isinstance(): True == 1, but a bool is not a vertex
        if type(item) is not list or len(item) != 3:
            return None
        u, v, c = item
        if u != a or v != b or not type(u) is type(v) is type(c) is int:
            return None
        colours.append(c)
    return colours


def colouring_from_obj(obj: Any, edges: tuple[Pair, ...] = ()) -> TotalColouring:
    """Decode a colouring document, given its graph's ``edges`` when known.

    Triples that list exactly those pairs in that order, the form
    ``colour -o`` writes, are decoded in one pass into a colouring that shares
    the ``edges`` tuple, so the cover check is an identity test.  Every other
    list decodes through :meth:`TotalColouring.from_parts`; both paths give
    the same colouring, and the same error for the same first bad entry.
    """
    if not isinstance(obj, dict):
        raise ParseError("colouring document must be a JSON object")
    vcs = obj.get("vertex_colours")
    ecs = obj.get("edge_colours")
    if not isinstance(vcs, list) or not set(map(type, vcs)) <= {int}:
        raise ParseError('"vertex_colours" must be a list of non-negative integers')
    if not isinstance(ecs, list):
        raise ParseError('"edge_colours" must be a list of [u, v, colour] triples')
    try:
        colours = _aligned_colours(ecs, edges)
        if colours is not None:
            return TotalColouring(list(vcs), edges, colours)
        return TotalColouring.from_parts(vcs, _triples(ecs))
    except ParseError:
        raise
    except TotalColourError as exc:
        raise ParseError(f"invalid colouring: {exc}")


def report_to_obj(report: VerificationReport) -> dict[str, Any]:
    return {
        "valid": report.valid,
        "colours_used": report.colours_used,
        "violations": [[list(a), list(b), c] for a, b, c in report.violations],
    }


def bundle_to_obj(
    g: Graph,
    tc: TotalColouring,
    report: VerificationReport,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    obj = {
        "graph": graph_to_obj(g),
        "colouring": colouring_to_obj(tc),
        "report": report_to_obj(report),
    }
    if meta:
        obj["meta"] = meta
    return obj


def bundle_from_obj(obj: Any) -> tuple[Graph, TotalColouring, dict[str, Any]]:
    if not isinstance(obj, dict) or "graph" not in obj or "colouring" not in obj:
        raise ParseError('bundle must be an object with "graph" and "colouring"')
    g = graph_from_obj(obj["graph"])
    tc = colouring_from_obj(obj["colouring"], g.edges)
    report = obj.get("report")
    if report is not None and not isinstance(report, dict):
        raise ParseError('bundle field "report" must be an object')
    return g, tc, report or {}


def oracle_result_to_obj(g: Graph, result: OracleResult) -> dict[str, Any]:
    return {
        "graph": graph_to_obj(g),
        "chi_total": result.chi_total,
        "lower": result.lower,
        "upper": result.upper,
        "nodes": result.nodes,
        "status": result.status.value,
    }


def _dot_colour(c: int) -> tuple[str, str]:
    """Hex fill for a colour index, plus a label annotated when it wraps."""
    label = f"c{c}"
    if c >= len(DOT_PALETTE):
        label += " (wrapped)"
    return DOT_PALETTE[c % len(DOT_PALETTE)], label


def to_dot(g: Graph, tc: TotalColouring | None = None) -> str:
    """DOT text for a graph, with fills and edge colours when a colouring is given."""
    if tc is not None:
        check_cover(g, tc)
    lines = ["graph G {", "  node [style=filled];"]
    for i in range(g.n):
        # a DOT quoted string ends at an unescaped '"'
        label = g.label(i).replace("\\", "\\\\").replace('"', '\\"')
        if tc is not None:
            fill, clabel = _dot_colour(tc.vertex_colours[i])
            lines.append(f'  {i} [label="{label}\\n{clabel}", fillcolor="{fill}"];')
        else:
            lines.append(f'  {i} [label="{label}", fillcolor="#dddddd"];')
    for i, (u, v) in enumerate(g.edges):
        if tc is not None:
            stroke, clabel = _dot_colour(tc.edge_colours[i])
            lines.append(
                f'  {u} -- {v} [color="{stroke}", label="{clabel}", penwidth=2];'
            )
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
