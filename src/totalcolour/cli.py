"""Command-line surface: construct, verify, certify, and export colourings.

Exit codes are stable: 0 ok, 1 invalid colouring, 2 parse/IO failure,
3 precondition failure, 4 open problem (both complete factors odd),
5 oracle timeout, 6 internal error (an exception that is not a library
error; its type and message go to stderr).

Importing this module loads only what every command runs: ``jsonio``,
``colouring``, ``graph_core`` and ``errors``.  A handler reads the rest as an
attribute of the package, which imports it on first use: ``colour`` loads
``constructions``, ``products`` and ``edge_colouring``, ``chi`` loads
``oracle`` and ``edge_colouring``, ``product`` loads ``products``, and
``verify`` and ``export-dot`` load nothing more.  With no bytecode cache,
``import totalcolour.cli`` takes about 60 % of the time that importing every
submodule takes (README, "Start-up").
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from typing import Any

import totalcolour

from . import jsonio
from .colouring import verify_total
from .errors import (
    IncompleteColouringError,
    OpenProblemError,
    ParseError,
    TotalColourError,
)
from .graph_core import Graph, complete_graph

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_OPEN_PROBLEM = 4
EXIT_TIMEOUT = 5
EXIT_INTERNAL = 6


def _emit(obj: Any, output: str | None) -> None:
    if output:
        jsonio.save_json(output, obj)
    else:
        print(json.dumps(obj, indent=2))


def _write_text(text: str, output: str | None) -> None:
    if output:
        jsonio.save_text(output, [text])
    else:
        print(text, end="")


def _check_output(output: str | None) -> None:
    """Refuse an ``-o`` target that cannot be a file before any work is done.

    Other write failures (permissions, a full disk) still surface when the
    file is written, through :func:`jsonio.save_text`.
    """
    if not output:
        return
    parent = os.path.dirname(output) or "."
    if not os.path.isdir(parent):
        raise ParseError(f"cannot write {output}: {parent} is not a directory")
    if os.path.isdir(output):
        raise ParseError(f"cannot write {output}: it is a directory")


def cmd_product(args: argparse.Namespace) -> int:
    _check_output(args.output)
    g = jsonio.graph_from_obj(jsonio.load_json(args.g))
    h = jsonio.graph_from_obj(jsonio.load_json(args.h))
    prod, _ = totalcolour.products.direct_product(g, h)
    stats = f"|V|={prod.n} |E|={len(prod.edges)} max_degree={prod.max_degree}"
    if args.format == "dot":
        _write_text(jsonio.to_dot(prod), args.output)
    else:
        _emit(jsonio.graph_to_obj(prod), args.output)
    print(stats, file=sys.stdout if args.output else sys.stderr)
    return EXIT_OK


def _build_colouring(args: argparse.Namespace) -> tuple[Graph, Any, dict[str, Any]]:
    constructions, products = totalcolour.constructions, totalcolour.products
    if args.kind == "knm":
        tc = constructions.knm_total_colouring(args.n, args.m)
        g, _ = products.direct_product(complete_graph(args.n), complete_graph(args.m))
        meta = {"construction": "knm", "params": [args.n, args.m]}
    elif args.kind == "crown":
        crown = constructions.crown_total_colouring(args.m)
        g = products.crown_graph(args.m)
        tc = crown.colouring
        meta = {"construction": "crown", "params": [args.m]}
    elif args.kind == "lift":
        base = jsonio.graph_from_obj(jsonio.load_json(args.g))
        f = jsonio.colouring_from_obj(jsonio.load_json(args.f))
        h = jsonio.graph_from_obj(jsonio.load_json(args.h))
        tc = constructions.lift_bipartite(base, f, h)
        g, _ = products.direct_product(base, h)
        meta = {"construction": "lift", "params": [args.g, args.f, args.h]}
    else:  # kn-bipartite
        h = jsonio.graph_from_obj(jsonio.load_json(args.h))
        tc = constructions.kn_times_bipartite(args.n, h)
        g, _ = products.direct_product(complete_graph(args.n), h)
        meta = {"construction": "kn-bipartite", "params": [args.n, args.h]}
    return g, tc, meta


def cmd_colour(args: argparse.Namespace) -> int:
    _check_output(args.output)
    g, tc, meta = _build_colouring(args)
    report = verify_total(g, tc)
    meta["colours_used"] = report.colours_used
    meta["max_degree"] = g.max_degree
    if args.format == "dot":
        _write_text(jsonio.to_dot(g, tc), args.output)
    else:
        _emit(jsonio.bundle_to_obj(g, tc, report, meta), args.output)
    status = "valid" if report.valid else "INVALID"
    print(
        f"{meta['construction']}: {status}, {report.colours_used} colours, "
        f"max_degree={g.max_degree}",
        file=sys.stdout if args.output else sys.stderr,
    )
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_verify(args: argparse.Namespace) -> int:
    if len(args.paths) == 1:
        g, tc, _ = jsonio.bundle_from_obj(jsonio.load_json(args.paths[0]))
    elif len(args.paths) == 2:
        g = jsonio.graph_from_obj(jsonio.load_json(args.paths[0]))
        tc = jsonio.colouring_from_obj(jsonio.load_json(args.paths[1]), g.edges)
    else:
        raise ParseError("verify takes a bundle, or a graph and a colouring")
    report = verify_total(g, tc)
    if report.valid:
        print(f"valid: {report.colours_used} colours, max_degree={g.max_degree}")
        return EXIT_OK
    print(f"INVALID: {len(report.violations)} conflicts (showing at most 20)")
    for a, b, c in report.violations[:20]:
        print(f"  {json.dumps(a)} / {json.dumps(b)} share colour {c}")
    return EXIT_INVALID


def cmd_chi(args: argparse.Namespace) -> int:
    oracle = totalcolour.oracle
    budget = None  # exact_chi_total applies its default
    if args.nodes is not None or args.seconds is not None:
        budget = oracle.SearchBudget(max_nodes=args.nodes, max_seconds=args.seconds)
    results = []  # printed after the loop: a bad file in a batch prints nothing
    for path in args.graphs:
        g = jsonio.graph_from_obj(jsonio.load_json(path))
        results.append(jsonio.oracle_result_to_obj(g, oracle.exact_chi_total(g, budget)))
    code = EXIT_OK
    for obj in results:
        print(json.dumps(obj))
        if obj["status"] != oracle.OracleStatus.EXACT.value:
            code = EXIT_TIMEOUT
    return code


def cmd_export_dot(args: argparse.Namespace) -> int:
    _check_output(args.output)
    g, tc, _ = jsonio.bundle_from_obj(jsonio.load_json(args.bundle))
    _write_text(jsonio.to_dot(g, tc), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totalcolour",
        description="Total colourings of direct product graphs.",
        epilog=(
            "exit codes: 0 ok, 1 invalid colouring, 2 parse failure, "
            "3 precondition failure, 4 open problem, 5 oracle timeout, "
            "6 internal error"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="direct product of two graph files")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=["json", "dot"], default="json")

    c = sub.add_parser("colour", help="run a construction and emit a certificate bundle")
    kinds = c.add_subparsers(dest="kind", required=True)
    knm = kinds.add_parser("knm", help="total colouring of K_n x K_m (n or m even)")
    knm.add_argument("n", type=int)
    knm.add_argument("m", type=int)
    crown = kinds.add_parser("crown", help="total colouring of the crown graph J_2m")
    crown.add_argument("m", type=int)
    lift = kinds.add_parser(
        "lift", help="lift a total colouring of G x K_2 to G x H (H bipartite)"
    )
    lift.add_argument("g", help="graph JSON for G")
    lift.add_argument("f", help="colouring JSON of the product G x K_2")
    lift.add_argument("h", help="graph JSON for bipartite H")
    knb = kinds.add_parser("kn-bipartite", help="total colouring of K_n x H")
    knb.add_argument("n", type=int)
    knb.add_argument("h", help="graph JSON for bipartite H")
    for sp in (knm, crown, lift, knb):
        sp.add_argument("-o", "--output", default=None)
        sp.add_argument("--format", choices=["json", "dot"], default="json")

    v = sub.add_parser("verify", help="verify a colouring against its graph")
    v.add_argument("paths", nargs="+", help="bundle.json, or graph.json colouring.json")

    x = sub.add_parser("chi", help="exact total chromatic number (small graphs)")
    x.add_argument("graphs", nargs="+", help="graph JSON files")
    x.add_argument("--nodes", type=int, default=None, help="search node limit")
    x.add_argument("--seconds", type=float, default=None, help="wall-clock limit")

    d = sub.add_parser("export-dot", help="render a certificate bundle as DOT")
    d.add_argument("bundle")
    d.add_argument("-o", "--output", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # on first use, not at import


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called any number of times in one process."""
    args = _parser().parse_args(argv)
    # looked up on each call, so that a replaced cmd_* is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    # The cyclic GC is paused while the handler runs: it would rescan every
    # [u, v] list that decode and encode build, and none can form a cycle.
    # The caller's GC state is restored on the way out.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
    except (ParseError, IncompleteColouringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OpenProblemError as exc:
        print(f"open problem: {exc}", file=sys.stderr)
        return EXIT_OPEN_PROBLEM
    except TotalColourError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # a bug must not exit 1, which reads as "invalid"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if gc_was_enabled:
            gc.enable()


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
