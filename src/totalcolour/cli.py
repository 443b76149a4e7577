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
``import totalcolour.cli`` takes about half the time that importing every
submodule takes (README, "Start-up").  The command line is read from one
table, :data:`COMMANDS`, with no ``argparse``, which would load ``gettext``
and ``locale``; only ``--help`` and a usage error load ``cli_help``, which
renders their text from the same table.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from types import SimpleNamespace
from typing import Any, NoReturn

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


def cmd_product(args: SimpleNamespace) -> int:
    _check_output(args.output)
    g = jsonio.graph_from_obj(jsonio.load_json(args.g))
    h = jsonio.graph_from_obj(jsonio.load_json(args.h))
    prod, _ = totalcolour.products.direct_product(g, h)
    stats = f"|V|={prod.n} |E|={len(prod.edges)} max_degree={prod.max_degree}"
    if args.format == "dot":
        _write_text(jsonio.to_dot(prod), args.output)
    elif args.output:
        jsonio.save_graph(args.output, prod)
    else:
        print(json.dumps(jsonio.graph_to_obj(prod), indent=2))
    print(stats, file=sys.stdout if args.output else sys.stderr)
    return EXIT_OK


def _build_colouring(args: SimpleNamespace) -> tuple[Graph, Any, dict[str, Any]]:
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


def cmd_colour(args: SimpleNamespace) -> int:
    _check_output(args.output)
    g, tc, meta = _build_colouring(args)
    report = verify_total(g, tc)
    meta["colours_used"] = report.colours_used
    meta["max_degree"] = g.max_degree
    if args.format == "dot":
        _write_text(jsonio.to_dot(g, tc), args.output)
    elif args.output:
        jsonio.save_bundle(args.output, g, tc, report, meta)
    else:
        print(json.dumps(jsonio.bundle_to_obj(g, tc, report, meta), indent=2))
    status = "valid" if report.valid else "INVALID"
    print(
        f"{meta['construction']}: {status}, {report.colours_used} colours, "
        f"max_degree={g.max_degree}",
        file=sys.stdout if args.output else sys.stderr,
    )
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_verify(args: SimpleNamespace) -> int:
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


def cmd_chi(args: SimpleNamespace) -> int:
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


def cmd_export_dot(args: SimpleNamespace) -> int:
    _check_output(args.output)
    g, tc, _ = jsonio.bundle_from_obj(jsonio.load_json(args.bundle))
    _write_text(jsonio.to_dot(g, tc), args.output)
    return EXIT_OK


# The command table.  Each command, and each ``colour`` kind, is (help,
# positionals, options), where a dict of sub-commands may stand in place of
# the positionals.  A positional is (name, converter, help); a name ending in
# "..." takes one or more values.  An option is (spellings, converter, help);
# its attribute is its long spelling, and a tuple converter lists its choices,
# the first being the default.  Every other option defaults to None.
_OUTPUT = (("-o", "--output"), str, "write to this file, not to stdout")
_FORMAT = (("--format",), ("json", "dot"), "output format (default: json)")
_HELP = (("-h", "--help"), None, "show this help message and exit")

COMMANDS: dict[str, Any] = {
    "product": (
        "direct product of two graph files",
        [("g", str, "graph JSON for G"), ("h", str, "graph JSON for H")],
        [_OUTPUT, _FORMAT],
    ),
    "colour": (
        "run a construction and emit a certificate bundle",
        {
            "knm": (
                "total colouring of K_n x K_m (n or m even)",
                [("n", int, "order of the first factor"), ("m", int, "order of the second")],
                [_OUTPUT, _FORMAT],
            ),
            "crown": (
                "total colouring of the crown graph J_2m",
                [("m", int, "vertices on each side")],
                [_OUTPUT, _FORMAT],
            ),
            "lift": (
                "lift a total colouring of G x K_2 to G x H (H bipartite)",
                [
                    ("g", str, "graph JSON for G"),
                    ("f", str, "colouring JSON of the product G x K_2"),
                    ("h", str, "graph JSON for bipartite H"),
                ],
                [_OUTPUT, _FORMAT],
            ),
            "kn-bipartite": (
                "total colouring of K_n x H",
                [("n", int, "order of K_n"), ("h", str, "graph JSON for bipartite H")],
                [_OUTPUT, _FORMAT],
            ),
        },
        [],
    ),
    "verify": (
        "verify a colouring against its graph",
        [("paths...", str, "bundle.json, or graph.json colouring.json")],
        [],
    ),
    "chi": (
        "exact total chromatic number (small graphs)",
        [("graphs...", str, "graph JSON files")],
        [(("--nodes",), int, "search node limit"), (("--seconds",), float, "wall-clock limit")],
    ),
    "export-dot": (
        "render a certificate bundle as DOT",
        [("bundle", str, "certificate bundle JSON")],
        [_OUTPUT],
    ),
}
_TOP = ("Total colourings of direct product graphs.", COMMANDS, [])


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """Read ``argv`` (default ``sys.argv[1:]``) against :data:`COMMANDS`.

    The language is argparse's: ``--name value``, ``--name=value``, a unique
    prefix of a long option, ``-o value`` and ``-oVALUE``, negative numbers as
    values and positionals, and ``--`` after the command to end its options.
    ``-h``/``--help`` prints help to stdout and raises ``SystemExit(0)``; a
    usage error prints the usage line and the error to stderr and raises
    ``SystemExit(2)``.  One difference: positionals that an option splits, as
    in ``chi a.json --nodes 5 b.json``, are read as if the option came last,
    where argparse refuses them.
    """
    r = _Reader(sys.argv[1:] if argv is None else argv)
    ns = r.ns
    for dest in ("command", "kind"):  # the command, then the colour kind
        choices = r.spec[1]
        if type(choices) is not dict:
            break
        arg = r.positional()
        if arg is None:
            r.fail(f"the following arguments are required: {dest}")
        setattr(ns, dest, r.convert(dest, tuple(choices), arg))
        r.prog, r.spec = f"{r.prog} {arg}", choices[arg]
        r.options = {s: option for option in (_HELP, *r.spec[2]) for s in option[0]}
    _, positionals, options = r.spec
    for flags, convert, _ in options:
        setattr(ns, flags[-1][2:], convert[0] if type(convert) is tuple else None)
    slots = [(name.rstrip("."), convert, name[-1] == ".") for name, convert, _ in positionals]
    slot, extras = 0, []
    while (arg := r.positional()) is not None:
        if slot == len(slots):
            extras.append(arg)
            continue
        name, convert, many = slots[slot]
        value = r.convert(name, convert, arg)
        if many:
            vars(ns).setdefault(name, []).append(value)
        else:
            setattr(ns, name, value)
            slot += 1
    missing = [name for name, _, many in slots[slot:] if not (many and name in vars(ns))]
    if missing:
        r.fail(f"the following arguments are required: {', '.join(missing)}")
    if r.unknown or extras:
        r.fail(f"unrecognized arguments: {' '.join(r.unknown + extras)}")
    return ns


class _Reader:
    """The argv of one parse, read left to right: the position in it, the
    command read so far with its options, and the options no level knew."""

    def __init__(self, args: list[str]) -> None:
        self.args, self.i, self.ended = args, 0, False
        self.ns, self.unknown = SimpleNamespace(), []
        self.prog, self.spec = "totalcolour", _TOP
        self.options = {"-h": _HELP, "--help": _HELP}

    def positional(self) -> str | None:
        """The next positional, once every option before it is taken; None at the end."""
        while self.i < len(self.args):
            arg = self.args[self.i]
            self.i += 1
            # before a command, argparse reads "--" as the command's name
            if self.ended or arg == "--" and type(self.spec[1]) is dict:
                return arg
            if arg == "--":
                self.ended = True
                continue
            found = self.read(arg)
            if found is None:
                return arg
            option, spelling, given = found
            if option is None:
                self.unknown.append(arg)
            elif option is _HELP:
                self.help(spelling, given)
            else:
                setattr(self.ns, option[0][-1][2:], self.value(option, given))
        return None

    def read(self, arg: str) -> tuple[Any, str, str | None] | None:
        """argparse's reading of ``arg``: None for a positional, else the
        option (None when none matches), its spelling and any value given
        with it."""
        options = self.options
        name, eq, given = arg.partition("=")
        if name in options:
            return options[name], name, given if eq else None
        if len(arg) < 2 or arg[0] != "-":
            return None
        if arg[1] == "-":  # a unique prefix of a long option
            found = [s for s in options if s.startswith(name)]
            given = given if eq else None
        else:  # -oVALUE
            found, given = [s for s in options if s == arg[:2]], arg[2:]
        if len(found) > 1:
            self.fail(f"ambiguous option: {name} could match {', '.join(found)}")
        if found:
            return options[found[0]], found[0], given
        # argparse's test for a number, or a value with a space in it
        if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
            return None
        return None, arg, None

    def value(self, option: Any, given: str | None) -> Any:
        """The option's value, converted: ``given`` or else the next token,
        which may not be an option."""
        name = "/".join(option[0])
        if given is None:
            if self.i == len(self.args) or self.args[self.i] == "--" or self.read(self.args[self.i]):
                self.fail(f"argument {name}: expected one argument")
            given = self.args[self.i]
            self.i += 1
        return self.convert(name, option[1], given)

    def convert(self, name: str, convert: Any, arg: str) -> Any:
        """``convert(arg)``, or ``arg`` when it is one of a tuple of choices."""
        try:
            if type(convert) is not tuple:
                return convert(arg)
            if arg in convert:
                return arg
        except ValueError:
            pass
        self.fail(f"argument {name}: invalid value: {arg!r}")

    def help(self, spelling: str, given: str | None) -> NoReturn:
        """Print help and exit 0.  As in argparse, ``-hX`` is ``-h`` and then
        ``-X``, and an option there must still get its value."""
        while given is not None:
            option = self.options.get("-" + given[:1])
            if spelling[1] == "-" or option is None:
                self.fail(f"argument -h/--help: ignored explicit argument {given!r}")
            spelling, given = "-" + given[:1], given[1:] or None
            if option is not _HELP:
                self.value(option, given)
                break
        from . import cli_help  # only help and usage errors print text

        print(cli_help.help_text(self.prog, self.spec, _HELP))
        raise SystemExit(0)

    def fail(self, message: str) -> NoReturn:
        from . import cli_help

        usage = cli_help.usage(self.prog, self.spec)
        print(usage, f"{self.prog}: error: {message}", sep="\n", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called any number of times in one process."""
    args = parse_args(argv)
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
