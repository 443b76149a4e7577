"""The command-line parser, read against the argparse parser it replaced.

``build_parser`` below is the argparse definition of the command line,
unchanged, kept as the reference.  For every argv both parsers must give the
same namespace, or both must exit with the same code.  The one intended
difference: positionals that an option splits, as in
``chi a.json --nodes 5 b.json``, which argparse refuses and
``cli.parse_args`` reads as if the options came before them.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalcolour import cli


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


REFERENCE = build_parser()


def _outcome(parse, argv):
    """The namespace as a dict of reprs (so that nan equals nan), or
    ("exit", code); what the parser prints is dropped."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            ns = parse(list(argv))
        except SystemExit as exc:
            return ("exit", exc.code)
    return {key: repr(value) for key, value in vars(ns).items()}


# The vocabulary: command words, options spelled in full and as a unique
# prefix, values and paths, and tokens that no parser knows.
COMMAND_WORDS = [
    ["product"], ["colour", "knm"], ["colour", "crown"], ["colour", "lift"],
    ["colour", "kn-bipartite"], ["verify"], ["chi"], ["export-dot"],
    ["colour"], [], ["bogus"], ["colour", "bogus"],
]
PREFIXES = {"--output": "--out", "--format": "--fo", "--nodes": "--no", "--seconds": "--se"}
SPELLINGS = ["-o", *PREFIXES, *PREFIXES.values()]
VALUES = ["5", "-3", "0", "x", "1.5", "nan", "inf", "json", "dot", "a.json", "b.json"]
LONE = ["-h", "--help", "--he", "--bogus", "-x", *SPELLINGS]
# each command's own options, and how many positionals it reads
WRITE = ["-o", "--output", "--out", "--format", "--fo"]
OPTIONS = {"chi": ["--nodes", "--no", "--seconds", "--se"], "export-dot": WRITE[:3]}
POSITIONALS = {"knm": 2, "lift": 3, "kn-bipartite": 2, "product": 2, "verify": 2, "chi": 2}

def _options_first(argv):
    """``argv`` with each option and its value moved ahead of the
    positionals, for an argv that ``cli.parse_args`` accepts: there every
    token before ``--`` that starts with "-", but for the value -3, is a
    known option."""
    words = 2 if argv[0] == "colour" else 1
    options, positionals = [], []
    tokens = iter(argv[words:])
    for token in tokens:
        if token == "--":
            positionals += [token, *tokens]
        elif token in SPELLINGS:
            options += [token, next(tokens)]
        elif token.startswith("-") and token != "-3":  # --name=value, -oVALUE
            options.append(token)
        else:
            positionals.append(token)
    return argv[:words] + options + positionals


_values = st.sampled_from(["5", "-3", "0", "json", "dot"]) | st.sampled_from(VALUES)


@st.composite
def _option(draw, spellings):
    """An option with a value: apart, as --name=value, or as -oVALUE."""
    spelling, value = draw(st.sampled_from(spellings)), draw(_values)
    if draw(st.booleans()):
        return ["-o" + value] if spelling == "-o" else [f"{spelling}={value}"]
    return [spelling, value]


@st.composite
def argvs(draw):
    """Command words, then about as many positionals as the command reads
    and some options, in any order.  Now and then one token from LONE goes
    among the words, and one or two into the tail.  At most one ``--`` goes
    into the tail, and none among the words: argparse versions differ on a
    ``--`` before a command name and on a second one."""
    words = list(draw(st.sampled_from(COMMAND_WORDS)))
    last = words[-1] if words else ""
    need = POSITIONALS.get(last, 1)
    count = draw(st.sampled_from([need, need, need - 1, need + 1]))
    items = [[draw(_values)] for _ in range(count)]
    own = SPELLINGS if last == "verify" else OPTIONS.get(last, WRITE)
    items += draw(st.lists(_option(own), max_size=3))
    tail = [token for item in draw(st.permutations(items)) for token in item]
    for where, vocabulary in ((words, LONE[:5]), (tail, LONE), (tail, LONE)):
        if draw(st.integers(0, 3)) == 3:
            where.insert(draw(st.integers(0, len(where))), draw(st.sampled_from(vocabulary)))
    if draw(st.booleans()):
        tail.insert(draw(st.integers(0, len(tail))), "--")
    return words + tail


def _agree(argv):
    ours = _outcome(cli.parse_args, argv)
    theirs = _outcome(REFERENCE.parse_args, argv)
    if isinstance(ours, dict) and theirs == ("exit", 2):  # the one widening
        theirs = _outcome(REFERENCE.parse_args, _options_first(argv))
    assert ours == theirs, argv


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_parser_agrees_with_argparse(argv):
    _agree(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["chi", "a.json", "--nodes", "5"],
        ["chi", "a.json", "--nodes=5", "b.json"],
        ["chi", "--no", "5", "--se", "1.5", "a.json"],
        ["chi", "a.json", "--nodes", "-3"],
        ["chi", "--nodes", "-x", "a.json"],
        ["chi", "--nodes", "--", "a.json"],
        ["chi", "a.json", "--nodes", "-h"],
        ["colour", "crown", "5", "-o", "--format=dot"],
        ["product", "a", "b", "-o", "-x"],
        ["chi", "--nodes", "5", "--", "-h", "--seconds"],
        ["colour", "knm", "-3", "4"],
        ["colour", "knm", "4", "--format", "dot", "3", "-oX.json"],
        ["colour", "knm", "4", "3", "--fo=xml"],
        ["colour", "crown", "5", "-o", "-3"],
        ["colour", "crown", "5", "-o=x"],
        ["colour", "lift", "a", "--out", "o", "b", "c"],
        ["colour", "kn-bipartite", "x", "-h"],
        ["colour", "kn-bipartite", "3", "-h", "x"],
        ["colour", "-h", "bogus"],
        ["colour", "--bogus", "knm", "-h"],
        ["--bogus", "chi", "a.json"],
        ["-x", "verify", "--help"],
        ["verify", "a.json", "b.json", "c.json"],
        ["verify"],
        ["export-dot", "b.json", "-o"],
        ["export-dot", "b.json", "--format", "dot"],
        ["product", "a", "b", "--output="],
        ["product", "a", "b", "--help=x"],
        ["product", "a", "--help=o", "x"],
        ["product", "a", "-ho", "x"],
        ["product", "a", "-hh"],
        ["product", "-", "a b"],
        ["product", "a", "b", "--=x"],
        ["--=x"],
        [],
    ],
)
def test_parser_agrees_on_chosen_argv(argv):
    _agree(argv)


def test_split_positionals_are_read_as_if_the_option_came_last():
    argv = ["chi", "a.json", "--nodes", "5", "b.json"]
    assert _outcome(REFERENCE.parse_args, argv) == ("exit", 2)
    assert vars(cli.parse_args(argv)) == {
        "command": "chi", "graphs": ["a.json", "b.json"], "nodes": 5, "seconds": None,
    }


def test_a_double_dash_before_a_command_name_is_refused():
    # argparse versions differ here, so the random argv never hold one; as
    # in Python 3.10 and 3.11, the "--" is read as the command's name
    for argv in (["--", "chi", "a.json"], ["colour", "--", "knm", "3", "4"]):
        assert _outcome(cli.parse_args, argv) == ("exit", 2)


@pytest.mark.parametrize(
    "argv, words",
    [
        (["--help"], [*cli.COMMANDS, "exit codes:"]),
        (["colour", "-h"], list(cli.COMMANDS["colour"][1])),
        (["chi", "--he"], ["--nodes NODES", "--seconds SECONDS", "graphs [graphs ...]"]),
        (["colour", "knm", "-h"], ["-o OUTPUT, --output OUTPUT", "--format {json,dot}", " n ", " m "]),
    ],
)
def test_help_lists_what_the_table_holds(argv, words, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: totalcolour {' '.join(argv[:-1])}".rstrip() + " [-h]")
    assert all(word in out for word in words), out
