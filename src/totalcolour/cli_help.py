"""Help and usage text of the command line, rendered from ``cli.COMMANDS``.

Only ``--help`` and a usage error print this text, so ``cli`` imports this
module then: a command whose argv parses never compiles it.
"""

from __future__ import annotations

from typing import Any

EPILOG = (
    "exit codes: 0 ok, 1 invalid colouring, 2 parse failure, 3 precondition\n"
    "failure, 4 open problem, 5 oracle timeout, 6 internal error"
)


def usage(prog: str, spec: Any) -> str:
    """The usage line of the command ``prog`` with the table entry ``spec``."""
    _, positionals, options = spec
    words = [prog, "[-h]"] + [f"[{_spelt(option)[0]}]" for option in options]
    if type(positionals) is dict:
        words.append("{" + ",".join(positionals) + "} ...")
    else:
        for name, _, _ in positionals:
            plain = name.rstrip(".")
            words.append(name if plain == name else f"{plain} [{plain} ...]")
    return "usage: " + " ".join(words)


def help_text(prog: str, spec: Any, help_option: Any) -> str:
    """The usage line, the help line of the command and one line for each
    of its positionals, or sub-commands, and options; the exit codes too at
    the top level."""
    about, positionals, options = spec
    if type(positionals) is dict:
        rows = [(name, entry[0]) for name, entry in positionals.items()]
    else:
        rows = [(name.rstrip("."), text) for name, _, text in positionals]
    rows += [(", ".join(_spelt(option)), option[2]) for option in (help_option, *options)]
    lines = [usage(prog, spec), "", about, ""] + [f"  {left:<28}{text}" for left, text in rows]
    if " " not in prog:
        lines += ["", EPILOG]
    return "\n".join(lines)


def _spelt(option: Any) -> list[str]:
    """Each spelling of an option with its value's placeholder."""
    flags, convert, _ = option
    if convert is None:
        return list(flags)
    meta = "{" + ",".join(convert) + "}" if type(convert) is tuple else flags[-1][2:].upper()
    return [f"{s} {meta}" for s in flags]
