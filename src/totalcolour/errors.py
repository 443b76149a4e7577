"""Exception types shared across the library.

The CLI maps these onto stable exit codes, so constructions and parsers
raise the most specific class that applies.
"""


class TotalColourError(Exception):
    """Base class for every error raised by this library."""


class GraphConstructionError(TotalColourError):
    """Invalid graph input: out-of-range endpoint, self-loop, bad vertex count."""


class DomainError(TotalColourError):
    """Input outside an operation's domain (wrong parity, element not in graph, ...)."""


class NotBipartiteError(DomainError):
    """A graph claimed bipartite has an edge inside one part, or no 2-colouring."""


class NoRainbowError(DomainError):
    """No m-edge-colouring of K_{m,m} with a rainbow perfect matching exists (m <= 2)."""


class OpenProblemError(TotalColourError):
    """Requested the odd-by-odd complete product case, for which no construction is known."""


class PreconditionError(TotalColourError):
    """A colouring handed to a construction or certifier fails its contract."""


class IncompleteColouringError(TotalColourError):
    """A colouring misses elements of the target graph, or colours unknown ones."""


class ParseError(TotalColourError):
    """A JSON document does not match the expected schema."""
