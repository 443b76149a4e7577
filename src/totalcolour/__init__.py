"""Total colourings of direct product graphs.

Constructions that hit the max_degree + 1 bound on direct products (crown
graphs, products of complete graphs with one even factor, bipartite lifts),
verifiers that certify any claimed colouring, and an exact branch-and-bound
oracle for small instances.

``import totalcolour`` loads no submodule.  Each public name, and each of the
seven submodules in ``_EXPORTS``, is resolved on first use through the module
``__getattr__`` (PEP 562), which imports the submodule that defines it.  So a
CLI command loads only the modules it runs (see ``totalcolour.cli``):
``verify`` never compiles the oracle.  A public name is read from its
defining module on every access, so a function replaced there is the one
returned.
"""

import importlib

__version__ = "0.1.0"

# each submodule with the public names it defines
_EXPORTS = {
    "colouring": (
        "TotalColouring", "VerificationReport", "normalize_total", "verify_edge",
        "verify_total",
    ),
    "constructions": (
        "CrownTotalColouring", "crown_total_colouring", "kn_k2_total_colouring",
        "kn_times_bipartite", "knm_total_colouring", "lift_bipartite",
    ),
    "edge_colouring": (
        "bipartite_delta_edge_colouring", "crown_edge_colouring", "find_bipartition",
        "one_factorization", "rainbow_kmm",
    ),
    "errors": (
        "DomainError", "GraphConstructionError", "IncompleteColouringError",
        "NoRainbowError", "NotBipartiteError", "OpenProblemError", "ParseError",
        "PreconditionError", "TotalColourError",
    ),
    "graph_core": (
        "Element", "Graph", "complete_bipartite", "complete_graph", "cycle_graph",
        "edgeless_graph", "incidence_conflicts", "make_graph", "path_graph",
    ),
    "oracle": (
        "CertificationStatus", "CertificationVerdict", "OracleResult", "OracleStatus",
        "SearchBudget", "certify_construction", "chi_total_bruteforce",
        "exact_chi_total", "total_graph",
    ),
    "products": ("ProductVertexMap", "crown_graph", "direct_product"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # once imported, a submodule is a package attribute
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
