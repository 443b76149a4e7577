"""Total colourings of direct product graphs.

Constructions that hit the max_degree + 1 bound on direct products (crown
graphs, products of complete graphs with one even factor, bipartite lifts),
verifiers that certify any claimed colouring, and an exact branch-and-bound
oracle for small instances.
"""

from .colouring import (
    TotalColouring,
    TypeClass,
    VerificationReport,
    classify,
    normalize_total,
    verify_edge,
    verify_total,
)
from .constructions import (
    CrownTotalColouring,
    crown_total_colouring,
    kn_k2_total_colouring,
    kn_times_bipartite,
    knm_total_colouring,
    lift_bipartite,
)
from .edge_colouring import (
    bipartite_delta_edge_colouring,
    colour_class,
    crown_edge_colouring,
    find_bipartition,
    one_factorization,
    rainbow_kmm,
)
from .errors import (
    DomainError,
    GraphConstructionError,
    IncompleteColouringError,
    NoRainbowError,
    NotBipartiteError,
    OpenProblemError,
    OutOfConjectureRangeError,
    ParseError,
    PreconditionError,
    TotalColourError,
)
from .graph_core import (
    Element,
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    incidence_conflicts,
    make_graph,
    path_graph,
    star_graph,
)
from .oracle import (
    CertificationStatus,
    CertificationVerdict,
    OracleResult,
    OracleStatus,
    SearchBudget,
    certify_construction,
    chi_total_bruteforce,
    exact_chi_total,
    total_graph,
)
from .products import ProductVertexMap, crown_graph, direct_product

__version__ = "0.1.0"

__all__ = [
    "CertificationStatus",
    "CertificationVerdict",
    "CrownTotalColouring",
    "DomainError",
    "Element",
    "Graph",
    "GraphConstructionError",
    "IncompleteColouringError",
    "NoRainbowError",
    "NotBipartiteError",
    "OpenProblemError",
    "OracleResult",
    "OracleStatus",
    "OutOfConjectureRangeError",
    "ParseError",
    "PreconditionError",
    "ProductVertexMap",
    "SearchBudget",
    "TotalColourError",
    "TotalColouring",
    "TypeClass",
    "VerificationReport",
    "bipartite_delta_edge_colouring",
    "certify_construction",
    "chi_total_bruteforce",
    "classify",
    "colour_class",
    "complete_bipartite",
    "complete_graph",
    "crown_edge_colouring",
    "crown_graph",
    "crown_total_colouring",
    "cycle_graph",
    "direct_product",
    "edgeless_graph",
    "exact_chi_total",
    "find_bipartition",
    "incidence_conflicts",
    "kn_k2_total_colouring",
    "kn_times_bipartite",
    "knm_total_colouring",
    "lift_bipartite",
    "make_graph",
    "normalize_total",
    "one_factorization",
    "path_graph",
    "rainbow_kmm",
    "star_graph",
    "total_graph",
    "verify_edge",
    "verify_total",
]
