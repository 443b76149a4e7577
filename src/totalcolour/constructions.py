"""Constructive total colourings of direct products.

Each construction emits a colouring that uses exactly one more colour than
the product's maximum degree:

* ``crown_total_colouring``: m-colour the crown graph on 2m vertices by
  deleting a rainbow perfect matching from a square colouring of K_{m,m}
  and pushing each deleted edge's colour onto its endpoints.
* ``lift_bipartite``: given a max-degree-plus-one total colouring of
  G x K_2, extend it to G x H for any bipartite H.
* ``knm_total_colouring``: K_n x K_m with a factor even, as that lift of
  the crown over a one factorization (both odd is open; we refuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .colouring import TotalColouring, normalize_total, verify_total
from .edge_colouring import (
    bipartite_delta_edge_colouring,
    crown_edge_colouring,
    find_bipartition,
    one_factorization,
    rainbow_kmm,
)
from .errors import (
    DomainError,
    IncompleteColouringError,
    OpenProblemError,
    PreconditionError,
)
from .graph_core import Graph, Pair, complete_graph
from .products import direct_product


@dataclass(frozen=True)
class CrownTotalColouring:
    """Total colouring of the crown graph on 2m vertices with palette 0..m-1.

    ``vertex_permutation`` (of length m) maps k to the shared colour of x_k
    and y_k; it is a bijection onto 0..m-1, so vertices within each part
    are pairwise distinctly coloured and x_k matches y_t in colour only
    when k = t.
    """

    colouring: TotalColouring
    vertex_permutation: tuple[int, ...]


def crown_total_colouring(m: int) -> CrownTotalColouring:
    """m-total-colouring of the crown graph on 2m vertices (m >= 3).

    Take the rainbow-matched square colouring of K_{m,m}, remove the rainbow
    matching x_i y_i, and colour both endpoints of each removed edge with the
    removed edge's colour.  Remaining edges keep their square colours.
    """
    square, _, _ = rainbow_kmm(m)
    diag = tuple(square.symbol(k, k) for k in range(m))
    # row-major with k != t lists the pairs in ascending order
    edges = tuple((k, m + t) for k in range(m) for t in range(m) if k != t)
    colours = [square.symbol(k, y - m) for k, y in edges]
    return CrownTotalColouring(TotalColouring(list(diag * 2), edges, colours), diag)


def kn_k2_total_colouring(n: int) -> TotalColouring:
    """n-colour total colouring of the direct product K_n x K_2 (n >= 3).

    The product is isomorphic to the crown graph on 2n vertices via
    x_k -> (v_k, z_1), y_k -> (v_k, z_2); this transports the crown
    colouring across that relabelling, reading it from the square.
    """
    if n < 3:
        raise DomainError("K_n x K_2 is only type I for n >= 3")
    square, _, _ = rainbow_kmm(n)
    vertex_colours = [square.symbol(k, k) for k in range(n) for _ in (1, 2)]
    arcs = _kn_k2_arcs(n)
    colours = [square.symbol(k, t) for _, k, t in arcs]
    return TotalColouring(vertex_colours, tuple(e for e, _, _ in arcs), colours)


def _kn_k2_arcs(n: int) -> list[tuple[Pair, int, int]]:
    """K_n x K_2's edges in sorted order, each with the (k, t) of its crown edge.

    (v_k, z_1) is 2k and (v_t, z_2) is 2t + 1, so the crown edge x_k y_t is
    (2k, 2t + 1) when k < t and (2t + 1, 2k) when k > t.
    """
    arcs = []
    for a in range(n):
        for z in (0, 1):
            for b in range(a + 1, n):
                k, t = (b, a) if z else (a, b)
                arcs.append(((2 * a + z, 2 * b + 1 - z), k, t))
    return arcs


def lift_bipartite(g: Graph, f: TotalColouring, h: Graph) -> TotalColouring:
    """Extend a type-I total colouring of G x K_2 to one of G x H, H bipartite.

    ``f`` must be a valid total colouring of direct_product(g, K_2) using
    exactly max_degree(g) + 1 colours; its palette is compacted to
    0..max_degree(g) before lifting.  The output colours the product
    direct_product(g, h) with exactly max_degree(g) * max_degree(h) + 1
    colours:

    * vertices copy f fibre-wise: (v_k, x) takes f((v_k, z_1)) on the left
      part and f((v_k, z_2)) on the right;
    * product edges over colour class 0 of an exact bipartite edge colouring
      of h copy f's edge colours;
    * the edge (v_s, x)(v_t, y), x on the left, over an h-edge of colour
      d >= 1 takes d * max_degree(g) + 1 + phi((v_s, z_1)(v_t, z_2)), where
      phi is an exact bipartite edge colouring of G x K_2: h's colouring
      keeps the bands of distinct d apart at every vertex, and phi keeps
      the edges of one band apart.

    If h is edgeless so is the product, and the single colour 0 suffices.
    """
    k2 = complete_graph(2)
    gk2, _ = direct_product(g, k2)
    try:
        report = verify_total(gk2, f)
    except IncompleteColouringError as exc:
        raise PreconditionError(f"input colouring does not cover G x K_2: {exc}")
    if not report.valid:
        raise PreconditionError(
            f"input colouring of G x K_2 is improper ({len(report.violations)} conflicts)"
        )
    dg = g.max_degree
    if report.colours_used != dg + 1:
        raise PreconditionError(
            f"input colouring uses {report.colours_used} colours, "
            f"expected exactly {dg + 1}"
        )

    right = find_bipartition(h)
    ec_h = bipartite_delta_edge_colouring(h)
    if not h.edges:
        # Edgeless H: the product is edgeless, and one colour is both enough
        # and exactly max_degree(g) * 0 + 1.
        return TotalColouring([0] * (g.n * h.n), (), [])

    f = normalize_total(f)
    phi = bipartite_delta_edge_colouring(gk2)
    oriented = (((y, x) if right[x] else (x, y)) for x, y in h.edges)
    return _lift(g, f, phi, zip(oriented, ec_h), right, False)


def _lift(
    g: Graph,
    f: TotalColouring,
    phi: Sequence[int],
    classes: Iterable[tuple[Pair, int]],
    right: list[bool],
    h_first: bool,
) -> TotalColouring:
    """Colour G x H from a total colouring of G x K_2 and matching classes of H.

    In G x K_2, (v_k, z_1) is 2k and (v_k, z_2) is 2k + 1; ``f`` colours it on
    palette 0..max_degree(g), and ``phi``, aligned with ``f.edges``,
    edge-colours it with max_degree(g) colours.  ``classes`` pairs each H-edge,
    oriented x -> y, with its class in a proper edge colouring of H.  Vertex
    (v_k, w) takes f((v_k, z_2)) if right[w], else f((v_k, z_1)).  With
    e = (v_s, z_1)(v_t, z_2), the edge (v_s, x)(v_t, y) takes f(e) over class
    0 and d * max_degree(g) + 1 + phi(e) over class d >= 1.

    This is proper when every H-edge runs from a vertex with right False to one
    with right True, and for any orientation when f gives (v_k, z_1) and
    (v_k, z_2) the same colour, as the crown does.

    The result colours direct_product(g, H), or direct_product(H, g) when
    ``h_first``, with its edges emitted in that graph's sorted order.
    """
    hn = len(right)
    # lanes[s][t] = (f(e), f(e'), phi(e), phi(e')) with e = (v_s, z_1)(v_t, z_2)
    # and e' = (v_t, z_1)(v_s, z_2); steps[x][y] = (offset, lane) of the H-edge
    # {x, y} seen from x, so that (v_s, x)(v_t, y) takes offset + lanes[s][t][lane]
    half: list[dict[int, tuple[int, int]]] = [{} for _ in range(g.n)]
    for (p, q), fc, pc in zip(f.edges, f.edge_colours, phi):
        s, t = (p // 2, q // 2) if p % 2 == 0 else (q // 2, p // 2)
        half[s][t] = (fc, pc)  # (f(e), phi(e)) with e = (v_s, z_1)(v_t, z_2)
    lanes = [
        {t: (fc, half[t][s][0], pc, half[t][s][1]) for t, (fc, pc) in here.items()}
        for s, here in enumerate(half)
    ]
    steps: list[dict[int, tuple[int, int]]] = [{} for _ in range(hn)]
    for (x, y), d in classes:
        offset, lane = (d * g.max_degree + 1, 2) if d else (0, 0)
        steps[x][y], steps[y][x] = (offset, lane), (offset, lane + 1)
    # vertex (i, j) of A x B is i * |B| + j, and its edges to larger vertices
    # go to (i2, j2) with i2 > i, in the order (i2, j2)
    a_adj, b_adj = (steps, lanes) if h_first else (lanes, steps)
    b_runs = [sorted(adj.items()) for adj in b_adj]
    vertex_colours, edges, colours = [0] * (g.n * hn), [], []
    for i, a_here in enumerate(a_adj):
        ahead = sorted((i2, a) for i2, a in a_here.items() if i2 > i)
        for j, run in enumerate(b_runs):
            p = i * len(b_runs) + j
            k, w = (j, i) if h_first else (i, j)
            vertex_colours[p] = f.vertex_colour(2 * k + right[w])
            for i2, a in ahead:
                edges += [(p, i2 * len(b_runs) + j2) for j2, _ in run]
                if h_first:  # a is an H-edge's step, run holds G-arcs' lanes
                    colours += [a[0] + ln[a[1]] for _, ln in run]
                else:  # a holds a G-arc's lanes, run holds H-edges' steps
                    colours += [offset + a[lane] for _, (offset, lane) in run]
    return TotalColouring(vertex_colours, tuple(edges), colours)


def knm_total_colouring(n: int, m: int) -> TotalColouring:
    """Total colouring of K_n x K_m with exactly (n-1)(m-1)+1 colours.

    Requires n, m >= 3 with at least one even; both odd is the open case and
    raises OpenProblemError.  The result targets direct_product(K_n, K_m) in
    the caller's argument order.

    K_n x K_m is the lift of the crown over a one factorization of the even
    factor K_a (the larger one when both are even).  With K_b the other,
    edges over class 0 copy the crown colouring of K_b x K_2, and edges over
    class c >= 1 take c*(b-1) + 1 plus the crown's closed-form (b-1)-edge
    colouring, a band strictly above the vertex palette.
    """
    if n < 3 or m < 3:
        raise DomainError(
            f"K_{n} x K_{m}: both factors must have at least 3 vertices "
            "(use the bipartite lift for K_2 factors)"
        )
    if n % 2 and m % 2:
        raise OpenProblemError(
            f"the total chromatic number of K_{n} x K_{m} with both factors odd "
            "is an open problem; no construction is available"
        )
    a, b = n, m
    if a % 2 or (b % 2 == 0 and b > a):
        a, b = b, a
    f = kn_k2_total_colouring(b)
    crown = crown_edge_colouring(b)
    # the crown lists x_k y_t (t != k) row-major, so x_k y_t is entry
    # k * (b - 1) + t - (t > k)
    phi = [crown[k * (b - 1) + t - (t > k)] for _, k, t in _kn_k2_arcs(b)]
    # K_a comes first in the caller's product when a == n; a one-factor edge
    # i < j runs i -> j
    classes = zip(combinations(range(a), 2), one_factorization(a))
    return _lift(complete_graph(b), f, phi, classes, [False] * a, a == n)


def kn_times_bipartite(n: int, h: Graph) -> TotalColouring:
    """Total colouring of K_n x H, H bipartite, with (n-1)*max_degree(h)+1 colours.

    n = 2 is refused: K_2 x K_2 is type II, so no such colouring can exist
    for every bipartite H.  n = 1 gives an edgeless product and the single
    colour 0.  For n >= 3 the type-I colouring of K_n x K_2 is generated
    internally and lifted across h.
    """
    if n == 2:
        raise DomainError(
            "K_2 x H is excluded: K_2 x K_2 is type II, so the lift has no "
            "valid starting colouring"
        )
    if n < 1:
        raise DomainError("K_n needs n >= 1")
    if n == 1:
        # K_1 x K_2 is two isolated vertices; lifting its one-colour
        # colouring checks that h is bipartite like any other n.
        f = TotalColouring([0, 0], (), [])
    else:
        f = kn_k2_total_colouring(n)
    return lift_bipartite(complete_graph(n), f, h)
