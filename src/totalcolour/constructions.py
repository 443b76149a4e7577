"""Constructive total colourings of direct products.

Each construction emits a colouring that uses exactly one more colour than
the product's maximum degree:

* ``crown_total_colouring``: m-colour the crown graph on 2m vertices by
  deleting a rainbow perfect matching from a square colouring of K_{m,m}
  and pushing each deleted edge's colour onto its endpoints.
* ``lift_bipartite``: given a max-degree-plus-one total colouring of
  G x K_2, extend it to G x H for any bipartite H.
* ``knm_total_colouring`` (a factor even; both odd is open, and we refuse)
  and ``kn_times_bipartite``: that lift of the crown over a one
  factorization of the even factor and over H.  ``kn_k2_total_colouring``
  is ``kn_times_bipartite`` over K_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .colouring import TotalColouring, normalize_total, verify_total
from .edge_colouring import (
    _konig_insertion,
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

    x_k and y_k share a colour, and k -> that colour is a bijection onto
    0..m-1, so vertices within each part are pairwise distinctly coloured
    and x_k matches y_t in colour only when k = t.
    """

    colouring: TotalColouring


def crown_total_colouring(m: int) -> CrownTotalColouring:
    """m-total-colouring of the crown graph on 2m vertices (m >= 3).

    Take the rainbow-matched square colouring of K_{m,m}, remove the rainbow
    matching x_i y_i, and colour both endpoints of each removed edge with the
    removed edge's colour.  Remaining edges keep their square colours.
    """
    square = rainbow_kmm(m)  # x_k y_t is entry k * m + t
    # row-major with k != t lists the pairs in ascending order; the entries
    # k = t are exactly those at multiples of m + 1
    edges = tuple((k, m + t) for k in range(m) for t in range(m) if k != t)
    colours = [c for i, c in enumerate(square) if i % (m + 1)]
    return CrownTotalColouring(TotalColouring(square[:: m + 1] * 2, edges, colours))


# (half, fibres): a colouring of G x K_2 in the form ``_lift`` reads
K2Colouring = tuple[list[dict[int, tuple[int, int]]], tuple[Sequence[int], ...]]


def _crown_k2(b: int) -> K2Colouring:
    """K_b x K_2 read from the crown: (v_s, z_1)(v_t, z_2) is x_s y_t, coloured
    by the crown's total colouring and its closed-form (b-1)-edge colouring."""
    tc = crown_total_colouring(b).colouring
    half: list[dict[int, tuple[int, int]]] = [{} for _ in range(b)]
    # both list x_s y_t row-major, aligned with crown_graph(b).edges
    for (s, y), fc, pc in zip(tc.edges, tc.edge_colours, crown_edge_colouring(b)):
        half[s][y - b] = (fc, pc)
    return half, (tc.vertex_colours[:b],) * 2


def kn_k2_total_colouring(n: int) -> TotalColouring:
    """n-colour total colouring of the direct product K_n x K_2.

    This is ``kn_times_bipartite(n, complete_graph(2))``, with its domain:
    n = 2 and n < 1 are refused.  For n >= 3 the product is isomorphic to
    the crown graph on 2n vertices via x_k -> (v_k, z_1), y_k -> (v_k, z_2),
    and the lift carries the crown colouring across that relabelling.
    """
    return kn_times_bipartite(n, complete_graph(2))


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
    gk2, _ = direct_product(g, complete_graph(2))
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

    def decode() -> K2Colouring:
        # (v_k, z_1) is 2k and (v_k, z_2) is 2k + 1 in G x K_2, which is
        # bipartite with the fibres over z_1 and z_2 as its sides
        nf = normalize_total(f)
        phi = _konig_insertion(gk2)
        half: list[dict[int, tuple[int, int]]] = [{} for _ in range(g.n)]
        for (p, q), fc, pc in zip(nf.edges, nf.edge_colours, phi):
            s, t = (p // 2, q // 2) if p % 2 == 0 else (q // 2, p // 2)
            half[s][t] = (fc, pc)
        return half, (nf.vertex_colours[0::2], nf.vertex_colours[1::2])

    return _lift_over_h(h, g.n, dg, decode)


def _lift_over_h(
    h: Graph, gn: int, dg: int, source: Callable[[], K2Colouring]
) -> TotalColouring:
    """Lift ``source()``, a colouring of G x K_2, over bipartite H's edges
    oriented left -> right and classed by an exact edge colouring of H.

    H with no vertices is refused like direct_product refuses it.  An
    edgeless product takes colour 0 alone, exactly dg * max_degree(h) + 1.
    """
    if h.n == 0:
        raise DomainError("direct product factors must have at least one vertex")
    right = find_bipartition(h)
    if not (dg and h.edges):
        return TotalColouring([0] * (gn * h.n), (), [])
    oriented = (((y, x) if right[x] else (x, y)) for x, y in h.edges)
    classes = zip(oriented, _konig_insertion(h))  # find_bipartition checked h
    return _lift(*source(), dg, classes, right, False)


def _lift(
    half: list[dict[int, tuple[int, int]]],
    fibres: tuple[Sequence[int], ...],
    dg: int,
    classes: Iterable[tuple[Pair, int]],
    right: list[bool],
    h_first: bool,
) -> TotalColouring:
    """Colour G x H from a total colouring of G x K_2 and matching classes of H.

    half[s][t] = (f(e), phi(e)) for each arc s -> t of G and
    e = (v_s, z_1)(v_t, z_2), where f is a total colouring of G x K_2 on
    palette 0..dg and phi a dg-edge colouring of it; fibres[z][k] is f's
    colour of (v_k, z_{z+1}).  ``classes`` pairs each H-edge, oriented x -> y,
    with its class in a proper edge colouring of H.  Vertex (v_k, w) takes
    fibres[right[w]][k], and (v_s, x)(v_t, y) takes f(e) over class 0 and
    d * dg + 1 + phi(e) over class d >= 1.  This is proper when every H-edge
    runs from right False to right True, and for any orientation when f
    colours both fibres alike, as the crown does.

    The result colours direct_product(G, H), or direct_product(H, G) when
    ``h_first``, with its edges emitted in that graph's sorted order.
    """
    hn = len(right)
    # lanes[s][t] = (f(e), f(e'), phi(e), phi(e')) with e' = (v_t, z_1)(v_s, z_2);
    # steps[x][y] = (offset, lane) of the H-edge {x, y} seen from x, so that
    # (v_s, x)(v_t, y) takes offset + lanes[s][t][lane]
    lanes = [
        {t: (fc, half[t][s][0], pc, half[t][s][1]) for t, (fc, pc) in here.items()}
        for s, here in enumerate(half)
    ]
    steps: list[dict[int, tuple[int, int]]] = [{} for _ in range(hn)]
    for (x, y), d in classes:
        offset, lane = (d * dg + 1, 2) if d else (0, 0)
        steps[x][y], steps[y][x] = (offset, lane), (offset, lane + 1)
    # vertex (i, j) of A x B is i * |B| + j, and its edges to larger vertices
    # go to (i2, j2) with i2 > i, in the order (i2, j2)
    a_adj, b_adj = (steps, lanes) if h_first else (lanes, steps)
    b_runs = [sorted(adj.items()) for adj in b_adj]
    vertex_colours, edges, colours = [0] * (len(half) * hn), [], []
    for i, a_here in enumerate(a_adj):
        ahead = sorted((i2, a) for i2, a in a_here.items() if i2 > i)
        for j, run in enumerate(b_runs):
            p = i * len(b_runs) + j
            k, w = (j, i) if h_first else (i, j)
            vertex_colours[p] = fibres[right[w]][k]
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
            "(use kn_times_bipartite(n, complete_graph(2)) for a K_2 factor)"
        )
    if n % 2 and m % 2:
        raise OpenProblemError(
            f"the total chromatic number of K_{n} x K_{m} with both factors odd "
            "is an open problem; no construction is available"
        )
    a, b = n, m
    if a % 2 or (b % 2 == 0 and b > a):
        a, b = b, a
    # K_a comes first in the caller's product when a == n; a one-factor edge
    # i < j runs i -> j
    classes = zip(combinations(range(a), 2), one_factorization(a))
    return _lift(*_crown_k2(b), b - 1, classes, [False] * a, a == n)


def kn_times_bipartite(n: int, h: Graph) -> TotalColouring:
    """Total colouring of K_n x H, H bipartite, with (n-1)*max_degree(h)+1 colours.

    n = 2 is refused: K_2 x K_2 is type II, so no such colouring can exist
    for every bipartite H.  n = 1 gives an edgeless product and the single
    colour 0.  For n >= 3 the crown colouring of K_n x K_2 is lifted across
    h, with the crown's closed-form (n-1)-edge colouring as phi.
    """
    if n == 2:
        raise DomainError(
            "K_2 x H is excluded: K_2 x K_2 is type II, so the lift has no "
            "valid starting colouring"
        )
    if n < 1:
        raise DomainError("K_n needs n >= 1")
    return _lift_over_h(h, n, n - 1, lambda: _crown_k2(n))
