"""Edge-colouring primitives the total-colouring constructions consume.

Each primitive returns a flat list of colours aligned with its graph's
``edges``: the exact max-degree edge colouring of bipartite graphs
(Konig's alternating-path insertion), the one factorization of even
complete graphs in closed form, the square colouring of K_{m,m} with a
rainbow main diagonal, in closed form: the cyclic square for odd m, the
cyclic square of order m - 1 prolonged along its diagonal for even m, and
the closed-form (m-1)-edge colouring of the crown graph,
x_k y_t -> (t - k - 1) mod m.

All tie-breaking is lowest-colour / lowest-index first, so every output is
deterministic.
"""

from __future__ import annotations

from typing import Callable, overload

from .errors import DomainError, NoRainbowError, NotBipartiteError
from .graph_core import Graph

_STOP_EDGES = 256  # insertions of the Kőnig colouring between reads of ``stop``


def find_bipartition(g: Graph) -> list[bool]:
    """2-colour the vertices by BFS: True marks the right side, and isolated
    vertices land on the left.

    Raises NotBipartiteError if some component contains an odd cycle.
    """
    nbrs, side = g.adjacency, [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        for u in queue:  # the loop reaches every vertex appended to it
            su = side[u]
            for v in nbrs[u]:
                if side[v] == -1:
                    side[v] = 1 - su
                    queue.append(v)
                elif side[v] == su:
                    raise NotBipartiteError(f"odd cycle through vertices {u} and {v}")
    return [s == 1 for s in side]


def bipartite_delta_edge_colouring(h: Graph) -> list[int]:
    """Proper edge colouring of a bipartite graph with exactly max_degree colours.

    Edges are inserted in sorted order.  Each edge (u, v) takes the smallest
    colour free at u; if that colour is busy at v, the alternating two-colour
    path starting at v is flipped first (it can never reach u in a bipartite
    graph), which frees the colour.  Raises NotBipartiteError, via
    :func:`find_bipartition`, if h has an odd cycle.
    """
    find_bipartition(h)
    return _konig_insertion(h)


@overload
def _konig_insertion(h: Graph) -> list[int]: ...
@overload
def _konig_insertion(h: Graph, stop: Callable[[], bool]) -> list[int] | None: ...
def _konig_insertion(h: Graph, stop: Callable[[], bool] | None = None) -> list[int] | None:
    """:func:`bipartite_delta_edge_colouring` without the bipartite check,
    for an h known to be bipartite: on an odd cycle a flipped path can reach
    u, and the colouring it returns need not be proper.  With ``stop``, it
    asks ``stop()`` every ``_STOP_EDGES`` insertions and returns None once
    that is true; without, it never returns None."""
    colours = [0] * len(h.edges)
    # at[v][c] = (neighbour, edge id) of the c-coloured edge at v
    at: list[dict[int, tuple[int, int]]] = [{} for _ in range(h.n)]

    def first_free(v: int) -> int:
        c = 0
        while c in at[v]:
            c += 1
        return c

    def flip_path(v: int, a: int, b: int) -> None:
        # swap colours a and b along the maximal alternating path from v
        path: list[tuple[int, int, int, int]] = []
        x, want = v, a
        while want in at[x]:
            y, i = at[x][want]
            path.append((x, y, i, want))
            x, want = y, a + b - want
        for x, y, _, c in path:
            del at[x][c]
            del at[y][c]
        for x, y, i, c in path:
            nc = a + b - c
            at[x][nc] = (y, i)
            at[y][nc] = (x, i)
            colours[i] = nc

    for i, (u, v) in enumerate(h.edges):
        if stop is not None and not (i + 1) % _STOP_EDGES and stop():
            return None
        a = first_free(u)
        if a in at[v]:
            flip_path(v, a, first_free(v))
        at[u][a] = (v, i)
        at[v][a] = (u, i)
        colours[i] = a
    return colours


def one_factorization(n: int) -> list[int]:
    """Edge colouring of K_n (n even) with n-1 colours, each class a perfect matching.

    The circle method in closed form: in round r, vertex n-1 pairs with r and
    every other pair i, j has i + j = 2r mod (n-1).  As n/2 inverts 2 mod n-1,
    the edge i < j takes i if j = n-1, else (i + j) * n/2 mod (n-1).  The
    list is aligned with complete_graph(n).edges.
    """
    if n < 2 or n % 2:
        raise DomainError(f"one factorization of K_n needs even n >= 2, got {n}")
    mod, half = n - 1, n // 2
    return [
        i if j == mod else (i + j) * half % mod
        for i in range(n)
        for j in range(i + 1, n)
    ]


def rainbow_kmm(m: int) -> list[int]:
    """m-edge-colouring of K_{m,m} whose matching x_i y_i is rainbow, m >= 3.

    The list is aligned with complete_bipartite(m, m).edges (parts x_i = i
    and y_j = m + j): it reads an m x m Latin square row by row, and x_i y_i
    is entry i * (m + 1), on the square's main diagonal.

    Odd m: the cyclic square (i + j) mod m, whose diagonal carries 2i mod m.
    Even m: prolong the cyclic square of odd order k = m - 1 along its main
    diagonal (Denes & Keedwell, Latin Squares and their Applications, 1974):
    symbol k replaces each cell (i, i), the displaced symbol 2i mod k moves
    to cells (i, k) and (k, i), and k also fills the corner (k, k).  The
    broken diagonal j = i + 1 mod k carries 2i + 1 mod k, so together with
    the corner it is a transversal; permuting the columns moves it onto the
    main diagonal.

    m = 2 fails for a reason, not by accident: both proper 2-edge-colourings
    of K_{2,2} make each perfect matching monochromatic.
    """
    if m <= 2:
        raise NoRainbowError(
            f"K_{{{m},{m}}} has no {m}-edge-colouring with a rainbow perfect matching"
        )
    if m % 2:
        return [(i + j) % m for i in range(m) for j in range(m)]
    k = m - 1
    rows = [[(i + j) % k for j in range(k)] + [2 * i % k] for i in range(k)]
    for i in range(k):
        rows[i][i] = k
    rows.append([2 * j % k for j in range(k)] + [k])
    columns = [(i + 1) % k for i in range(k)] + [k]
    return [row[c] for row in rows for c in columns]


def crown_edge_colouring(m: int) -> list[int]:
    """Proper (m-1)-edge colouring of the crown graph on 2m vertices, m >= 2.

    x_k y_t takes (t - k - 1) mod m: at x_k the m - 1 values of t != k give
    every colour but m - 1, and likewise the values of k != t at y_t.  The
    list is aligned with crown_graph(m).edges, row-major in (k, t).
    """
    if m < 2:
        raise DomainError("crown edge colouring needs m >= 2")
    return [(t - k - 1) % m for k in range(m) for t in range(m) if k != t]
