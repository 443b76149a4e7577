"""Exact total chromatic numbers for small graphs.

The main solver reduces total colouring to vertex colouring of the total
graph T(G) (one vertex per element, adjacency = the conflict relation) and
runs a DSATUR-ordered branch and bound on T(G).  A solve, in order:

* closed form: a graph with Δ <= 2 is a disjoint union of paths and
  cycles, and its χ'' and an optimal colouring come with no T(G), bound or
  search node (:func:`_paths_and_cycles`); every later step sees Δ >= 3;
* closed form for K_n, K_n × K_m with an even factor, and bipartite
  graphs: :func:`_closed_form` colours them with Δ+1 or Δ+2 colours, and
  that colouring is a seed (below) when its palette is smaller than the
  given one.  It recognises K_n × K_m in any vertex labelling and reads
  the paper's construction (``knm_total_colouring``, or the crown when a
  factor is K_2) at each vertex's place, importing ``constructions`` only
  then.  A seed of Δ+2 colours asks the counting certificate here, before
  T(G): when it rules out Δ+1, the seed is optimal.  So K_n, K_n × K_m with
  an even factor, K_{a,b} and every bipartite graph with, in each
  component, a side of degrees below Δ are answered with no T(G);
* T(G): built once, straight from ``g.edges`` and relabelled by degree in
  closed form (:func:`_relabelled_total`); the greedy and the search share
  its adjacency masks, every local-search run its neighbour lists;
* lower bound: ω(T(G)) = Δ+1, with a maximum clique of T(G) in closed
  form (:func:`_clique`);
* upper bound: DSATUR greedy (:func:`_dsatur_greedy`);
* first local search: unless the counting certificate below has raised
  the lower bound, a seeded, move-capped TabuCol run (:func:`_tabucol`)
  for exactly lb colours from the best colouring so far (the greedy one,
  or the seed when that is smaller).  When it finds them the solve ends
  with no probe and no node.  On T(K8×K7) and T(K10×K5) the greedy start
  finds Δ+1 colours where a run from the probe's cut colouring misses,
  though the closed form now answers both before T(G);
* probe: only when that run misses, the branch and bound runs with a cap
  of ``_PROBE_NODES`` nodes per vertex of T(G), when that cap fits
  strictly inside the node budget left.  A completed probe is exact; it
  settles some disconnected type-II graphs that pass the certificate, such
  as K_4 plus an isolated vertex, which therefore first pay for a run
  that cannot succeed (all of its moves).  A cut one hands on the best
  colouring it found: the probe's cut colouring is still the only start
  for K9×K3.  Its nodes count in ``nodes``;
* local search: a TabuCol run for exactly lb colours from the best
  colouring so far, unless that start has already missed (no run is
  repeated); when it fails, one more run for lb colours from a seeded
  random colouring (the greedy start traps the search on K7×K3 and K5×K5);
  then one run for lb + 1 colours when that would still improve the bound;
* search: DSATUR branching with that clique pre-coloured, new colours
  restricted to (max used so far) + 1, and everything tie-broken on lowest
  index, so results are reproducible.

Two certificates can close the gap between the bounds before the search:

* a seed colouring: ``certify_construction`` hands the colouring it checks
  to the solver, the closed form above may give a smaller one, and its
  palette becomes the first upper bound (and the local search starts from
  it) when it is smaller than the greedy one.  A palette equal to Δ+1 is
  optimal with no search at all;
* a counting lower bound.  In a (Δ+1)-total colouring each vertex v
  misses exactly Δ - deg(v) colours, and every colour c splits V into the
  vertices coloured c, the endpoints of the matching of edges coloured c,
  and the vertices missing c.  The vertex colours then form a
  (Δ+1)-vertex-colouring of G, empty classes included, with:

  - on a bipartite G with parts A and B (the biconformable graphs of
    Hilton, J. Combin. Theory Ser. B 52, 1991): write a_c and b_c for the
    vertices of colour c in A and in B.  Each c-edge has one end in each
    part, so |A| - |B| = (a_c - b_c) + (missA_c - missB_c), and the missA_c
    sum over all colours to def(A) = sum over v in A of Δ - deg(v).  So
    sum_c max(0, |A| - |B| - (a_c - b_c)) <= def(A), and likewise with A
    and B swapped;
  - on any other G, the parity (conformability) bound of Chetwynd and
    Hilton ("Some refinements of the total chromatic number conjecture",
    Congr. Numer. 66, 1988): a class whose size differs in parity from |V|
    forces an odd, hence positive, number of vertices to miss its colour,
    so at most def(G) = sum(Δ - deg(v)) classes have the wrong parity.

  As |A| - |B| - (a_c - b_c) ≡ |V| - |V_c| (mod 2), the side counts imply
  the parity bound, so a bipartite G is held to them alone.  They prove
  K_{a,a} type II for every a, and C_4 and C_8, though these pass the
  parity bound when a is even (the closed form answers the cycles before
  the certificate is asked).  :func:`_conformable` searches for such a
  colouring of G, at most once per solve; when it proves there is none, the
  lower bound is Δ+2, no probe runs, and the local search that follows aims
  at Δ+2.

Every search reads the solve's one clock: the branch and bound at each node
(the wall clock every 512th), the local search before its set-up and each
move, the counting certificate at each placement, the DSATUR greedy every
``_GREEDY_STEPS`` steps, the closed form once after its O(|E|) set-up and
before it builds a colouring, and its Kőnig insertion every 256 edges; the
T(G) build never does.  A greedy or a closed form that runs out of time
leaves the seed, when there is one, as the upper bound, and otherwise the
trivial bounds.

The DSATUR greedy and the search share one bit-parallel core.  T(G) is
labelled by degree descending, then index, so the DSATUR choice is the
lowest set bit of the most saturated vertices.  Per-colour masks
``near[c]`` (the vertices adjacent to colour class c) and one bit-sliced
saturation counter, updated in place, make a step's saturation update cost
O(log colours in use) big-int operations, with no loop over the neighbours.
The branch and bound keeps its frames, one mask each, on an explicit stack,
so its depth (|T(G)|) is not limited by Python's recursion limit.

``chi_total_bruteforce`` is the deliberately dumber second oracle: plain
enumeration of colourings of ``Graph.elements()`` under the verifier's naive
cross-check ``incidence_conflicts``, never through T(G).

Nothing here assumes the conjectured upper bound max_degree + 2; the solver
reports whatever it proves, and a lower bound of max_degree + 2 comes only
from the closed form (a cycle C_n with n not a multiple of 3), the counting
certificate or the search.
"""

from __future__ import annotations

import math
import random
import time
from enum import Enum
from typing import NamedTuple

from .colouring import TotalColouring, normalize_total, verify_total
from .edge_colouring import _konig_insertion, find_bipartition
from .errors import DomainError, NotBipartiteError, PreconditionError
from .graph_core import Graph, Record, incidence_conflicts, make_graph

_RNG_SEED = 0x5EEDC01
_PARITY_CAP = 2000  # placements of the counting search, which ticks no nodes
_TABU_CAP = 1000  # moves of one local-search run, which ticks no nodes
_PROBE_NODES = 2  # node cap of the probe per vertex of T(G)
_GREEDY_STEPS = 256  # steps of the DSATUR greedy between reads of the clock


class SearchBudget(Record):
    """Limits for the exact search: at least one is set, and each is finite."""

    max_nodes: int | None
    max_seconds: float | None
    _fields = ("max_nodes", "max_seconds")

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None) -> None:
        if max_nodes is None and max_seconds is None:
            raise DomainError("search budget needs a node or wall-clock limit")
        if max_nodes is not None and max_nodes < 0:
            raise DomainError("node limit must be non-negative")
        if max_seconds is not None and max_seconds < 0:
            raise DomainError("wall-clock limit must be non-negative")
        if max_seconds is not None and not math.isfinite(max_seconds):
            raise DomainError(f"wall-clock limit must be finite, got {max_seconds}")
        self._init(max_nodes, max_seconds)


class OracleStatus(str, Enum):
    EXACT = "exact"
    TIMED_OUT = "timed_out"
    LOWER_BOUND_ONLY = "lower_bound_only"


class OracleResult(NamedTuple):
    status: OracleStatus
    chi_total: int | None
    lower: int
    upper: int
    nodes: int


class CertificationStatus(Enum):
    OPTIMAL = "optimal"
    VALID_BUT_UNPROVEN = "valid_but_unproven"
    SUBOPTIMAL = "suboptimal"


class CertificationVerdict(NamedTuple):
    status: CertificationStatus
    colours_used: int
    oracle: OracleResult


def total_graph(g: Graph) -> Graph:
    """T(G): one vertex per element of g, adjacent iff the elements conflict.

    Vertices 0..n-1 of T(G) are g's vertices in index order; the rest are
    g's edges in sorted order.  chi(T(G)) equals the total chromatic number.
    """
    index_of = {e: g.n + i for i, e in enumerate(g.edges)}
    t_edges = list(g.edges)  # adjacent vertices conflict
    for e, te in index_of.items():
        t_edges.append((e[0], te))  # edge conflicts with both endpoints
        t_edges.append((e[1], te))
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for e, te in index_of.items():
        incident[e[0]].append(te)
        incident[e[1]].append(te)
    for group in incident:  # edges sharing an endpoint conflict
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                t_edges.append((group[i], group[j]))
    labels = tuple(f"v{i}" for i in range(g.n)) + tuple(
        f"e{u}-{v}" for u, v in g.edges
    )
    return make_graph(g.n + len(g.edges), t_edges, labels)


class _Clock:
    def __init__(self, budget: SearchBudget):
        self.max_nodes, seconds = budget.max_nodes, budget.max_seconds
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0

    def tick(self) -> bool:
        """Count a node; False past the node cap or, every 512th, the deadline."""
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            return False
        if self.deadline is not None and self.nodes % 512 == 0:
            return time.monotonic() <= self.deadline
        return True

    def exhausted(self) -> bool:
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            return True
        return self.deadline is not None and time.monotonic() > self.deadline


def _clique(g: Graph) -> list[int]:
    """A maximum clique of T(G) when Δ >= 2, in closed form, as T(G) indices.

    A clique of T(G) is a clique of G (at most Δ+1 vertices), a vertex with
    some of its edges (at most Δ+1), an edge with its two ends (3), or edges
    that pairwise meet: a star (at most Δ) or a triangle (3).  So when
    Δ >= 2 a max-degree vertex with its incident edges is maximum.
    """
    v = g.degrees.index(g.max_degree)
    return [v] + [g.n + i for i, e in enumerate(g.edges) if v in e]


def _relabelled_total(g: Graph) -> tuple[list[int], list[int], list[list[int]]]:
    """T(G) built straight from ``g.edges`` and relabelled in DSATUR order.

    The order is degree descending, then the index of :func:`total_graph`.
    In T(G) a vertex v has degree 2·deg(v) and an edge uv has
    deg(u) + deg(v), so the order comes from ``g.degrees``.  Returns ``pos``
    (the new label of each vertex of T(G)), and the adjacency masks and
    neighbour lists over the new labels.  The DSATUR choice "highest
    saturation, then highest degree, then lowest index" is then the lowest
    set bit of the most saturated vertices.
    """
    n, degs = g.n, g.degrees
    degree = [2 * d for d in degs] + [degs[u] + degs[v] for u, v in g.edges]
    # a stable sort, reversed or not, keeps ties in index order
    order = sorted(range(len(degree)), key=degree.__getitem__, reverse=True)
    pos = [0] * len(order)
    for i, x in enumerate(order):
        pos[x] = i
    adj = [0] * len(order)
    nbrs: list[list[int]] = [[] for _ in order]
    for (u, v), e in zip(g.edges, pos[n:]):
        pu, pv = pos[u], pos[v]
        adj[pu] |= 1 << pv
        adj[pv] |= 1 << pu
        adj[e] = 1 << pu | 1 << pv
        nbrs[pu].append(pv)
        nbrs[pv].append(pu)
        nbrs[e] += (pu, pv)
    # w meets its edges, and they meet each other
    for w, ids in enumerate(g.incidence()):
        edges = [pos[n + i] for i in ids]
        star = sum(1 << e for e in edges)
        adj[pos[w]] |= star
        nbrs[pos[w]] += edges
        for i, e in enumerate(edges):
            adj[e] |= star ^ 1 << e
            nbrs[e] += edges[:i] + edges[i + 1 :]
    return pos, adj, nbrs


def _count(sat: list[int], vertices: int, up: bool) -> None:
    """Add one to (``up``) or take one from the saturation of ``vertices``.

    ``sat[i]`` is the set of vertices whose saturation (count of distinct
    colours on their coloured neighbours) has bit i set; the carry, or the
    borrow, ripples up the slices in place.  Only uncoloured vertices are
    read, so a coloured vertex's count may go stale until it is uncoloured.
    """
    carry = vertices
    for i, s in enumerate(sat):
        if not carry:
            return
        sat[i] = s ^ carry
        carry &= s if up else ~s
    if carry:
        sat.append(carry)


def _pick(sat: list[int], uncoloured: int) -> int:
    """The DSATUR choice: the lowest uncoloured vertex of top saturation."""
    top = uncoloured
    for s in reversed(sat):
        if top & s:
            top &= s
    return (top & -top).bit_length() - 1


def _dsatur_greedy(adj: list[int], clock: _Clock) -> list[int] | None:
    """DSATUR greedy colouring of a graph in :func:`_relabelled_total` order,
    or None when the clock, read every ``_GREEDY_STEPS`` steps, is spent."""
    n = len(adj)
    colours = [-1] * n
    near: list[int] = []  # near[c]: vertices adjacent to colour class c
    sat: list[int] = []
    uncoloured = (1 << n) - 1
    for step in range(1, n + 1):
        if not step % _GREEDY_STEPS and clock.exhausted():
            return None
        v = _pick(sat, uncoloured)
        c = 0
        while c < len(near) and near[c] >> v & 1:
            c += 1
        if c == len(near):
            near.append(0)
        uncoloured ^= 1 << v
        _count(sat, adj[v] & uncoloured & ~near[c], True)
        near[c] |= adj[v]
        colours[v] = c
    return colours


def _tabucol(
    nbrs: list[list[int]], start: list[int], k: int, clock: _Clock
) -> list[int] | None:
    """TabuCol: a proper colouring of T(G) on colours 0..k-1, or None.

    Hertz and de Werra's local search ("Using tabu search techniques for
    graph coloring", Computing 39, 1987) with the tabu tenure of Galinier
    and Hao (J. Comb. Optim. 3, 1999).  ``nbrs`` are the neighbour lists of
    the relabelled T(G) that :func:`_relabelled_total` builds once per
    solve; their order within a list does not matter.  :func:`_solve` runs
    it from the best colouring so far and, when that run fails at the lower
    bound, once more from a seeded random colouring.
    Vertices of ``start`` coloured k or above first take, in index order,
    the colour fewest of their placed neighbours have.  Each move then
    recolours one conflicting vertex: the non-tabu move that lowers the
    conflict count most, or a tabu one that beats the best count seen, ties
    broken by a seeded RNG.  The vertex may not take its old colour back for
    r + 0.6·(conflicting vertices) moves, r uniform in 0..9.
    ``gamma[v*k + c]`` counts the neighbours of v coloured c, so a move
    updates the neighbours of one vertex, and the scan reads the conflicting
    vertices (a bit mask) in index order.  Returns None after ``_TABU_CAP``
    moves or once the clock, read before set-up and each move, is spent.
    """
    if clock.exhausted():
        return None
    n = len(nbrs)
    colours = [0] * n
    gamma = [0] * (n * k)
    for v in range(n):
        c = start[v]
        if c >= k:  # gamma counts only the neighbours placed so far
            row = gamma[v * k : v * k + k]
            c = row.index(min(row))
        colours[v] = c
        for u in nbrs[v]:
            gamma[u * k + c] += 1
    conflicting = 0  # bit v: v has a neighbour of its own colour
    for v in range(n):
        if gamma[v * k + colours[v]]:
            conflicting |= 1 << v
    conflicts = best_seen = sum(gamma[v * k + colours[v]] for v in range(n)) // 2
    tabu = [0] * (n * k)  # tabu[v*k + c]: the first move v may take c
    rng = random.Random(_RNG_SEED)
    moves = 0
    while conflicting:
        if moves == _TABU_CAP or clock.exhausted():
            return None
        moves += 1
        best_delta, ties = n, []
        m = conflicting
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            row, cv = v * k, colours[v]
            base = gamma[row + cv]
            for c in range(k):
                delta = gamma[row + c] - base
                if delta > best_delta or c == cv:
                    continue
                if tabu[row + c] > moves and conflicts + delta >= best_seen:
                    continue
                if delta < best_delta:
                    best_delta, ties = delta, [(v, c)]
                else:
                    ties.append((v, c))
        if not ties:
            continue
        v, c = rng.choice(ties)
        old = colours[v]
        colours[v] = c
        conflicts += best_delta
        best_seen = min(best_seen, conflicts)
        for u in nbrs[v]:
            gamma[u * k + old] -= 1
            gamma[u * k + c] += 1
            if colours[u] == old and not gamma[u * k + old]:
                conflicting &= ~(1 << u)
            elif colours[u] == c and gamma[u * k + c] == 1:
                conflicting |= 1 << u
        if gamma[v * k + c]:
            conflicting |= 1 << v
        else:
            conflicting &= ~(1 << v)
        tenure = rng.randrange(10) + 6 * conflicting.bit_count() // 10
        tabu[v * k + old] = moves + tenure
    return colours


def _branch_and_bound(
    adj: list[int],
    lb: int,
    start: list[int],
    clique: list[int],
    clock: _Clock,
) -> tuple[bool, list[int]]:
    """DSATUR branch and bound; returns (completed, best colouring found).

    The search runs on T(G) relabelled by :func:`_relabelled_total` (``clique`` and
    the colourings use the new labels too), with an explicit stack of frames
    ``[v, colour tried, cmax, saved near[c]]`` instead of recursion, so its
    depth is not bounded by Python's recursion limit.
    ``near[c]`` is the set of vertices adjacent to colour class c;
    colouring v with c raises the saturation of exactly the uncoloured
    neighbours of v outside ``near[c]``.  Undo restores ``near[c]`` and
    lowers that same set again, as every child has undone its own step.
    """
    best_assign = start[:]
    best = max(start) + 1
    if best == lb:
        return True, best_assign

    colours = [0] * len(adj)  # valid for every vertex once none is uncoloured
    near = [0] * best
    sat: list[int] = []
    uncoloured = (1 << len(adj)) - 1
    for c, v in enumerate(clique):
        uncoloured ^= 1 << v
        _count(sat, adj[v] & uncoloured & ~near[c], True)
        near[c] |= adj[v]
        colours[v] = c

    # lb >= len(clique) and best > lb, so the root is a live inner node
    if not clock.tick():
        return False, best_assign
    stack = [[_pick(sat, uncoloured), -1, len(clique), 0]]
    while stack:
        frame = stack[-1]
        v, c, cmax = frame[0], frame[1], frame[2]
        bit = 1 << v
        if c >= 0:  # undo the colour tried last
            uncoloured |= bit
            near[c] = frame[3]
            _count(sat, adj[v] & uncoloured & ~near[c], False)
        # colour cmax opens a new class; a child's palette max(cmax, c + 1)
        # must stay below the best one found so far
        top = min(cmax, best - 2) if cmax < best else -1
        c += 1
        while c <= top and near[c] >> v & 1:
            c += 1
        if c > top:
            stack.pop()
            continue
        frame[1], frame[3] = c, near[c]
        uncoloured ^= bit
        _count(sat, adj[v] & uncoloured & ~near[c], True)
        near[c] |= adj[v]
        colours[v] = c
        child_cmax = cmax if c < cmax else c + 1
        if not uncoloured:
            best = child_cmax
            best_assign = colours[:]
            if best == lb:
                return True, best_assign
            continue
        if not clock.tick():
            return False, best_assign
        stack.append([_pick(sat, uncoloured), -1, child_cmax, 0])
    return True, best_assign


def _conformable(g: Graph, clock: _Clock) -> bool | None:
    """Whether g has a vertex colouring that a (Δ+1)-total colouring induces.

    Searches for a (Δ+1)-vertex-colouring of g that meets the counting
    condition of the module docstring.  Each vertex counts +1 to its class,
    or -1 when it lies on side B of a bipartite g, so a class is off target
    by e = |A| - |B| - (its count).  The classes with e > 0 must total at
    most def(A), those with e < 0 at most def(B) in |e|.  The counts hold
    for any split of g into two independent sides; A and B are the ones
    :func:`find_bipartition` gives.  When g has an odd cycle every vertex
    is on side A and e is taken mod 2: that is the parity rule, with
    def(A) = def(G).

    Vertices are placed in index order on an explicit stack; restricted
    growth lets a vertex take an open class or the next one, since classes
    are interchangeable.  Only a later vertex of side A lowers a positive e,
    and of side B a negative one, by 1, and only in a class it is not
    adjacent to.  So of a side's excess E at least max(E - R, E - L) stays,
    where R sums over the classes the part of |e| that such vertices can
    reach and L counts the side's later vertices; a branch is cut when that
    exceeds the side's deficiency.

    Returns False when no such colouring exists, which proves
    chi''(g) >= Δ+2, and None when ``_PARITY_CAP`` placements or ``clock``
    (read at each placement) run out first: one started late proves nothing.
    """
    n, k = g.n, g.max_degree + 1
    masks = [sum(1 << w for w in nbrs) for nbrs in g.adjacency]
    try:
        right, odd = find_bipartition(g), False
    except NotBipartiteError:
        right, odd = [False] * n, True
    sign = [-1 if r else 1 for r in right]
    target = sum(sign)  # |A| - |B|
    side_a = side_b = slack_a = slack_b = 0  # the sides, and def(A), def(B)
    for v, (r, dv) in enumerate(zip(right, g.degrees)):
        if r:
            side_b |= 1 << v
            slack_b += k - 1 - dv
        else:
            side_a |= 1 << v
            slack_a += k - 1 - dv
    empty = target & 1 if odd else target  # e of an empty class
    near = [0] * k  # near[c]: vertices adjacent to class c
    count = [0] * k  # count[c]: signed size of class c
    colour, saved = [-1] * n, [0] * n
    opened = [0] * (n + 1)  # classes open before vertex d is placed
    placements, d = 0, 0
    while d >= 0:
        if d == n:
            return True
        c = colour[d]
        if c >= 0:  # undo the class tried last
            near[c] = saved[d]
            count[c] -= sign[d]
        top = min(opened[d], k - 1)
        c += 1
        while c <= top and near[c] >> d & 1:
            c += 1
        if c > top:
            colour[d] = -1
            d -= 1
            continue
        placements += 1
        if placements > _PARITY_CAP or clock.exhausted():
            return None
        saved[d], colour[d] = near[c], c
        near[c] |= masks[d]
        count[c] += sign[d]
        used = max(opened[d], c + 1)
        later = (1 << n) - (2 << d)  # the vertices after d
        later_a, later_b = later & side_a, later & side_b
        # per side: the total excess, and how much of it later vertices reach
        over_a = over_b = fix_a = fix_b = 0
        for x in range(used):
            e = target - count[x]
            if odd:
                e &= 1
            if e > 0:
                r = (later_a & ~near[x]).bit_count()
                over_a += e
                fix_a += r if r < e else e
            elif e:
                r = (later_b & ~near[x]).bit_count()
                over_b -= e
                fix_b += r if r < -e else -e
        left_a, left_b = later_a.bit_count(), later_b.bit_count()
        if empty > 0:  # the k - used empty classes, adjacent to no vertex
            over_a += (k - used) * empty
            fix_a += (k - used) * (left_a if left_a < empty else empty)
        elif empty:
            over_b -= (k - used) * empty
            fix_b += (k - used) * (left_b if left_b < -empty else -empty)
        # each later vertex lowers the excess of its own side by at most 1
        if (
            over_a - min(fix_a, left_a) > slack_a
            or over_b - min(fix_b, left_b) > slack_b
        ):
            continue
        opened[d + 1] = used
        d += 1
    return False


def _paths_and_cycles(g: Graph) -> list[int]:
    """An optimal total colouring of g when Δ <= 2, in closed form.

    Such a g is a disjoint union of paths and cycles.  Each component is
    walked as its element sequence v0 e0 v1 e1 ..., in which two elements
    conflict exactly when they are at most two apart (around the cycle, on
    a cycle).  A path takes ``i % 3``: 3 colours, or 1 on an isolated
    vertex.  A cycle C_n has 2n elements, and T(C_n) is the square of
    C_2n: any three consecutive elements pairwise conflict, so a
    3-colouring repeats with period 3 around the 2n-cycle, which needs
    3 | n; such a cycle takes ``i % 3`` too.  A cycle with 3 ∤ n takes
    blocks ``0 1 2`` and then one block ``0 1 2 3`` when 2n ≡ 1 (mod 3), or
    two when 2n ≡ 2, so it needs and uses 4 colours (H. P. Yap, *Total
    Colourings of Graphs*, LNM 1623, 1996).  Each component uses its own
    total chromatic number of colours, so the palette, the largest of
    these, is χ''(g).  Returns the colouring of T(G) in element order:
    vertices, then ``g.edges``.
    """
    n, at = g.n, g.incidence()  # at[v]: the edge ids at v
    colours = [-1] * (n + len(g.edges))
    # paths first, each from an end, so the vertices left lie on cycles
    for s in [v for v in range(n) if len(at[v]) < 2] + list(range(n)):
        if colours[s] >= 0:
            continue
        walk, v, e = [s], s, (at[s] or [-1])[0]
        while e >= 0:
            walk.append(n + e)
            u, w = g.edges[e]
            v = w if u == v else u
            if v == s:
                break
            walk.append(v)
            a = at[v]  # e, and the next edge when v has one
            e = a[a[0] == e] if len(a) == 2 else -1
        # a walk that stops on an edge (e >= 0) closed a cycle
        cut = len(walk) - 4 * (len(walk) % 3 if e >= 0 else 0)
        for i, x in enumerate(walk):
            colours[x] = i % 3 if i < cut else (i - cut) % 4
    return colours


def _clique_product(g: Graph) -> tuple[int, int, list[int]] | None:
    """(n, m, where) when g is K_n × K_m with n >= m and an even factor, and
    where[v] = i·m + j is the vertex (i, j) of ``direct_product(K_n, K_m)``
    that v maps to; else None.  g has Δ >= 3.  :func:`_closed_form` states
    why the checks recognise the product."""
    size, d = g.n, g.max_degree
    if g.degrees.count(d) != size:
        return None
    s = size - d + 1  # n + m
    disc = s * s - 4 * size  # (n - m)²
    r = math.isqrt(disc) if disc >= 0 else -1
    if r * r != disc or (s + r) % 2:
        return None
    n, m = (s + r) // 2, (s - r) // 2
    if n % 2 and m % 2:
        return None
    nbrs = [set(a) for a in g.adjacency]
    # vertex 0 is (0, 0): its non-neighbours split into its row and column
    far = [v for v in range(1, size) if v not in nbrs[0]]
    row = [far[0]] + [v for v in far[1:] if v not in nbrs[far[0]]]
    column = [v for v in far[1:] if v in nbrs[far[0]]]
    if len(row) != m - 1:
        row, column = column, row
    if (len(row), len(column)) != (m - 1, n - 1):
        return None
    where = [-1] * size
    where[0] = 0
    for j, v in enumerate(row, 1):
        where[v] = j
    for i, v in enumerate(column, 1):
        where[v] = i * m
    for w in range(size):
        if where[w] < 0:
            js = [j for j, v in enumerate(row, 1) if v not in nbrs[w]]
            ids = [i for i, v in enumerate(column, 1) if v not in nbrs[w]]
            if len(js) != 1 or len(ids) != 1:
                return None
            where[w] = ids[0] * m + js[0]
    grid = [-1] * size
    for v, p in enumerate(where):
        grid[p] = v
    if -1 in grid:  # two vertices at one place
        return None
    for v, p in enumerate(where):
        first, j = p - p % m, p % m  # where v's row starts, and its column
        if not (nbrs[v].isdisjoint(grid[first : first + m]) and nbrs[v].isdisjoint(grid[j::m])):
            return None
    return n, m, where


def _closed_form(g: Graph, clock: _Clock) -> list[int] | None:
    """A total colouring of g with Δ >= 3 when g is complete, a product of
    two complete graphs with an even factor, or bipartite, in closed form,
    or None: in element order (vertices, then ``g.edges``), with Δ+1 or Δ+2
    colours.

    The clock is read once, after the set-up that tells these cases apart
    (the degrees, the adjacency, the recognition below and the bipartition,
    each O(|E|)) and before any colouring is built: None once it is spent.

    * K_n: with m = n | 1, vertex i takes 2i mod m and edge uv takes
      (u + v) mod m.  As m is odd, 2i mod m tells the vertices apart; the
      edges at u differ in v; and u + v ≡ 2u would need v ≡ u.  That is
      Δ+1 = n colours for odd n, and Δ+2 = n+1 for even n, which no fewer
      colours do (Behzad, Chartrand and Cooper, J. London Math. Soc. 42,
      1967; the parity rule proves it again).
    * K_n × K_m, 2 <= m <= n, in any labelling (:func:`_clique_product`).
      The product is d-regular with d = (n-1)(m-1) on nm vertices, so
      n + m = |V| - d + 1 and nm = |V|, and n, m are the roots of
      x² - (n + m)x + nm.  Vertex (i, j) is adjacent to (i', j') iff i ≠ i'
      and j ≠ j', so the non-neighbours of vertex 0, put at (0, 0), are its
      row (0, j) and its column (i, 0): two sets of m-1 and n-1 vertices,
      each independent, every row vertex adjacent to every column vertex.
      So a first non-neighbour x with the non-neighbours of x among them is
      one of the two and the rest is the other, told apart by their sizes
      (either will do when n = m).  Any other vertex (i, j) misses
      exactly (0, j) in the row and (i, 0) in the column, which give its
      coordinates.  When these are a bijection onto n × m and no vertex is
      adjacent to another of its own row or column, the d neighbours of
      each vertex are its d places of the product, so g is K_n × K_m.
      With an even factor, the colouring is ``knm_total_colouring(n, m)``
      (``kn_k2_total_colouring(n)``, the crown, when m = 2), read at each
      vertex's place: Δ+1 colours.  With both factors odd the recognition
      stops at n and m and gives None, and T(G) is built.
    * Bipartite g: the edges take the Δ colours 0..Δ-1 of the Kőnig
      insertion, read from ``clock`` every few hundred edges (None once it
      is spent).  Then, on each component, if one side has every degree
      below Δ, each vertex of that side takes the smallest colour missing
      at it, which is below Δ, and the other side takes Δ.  This is a
      (Δ+1)-total colouring: a side is independent, so its vertices of
      colour Δ meet only edges below Δ and vertices of the other side,
      whose colours are below Δ; a vertex with a missing colour meets
      neither an edge of that colour nor a vertex of its own side.  The
      side is chosen per component, since a component of max degree below
      Δ, or a star, may have its low side on either side of
      :func:`find_bipartition`.  When some component has a vertex of
      degree Δ on each side, the left side takes Δ and the right Δ+1.
    """
    n, edges, delta = g.n, g.edges, g.max_degree
    complete = 2 * len(edges) == n * (n - 1)
    product = None if complete else _clique_product(g)
    try:
        right = [] if complete or product else find_bipartition(g)
    except NotBipartiteError:
        return None
    if clock.exhausted():
        return None
    if complete:
        m = n | 1
        return [2 * i % m for i in range(n)] + [(u + v) % m for u, v in edges]
    if product is not None:
        from . import constructions  # only a product of cliques loads it

        pn, pm, where = product
        if pm == 2:
            tc = constructions.kn_k2_total_colouring(pn)
        else:
            tc = constructions.knm_total_colouring(pn, pm)
        colour_of = dict(zip(tc.edges, tc.edge_colours))
        ends = ((where[u], where[v]) for u, v in edges)
        return [tc.vertex_colours[p] for p in where] + [
            colour_of[(p, q) if p < q else (q, p)] for p, q in ends
        ]
    phi = _konig_insertion(g, clock.exhausted)
    if phi is None:
        return None
    nbrs, degs, at = g.adjacency, g.degrees, g.incidence()
    colours, seen = [delta] * n + phi, [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        component = [s]
        for u in component:  # the loop reaches every vertex appended to it
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        full = {right[v] for v in component if degs[v] == delta}
        if len(full) == 2:
            return [delta + r for r in right] + phi
        for v in component:  # the left side, unless it holds a degree-Δ vertex
            if right[v] == (False in full):
                colours[v] = min(set(range(degs[v] + 1)) - {phi[i] for i in at[v]})
    return colours


def _trivial_bounds(g: Graph) -> OracleResult:
    """What a budget spent before T(G) has a colouring gives: [Δ+1, |V|+|E|]."""
    lower, upper = g.max_degree + 1, g.element_count()
    return OracleResult(OracleStatus.LOWER_BOUND_ONLY, None, lower, upper, 0)


def _solve(
    g: Graph, budget: SearchBudget | None, seed: list[int] | None
) -> tuple[OracleResult, list[int] | None]:
    """:func:`exact_chi_total`, with ``seed`` (a proper colouring of T(G) on
    colours 0..p-1, or None) as a candidate first upper bound.

    Returns the result and the colouring of T(G) behind its upper bound, or
    None when the budget was spent before the first colouring.
    """
    if budget is None:
        budget = SearchBudget(max_seconds=60.0)
    if g.n == 0:
        return OracleResult(OracleStatus.EXACT, 0, 0, 0, 0), []

    trivial_lower = g.max_degree + 1
    clock = _Clock(budget)
    if clock.exhausted():
        return _trivial_bounds(g), None
    if seed is None or max(seed) + 1 > trivial_lower:
        if g.max_degree <= 2:
            colouring = _paths_and_cycles(g)
            k = max(colouring) + 1
            return OracleResult(OracleStatus.EXACT, k, k, k, 0), colouring
        closed = _closed_form(g, clock)
        if closed is None and seed is None and clock.exhausted():
            return _trivial_bounds(g), None
        if closed is not None and (seed is None or max(closed) < max(seed)):
            seed = closed
    refuted = None  # the counting certificate's answer, asked once per solve
    if seed is not None and (k := max(seed) + 1) <= trivial_lower + 1:
        # Δ+1 colours are optimal; Δ+2 are when the certificate rules out Δ+1
        if k == trivial_lower or (refuted := _conformable(g, clock) is False):
            return OracleResult(OracleStatus.EXACT, k, k, k, 0), seed

    pos, adj, nbrs = _relabelled_total(g)
    clique = [pos[v] for v in _clique(g)]
    lb = len(clique)
    start = _dsatur_greedy(adj, clock)
    if start is None and seed is None:
        return _trivial_bounds(g), None
    if seed is not None and (start is None or max(seed) < max(start)):
        start = [0] * len(adj)
        for v, c in enumerate(seed):
            start[pos[v]] = c
    ub = max(start) + 1
    completed, missed = False, None
    if refuted is None and lb < ub:
        refuted = _conformable(g, clock) is False
    if lb < ub and refuted:
        lb += 1  # counting certificate: no (Δ+1)-total colouring
    elif lb < ub and (found := _tabucol(nbrs, start, lb, clock)) is not None:
        start, ub = found, lb
    elif lb < ub:
        # probe: a short search may prove lb infeasible or improve the start
        missed = start
        cap = _PROBE_NODES * len(adj)
        full = clock.max_nodes
        if full is None or cap < full - clock.nodes:
            clock.max_nodes = clock.nodes + cap
            completed, start = _branch_and_bound(adj, lb, start, clique, clock)
            clock.max_nodes = full
            ub = max(start) + 1
    for k in (lb, lb + 1):  # one more colour only when the first runs fail
        if completed or k >= ub:
            break
        # a start the probe left as it was has already missed at lb
        repeat = k == lb and start == missed
        found = None if repeat else _tabucol(nbrs, start, k, clock)
        if found is None and k == lb:  # restart once, from a random colouring
            rng = random.Random(_RNG_SEED)
            found = _tabucol(nbrs, [rng.randrange(k) for _ in adj], k, clock)
        if found is not None:
            start, ub = found, max(found) + 1
            break

    if not completed and lb < ub and not clock.exhausted():
        completed, start = _branch_and_bound(adj, lb, start, clique, clock)
        ub = max(start) + 1
    colouring = [start[p] for p in pos]
    if completed or lb == ub:
        return OracleResult(OracleStatus.EXACT, ub, ub, ub, clock.nodes), colouring
    return OracleResult(OracleStatus.TIMED_OUT, None, lb, ub, clock.nodes), colouring


def exact_chi_total(g: Graph, budget: SearchBudget | None = None) -> OracleResult:
    """Exact total chromatic number of g, within a search budget.

    Returns Exact when the lower and upper bounds meet (or the search space
    is exhausted), TimedOut with the best bounds otherwise.  The clock is
    first read before any colouring is built, then by the closed form
    after its set-up, by the Kőnig insertion of a bipartite graph, and by
    the DSATUR greedy, so a budget spent before the first colouring is
    complete (``max_nodes=0``, or a wall-clock limit that the closed form's
    set-up or its insertion, or the T(G) build and the greedy, outrun)
    yields LowerBoundOnly, with the trivial bounds [Δ+1, |V|+|E|].  Any
    other budget gets at least the upper bound of a closed-form or greedy
    colouring; a node budget always does, since no node is counted before
    the greedy ends.  A graph with Δ <= 2 gets its exact value in closed
    form, with 0 nodes; so do K_n, K_{a,b}, every bipartite graph with, in
    each component, a side of degrees below Δ, and K_n × K_m with an even
    factor in any vertex labelling, which the paper's construction colours
    with Δ+1.  The counting certificate reads the same clock, so one that
    starts past a wall-clock deadline proves no Δ+2.
    """
    return _solve(g, budget, None)[0]


def chi_total_bruteforce(g: Graph, max_elements: int = 16) -> int:
    """Second oracle: enumerate element colourings directly, smallest k first.

    The elements are ``g.elements()`` and :func:`incidence_conflicts` says
    which pairs conflict, so this path shares nothing with T(G) or the main
    solver.  Intended for cross-validation on graphs with at most ~a dozen
    elements.
    """
    elements = list(g.elements())
    ne = len(elements)
    if ne == 0:
        return 0
    if ne > max_elements:
        raise DomainError(f"{ne} elements exceeds the brute-force cap {max_elements}")
    conflict_sets = [
        [j for j in range(i) if incidence_conflicts(g, elements[i], elements[j])]
        for i in range(ne)
    ]

    assign = [-1] * ne

    def feasible(i: int, k: int, used: int) -> bool:
        if i == ne:
            return True
        # restricted growth: a fresh colour index may only be the next unused
        top = min(k - 1, used)
        for c in range(top + 1):
            if all(assign[j] != c for j in conflict_sets[i]):
                assign[i] = c
                if feasible(i + 1, k, max(used, c + 1)):
                    return True
                assign[i] = -1
        return False

    for k in range(1, ne + 1):
        if feasible(0, k, 0):
            return k
    raise AssertionError("unreachable: n elements are always n-colourable")


def certify_construction(
    g: Graph, tc: TotalColouring, budget: SearchBudget | None = None
) -> CertificationVerdict:
    """Judge a verified colouring against the exact oracle.

    Optimal when the oracle proves the palette is the total chromatic number,
    Suboptimal when it proves a smaller one, ValidButUnproven when the budget
    runs out first.  The colouring is the oracle's first upper bound, so a
    palette equal to the proven lower bound is Optimal without a search.  An
    invalid colouring is a precondition failure, not a verdict.
    """
    report = verify_total(g, tc)
    if not report.valid:
        raise PreconditionError(
            f"colouring is not proper ({len(report.violations)} conflicts); "
            "nothing to certify"
        )
    used = report.colours_used
    tc = normalize_total(tc)
    # verify_total has checked that tc's edges are g's sorted edges
    seed = tc.vertex_colours + tc.edge_colours
    result = _solve(g, budget, seed)[0]
    if result.status is OracleStatus.EXACT:
        assert result.chi_total is not None
        if result.chi_total == used:
            return CertificationVerdict(CertificationStatus.OPTIMAL, used, result)
        if result.chi_total < used:
            return CertificationVerdict(CertificationStatus.SUBOPTIMAL, used, result)
        raise AssertionError(
            "oracle exceeded the palette of a verified colouring; solver bug"
        )
    return CertificationVerdict(CertificationStatus.VALID_BUT_UNPROVEN, used, result)
