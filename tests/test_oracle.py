import itertools
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalcolour import (
    CertificationStatus,
    DomainError,
    NotBipartiteError,
    OracleStatus,
    PreconditionError,
    SearchBudget,
    TotalColouring,
    certify_construction,
    chi_total_bruteforce,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    direct_product,
    edgeless_graph,
    exact_chi_total,
    find_bipartition,
    knm_total_colouring,
    make_graph,
    total_graph,
    verify_total,
)
from totalcolour import oracle
from totalcolour.oracle import (
    _branch_and_bound,
    _clique,
    _clique_product,
    _Clock,
    _closed_form,
    _conformable,
    _count,
    _dsatur_greedy,
    _pick,
    _relabelled_total,
    _solve,
    _tabucol,
)

from conftest import random_bipartite, random_graph

BUDGET = SearchBudget(max_seconds=30.0)


def test_search_budget_needs_a_limit():
    with pytest.raises(DomainError):
        SearchBudget()
    with pytest.raises(DomainError):
        SearchBudget(max_nodes=-1)


@pytest.mark.parametrize("seconds", [math.nan, math.inf])
def test_search_budget_rejects_a_non_finite_wall_clock_limit(seconds):
    with pytest.raises(DomainError, match="finite"):
        SearchBudget(max_seconds=seconds)
    with pytest.raises(DomainError, match="finite"):
        SearchBudget(max_nodes=10, max_seconds=seconds)


def test_total_graph_of_k2_is_a_triangle():
    t = total_graph(complete_graph(2))
    assert t.n == 3
    assert t.edges == ((0, 1), (0, 2), (1, 2))
    assert t.labels == ("v0", "v1", "e0-1")


def test_total_graph_of_edgeless_is_edgeless():
    t = total_graph(edgeless_graph(4))
    assert t.n == 4 and not t.edges


def test_total_graph_of_c6_is_4_regular_on_12():
    t = total_graph(cycle_graph(6))
    assert t.n == 12
    assert set(t.degrees) == {4}
    # independent count: each element of a cycle conflicts with exactly 4 others
    g = cycle_graph(6)
    els = list(g.elements())
    from totalcolour import incidence_conflicts

    for a in els:
        assert sum(incidence_conflicts(g, a, b) for b in els if b != a) == 4


def test_exact_2k2_is_type_ii():
    g, _ = direct_product(complete_graph(2), complete_graph(2))
    res = exact_chi_total(g, BUDGET)
    assert res.status is OracleStatus.EXACT
    assert res.chi_total == 3 == g.max_degree + 2


def test_exact_c6_is_type_i():
    res = exact_chi_total(cycle_graph(6), BUDGET)
    assert res.status is OracleStatus.EXACT
    assert res.chi_total == 3


def test_exact_k4xk3():
    g, _ = direct_product(complete_graph(4), complete_graph(3))
    res = exact_chi_total(g, SearchBudget(max_seconds=120.0))
    assert res.status is OracleStatus.EXACT
    assert res.chi_total == 7


def test_exact_empty_graph():
    res = exact_chi_total(edgeless_graph(0), BUDGET)
    assert res.status is OracleStatus.EXACT and res.chi_total == 0


def test_exact_edgeless():
    res = exact_chi_total(edgeless_graph(5), BUDGET)
    assert res.chi_total == 1


def test_timeout_reports_bounds():
    # K9 x K5 (both factors odd) stays open at 150,000 nodes: the local
    # search finds no (Δ+1)-colouring, and half a second proves nothing
    g = _knm(9, 5)
    res = exact_chi_total(g, SearchBudget(max_seconds=0.5))
    assert res.status in (OracleStatus.TIMED_OUT, OracleStatus.LOWER_BOUND_ONLY)
    if res.status is OracleStatus.TIMED_OUT:
        assert res.lower >= g.max_degree + 1
        assert res.upper >= res.lower
        assert res.chi_total is None


def test_zero_budget_gives_lower_bound_only():
    g, _ = direct_product(complete_graph(6), complete_graph(5))
    res = exact_chi_total(g, SearchBudget(max_nodes=0))
    assert res.status is OracleStatus.LOWER_BOUND_ONLY
    assert res.lower == g.max_degree + 1
    assert res.upper == g.element_count()


def _knm(n, m):
    return direct_product(complete_graph(n), complete_graph(m))[0]


def test_deterministic_given_fixed_budget():
    # (status, chi_total, lower, upper, nodes): K_{2,3} and K_{4,5} take
    # Δ+1 colours in closed form, and K_{4,4}, K_{8,8} and K_8 take Δ+2 that
    # the counting certificate proves optimal before T(G) is built.  K4×K3,
    # K6×K3 and K5×K4 have an even factor and take Δ+1 colours from the
    # construction, also before T(G).  Where no closed form settles the
    # graph, a local-search run from the greedy colouring comes first.  On
    # K_4 ∪ K_1 (type II, and the certificate sees the whole graph) that run
    # misses, and the probe then proves Δ+2 in 16 nodes.  Paths and cycles
    # are answered in closed form with no node, even on a budget far too
    # small for any search
    pinned = [
        (_knm(4, 3), 10_000, ("exact", 7, 7, 7, 0)),
        (complete_bipartite(2, 3), 150_000, ("exact", 4, 4, 4, 0)),
        (complete_bipartite(4, 5), 150_000, ("exact", 6, 6, 6, 0)),
        # type II, and the side-count certificate proves it with no search;
        # with 50 nodes for K_{8,8}, far too few for a search to prove Δ+2
        (complete_bipartite(4, 4), 150_000, ("exact", 6, 6, 6, 0)),
        (complete_bipartite(8, 8), 50, ("exact", 10, 10, 10, 0)),
        (cycle_graph(7), 5, ("exact", 4, 4, 4, 0)),
        (complete_graph(8), 20_000, ("exact", 9, 9, 9, 0)),  # parity certificate
        (_knm(6, 3), 20_000, ("exact", 11, 11, 11, 0)),
        (_knm(5, 4), 5_000, ("exact", 13, 13, 13, 0)),
        (_k4_k1()[0], 150_000, ("exact", 5, 5, 5, 16)),
        (cycle_graph(61), 150_000, ("exact", 4, 4, 4, 0)),
    ]
    for g, max_nodes, expected in pinned:
        a = exact_chi_total(g, SearchBudget(max_nodes=max_nodes))
        b = exact_chi_total(g, SearchBudget(max_nodes=max_nodes))
        assert a == b
        assert (a.status.value, a.chi_total, a.lower, a.upper, a.nodes) == expected


def test_k44_search_is_pinned():
    # the local search closes the type-I gaps of the small products and the
    # side-count certificate settles K_{4,4}, so the branch and bound runs
    # here on its own: from the local search's 6-colouring of T(K_{4,4}) it
    # proves in 2,928 nodes that 5 colours do not suffice
    g = complete_bipartite(4, 4)
    pos, adj, nbrs = _relabelled_total(g)
    clique = [pos[v] for v in _clique(g)]
    clock = _Clock(SearchBudget(max_nodes=150_000))
    start = _tabucol(nbrs, _dsatur_greedy(adj, _no_deadline()), 6, clock)
    assert start is not None and max(start) == 5
    completed, best = _branch_and_bound(adj, len(clique), start, clique, clock)
    assert (completed, max(best) + 1, clock.nodes) == (True, 6, 2928)


def test_k6xk3_search_is_pinned():
    # the longest pinned trajectory: from the greedy colouring the branch
    # and bound proves chi'' = 11 = Δ+1 on its own in 123,482 nodes
    g = _knm(6, 3)
    pos, adj, _ = _relabelled_total(g)
    clique = [pos[v] for v in _clique(g)]
    clock = _Clock(SearchBudget(max_nodes=150_000))
    start = _dsatur_greedy(adj, _no_deadline())
    completed, best = _branch_and_bound(adj, len(clique), start, clique, clock)
    assert (completed, max(best) + 1, clock.nodes) == (True, 11, 123_482)


def test_search_keeps_one_mask_per_frame():
    # T(K8×K7) has 1,232 vertices and a frame keeps one 1,232-bit mask, so
    # at 2,000 nodes the traced peak (0.41 MB) stays far below the 7.56 MB
    # that a copy of every saturation level in each frame took
    g = _knm(8, 7)
    pos, adj, _ = _relabelled_total(g)
    clique = [pos[v] for v in _clique(g)]
    start = _dsatur_greedy(adj, _no_deadline())
    clock = _Clock(SearchBudget(max_nodes=2000))
    tracemalloc.start()
    try:
        completed, _ = _branch_and_bound(adj, len(clique), start, clique, clock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (completed, clock.nodes) == (False, 2001)
    assert peak < 2_000_000


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_saturation_counter_matches_a_recount(seed):
    # a random walk of the search's colour and undo steps: after each one,
    # the count of every uncoloured u read from the slices is the number of
    # classes u is adjacent to, and _pick is the lowest u of maximum count
    r = random.Random(seed)
    g = random_graph(r, p=r.random())
    _, adj, _ = _relabelled_total(g)
    n = len(adj)
    near, sat, stack = [0] * n, [], []  # n classes always leave one free
    uncoloured = (1 << n) - 1
    for _ in range(4 * n):
        if uncoloured and (not stack or r.random() < 0.6):
            v = _pick(sat, uncoloured)
            c = r.choice([c for c in range(n) if not near[c] >> v & 1])
            stack.append((v, c, near[c]))
            uncoloured ^= 1 << v
            _count(sat, adj[v] & uncoloured & ~near[c], True)
            near[c] |= adj[v]
        else:
            v, c, saved = stack.pop()
            near[c] = saved
            uncoloured |= 1 << v
            _count(sat, adj[v] & uncoloured & ~near[c], False)
        counts = {
            u: sum((s >> u & 1) << i for i, s in enumerate(sat))
            for u in range(n)
            if uncoloured >> u & 1
        }
        assert counts == {u: sum(m >> u & 1 for m in near) for u in counts}
        if counts:
            top = max(counts.values())
            assert _pick(sat, uncoloured) == min(u for u in counts if counts[u] == top)


def test_branch_and_bound_stops_at_the_deadline():
    # a deadline already past stops the search at its first read of the
    # clock, on node 512, and hands back the colouring it started from
    g = complete_bipartite(4, 4)
    pos, adj, nbrs = _relabelled_total(g)
    clique = [pos[v] for v in _clique(g)]
    greedy = _dsatur_greedy(adj, _no_deadline())
    start = _tabucol(nbrs, greedy, 6, _Clock(SearchBudget(max_nodes=150_000)))
    assert start is not None and max(start) == 5
    clock = _Clock(SearchBudget(max_seconds=1e-9))
    completed, best = _branch_and_bound(adj, len(clique), start, clique, clock)
    assert (completed, best, clock.nodes) == (False, start, 512)


def test_local_search_reads_the_clock_before_its_set_up():
    # T(K8×K7) has 1,232 vertices, so a run for Δ+1 = 43 colours builds two
    # tables of 52,976 entries (861 KB traced) before its first move; with
    # a clock spent before the run starts it returns None before either
    clock = _Clock(SearchBudget(max_seconds=1e-9))
    g = _knm(8, 7)
    _, adj, nbrs = _relabelled_total(g)
    start = _dsatur_greedy(adj, _no_deadline())
    assert clock.exhausted()
    tracemalloc.start()
    try:
        found = _tabucol(nbrs, start, g.max_degree + 1, clock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is None
    assert peak < 64_000


def test_dsatur_greedy_reads_the_clock():
    # T(K6×K5) has 330 vertices, so the greedy reads the clock once: a
    # spent clock stops it with no colouring, and an unspent one leaves the
    # colouring of the plain rescan
    g = _knm(6, 5)
    _, adj, _ = _relabelled_total(g)
    assert len(adj) > oracle._GREEDY_STEPS
    spent = _Clock(SearchBudget(max_seconds=1e-9))
    while not spent.exhausted():
        pass
    assert _dsatur_greedy(adj, spent) is None
    unspent = _Clock(SearchBudget(max_seconds=3600))
    colours = _dsatur_greedy(adj, unspent)
    assert colours == naive_dsatur(adj)
    assert max(colours) + 1 == 23  # Δ+1 = 21


def test_a_clock_spent_in_the_greedy_leaves_the_trivial_bounds():
    # both factors odd, so no closed form: building T(K13×K11) alone (8,723
    # elements) takes far longer than a millisecond, so the greedy finds the
    # clock spent at its 256th step
    g = _knm(13, 11)
    res = exact_chi_total(g, SearchBudget(max_seconds=1e-3))
    assert res == (OracleStatus.LOWER_BOUND_ONLY, None, 121, 8723, 0)


def test_a_greedy_stopped_by_the_clock_leaves_the_seed_as_the_start(monkeypatch):
    # both factors odd, so no closed form: vertex 0 of the oracle's
    # 9-colouring of K5×K3 moved to a 10th colour is the seed; with no greedy
    # colouring the solve starts from it and still finds 9, and without a
    # seed it has no colouring at all
    g = _knm(5, 3)
    res, seed = _solve(g, SearchBudget(max_nodes=150_000), None)
    assert res.chi_total == 9 and max(seed) == 8
    seed[0] = 9
    monkeypatch.setattr(oracle, "_dsatur_greedy", lambda adj, clock: None)
    res, colours = _solve(g, SearchBudget(max_nodes=150_000), seed)
    assert (res.status, res.chi_total, res.nodes) == (OracleStatus.EXACT, 9, 0)
    report = verify_total(g, _colouring_of(g, colours))
    assert report.valid and report.colours_used == 9
    res, colours = _solve(g, SearchBudget(max_nodes=150_000), None)
    assert (res, colours) == ((OracleStatus.LOWER_BOUND_ONLY, None, 9, 75, 0), None)


def test_counting_search_reads_the_clock():
    # the side counts prove K_{4,4} type II, but only a search that runs
    # inside the budget can: a spent clock stops it at its first placement
    g = complete_bipartite(4, 4)
    spent = _Clock(SearchBudget(max_seconds=1e-9))
    while not spent.exhausted():
        pass
    assert _conformable(g, spent) is None
    assert _conformable(g, _no_deadline()) is False


def test_long_cycle_needs_no_deep_recursion():
    # T(C_601) has 1202 vertices, deeper than Python's default recursion
    # limit.  The oracle answers a cycle in closed form, so the branch and
    # bound runs here on its own: from the greedy colouring and the clique
    # bound 3 it proves chi'' = 4 on a stack 1,202 frames deep
    g = cycle_graph(601)
    pos, adj, _ = _relabelled_total(g)
    clique = [pos[v] for v in _clique(g)]
    clock = _Clock(SearchBudget(max_nodes=150_000))
    completed, best = _branch_and_bound(adj, 3, _dsatur_greedy(adj, _no_deadline()), clique, clock)
    assert (completed, max(best) + 1, clock.nodes) == (True, 4, 1204)
    res = exact_chi_total(g, SearchBudget(max_nodes=150_000))
    assert (res.status, res.chi_total, res.nodes) == (OracleStatus.EXACT, 4, 0)


_components = st.one_of(
    st.tuples(st.just(False), st.integers(1, 14)),  # a path
    st.tuples(st.just(True), st.integers(3, 14)),  # a cycle
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_components, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_paths_and_cycles_in_closed_form(parts, seed):
    # chi'' of P_1 is 1, of a longer path 3, and of C_n 3 when 3 | n, else 4
    n = sum(size for _, size in parts)
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges, chi, first = [], 0, 0
    for cycle, size in parts:
        ring = list(range(first, first + size)) + [first] * cycle
        edges += [(label[u], label[v]) for u, v in zip(ring, ring[1:])]
        if cycle:
            chi = max(chi, 3 if size % 3 == 0 else 4)
        else:
            chi = max(chi, 1 if size == 1 else 3)
        first += size
    g = make_graph(n, edges)
    res, colours = _solve(g, SearchBudget(max_nodes=150_000), None)
    assert (res.status, res.chi_total, res.lower, res.upper, res.nodes) == (
        OracleStatus.EXACT, chi, chi, chi, 0
    )
    report = verify_total(g, _colouring_of(g, colours))
    assert report.valid and report.colours_used == chi
    res = exact_chi_total(g, SearchBudget(max_nodes=0))
    assert res.status is OracleStatus.LOWER_BOUND_ONLY
    if g.element_count() <= 12:
        assert chi_total_bruteforce(g, max_elements=12) == chi


def test_cycles_in_closed_form():
    for n in range(3, 201):
        g = cycle_graph(n)
        res, colours = _solve(g, SearchBudget(max_nodes=150_000), None)
        chi = 3 if n % 3 == 0 else 4
        assert (res.status, res.chi_total, res.nodes) == (OracleStatus.EXACT, chi, 0)
        report = verify_total(g, _colouring_of(g, colours))
        assert report.valid and report.colours_used == chi


@pytest.mark.parametrize("n, m, chi", [(7, 3, 13), (5, 5, 17), (9, 3, 17), (5, 3, 9)])
def test_odd_products_are_type_i(n, m, chi):
    # both factors odd: no construction, but the local search finds Δ+1
    # colours, so chi'' = Δ+1.  The first run, from the greedy colouring,
    # misses on all four, so the probe runs.  Then on K5×K5 and K5×K3 only
    # the random restart finds Δ+1 (the probe leaves the start as it was),
    # on K9×K3 only the run from the probe's cut colouring, and on K7×K3 both
    g = _knm(n, m)
    res, colours = _solve(g, SearchBudget(max_nodes=150_000), None)
    assert chi == g.max_degree + 1
    assert (res.status, res.chi_total) == (OracleStatus.EXACT, chi)
    report = verify_total(g, _colouring_of(g, colours))
    assert report.valid and report.colours_used == chi


@pytest.mark.parametrize("n, m, chi", [(8, 7, 43), (10, 5, 37)])
def test_local_search_from_the_greedy_colouring_settles_type_i(n, m, chi):
    # one even factor, so the oracle answers these from the construction
    # before T(G); here the local search runs on T(G) on its own.  From the
    # greedy colouring it finds Δ+1 colours in 577 and 337 moves, within
    # the 1,000-move cap; from the probe's cut colouring it would need 2,951
    # and 2,819
    g = _knm(n, m)
    pos, adj, nbrs = _relabelled_total(g)
    found = _tabucol(nbrs, _dsatur_greedy(adj, _no_deadline()), chi, _no_deadline())
    assert chi == g.max_degree + 1
    assert found is not None
    report = verify_total(g, _colouring_of(g, [found[p] for p in pos]))
    assert report.valid and report.colours_used == chi


@pytest.mark.parametrize(
    "n, m, max_nodes, runs",
    [
        # the probe does not fit in one node, so the start it would cut
        # never comes: the greedy start's miss is not run again
        (7, 3, 1, [(13, "greedy", False), (13, "random", True)]),
        (9, 3, 1, [(17, "greedy", False), (17, "random", False), (18, "greedy", True)]),
        # the probe runs and hands on a new start
        (7, 3, 150_000, [(13, "greedy", False), (13, "cut", True)]),
        (9, 3, 150_000, [(17, "greedy", False), (17, "cut", True)]),
        # the probe runs but leaves the greedy start as it was
        (5, 3, 150_000, [(9, "greedy", False), (9, "random", True)]),
    ],
)
def test_no_local_search_run_is_repeated(n, m, max_nodes, runs):
    # (colours, start, found) of each run: the start is the greedy colouring,
    # the seeded random one, or one the probe cut
    g = _knm(n, m)
    _, adj, _ = _relabelled_total(g)
    greedy = tuple(_dsatur_greedy(adj, _no_deadline()))
    calls = []

    def record(nbrs, start, k, clock):
        found = _tabucol(nbrs, start, k, clock)
        calls.append((k, tuple(start), found is not None))
        return found

    with mock.patch.object(oracle, "_tabucol", wraps=record):
        _solve(g, SearchBudget(max_nodes=max_nodes), None)
    assert len({(k, start) for k, start, _ in calls}) == len(calls)
    rng = random.Random(oracle._RNG_SEED)
    random_start = tuple(rng.randrange(runs[0][0]) for _ in adj)
    names = {greedy: "greedy", random_start: "random"}
    assert [(k, names.get(start, "cut"), hit) for k, start, hit in calls] == runs


def adjacency_masks(g):
    """Each vertex's neighbours as a bit mask, read from ``Graph.adjacency``
    as the counting certificate reads them."""
    return [sum(1 << w for w in nbrs) for nbrs in g.adjacency]


def relabel(masks):
    """Relabel a graph by scanning its masks: degree descending, then index.
    Returns the new label of each vertex and the masks over the new labels."""
    order = sorted(range(len(masks)), key=lambda v: (-masks[v].bit_count(), v))
    pos = [0] * len(masks)
    for i, v in enumerate(order):
        pos[v] = i
    n = len(masks)
    adj = [sum(1 << pos[u] for u in range(n) if masks[v] >> u & 1) for v in order]
    return pos, adj


@given(st.integers(0, 9), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_relabelled_total_matches_the_total_graph(n, isolated, seed):
    # edges among the first n vertices only, so the last ones stay isolated;
    # n = isolated = 0 is the empty graph
    r = random.Random(seed)
    p = r.choice([0.0, r.random(), 1.0])
    edges = [e for e in itertools.combinations(range(n), 2) if r.random() < p]
    g = make_graph(n + isolated, edges)
    pos, adj, nbrs = _relabelled_total(g)
    want_pos, want_adj = relabel(adjacency_masks(total_graph(g)))
    assert (pos, adj) == (want_pos, want_adj)
    assert [sorted(vs) for vs in nbrs] == [
        [u for u in range(len(adj)) if m >> u & 1] for m in want_adj
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_budget_brackets_the_bruteforce_value(seed):
    # small budgets cut the probe, the local search or the search anywhere;
    # no cut may turn into a wrong bound or an EXACT claim.  Graphs this small
    # never exhaust a probe of 2|T(G)| nodes, so a probe capped at 0 nodes
    # (it always runs out) is tried too.  A graph with Δ <= 2 is answered in
    # closed form with no search to cut, so only Δ >= 3 is drawn
    r = random.Random(seed)
    g = random_graph(r, max_n=5, p=r.random())
    while g.element_count() > 10 or g.max_degree < 3:
        g = random_graph(r, max_n=5, p=r.random())
    bf = chi_total_bruteforce(g)
    for probe, nodes in itertools.product((oracle._PROBE_NODES, 0), (0, 1, 7, 50)):
        with mock.patch.object(oracle, "_PROBE_NODES", probe):
            res = exact_chi_total(g, SearchBudget(max_nodes=nodes))
        assert res.lower <= bf <= res.upper
        assert res.nodes <= nodes + 1
        if res.status is OracleStatus.EXACT:
            assert res.chi_total == bf
        if nodes == 0:
            assert res.status is OracleStatus.LOWER_BOUND_ONLY


def naive_dsatur(masks):
    """The O(n^2) DSATUR the bit-parallel greedy replaced: rescan every
    uncoloured vertex for the max of (saturation, degree, -index)."""
    n = len(masks)
    degs = [m.bit_count() for m in masks]
    colours = [-1] * n
    forbid_mask = [0] * n
    for _ in range(n):
        v = max(
            (u for u in range(n) if colours[u] < 0),
            key=lambda u: (forbid_mask[u].bit_count(), degs[u], -u),
        )
        c = 0
        while forbid_mask[v] >> c & 1:
            c += 1
        colours[v] = c
        for u in range(n):
            if masks[v] >> u & 1 and colours[u] < 0:
                forbid_mask[u] |= 1 << c
    return colours


@given(st.integers(0, 2**32 - 1))
def test_dsatur_greedy_matches_naive_rescan(seed):
    r = random.Random(seed)
    g = random_graph(r, max_n=12, p=r.random())
    _, adj = relabel(adjacency_masks(g))
    assert _dsatur_greedy(adj, _no_deadline()) == naive_dsatur(adj)


def naive_max_clique(masks):
    """Size of a maximum clique, by plain branch and bound on bit masks."""
    best = 0

    def grow(size, cand):
        nonlocal best
        best = max(best, size)
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            grow(size + 1, cand & masks[v])

    grow(0, (1 << len(masks)) - 1)
    return best


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closed_form_clique_is_maximum(seed):
    # the solver reaches T(G) only when Δ >= 3; Δ = 2 is the smallest case
    # the closed form covers
    r = random.Random(seed)
    g = random_graph(r, max_n=8, p=r.random())
    while g.max_degree < 2:
        g = random_graph(r, max_n=8, p=r.random())
    masks = adjacency_masks(total_graph(g))
    clique = _clique(g)
    assert len(set(clique)) == len(clique)
    assert all(masks[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
    assert len(clique) == g.max_degree + 1
    assert naive_max_clique(masks) == len(clique)


def _no_deadline():
    return _Clock(SearchBudget(max_nodes=1))


def _colouring_of(g, colours):
    """The TotalColouring of g behind a colouring of T(G) in T(G) labels."""
    return TotalColouring.from_parts(
        colours[: g.n], [(u, v, colours[g.n + i]) for i, (u, v) in enumerate(g.edges)]
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_local_search_colourings_verify(seed):
    r = random.Random(seed)
    g = random_graph(r, max_n=8, p=r.random())
    pos, adj, nbrs = _relabelled_total(g)
    lb = len(_clique(g))
    starts = [_dsatur_greedy(adj, _no_deadline()), [r.randrange(lb) for _ in adj]]
    for k, start in itertools.product((lb, lb + 1), starts):
        found = _tabucol(nbrs, start, k, _no_deadline())
        assert found == _tabucol(nbrs, start, k, _no_deadline())
        if found is not None:
            report = verify_total(g, _colouring_of(g, [found[p] for p in pos]))
            assert report.valid and report.colours_used <= k


def test_local_search_returns_none_where_no_colouring_exists():
    # chi''(C_4) = 4 and chi''(K_{4,4}) = 6
    for g, k in [(cycle_graph(4), 3), (complete_bipartite(4, 4), 5)]:
        _, adj, nbrs = _relabelled_total(g)
        assert _tabucol(nbrs, _dsatur_greedy(adj, _no_deadline()), k, _no_deadline()) is None


def test_bruteforce_small_values():
    assert chi_total_bruteforce(edgeless_graph(3)) == 1
    assert chi_total_bruteforce(complete_graph(2)) == 3
    assert chi_total_bruteforce(cycle_graph(3)) == 3
    assert chi_total_bruteforce(make_graph(3, [(0, 1), (1, 2)])) == 3
    assert chi_total_bruteforce(complete_graph(1)) == 1


def test_bruteforce_caps_element_count():
    with pytest.raises(DomainError):
        chi_total_bruteforce(complete_graph(6), max_elements=10)


def test_cross_validation_sample(rng):
    for _ in range(40):
        g = random_graph(rng, max_n=4)
        if g.element_count() > 8:
            continue
        bf = chi_total_bruteforce(g)
        res = exact_chi_total(g, BUDGET)
        assert res.status is OracleStatus.EXACT
        assert res.chi_total == bf
        if g.edges:
            assert bf >= g.max_degree + 1


def test_certify_knm_43_is_optimal():
    g, _ = direct_product(complete_graph(4), complete_graph(3))
    verdict = certify_construction(g, knm_total_colouring(4, 3), SearchBudget(max_seconds=120.0))
    assert verdict.status is CertificationStatus.OPTIMAL
    assert verdict.colours_used == 7


def test_certify_flags_suboptimal():
    # C6 coloured with 4 colours: vertices alternate 0/1, edges alternate 2/3.
    c6 = cycle_graph(6)
    tc = TotalColouring.from_parts(
        [0, 1, 0, 1, 0, 1],
        [(0, 1, 2), (1, 2, 3), (2, 3, 2), (3, 4, 3), (4, 5, 2), (0, 5, 3)],
    )
    verdict = certify_construction(c6, tc, BUDGET)
    assert verdict.status is CertificationStatus.SUBOPTIMAL
    assert verdict.oracle.chi_total == 3
    assert verdict.colours_used == 4


def _with_fresh_colour(tc):
    """tc with vertex 0 moved to a colour no other element uses."""
    vertex_colours = list(tc.vertex_colours)
    vertex_colours[0] = max(tc.colours) + 1
    return TotalColouring(vertex_colours, tc.edges, tc.edge_colours)


def _kaa_total_colouring(a):
    """A (Δ+2)-total colouring of K_{a,a}: edge (i, a+j) gets (i+j) mod a,
    and each part takes one colour of its own."""
    return TotalColouring.from_parts(
        [a] * a + [a + 1] * a,
        [(i, a + j, (i + j) % a) for i in range(a) for j in range(a)],
    )


def _c7_total_colouring():
    """A 4-total colouring of C_7."""
    return TotalColouring.from_parts(
        [0, 1, 0, 1, 0, 1, 2],
        [(0, 1, 2), (1, 2, 3), (2, 3, 2), (3, 4, 3), (4, 5, 2), (5, 6, 0), (0, 6, 1)],
    )


def _k4_k1():
    """K_4 plus an isolated vertex, and a 5-total colouring of it."""
    g = make_graph(5, list(itertools.combinations(range(4), 2)))
    tc = TotalColouring.from_parts(
        [0, 2, 4, 1, 0],
        [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 3), (1, 3, 4), (2, 3, 0)],
    )
    return g, tc


def test_certify_timeout_is_unproven():
    # K_4 ∪ K_1 has chi'' = 5 = Δ+2, but the isolated vertex's deficiency of
    # 3 lets it pass the parity test, so the lower bound stays 4 and five
    # nodes cannot prove the 5-colouring optimal
    g, tc = _k4_k1()
    verdict = certify_construction(g, tc, SearchBudget(max_nodes=5))
    assert verdict.status is CertificationStatus.VALID_BUT_UNPROVEN
    assert verdict.colours_used == 5
    assert (verdict.oracle.lower, verdict.oracle.upper) == (4, 5)
    # C_7 is type II and passes the parity test too, but a cycle's chi'' is
    # in closed form: the same budget proves the 4-colouring optimal
    g, tc = cycle_graph(7), _c7_total_colouring()
    verdict = certify_construction(g, tc, SearchBudget(max_nodes=5))
    assert verdict.status is CertificationStatus.OPTIMAL
    assert (verdict.colours_used, verdict.oracle.nodes) == (4, 0)
    # the side counts prove K_{8,8}'s 10-colouring optimal with no search
    g, tc = complete_bipartite(8, 8), _kaa_total_colouring(8)
    verdict = certify_construction(g, tc, SearchBudget(max_nodes=5))
    assert verdict.status is CertificationStatus.OPTIMAL
    assert (verdict.colours_used, verdict.oracle.nodes) == (10, 0)


def test_certify_extra_colour_is_suboptimal():
    # the local search recolours the 22-colouring with 21 colours, the
    # lower bound, so one colour too many is proven with no search
    g = _knm(6, 5)
    tc = _with_fresh_colour(knm_total_colouring(6, 5))
    verdict = certify_construction(g, tc, SearchBudget(max_nodes=5))
    assert verdict.status is CertificationStatus.SUBOPTIMAL
    assert verdict.colours_used == 22
    assert (verdict.oracle.chi_total, verdict.oracle.nodes) == (21, 0)


def test_certify_palette_at_lower_bound_needs_no_search():
    g = _knm(6, 4)
    verdict = certify_construction(
        g, knm_total_colouring(6, 4), SearchBudget(max_nodes=150_000)
    )
    assert verdict.status is CertificationStatus.OPTIMAL
    assert verdict.colours_used == 16 == g.max_degree + 1
    assert verdict.oracle.nodes == 0


def test_certify_palette_is_the_first_upper_bound():
    # K_4 ∪ K_1: lower bound 4, greedy palette 6; with the local search
    # finding nothing, a 5-colouring must still bound the answer even though
    # one node cannot finish the search
    g, tc = _k4_k1()
    assert max(_dsatur_greedy(_relabelled_total(g)[1], _no_deadline())) == 5
    with mock.patch.object(oracle, "_tabucol", return_value=None):
        res = exact_chi_total(g, SearchBudget(max_nodes=1))
        assert (res.status, res.lower, res.upper) == (OracleStatus.TIMED_OUT, 4, 6)
        verdict = certify_construction(g, tc, SearchBudget(max_nodes=1))
    assert verdict.status is CertificationStatus.VALID_BUT_UNPROVEN
    assert verdict.colours_used == 5
    assert (verdict.oracle.lower, verdict.oracle.upper) == (4, 5)
    # K9 x K3, both factors odd, so no closed form: started from the greedy
    # colouring and restarted from a random one, the local search misses
    # Δ+1 = 17; started from the seed (the oracle's 17-colouring with one
    # vertex moved to an 18th colour), it finds 17 at once
    g = _knm(9, 3)
    res = exact_chi_total(g, SearchBudget(max_nodes=1))
    assert (res.status, res.lower, res.upper) == (OracleStatus.TIMED_OUT, 17, 18)
    res, colours = _solve(g, SearchBudget(max_nodes=150_000), None)
    assert res.chi_total == 17
    tc = _with_fresh_colour(_colouring_of(g, colours))
    verdict = certify_construction(g, tc, SearchBudget(max_nodes=1))
    assert verdict.status is CertificationStatus.SUBOPTIMAL
    assert (verdict.colours_used, verdict.oracle.chi_total) == (18, 17)


def test_parity_certificate_proves_type_ii_closed_forms():
    # K_n (n even) and K_{a,a} (a odd) fail the parity test; K_{a,a} (a even)
    # and C_8 pass it but fail the side counts.  The oracle answers the
    # cases with Δ <= 2 in closed form, so the certificate is asked directly
    cases = [(complete_graph(n), n + 1) for n in (2, 4, 6, 8, 10)]
    cases += [(complete_bipartite(a, a), a + 2) for a in range(1, 11)]
    cases += [(cycle_graph(5), 4), (cycle_graph(8), 4)]
    for g, chi in cases:
        assert _conformable(g, _no_deadline()) is False
        res = exact_chi_total(g, SearchBudget(max_nodes=150_000))
        assert (res.status, res.chi_total, res.nodes) == (OracleStatus.EXACT, chi, 0)


def test_parity_search_at_its_cap_gives_no_bound():
    # K_{9,9} minus a matching of 5 edges is type I, but the capped search
    # finds no colouring that meets the side counts, so it proves nothing:
    # the clique bound stands, and the local search finds Δ+1 colours
    edges = [(i, 9 + j) for i in range(9) for j in range(9) if i != j or i >= 5]
    g = make_graph(18, edges)
    assert _conformable(g, _no_deadline()) is None
    res = exact_chi_total(g, SearchBudget(max_nodes=50))
    assert (res.status.value, res.chi_total, res.nodes) == ("exact", 10, 0)
    # the parity search hit the cap on K_{9,9} itself; the side counts
    # refute it at the first vertex
    res = exact_chi_total(complete_bipartite(9, 9), SearchBudget(max_nodes=50))
    assert (res.status.value, res.chi_total, res.nodes) == ("exact", 11, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parity_refutation_is_sound(seed):
    r = random.Random(seed)
    n = r.randint(2, 8)
    pool = list(itertools.combinations(range(n), 2))
    g = make_graph(n, r.sample(pool, r.randint(1, min(len(pool), 14 - n))))
    if _conformable(g, _no_deadline()) is False:
        assert chi_total_bruteforce(g, max_elements=14) >= g.max_degree + 2


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_side_count_refutation_is_sound(seed):
    r = random.Random(seed)
    a, b = r.randint(1, 6), r.randint(1, 6)
    pool = [(i, a + j) for i in range(a) for j in range(b)]
    g = make_graph(a + b, r.sample(pool, r.randint(1, min(len(pool), 14 - a - b))))
    if _conformable(g, _no_deadline()) is False:
        assert chi_total_bruteforce(g, max_elements=14) >= g.max_degree + 2


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_side_counts_refute_what_parity_refutes(seed):
    # with every vertex on one side the search applies the parity rule alone;
    # each wrong-parity class is off target by an odd, so nonzero, amount,
    # so the side counts cut every branch the parity rule cuts
    r = random.Random(seed)
    g = random_bipartite(r, max_part=7, p=r.random())[0]
    with mock.patch.object(
        oracle, "find_bipartition", side_effect=NotBipartiteError("parity only")
    ):
        parity = _conformable(g, _no_deadline())
    if parity is False:
        assert _conformable(g, _no_deadline()) is False


def _independent_partitions(g, k):
    """Every split of g's vertices into at most k independent classes, each
    yielded as a list of classes (the same list, changed in place)."""
    classes = []

    def grow(v):
        if v == g.n:
            yield classes
            return
        for cls in classes:
            if not any(g.has_edge(u, v) for u in cls):
                cls.append(v)
                yield from grow(v + 1)
                cls.pop()
        if len(classes) < k:
            classes.append([v])
            yield from grow(v + 1)
            classes.pop()

    yield from grow(0)


def _meets_counts(g, classes, k):
    """The counting condition on a proper (Δ+1)-vertex-colouring, computed
    from the classes themselves: the parity rule when g has an odd cycle,
    the side counts when it is bipartite."""
    deficiency = [g.max_degree - d for d in g.degrees]
    classes = classes + [[]] * (k - len(classes))
    try:
        right = find_bipartition(g)
    except NotBipartiteError:
        return sum((g.n - len(cls)) % 2 for cls in classes) <= sum(deficiency)
    diff = right.count(False) - right.count(True)
    excess = [0, 0]  # classes short of side-A vertices, and of side-B ones
    for cls in classes:
        e = diff - sum(-1 if right[v] else 1 for v in cls)
        excess[e < 0] += abs(e)
    return all(
        excess[s] <= sum(x for x, r in zip(deficiency, right) if r == s) for s in (0, 1)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_conformable_matches_enumeration(seed):
    # the pruned search finds a colouring exactly when plain enumeration does
    r = random.Random(seed)
    if r.random() < 0.5:
        g = random_bipartite(r, max_part=4, p=r.random())[0]
    else:
        g = random_graph(r, max_n=8, p=r.random())
    k = g.max_degree + 1
    found = _conformable(g, _no_deadline())
    if found is not None:
        partitions = _independent_partitions(g, k)
        assert found == any(_meets_counts(g, cls, k) for cls in partitions)


def test_certify_rejects_invalid_colouring():
    c6 = cycle_graph(6)
    tc = TotalColouring.from_parts(
        [0, 0, 0, 0, 0, 0],
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (0, 5, 1)],
    )
    with pytest.raises(PreconditionError):
        certify_construction(c6, tc, BUDGET)


def test_oracle_never_beats_a_verified_colouring(rng):
    """Exact values sit in [max_degree+1, palette of any verified colouring]."""
    for n, m in [(4, 3), (3, 4), (4, 4)]:
        g, _ = direct_product(complete_graph(n), complete_graph(m))
        tc = knm_total_colouring(n, m)
        res = exact_chi_total(g, SearchBudget(max_seconds=120.0))
        assert res.status is OracleStatus.EXACT
        assert g.max_degree + 1 <= res.chi_total <= tc.palette_size


def _relabelled(g, r):
    """g with its vertices shuffled by r."""
    label = r.sample(range(g.n), g.n)
    return make_graph(g.n, [(label[u], label[v]) for u, v in g.edges])


def _closed_form_case(r):
    """K_n for 4 <= n <= 40, or a bipartite graph with Δ >= 3: one random
    bipartite graph, a disjoint union of two, or the direct product of two,
    with its vertices shuffled so that either side may come first."""
    kind = r.randrange(4)
    if kind == 0:
        return complete_graph(r.randint(4, 40))
    while True:
        p, part = r.random(), r.choice((3, 6))
        g = random_bipartite(r, max_part=part, p=p)[0]
        if kind == 1:
            h = random_bipartite(r, max_part=part, p=p)[0]
            g = make_graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))
        elif kind == 2:
            g = direct_product(g, random_bipartite(r, max_part=3, p=p)[0])[0]
        if g.max_degree >= 3:
            break
    return _relabelled(g, r)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closed_form_colourings_verify(seed):
    # the closed form's colouring passes verify_total with Δ+1 or Δ+2
    # colours; _solve answers from it, and from the certificate or a search
    # when it has Δ+2; and a vertex that takes a colour present at it, not a
    # missing one, is caught
    g = _closed_form_case(random.Random(seed))
    delta = g.max_degree
    colours = _closed_form(g, _no_deadline())
    report = verify_total(g, _colouring_of(g, colours))
    assert report.valid and report.colours_used == max(colours) + 1
    assert max(colours) in (delta, delta + 1)
    res, solved = _solve(g, SearchBudget(max_nodes=150_000), None)
    report = verify_total(g, _colouring_of(g, solved))
    assert report.valid and report.colours_used == res.upper <= max(colours) + 1
    if max(colours) == delta:
        assert res == (OracleStatus.EXACT, delta + 1, delta + 1, delta + 1, 0)
        assert solved == colours
        at = g.incidence()
        v = next(v for v in range(g.n) if colours[v] < delta and at[v])
        planted = colours[:]
        planted[v] = colours[g.n + at[v][-1]]
        assert not verify_total(g, _colouring_of(g, planted)).valid
    if g.element_count() <= 16:
        assert (res.status, res.chi_total) == (OracleStatus.EXACT, chi_total_bruteforce(g))


def test_closed_form_picks_the_low_side_per_component():
    # the first star's centre is on the left and the second's on the right,
    # so no one side has every degree below Δ = 3, but each star has one
    g = make_graph(8, [(0, 1), (0, 2), (0, 3), (4, 7), (5, 7), (6, 7)])
    assert find_bipartition(g) == [False, True, True, True, False, False, False, True]
    colours = _closed_form(g, _no_deadline())
    assert colours[:8] == [3, 1, 0, 0, 0, 0, 1, 3]
    report = verify_total(g, _colouring_of(g, colours))
    assert report.valid and report.colours_used == 4
    res = exact_chi_total(g, SearchBudget(max_nodes=150_000))
    assert res == (OracleStatus.EXACT, 4, 4, 4, 0)


def test_complete_and_complete_bipartite_graphs_need_no_search():
    # K_{a,b} (a < b) is type I and K_n is type I for odd n; K_{a,a} and
    # K_n for even n get Δ+2 that the counting certificate proves optimal
    budget = SearchBudget(max_nodes=150_000)
    for a, b in itertools.combinations(range(1, 41), 2):
        res = exact_chi_total(complete_bipartite(a, b), budget)
        assert res == (OracleStatus.EXACT, b + 1, b + 1, b + 1, 0)
    for n in range(4, 41):
        chi = n | 1
        assert exact_chi_total(complete_graph(n), budget) == (OracleStatus.EXACT, chi, chi, chi, 0)
    # a budget spent before any colouring still gives the trivial bounds
    res = exact_chi_total(complete_bipartite(20, 21), SearchBudget(max_nodes=0))
    assert res == (OracleStatus.LOWER_BOUND_ONLY, None, 22, 41 + 420, 0)


def test_konig_insertion_reads_the_clock():
    # K_{120,121} has 14,520 edges, so a spent clock stops the insertion at
    # its first read, before T(G) (29,041 elements) is built
    g = complete_bipartite(120, 121)
    spent = _Clock(SearchBudget(max_seconds=1e-9))
    while not spent.exhausted():
        pass
    assert _closed_form(g, spent) is None
    res = exact_chi_total(g, SearchBudget(max_seconds=1e-9))
    assert res == (OracleStatus.LOWER_BOUND_ONLY, None, 122, 241 + 14_520, 0)


# the 4-cube: vertices 0..15, adjacent when they differ in one bit
CUBE4 = make_graph(16, [(u, u | 1 << b) for u in range(16) for b in range(4) if not u >> b & 1])


@pytest.mark.parametrize(
    "g, chi",
    [
        # the 4-cube, 4-regular and bipartite: the closed form has Δ+2
        # colours, the certificate finds a conforming colouring, the local
        # search Δ+1
        (CUBE4, 5),
        # the certificate spends its placement cap and proves nothing
        (make_graph(18, [(i, 9 + j) for i in range(9) for j in range(9) if i != j or i >= 5]), 10),
    ],
)
def test_counting_certificate_runs_once_per_solve(g, chi):
    # neither is a product of cliques: no K_n × K_m has 16 vertices of
    # degree 4 (n + m = 13 and nm = 16 have no integer roots), and the other
    # is not regular
    assert _clique_product(g) is None
    with mock.patch.object(oracle, "_conformable", wraps=_conformable) as conformable:
        res = exact_chi_total(g, SearchBudget(max_nodes=150_000))
    assert conformable.call_count == 1
    assert (res.status, res.chi_total, res.nodes) == (OracleStatus.EXACT, chi, 0)


def _codegrees(g):
    """The sorted (adjacent, common neighbours) of every pair of vertices:
    the same for isomorphic graphs."""
    nbrs = [set(a) for a in g.adjacency]
    return sorted(
        (v in nbrs[u], len(nbrs[u] & nbrs[v])) for u, v in itertools.combinations(range(g.n), 2)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_products_of_cliques_are_recognised_in_any_labelling(n, m, seed):
    # with an even factor the oracle answers a relabelled K_n × K_m from the
    # construction, Δ+1 with no node; with both factors odd the recognition
    # gives None.  A degree-preserving swap of two edges keeps every
    # parameter the recognition reads first, and is caught
    n, m = max(n, m), min(n, m)
    r = random.Random(seed)
    product = _knm(n, m)
    g = _relabelled(product, r)
    delta = g.max_degree
    if delta < 3:  # K_2 × K_2 and K_3 × K_2: paths and cycles
        return
    if n % 2 and m % 2:
        assert _clique_product(g) is None
        return
    recognised = _clique_product(g)
    assert recognised is not None and recognised[:2] == (n, m)
    where = recognised[2]
    assert sorted(where) == list(range(g.n))
    assert sorted(tuple(sorted((where[u], where[v]))) for u, v in g.edges) == list(product.edges)
    res, colours = _solve(g, SearchBudget(max_nodes=150_000), None)
    assert res == (OracleStatus.EXACT, delta + 1, delta + 1, delta + 1, 0)
    report = verify_total(g, _colouring_of(g, colours))
    assert report.valid and report.colours_used == delta + 1
    # (a, b) and (c, d) become (a, c) and (b, d), with a = (0, 0), b = (1, 1),
    # c = (2, 0) and d = (3, 1): both new edges lie in a column (n >= 4 here)
    a, b, c, d = 0, m + 1, 2 * m, 3 * m + 1
    assert product.has_edge(a, b) and product.has_edge(c, d)
    swapped = make_graph(
        g.n, [e for e in product.edges if e not in ((a, b), (c, d))] + [(a, c), (b, d)]
    )
    assert swapped.degrees == product.degrees
    assert _codegrees(swapped) != _codegrees(product)
    assert _clique_product(_relabelled(swapped, r)) is None


def test_a_bipartite_graph_with_the_parameters_of_a_product_is_not_one():
    # K_{6,6} is 6-regular on 12 vertices, as K_4 × K_3 is; the oracle
    # answers it from the bipartite closed form and the counting certificate
    assert _knm(4, 3).degrees == complete_bipartite(6, 6).degrees
    assert _clique_product(complete_bipartite(6, 6)) is None
    res = exact_chi_total(complete_bipartite(6, 6), SearchBudget(max_nodes=150_000))
    assert res == (OracleStatus.EXACT, 8, 8, 8, 0)


class _SpentAtFirstRead:
    """A clock that is spent from its first read on; it logs each read."""

    def __init__(self, log):
        self.log = log

    def exhausted(self):
        self.log.append("clock")
        return True


def test_closed_form_reads_the_clock_once_after_its_set_up():
    # the set-up tells the cases apart; the one read of the clock comes
    # after it and before any colouring is built, here none
    log = []

    def logged(name, f):
        return lambda *args: log.append(name) or f(*args)

    spent = _SpentAtFirstRead(log)
    with mock.patch.object(
        oracle, "_clique_product", side_effect=logged("recognise", _clique_product)
    ), mock.patch.object(
        oracle, "find_bipartition", side_effect=logged("bipartition", find_bipartition)
    ), mock.patch.object(oracle, "_konig_insertion", side_effect=AssertionError), mock.patch(
        "totalcolour.constructions.knm_total_colouring", side_effect=AssertionError
    ):
        for g, reads in [
            (complete_graph(9), ["clock"]),
            (_relabelled(_knm(6, 4), random.Random(6)), ["recognise", "clock"]),
            (complete_bipartite(240, 241), ["recognise", "bipartition", "clock"]),
        ]:
            log.clear()
            assert _closed_form(g, spent) is None
            assert log == reads
