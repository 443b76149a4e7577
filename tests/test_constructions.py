import random

import pytest

from totalcolour import (
    DomainError,
    OpenProblemError,
    PreconditionError,
    TotalColouring,
    bipartite_delta_edge_colouring,
    complete_bipartite,
    complete_graph,
    crown_graph,
    crown_total_colouring,
    cycle_graph,
    direct_product,
    edgeless_graph,
    find_bipartition,
    kn_k2_total_colouring,
    kn_times_bipartite,
    knm_total_colouring,
    lift_bipartite,
    make_graph,
    one_factorization,
    path_graph,
    rainbow_kmm,
    verify_total,
)

from conftest import random_bipartite, random_graph


def edge_colour_of(tc):
    """Look up an edge's colour in ``tc`` by its two ends, in either order."""
    colour = dict(zip(tc.edges, tc.edge_colours))
    return lambda u, v: colour[min(u, v), max(u, v)]


# ---------------------------------------------------------------- crown


def test_crown_total_m3_matches_cyclic_derivation():
    crown = crown_total_colouring(3)
    # diagonal of the cyclic square: 2k mod 3
    assert crown.colouring.vertex_colours == [0, 2, 1] * 2
    g = crown_graph(3)
    rep = verify_total(g, crown.colouring)
    assert rep.valid and rep.colours_used == 3
    x_colours = crown.colouring.vertex_colours[:3]
    y_colours = crown.colouring.vertex_colours[3:]
    assert sorted(x_colours) == [0, 1, 2]
    assert x_colours == y_colours


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 24, 32, 64])
def test_crown_total_properties(m):
    crown = crown_total_colouring(m)
    g = crown_graph(m)
    rep = verify_total(g, crown.colouring)
    assert rep.valid
    assert rep.colours_used == m == g.max_degree + 1
    # h(x_k) = h(y_k), and k -> h(x_k) is a bijection onto 0..m-1
    x_colours = crown.colouring.vertex_colours[:m]
    assert sorted(x_colours) == list(range(m))
    for k in range(m):
        assert crown.colouring.vertex_colours[m + k] == x_colours[k]


def test_crown_total_rejects_m2():
    with pytest.raises(DomainError):
        crown_total_colouring(2)


# n = 1: K_1 x K_2 is edgeless, so one colour is max degree + 1
@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 7, 32])
def test_kn_k2_total_colouring(n):
    prod, _ = direct_product(complete_graph(n), complete_graph(2))
    tc = kn_k2_total_colouring(n)
    rep = verify_total(prod, tc)
    assert rep.valid
    assert rep.colours_used == n == prod.max_degree + 1


@pytest.mark.parametrize("n", [0, 2])
def test_kn_k2_total_colouring_refuses_n0_and_n2(n):
    with pytest.raises(DomainError):
        kn_k2_total_colouring(n)


# ---------------------------------------------------------------- lift


def test_lift_over_k2_reproduces_the_input():
    g = complete_graph(3)
    f = kn_k2_total_colouring(3)
    tc = lift_bipartite(g, f, complete_graph(2))
    prod, _ = direct_product(g, complete_graph(2))
    rep = verify_total(prod, tc)
    assert rep.valid and rep.colours_used == 3
    assert tc == f  # identity case of the lift


@pytest.mark.parametrize(
    "n,h_builder,expected",
    [
        (3, lambda: cycle_graph(6), 5),  # 2*2+1
        (4, lambda: complete_bipartite(3, 3), 10),  # 3*3+1
        (4, lambda: path_graph(4), 7),  # 3*2+1
        (3, lambda: complete_bipartite(1, 5), 11),  # 2*5+1
        (6, lambda: complete_bipartite(20, 20), 101),  # 5*20+1
    ],
)
def test_lift_palette_and_validity(n, h_builder, expected):
    g = complete_graph(n)
    f = kn_k2_total_colouring(n)
    h = h_builder()
    tc = lift_bipartite(g, f, h)
    prod, _ = direct_product(g, h)
    rep = verify_total(prod, tc)
    assert rep.valid
    assert rep.colours_used == expected == prod.max_degree + 1


def test_lift_vertex_colours_depend_only_on_the_part():
    g = complete_graph(3)
    f = kn_k2_total_colouring(3)
    h = complete_bipartite(2, 3)
    right = find_bipartition(h)
    tc = lift_bipartite(g, f, h)
    _, pmap = direct_product(g, h)
    for k in range(g.n):
        left_cols = {tc.vertex_colours[pmap.index(k, x)] for x in range(h.n) if not right[x]}
        right_cols = {tc.vertex_colours[pmap.index(k, y)] for y in range(h.n) if right[y]}
        assert len(left_cols) == 1 and len(right_cols) == 1


def test_lift_fresh_colours_occupy_the_block_above_f():
    g = complete_graph(3)
    f = kn_k2_total_colouring(3)
    h = cycle_graph(6)
    tc = lift_bipartite(g, f, h)
    dg = g.max_degree
    colours = tc.colours
    assert colours == frozenset(range(dg * h.max_degree + 1))


def test_lift_accepts_noncontiguous_input_palette():
    g = complete_graph(3)
    f = kn_k2_total_colouring(3)
    spread = TotalColouring.from_parts(
        [c * 7 + 2 for c in f.vertex_colours],
        [(u, v, c * 7 + 2) for (u, v), c in zip(f.edges, f.edge_colours)],
    )
    tc = lift_bipartite(g, spread, cycle_graph(6))
    prod, _ = direct_product(g, cycle_graph(6))
    rep = verify_total(prod, tc)
    assert rep.valid and rep.colours_used == 5


def test_lift_edgeless_h_uses_one_colour():
    g = complete_graph(3)
    f = kn_k2_total_colouring(3)
    h = edgeless_graph(4)
    tc = lift_bipartite(g, f, h)
    prod, _ = direct_product(g, h)
    rep = verify_total(prod, tc)
    assert rep.valid
    assert rep.colours_used == 1  # max_degree(g) * 0 + 1


def _recoloured(tc, edge, c):
    """tc with the colour of one of its edges replaced by c."""
    triples = [(u, v, old) for (u, v), old in zip(tc.edges, tc.edge_colours)]
    triples[tc.edges.index(edge)] = (*edge, c)
    return TotalColouring.from_parts(tc.vertex_colours, triples)


def test_lift_rejects_improper_or_over_palette_f():
    g = complete_graph(3)
    f = kn_k2_total_colouring(3)
    # corrupt one edge colour: improper
    bad = _recoloured(f, (0, 3), f.vertex_colours[0])
    with pytest.raises(PreconditionError):
        lift_bipartite(g, bad, cycle_graph(6))
    # valid but uses max_degree + 2 colours
    wide = _recoloured(f, (0, 3), 3)
    prod, _ = direct_product(g, complete_graph(2))
    assert verify_total(prod, wide).valid
    with pytest.raises(PreconditionError):
        lift_bipartite(g, wide, cycle_graph(6))


def test_lift_rejects_incomplete_f():
    g = complete_graph(3)
    f = kn_k2_total_colouring(3)
    partial = TotalColouring(f.vertex_colours[:-1], f.edges, f.edge_colours)
    with pytest.raises(PreconditionError):
        lift_bipartite(g, partial, cycle_graph(6))


def _two_component_source(g, component_orders):
    """3-colour total colouring for a product g x K2 that splits into paths
    or cycles, built per component by hand."""
    vertex_colours = {}
    edge_colours = []
    for order in component_orders:
        for pos, v in enumerate(order):
            vertex_colours[v] = pos % 3
        closed = len(order) > 2 and g.has_edge(order[0], order[-1])
        steps = len(order) if closed else len(order) - 1
        for pos in range(steps):
            edge_colours.append((order[pos], order[(pos + 1) % len(order)], (pos + 2) % 3))
    return TotalColouring.from_parts(
        [vertex_colours[i] for i in range(g.n)], edge_colours
    )


def _p3_k2_source():
    """3-colour total colouring of P3 x K2, which is two disjoint paths."""
    return TotalColouring.from_parts(
        [0, 0, 1, 1, 2, 2],
        [(0, 3, 2), (3, 4, 0), (1, 2, 2), (2, 5, 0)],
    )


def _p3_k2_asymmetric_source():
    """A 3-colour total colouring of P3 x K2 that colours (v_1, z_1) and
    (v_1, z_2) apart, so the lift is proper only with each H-edge oriented
    from its left end."""
    return TotalColouring.from_parts(
        [0, 0, 1, 2, 1, 2],
        [(0, 3, 1), (1, 2, 2), (2, 5, 0), (3, 4, 0)],
    )


def test_lift_from_a_path_factor():
    # P3 x K2 is two disjoint paths; a 3-colour total colouring of it exists,
    # so the lift applies to a non-regular, non-complete factor too.
    p3 = path_graph(3)
    prod3, _ = direct_product(p3, complete_graph(2))
    for f in (_p3_k2_source(), _p3_k2_asymmetric_source()):
        pre = verify_total(prod3, f)
        assert pre.valid and pre.colours_used == 3
        for h, expected in [(path_graph(4), 5), (complete_bipartite(3, 3), 7)]:
            tc = lift_bipartite(p3, f, h)
            prod, _ = direct_product(p3, h)
            rep = verify_total(prod, tc)
            assert rep.valid
            assert rep.colours_used == expected == prod.max_degree + 1


@pytest.mark.parametrize(
    "g,f,h",
    [
        (complete_graph(4), kn_k2_total_colouring(4), complete_bipartite(3, 3)),
        (path_graph(3), _p3_k2_source(), complete_bipartite(3, 3)),
    ],
    ids=["K4xK33", "P3xK33"],
)
def test_lift_band_separation(g, f, h):
    """Edges over H-colour d >= 1 take colours in d*dg+1 .. (d+1)*dg only."""
    tc = lift_bipartite(g, f, h)
    right = find_bipartition(h)
    ec_h = bipartite_delta_edge_colouring(h)
    _, pmap = direct_product(g, h)
    edge_colour = edge_colour_of(tc)
    dg = g.max_degree
    seen = 0
    for (w1, w2), d in zip(h.edges, ec_h):
        wx, wy = (w2, w1) if right[w1] else (w1, w2)
        band = range(dg + 1) if d == 0 else range(d * dg + 1, (d + 1) * dg + 1)
        for a, b in g.edges:
            for s, t in ((a, b), (b, a)):
                assert edge_colour(pmap.index(s, wx), pmap.index(t, wy)) in band
                seen += 1
    assert seen == len(tc.edges)


def test_lift_from_a_bipartite_cycle_factor():
    # C6 x K2 falls apart into two 6-cycles; colour each 0,1,2 around.
    c6 = cycle_graph(6)
    prod6, pmap = direct_product(c6, complete_graph(2))
    components = ([pmap.index(i, i % 2) for i in range(6)],
                  [pmap.index(i, (i + 1) % 2) for i in range(6)])
    f = _two_component_source(prod6, components)
    pre = verify_total(prod6, f)
    assert pre.valid and pre.colours_used == 3
    tc = lift_bipartite(c6, f, cycle_graph(4))
    prod, _ = direct_product(c6, cycle_graph(4))
    rep = verify_total(prod, tc)
    assert rep.valid
    assert rep.colours_used == 5 == prod.max_degree + 1


# ---------------------------------------------------------------- knm


@pytest.mark.parametrize(
    "n,m",
    [(4, 3), (3, 4), (4, 4), (4, 5), (6, 3), (6, 5), (5, 6), (6, 4), (8, 3), (8, 10)],
)
def test_knm_palette_and_validity(n, m):
    tc = knm_total_colouring(n, m)
    prod, _ = direct_product(complete_graph(n), complete_graph(m))
    rep = verify_total(prod, tc)
    assert rep.valid
    assert rep.colours_used == (n - 1) * (m - 1) + 1 == prod.max_degree + 1
    assert tc.colours == frozenset(range((n - 1) * (m - 1) + 1))


def test_knm_swap_is_a_transpose():
    for n, m in [(3, 4), (4, 6)]:
        tc, swapped = knm_total_colouring(n, m), knm_total_colouring(m, n)
        prod, pmap = direct_product(complete_graph(n), complete_graph(m))
        _, pmap_t = direct_product(complete_graph(m), complete_graph(n))
        # vertex (i, j) of K_n x K_m is (j, i) of K_m x K_n
        t = [pmap_t.index(*reversed(pmap.pair(p))) for p in range(prod.n)]
        for p in range(prod.n):
            assert tc.vertex_colours[p] == swapped.vertex_colours[t[p]]
        swapped_colour = edge_colour_of(swapped)
        for (u, v), c in zip(tc.edges, tc.edge_colours):
            assert c == swapped_colour(t[u], t[v])


def test_knm_rejects_odd_odd_as_open_problem():
    with pytest.raises(OpenProblemError):
        knm_total_colouring(3, 3)
    with pytest.raises(OpenProblemError):
        knm_total_colouring(5, 7)


def test_knm_rejects_small_factors():
    with pytest.raises(DomainError):
        knm_total_colouring(2, 4)
    with pytest.raises(DomainError):
        knm_total_colouring(4, 1)


def test_knm_band_separation():
    """Edges over one-factor class c >= 1 take colours in disjoint increasing bands."""
    n, m = 6, 5
    tc = knm_total_colouring(n, m)
    l = one_factorization(n)
    _, pmap = direct_product(complete_graph(n), complete_graph(m))
    edge_colour = edge_colour_of(tc)
    bands: dict[int, set[int]] = {}
    for (i, j), c in zip(complete_graph(n).edges, l):
        for k in range(m):
            for t in range(m):
                if k != t:
                    col = edge_colour(pmap.index(i, k), pmap.index(j, t))
                    bands.setdefault(c, set()).add(col)
    assert bands[0] <= set(range(m))  # class 0 reuses the crown palette
    for c in range(1, n - 1):
        assert min(bands[c]) > m - 1  # never clashes with vertex colours
        assert bands[c] == set(range(c * (m - 1) + 1, (c + 1) * (m - 1) + 1))
        if c + 1 < n - 1:
            assert max(bands[c]) < min(bands[c + 1])


# ------------------------------------------------------ kn_times_bipartite


def test_kn_times_bipartite_k3_k2():
    tc = kn_times_bipartite(3, complete_graph(2))
    prod, _ = direct_product(complete_graph(3), complete_graph(2))
    rep = verify_total(prod, tc)
    assert rep.valid and rep.colours_used == 3


def test_kn_times_bipartite_rejects_k2():
    with pytest.raises(DomainError):
        kn_times_bipartite(2, path_graph(4))


def test_kn_times_bipartite_k4_p4():
    tc = kn_times_bipartite(4, path_graph(4))
    prod, _ = direct_product(complete_graph(4), path_graph(4))
    rep = verify_total(prod, tc)
    assert rep.valid and rep.colours_used == 7 == prod.max_degree + 1


def test_kn_times_bipartite_k1_is_trivial():
    from totalcolour import NotBipartiteError

    tc = kn_times_bipartite(1, path_graph(3))
    prod, _ = direct_product(complete_graph(1), path_graph(3))
    rep = verify_total(prod, tc)
    assert rep.valid and rep.colours_used == 1
    # h is checked to be bipartite even though the product is edgeless
    with pytest.raises(NotBipartiteError):
        kn_times_bipartite(1, complete_graph(3))


def test_an_h_with_no_vertices_is_refused_like_its_product():
    with pytest.raises(DomainError) as product_error:
        direct_product(complete_graph(3), edgeless_graph(0))
    for build in (
        lambda: kn_times_bipartite(3, edgeless_graph(0)),
        lambda: kn_times_bipartite(1, edgeless_graph(0)),
        lambda: lift_bipartite(complete_graph(3), kn_k2_total_colouring(3), edgeless_graph(0)),
    ):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == str(product_error.value)


def test_kn_times_bipartite_rejects_odd_cycle():
    from totalcolour import NotBipartiteError

    with pytest.raises(NotBipartiteError):
        kn_times_bipartite(4, cycle_graph(5))


# ------------------------------------------------------ crown closed form


def _assert_crown_lift(tc, b, h, classes, h_first):
    """tc is the crown of K_b x K_2 lifted over H = (h, classes), where
    ``classes`` pairs each H-edge, oriented x -> y, with its class: with
    S the rainbow square of order b, vertex (v_k, w) takes S[k][k], and
    (v_s, x)(v_t, y) takes S[s][t] over class 0 and
    d(b-1) + 1 + ((t - s - 1) mod b) over class d >= 1."""
    square = rainbow_kmm(b)
    rows = [square[k * b : (k + 1) * b] for k in range(b)]
    g = complete_graph(b)
    _, pmap = direct_product(h, g) if h_first else direct_product(g, h)

    def index(k, w):
        return pmap.index(w, k) if h_first else pmap.index(k, w)

    for k in range(b):
        for w in range(h.n):
            assert tc.vertex_colours[index(k, w)] == rows[k][k]
    edge_colour = edge_colour_of(tc)
    seen = 0
    for (x, y), d in classes:
        for s in range(b):
            for t in range(b):
                if s != t:
                    want = d * (b - 1) + 1 + (t - s - 1) % b if d else rows[s][t]
                    assert edge_colour(index(s, x), index(t, y)) == want
                    seen += 1
    assert seen == len(tc.edges)


def test_crown_lifts_follow_the_closed_form():
    for n, m in [(4, 3), (3, 4), (6, 5), (5, 6), (6, 4), (4, 6), (8, 8)]:
        a, b = n, m
        if a % 2 or (b % 2 == 0 and b > a):
            a, b = b, a
        ka = complete_graph(a)
        # a one-factor edge i < j runs i -> j
        classes = zip(ka.edges, one_factorization(a))
        _assert_crown_lift(knm_total_colouring(n, m), b, ka, classes, a == n)

    rng = random.Random(1807)
    for n in range(3, 8):
        for _ in range(6):
            h = edgeless_graph(1)
            while not h.edges:  # an edgeless product takes one colour instead
                h, _, _ = random_bipartite(rng, max_part=5, p=0.6)
            right = find_bipartition(h)
            oriented = [(y, x) if right[x] else (x, y) for x, y in h.edges]
            classes = zip(oriented, bipartite_delta_edge_colouring(h))
            _assert_crown_lift(kn_times_bipartite(n, h), n, h, classes, False)

    for n in range(3, 33):
        crown = crown_total_colouring(n).colouring
        # x_k -> (v_k, z_1) = 2k and y_t -> (v_t, z_2) = 2t + 1
        moved = [2 * v if v < n else 2 * (v - n) + 1 for v in range(2 * n)]
        vertex_colours = [0] * (2 * n)
        for v, c in enumerate(crown.vertex_colours):
            vertex_colours[moved[v]] = c
        edges = [(moved[u], moved[v], c) for (u, v), c in zip(crown.edges, crown.edge_colours)]
        assert kn_k2_total_colouring(n) == TotalColouring.from_parts(vertex_colours, edges)


# ------------------------------------------------- master property sweep


def test_master_property_every_construction_verifies(rng):
    """Randomized sweep: every emitted colouring passes the verifier with the
    exact promised palette."""
    cases = [
        (rng.choice([1, 3, 4, 5, 6, 7]), random_bipartite(rng, max_part=4, p=0.5)[0])
        for _ in range(25)
    ]
    # an edgeless H and an H with isolated vertices, under K_1 and K_4
    fixed = [edgeless_graph(3), make_graph(7, [(0, 4), (1, 4), (1, 5)])]
    cases += [(n, h) for n in (1, 4) for h in fixed]
    for n, h in cases:
        tc = kn_times_bipartite(n, h)
        prod, _ = direct_product(complete_graph(n), h)
        rep = verify_total(prod, tc)
        assert rep.valid
        assert rep.colours_used == (n - 1) * h.max_degree + 1

    pairs = [(n, m) for n in range(3, 8) for m in range(3, 8) if n % 2 == 0 or m % 2 == 0]
    for n, m in rng.sample(pairs, 8):
        tc = knm_total_colouring(n, m)
        prod, _ = direct_product(complete_graph(n), complete_graph(m))
        rep = verify_total(prod, tc)
        assert rep.valid and rep.colours_used == (n - 1) * (m - 1) + 1
