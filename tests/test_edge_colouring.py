import itertools
import random

import pytest

from totalcolour import (
    DomainError,
    NoRainbowError,
    NotBipartiteError,
    bipartite_delta_edge_colouring,
    complete_bipartite,
    complete_graph,
    crown_edge_colouring,
    crown_graph,
    cycle_graph,
    find_bipartition,
    make_graph,
    one_factorization,
    rainbow_kmm,
    verify_edge,
)

from conftest import random_bipartite


def test_find_bipartition():
    assert find_bipartition(cycle_graph(6)) == [False, True] * 3
    # isolated vertices land on the left
    assert find_bipartition(make_graph(4, [(1, 3)])) == [False, False, False, True]
    with pytest.raises(NotBipartiteError):
        find_bipartition(cycle_graph(5))


def test_delta_colouring_perfect_matching():
    m = make_graph(6, [(0, 3), (1, 4), (2, 5)])
    assert bipartite_delta_edge_colouring(m) == [0, 0, 0]


def test_delta_colouring_c6_alternates():
    c6 = cycle_graph(6)
    ec = bipartite_delta_edge_colouring(c6)
    assert verify_edge(c6, ec).valid
    assert set(ec) == {0, 1}
    cls = {e for e, col in zip(c6.edges, ec) if col == 0}
    assert len(cls) == 3 and {v for e in cls for v in e} == set(range(6))


def test_delta_colouring_crown4_classes_are_perfect_matchings():
    crown = crown_graph(4)
    ec = bipartite_delta_edge_colouring(crown)
    assert verify_edge(crown, ec).valid
    assert set(ec) == {0, 1, 2}
    for c in range(3):
        cls = {e for e, col in zip(crown.edges, ec) if col == c}
        assert len(cls) == 4
        assert {v for e in cls for v in e} == set(range(8))


def test_delta_colouring_rejects_edge_inside_part():
    # every 2-colouring of a triangle puts one of its edges inside a part
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotBipartiteError):
        bipartite_delta_edge_colouring(g)


def test_delta_colouring_empty_graph():
    assert bipartite_delta_edge_colouring(make_graph(3, [])) == []


def test_delta_exactness_random_sweep(rng):
    """Exactly max-degree colours, and every max-degree vertex sees every class."""
    for _ in range(200):
        h, a, b = random_bipartite(rng)
        ec = bipartite_delta_edge_colouring(h)
        assert len(ec) == len(h.edges)
        colour = dict(zip(h.edges, ec))
        delta = h.max_degree
        assert verify_edge(h, ec).valid or delta == 0
        assert len(set(ec)) == (delta if delta else 0)
        if delta:
            assert set(ec) == set(range(delta))
        for v in range(h.n):
            if h.degrees[v] == delta and delta > 0:
                seen = sorted(
                    colour[min(v, w), max(v, w)] for w in h.adjacency[v]
                )
                assert seen == list(range(delta))


def test_one_factorization_k2():
    assert one_factorization(2) == [0]


def test_one_factorization_k4_gives_the_three_perfect_matchings():
    ec = one_factorization(4)
    k4 = complete_graph(4)
    classes = [{e for e, col in zip(k4.edges, ec) if col == c} for c in range(3)]
    # K4 has exactly three perfect matchings; derived by enumeration
    assert sorted(map(sorted, classes)) == [
        [(0, 1), (2, 3)],
        [(0, 2), (1, 3)],
        [(0, 3), (1, 2)],
    ]


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_one_factorization_is_proper_with_perfect_classes(n):
    ec = one_factorization(n)
    kn = complete_graph(n)
    assert len(ec) == len(kn.edges)
    assert verify_edge(kn, ec).valid
    assert set(ec) == set(range(n - 1))
    for c in range(n - 1):
        cls = {e for e, col in zip(kn.edges, ec) if col == c}
        assert len(cls) == n // 2
        assert {v for e in cls for v in e} == set(range(n))


def circle_method(n):
    """Reference one factorization of K_n: in round r, n-1 pairs with r and
    (r+i) pairs with (r-i) mod (n-1) for i = 1..n/2-1."""
    mod = n - 1
    colour = {}
    for r in range(mod):
        colour[r, n - 1] = r
        for i in range(1, n // 2):
            u, v = (r + i) % mod, (r - i) % mod
            colour[min(u, v), max(u, v)] = r
    return [colour[e] for e in complete_graph(n).edges]


def test_one_factorization_closed_form_matches_the_circle_method():
    for n in range(2, 41, 2):
        assert one_factorization(n) == circle_method(n)


def test_one_factorization_rejects_odd():
    with pytest.raises(DomainError):
        one_factorization(5)


def test_rainbow_m3_is_the_cyclic_square():
    ec = rainbow_kmm(3)
    assert ec == [0, 1, 2, 1, 2, 0, 2, 0, 1]
    # diagonal symbols 2i mod 3: (0, 2, 1), at entries i * (m + 1)
    assert ec[::4] == [0, 2, 1]
    assert verify_edge(complete_bipartite(3, 3), ec).valid


def test_rainbow_m2_error_justified_by_exhaustion():
    with pytest.raises(NoRainbowError):
        rainbow_kmm(2)
    # Exhaustive justification: every proper 2-edge-colouring of K_{2,2}
    # makes both perfect matchings monochromatic.
    k22 = complete_bipartite(2, 2)
    edges = sorted(k22.edges)
    matchings = [{(0, 2), (1, 3)}, {(0, 3), (1, 2)}]
    proper_count = 0
    for colours in itertools.product(range(2), repeat=4):
        if not verify_edge(k22, colours).valid:
            continue
        proper_count += 1
        colour = dict(zip(edges, colours))
        for matching in matchings:
            assert len({colour[e] for e in matching}) == 1
    assert proper_count == 2


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 24, 32, 64])
def test_rainbow_properties(m):
    ec = rainbow_kmm(m)
    matching = {(i, m + i) for i in range(m)}
    kmm = complete_bipartite(m, m)
    assert len(ec) == len(kmm.edges)
    rep = verify_edge(kmm, ec)
    assert rep.valid and rep.colours_used == m
    colour = dict(zip(kmm.edges, ec))
    assert len({colour[e] for e in matching}) == m
    # removing the matching leaves exactly the crown graph
    assert set(kmm.edges) - matching == set(crown_graph(m).edges)


def test_rainbow_is_deterministic():
    first = rainbow_kmm(6)
    assert rainbow_kmm(6) == first


def test_rainbow_closed_form_for_every_order_up_to_64():
    # entry i * m + j colours x_i y_j: the list is a Latin square read row
    # by row, and its main diagonal carries m distinct symbols
    for m in range(3, 65):
        ec = rainbow_kmm(m)
        assert len(ec) == m * m
        symbols = list(range(m))
        for i in range(m):
            assert sorted(ec[i * m : (i + 1) * m]) == symbols, (m, "row", i)
            assert sorted(ec[i::m]) == symbols, (m, "column", i)
        assert sorted(ec[:: m + 1]) == symbols, (m, "diagonal")


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_crown_edge_colouring_exact(m):
    crown = crown_graph(m)
    ec = crown_edge_colouring(m)
    assert len(ec) == len(crown.edges)
    assert verify_edge(crown, ec).valid
    assert set(ec) == set(range(m - 1))
    for c in range(m - 1):
        cls = {e for e, col in zip(crown.edges, ec) if col == c}
        assert len(cls) == m
        assert {v for e in cls for v in e} == set(range(2 * m))


def test_crown_edge_colouring_closed_form():
    for m in range(2, 65):
        crown = crown_graph(m)
        ec = crown_edge_colouring(m)
        assert len(ec) == len(crown.edges)
        colour = dict(zip(crown.edges, ec))
        for k in range(m):
            for t in range(m):
                if k != t:
                    assert colour[k, m + t] == (t - k - 1) % m
