import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from totalcolour import (
    DomainError,
    complete_graph,
    crown_graph,
    cycle_graph,
    direct_product,
    edgeless_graph,
    find_bipartition,
    make_graph,
)


def brute_product_edges(g, h):
    """Edge set computed straight from the adjacency definition."""
    edges = set()
    for (u, v), (up, vp) in itertools.product(
        itertools.product(range(g.n), range(h.n)), repeat=2
    ):
        if g.has_edge(u, up) and h.has_edge(v, vp):
            a = u * h.n + v
            b = up * h.n + vp
            edges.add((min(a, b), max(a, b)))
    return edges


def test_k2_x_k2_is_two_disjoint_edges():
    prod, _ = direct_product(complete_graph(2), complete_graph(2))
    assert prod.n == 4
    assert prod.edges == ((0, 3), (1, 2))


def test_k3_x_edgeless_is_edgeless():
    prod, _ = direct_product(complete_graph(3), edgeless_graph(3))
    assert prod.n == 9
    assert not prod.edges


def test_k3_x_k3_matches_brute_enumeration():
    g = complete_graph(3)
    prod, _ = direct_product(g, g)
    assert prod.n == 9
    assert len(prod.edges) == 18
    assert set(prod.degrees) == {4}
    assert prod.edges == tuple(sorted(brute_product_edges(g, g)))


def test_product_rejects_empty_factor():
    with pytest.raises(DomainError):
        direct_product(edgeless_graph(0), complete_graph(2))


def test_vertex_map_row_major():
    _, vmap = direct_product(complete_graph(3), complete_graph(4))
    assert vmap.index(2, 1) == 9
    assert vmap.pair(9) == (2, 1)
    with pytest.raises(DomainError):
        vmap.index(3, 0)
    with pytest.raises(DomainError):
        vmap.pair(12)


def test_product_labels_carry_provenance():
    g = make_graph(2, [(0, 1)], labels=["a", "b"])
    h = make_graph(2, [(0, 1)], labels=["c", "d"])
    prod, _ = direct_product(g, h)
    assert prod.labels == ("(a,c)", "(a,d)", "(b,c)", "(b,d)")


def _factor(rng, n, p):
    return make_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


# p = 0 gives edgeless factors, n = 1 gives K_1, and p = 0.4 leaves vertices
# isolated; the product must equal the one make_graph builds from the
# brute-force edge set, labels included, as verify_total's reference graph
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from((0.0, 0.4, 1.0)),
    st.sampled_from((0.0, 0.4, 1.0)),
)
@example(0, 1, 1, 0.0, 0.0)
@example(0, 1, 4, 0.0, 1.0)
@example(0, 4, 3, 0.0, 1.0)
def test_degree_law(seed, gn, hn, gp, hp):
    rng = random.Random(seed)
    g = _factor(rng, gn, gp)
    h = _factor(rng, hn, hp)
    prod, vmap = direct_product(g, h)
    for i in range(g.n):
        for j in range(h.n):
            assert prod.degrees[vmap.index(i, j)] == g.degrees[i] * h.degrees[j]
    assert prod.max_degree == g.max_degree * h.max_degree
    assert len(prod.edges) == 2 * len(g.edges) * len(h.edges)
    labels = [f"({g.label(i)},{h.label(j)})" for i in range(g.n) for j in range(h.n)]
    assert prod == make_graph(g.n * h.n, brute_product_edges(g, h), labels)


def test_product_with_bipartite_factor_is_bipartite():
    g = complete_graph(4)
    h = cycle_graph(6)
    h_right = find_bipartition(h)
    prod, vmap = direct_product(g, h)
    right = find_bipartition(prod)
    # every edge crosses {V(G) x X, V(G) x Y}; BFS may flip sides per component
    for u, v in prod.edges:
        assert right[u] != right[v]
        assert h_right[vmap.pair(u)[1]] != h_right[vmap.pair(v)[1]]


def test_crown_graph_m2_is_two_disjoint_edges():
    crown = crown_graph(2)
    assert crown.edges == ((0, 3), (1, 2))


def test_crown_graph_m3_is_a_6_cycle():
    crown = crown_graph(3)
    # edges x_k y_t for k != t, derived by hand: trace 0-4-2-3-1-5-0
    assert crown.edges == ((0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4))
    assert set(crown.degrees) == {2}
    cycle = [0, 4, 2, 3, 1, 5]
    for pos, v in enumerate(cycle):
        assert crown.has_edge(v, cycle[(pos + 1) % 6])


def test_crown_graph_m4():
    crown = crown_graph(4)
    assert crown.n == 8
    assert len(crown.edges) == 12
    assert set(crown.degrees) == {3}


def test_crown_rejects_small_m():
    with pytest.raises(DomainError):
        crown_graph(1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_crown_isomorphic_to_km_x_k2_by_canonical_relabelling(m):
    # (v_k, z_1) -> x_k = k and (v_k, z_2) -> y_k = m + k
    prod, vmap = direct_product(complete_graph(m), complete_graph(2))
    relabel = {}
    for k in range(m):
        relabel[vmap.index(k, 0)] = k
        relabel[vmap.index(k, 1)] = m + k
    mapped = {
        (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
        for u, v in prod.edges
    }
    assert mapped == set(crown_graph(m).edges)
