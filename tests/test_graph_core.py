import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from totalcolour import (
    DomainError,
    GraphConstructionError,
    ParseError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    incidence_conflicts,
    jsonio,
    make_graph,
    path_graph,
)


def small_edge_lists():
    """(n, edge list) with 1 <= n <= 7: pairs in either orientation, repeats allowed."""
    return st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=12,
            ),
        )
    )


def small_graphs():
    return small_edge_lists().map(lambda case: make_graph(*case))


def test_make_graph_k2():
    g = make_graph(2, [(0, 1)])
    assert g.n == 2
    assert g.edges == ((0, 1),)


def test_make_graph_k3():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert len(g.edges) == 3
    assert g.max_degree == 2


def test_make_graph_deduplicates():
    g = make_graph(4, [(0, 1), (1, 0), (2, 3)])
    assert len(g.edges) == 2


def test_make_graph_rejects_self_loop():
    with pytest.raises(GraphConstructionError):
        make_graph(3, [(1, 1)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(GraphConstructionError):
        make_graph(3, [(0, 3)])


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 1.5)], "edge (0,1.5) has an endpoint that is not an int"),
        (3, [(0, True)], "edge (0,True) has an endpoint that is not an int"),
        (2.0, [(0, 1)], "vertex count 2.0 is not an int"),
    ],
    ids=["float-end", "bool-end", "float-count"],
)
def test_make_graph_rejects_non_integers(n, edges, message):
    """A float or bool would otherwise be stored as a vertex, or fail later
    with a raw TypeError; the JSON decoder's messages for the same entries
    stay its own."""
    with pytest.raises(GraphConstructionError) as info:
        make_graph(n, edges)
    assert str(info.value) == message
    doc = {"n": n, "edges": [list(e) for e in edges]}
    with pytest.raises(ParseError) as info:
        jsonio.graph_from_obj(doc)
    if type(n) is int:
        assert str(info.value) == f"bad edge entry {list(edges[0])!r}"
    else:
        assert str(info.value) == 'graph field "n" must be a non-negative integer'


def test_complete_graph_sizes():
    assert len(complete_graph(2).edges) == 1
    g5 = complete_graph(5)
    assert len(g5.edges) == 10
    assert set(g5.degrees) == {4}
    assert complete_graph(1).n == 1
    assert not complete_graph(1).edges


def test_complete_graph_rejects_zero():
    with pytest.raises(GraphConstructionError):
        complete_graph(0)


def test_builders():
    assert len(path_graph(4).edges) == 3
    assert cycle_graph(6).degrees == (2,) * 6
    k33 = complete_bipartite(3, 3)
    assert len(k33.edges) == 9 and k33.max_degree == 3
    assert edgeless_graph(4).max_degree == 0


def test_incidence_conflicts_examples():
    k2 = complete_graph(2)
    assert incidence_conflicts(k2, ("v", 0), ("v", 1))
    assert incidence_conflicts(k2, ("v", 0), ("e", 0, 1))
    p3 = path_graph(3)
    assert incidence_conflicts(p3, ("e", 0, 1), ("e", 1, 2))
    assert not incidence_conflicts(p3, ("v", 0), ("v", 2))


def test_incidence_conflicts_rejects_foreign_elements():
    k2 = complete_graph(2)
    with pytest.raises(DomainError):
        incidence_conflicts(k2, ("v", 5), ("v", 0))
    with pytest.raises(DomainError):
        incidence_conflicts(k2, ("e", 0, 2), ("v", 0))


def test_incidence_conflicts_rejects_a_reversed_edge():
    # an edge element is ("e", u, v) with u < v; ("e", 5, 2) names no edge
    # of the graph and is not swapped into ("e", 2, 5)
    g = make_graph(6, [(2, 5), (5, 1)])
    assert incidence_conflicts(g, ("e", 2, 5), ("e", 1, 5))
    with pytest.raises(DomainError, match="not in the graph"):
        incidence_conflicts(g, ("e", 5, 2), ("e", 1, 5))
    with pytest.raises(DomainError, match="not in the graph"):
        incidence_conflicts(g, ("v", 2), ("e", 5, 2))


def test_degree_profile():
    p4 = path_graph(4)
    assert p4.degrees == (1, 2, 2, 1)
    assert p4.max_degree == 2
    assert edgeless_graph(3).max_degree == 0


@given(small_edge_lists(), st.randoms(use_true_random=False))
def test_edges_are_one_sorted_canonical_tuple(case, rng):
    n, edge_list = case
    g = make_graph(n, edge_list)
    # the same edges shuffled, each maybe flipped, with some given twice
    variant = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edge_list]
    variant += rng.sample(variant, rng.randint(0, len(variant)))
    rng.shuffle(variant)
    other = make_graph(n, variant)
    assert g == other and hash(g) == hash(other)
    # the JSON decoder reads the same [u, v] lists to the same graph
    decoded = jsonio.graph_from_obj({"n": n, "edges": [list(e) for e in variant]})
    assert decoded == g
    assert all(a < b for a, b in zip(g.edges, g.edges[1:]))
    assert all(u < v for u, v in g.edges)
    for u, v in itertools.product(range(-1, n + 1), repeat=2):
        expected = (u, v) in edge_list or (v, u) in edge_list
        assert g.has_edge(u, v) == expected
        assert g.contains_element(("e", u, v)) == (expected and u < v)


@given(st.integers(0, 9), st.floats(0, 1), st.randoms(use_true_random=False))
def test_adjacency_and_incidence_match_a_scan_of_the_edges(n, p, rng):
    """Each vertex's neighbours and edge ids, from the edge list alone; low p
    leaves isolated vertices, and n = 0 none at all."""
    pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    g = make_graph(n, rng.sample(pairs, len(pairs)))
    adjacency, incidence = g.adjacency, g.incidence()
    assert type(adjacency) is tuple and len(adjacency) == len(incidence) == n
    for v in range(n):
        ids = [i for i, e in enumerate(g.edges) if v in e]
        assert incidence[v] == ids
        assert adjacency[v] == tuple(sorted(u + w - v for u, w in g.edges if v in (u, w)))
    for run in [*adjacency, *incidence]:
        assert all(a < b for a, b in zip(run, run[1:]))
    for i, (u, v) in enumerate(g.edges):
        assert i in incidence[u] and i in incidence[v]


def test_adjacency_and_incidence_of_small_cases():
    assert edgeless_graph(0).adjacency == () and edgeless_graph(0).incidence() == []
    g = make_graph(5, [(3, 0), (2, 0), (0, 1)])  # vertex 4 is isolated
    assert g.adjacency == ((1, 2, 3), (0,), (0,), (0,), ())
    assert g.incidence() == [[0, 1, 2], [0], [1], [2], []]
    assert g.incidence() is not g.incidence()  # built per call, not cached


@given(small_graphs())
def test_handshake_lemma(g):
    assert sum(g.degrees) == 2 * len(g.edges)


@given(small_graphs())
def test_conflicts_symmetric_irreflexive(g):
    els = list(g.elements())
    for a in els:
        assert not incidence_conflicts(g, a, a)
    for a, b in itertools.combinations(els, 2):
        assert incidence_conflicts(g, a, b) == incidence_conflicts(g, b, a)


def test_elements_canonical_order():
    g = make_graph(3, [(1, 2), (0, 1)])
    assert list(g.elements()) == [
        ("v", 0),
        ("v", 1),
        ("v", 2),
        ("e", 0, 1),
        ("e", 1, 2),
    ]


def test_labels_round_trip():
    g = make_graph(2, [(0, 1)], labels=["a", "b"])
    assert g.label(0) == "a"
    assert make_graph(2, [(0, 1)]).label(1) == "1"
    with pytest.raises(GraphConstructionError):
        make_graph(2, [], labels=["only-one"])
