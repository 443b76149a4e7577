import itertools
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import totalcolour
from totalcolour import (
    DomainError,
    GraphConstructionError,
    IncompleteColouringError,
    TotalColouring,
    complete_bipartite,
    complete_graph,
    direct_product,
    incidence_conflicts,
    jsonio,
    knm_total_colouring,
    make_graph,
    normalize_total,
    path_graph,
    verify_edge,
    verify_total,
)

from conftest import random_graph


def element_colours(tc):
    """Each element's colour, keyed by ``("v", i)`` or ``("e", u, v)``."""
    colour = {("v", i): c for i, c in enumerate(tc.vertex_colours)}
    colour.update((("e", u, v), c) for (u, v), c in zip(tc.edges, tc.edge_colours))
    return colour


def edge_part(g, tc):
    """The edge colouring that ``tc`` restricts to, aligned with g.edges."""
    colour = dict(zip(tc.edges, tc.edge_colours))
    return [colour[e] for e in g.edges]


def with_colour(tc, el, c):
    """A copy of ``tc`` with one element recoloured."""
    vertex_colours = list(tc.vertex_colours)
    edge_colours = dict(zip(tc.edges, tc.edge_colours))
    if el[0] == "v":
        vertex_colours[el[1]] = c
    else:
        edge_colours[el[1:]] = c
    return TotalColouring.from_parts(
        vertex_colours, [(u, v, c) for (u, v), c in edge_colours.items()]
    )


def elements_of(g):
    """Vertices by index, then sorted edges, built without Graph.elements()."""
    return [("v", i) for i in range(g.n)] + [("e", u, v) for u, v in g.edges]


def naive_conflict_scan(g, tc):
    """Independent quadratic check used to validate the verifier itself."""
    bad, colour = [], element_colours(tc)
    for a, b in itertools.combinations(elements_of(g), 2):
        if colour[a] != colour[b]:
            continue
        if a[0] == b[0] == "v":
            conflict = g.has_edge(a[1], b[1])
        elif a[0] == b[0] == "e":
            conflict = bool({a[1], a[2]} & {b[1], b[2]})
        else:
            (_, i), (_, u, v) = (a, b) if a[0] == "v" else (b, a)
            conflict = i in (u, v)
        if conflict:
            bad.append((a, b))
    return bad


def naive_edge_conflict_scan(g, ec):
    """Independent quadratic check of an edge colouring."""
    colour = dict(zip(g.edges, ec))
    return [
        (("e", *e), ("e", *f))
        for e, f in itertools.combinations(g.edges, 2)
        if set(e) & set(f) and colour[e] == colour[f]
    ]


def naive_ordered_report(g, tc):
    """The violations in the verifier's documented order, from incidence_conflicts.

    Vertex pairs by (u, v), then edge pairs by shared vertex and by the pair's
    positions among that vertex's sorted edges, then vertex-edge pairs by
    sorted edge and endpoint.
    """
    vertices = [("v", i) for i in range(g.n)]
    edges = [("e", u, v) for u, v in g.edges]
    colour = element_colours(tc)

    def clash(a, b):
        c = colour[a]
        return [(a, b, c)] if c == colour[b] and incidence_conflicts(g, a, b) else []

    out = [x for a, b in itertools.combinations(vertices, 2) for x in clash(a, b)]
    for w in range(g.n):
        here = [e for e in edges if w in e[1:]]
        out += [x for e, f in itertools.combinations(here, 2) for x in clash(e, f)]
    return out + [x for e in edges for a in vertices for x in clash(a, e)]


def reported_pairs(report):
    pairs = [(a, b) for a, b, _ in report.violations]
    assert len(set(pairs)) == len(pairs), "a conflict was reported twice"
    return set(pairs)


def test_verify_total_k2_valid():
    k2 = complete_graph(2)
    tc = TotalColouring.from_parts([0, 1], [(0, 1, 2)])
    rep = verify_total(k2, tc)
    assert rep.valid
    assert rep.colours_used == 3


def test_verify_total_k2_edge_endpoint_clash():
    k2 = complete_graph(2)
    tc = TotalColouring.from_parts([0, 1], [(0, 1, 0)])
    rep = verify_total(k2, tc)
    assert not rep.valid
    assert rep.violations == [(("v", 0), ("e", 0, 1), 0)]


def test_verify_total_missing_element_is_not_invalid():
    k2 = complete_graph(2)
    with pytest.raises(IncompleteColouringError):
        verify_total(k2, TotalColouring.from_parts([0, 1], []))
    with pytest.raises(IncompleteColouringError):
        verify_total(k2, TotalColouring.from_parts([0, 1], [(0, 1, 2), (0, 2, 1)]))
    with pytest.raises(GraphConstructionError):
        TotalColouring.from_parts([0, 1], [(0, 1, 2), (0, 0, 1)])


def test_edge_coloured_in_both_orientations_is_rejected():
    # kept silently, the last entry would be the only one the verifier judges
    with pytest.raises(GraphConstructionError, match=r"edge \(0,1\) is coloured more"):
        TotalColouring.from_parts([0, 1, 2], [(0, 1, 2), (1, 0, 0), (1, 2, 0), (0, 2, 1)])
    # an exact repeat is refused the same way, even with the same colour
    with pytest.raises(GraphConstructionError, match=r"edge \(0,1\) is coloured more"):
        TotalColouring.from_parts([0, 1], [(1, 0, 2), (1, 0, 2)])


def test_from_parts_refuses_what_is_not_an_int():
    # (0, 1.0) == (0, 1), so a float endpoint would pass the cover check
    with pytest.raises(GraphConstructionError, match=r"edge \(0,1\.0\) has an endpoint"):
        TotalColouring.from_parts([0, 0, 2], [(0, 1.0, 1), (1, 2, 1)])
    # True == 1, but a report would list it as True and JSON write it as true
    with pytest.raises(DomainError, match=r"colour True on edge \(0,1\) is not an int"):
        TotalColouring.from_parts([0, 1], [(0, 1, True)])
    with pytest.raises(DomainError, match=r"colour True on vertex 1 is not an int"):
        TotalColouring.from_parts([0, True], [(0, 1, 2)])


def test_verify_total_reads_endpoints_from_the_graph():
    # the constructor checks colours, not endpoints, so the ones it holds may be
    # floats equal to the graph's; the report names the graph's int pairs
    p3 = path_graph(3)
    tc = TotalColouring([0, 0, 2], ((0, 1.0), (1, 2)), [1, 1])
    rep = verify_total(p3, tc)
    assert rep.violations == [
        (("v", 0), ("v", 1), 0),
        (("e", 0, 1), ("e", 1, 2), 1),
    ]
    assert all(type(x) is int for a, b, _ in rep.violations for x in a[1:] + b[1:])


def test_verify_total_matches_naive_scan_on_knm_output():
    g, _ = direct_product(complete_graph(4), complete_graph(3))
    tc = knm_total_colouring(4, 3)
    rep = verify_total(g, tc)
    assert rep.valid
    assert rep.colours_used == 7  # (4-1)(3-1)+1
    assert naive_conflict_scan(g, tc) == []
    # restriction to edges is a proper edge colouring
    assert verify_edge(g, edge_part(g, tc)).valid
    # restriction to vertices is proper
    for u, v in g.edges:
        assert tc.vertex_colours[u] != tc.vertex_colours[v]


def test_verify_total_reports_all_violation_kinds():
    p3 = path_graph(3)
    tc = TotalColouring.from_parts([0, 0, 1], [(0, 1, 2), (1, 2, 2)])
    rep = verify_total(p3, tc)
    kinds = {(a[0], b[0]) for a, b, _ in rep.violations}
    assert ("v", "v") in kinds  # 0 and 1 adjacent, both colour 0
    assert ("e", "e") in kinds  # both edges share vertex 1, both colour 2
    assert not rep.valid
    assert naive_conflict_scan(p3, tc) != []


def test_verify_total_report_order_is_pinned():
    """Vertex pairs, then edge pairs by shared vertex and incidence position,
    then vertex-edge pairs, each by sorted edge."""
    k3 = complete_graph(3)
    tc = TotalColouring.from_parts([0, 0, 0], [(u, v, 0) for u, v in k3.edges])
    rep = verify_total(k3, tc)
    e01, e02, e12 = ("e", 0, 1), ("e", 0, 2), ("e", 1, 2)
    v0, v1, v2 = ("v", 0), ("v", 1), ("v", 2)
    assert rep.violations == [
        (v0, v1, 0), (v0, v2, 0), (v1, v2, 0),
        (e01, e02, 0), (e01, e12, 0), (e02, e12, 0),
        (v0, e01, 0), (v1, e01, 0), (v0, e02, 0), (v2, e02, 0),
        (v1, e12, 0), (v2, e12, 0),
    ]
    # Interleaved colour classes at the centre still come out in (i, j) order.
    star = complete_bipartite(1, 5)
    tc = TotalColouring.from_parts(
        [0, 3, 0, 1, 4, 5], [(0, 1, 1), (0, 2, 2), (0, 3, 1), (0, 4, 2), (0, 5, 1)]
    )
    rep = verify_total(star, tc)
    assert rep.violations == [
        (("v", 0), ("v", 2), 0),
        (("e", 0, 1), ("e", 0, 3), 1),
        (("e", 0, 1), ("e", 0, 5), 1),
        (("e", 0, 2), ("e", 0, 4), 2),
        (("e", 0, 3), ("e", 0, 5), 1),
        (("v", 3), ("e", 0, 3), 1),
    ]
    assert verify_edge(star, edge_part(star, tc)).violations == rep.violations[1:5]


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_verifiers_match_naive_scans_on_random_colourings(seed, palette):
    r = random.Random(seed)
    g = random_graph(r, max_n=8, p=0.5)
    tc = TotalColouring.from_parts(
        [r.randrange(palette) for _ in range(g.n)],
        [(u, v, r.randrange(palette)) for u, v in g.edges],
    )
    rep = verify_total(g, tc)
    assert reported_pairs(rep) == set(naive_conflict_scan(g, tc))
    assert rep.valid == (rep.violations == [])
    assert rep.violations == naive_ordered_report(g, tc)
    edge_rep = verify_edge(g, edge_part(g, tc))
    assert reported_pairs(edge_rep) == set(naive_edge_conflict_scan(g, edge_part(g, tc)))
    # the decoder re-keys triples listed out of order or in either orientation
    triples = jsonio.colouring_to_obj(tc)["edge_colours"]
    flipped = [[v, u, c] if r.random() < 0.5 else [u, v, c] for u, v, c in triples]
    shuffled = r.sample(triples, len(triples))
    flipped_shuffled = r.sample(flipped, len(flipped))
    for listed in (shuffled, flipped, flipped_shuffled):
        decoded = jsonio.colouring_from_obj(
            {"vertex_colours": tc.vertex_colours, "edge_colours": listed}
        )
        assert decoded == tc
        assert verify_total(g, decoded).violations == naive_ordered_report(g, tc)


def test_cover_check_is_part_of_the_trust_root():
    """Equal vertex and edge counts are not enough: every pair must match."""
    g, _ = direct_product(complete_graph(4), complete_graph(3))
    tc = knm_total_colouring(4, 3)
    u, v = g.edges[5]
    w = next(w for w in range(g.n) if w not in (u, v) and not g.has_edge(u, w))
    other = make_graph(g.n, [e for e in g.edges if e != (u, v)] + [(u, w)])
    assert other.n == g.n and len(other.edges) == len(g.edges)
    with pytest.raises(IncompleteColouringError, match=r"\(1 missing, 1 unknown\)"):
        verify_total(other, tc)
    with pytest.raises(IncompleteColouringError, match=r"\(1 missing, 1 unknown\)"):
        jsonio.to_dot(other, tc)


def test_verify_edge_matching_single_colour():
    m = make_graph(6, [(0, 1), (2, 3), (4, 5)])
    rep = verify_edge(m, [0, 0, 0])
    assert rep.valid and rep.colours_used == 1


def test_verify_edge_p3_clash():
    p3 = path_graph(3)
    rep = verify_edge(p3, [0, 0])
    assert not rep.valid


def test_verify_edge_k33_cyclic():
    # colour(x_i y_j) = (i + j) mod 3 is proper: exhaustively derived
    k33 = complete_bipartite(3, 3)
    ec = [(i + j) % 3 for i in range(3) for j in range(3)]
    rep = verify_edge(k33, ec)
    assert rep.valid and rep.colours_used == 3


def test_verify_edge_incomplete():
    with pytest.raises(IncompleteColouringError):
        verify_edge(path_graph(3), [0])
    with pytest.raises(IncompleteColouringError):
        verify_edge(path_graph(3), [0, 1, 0])


def test_verify_edge_rejects_a_negative_colour():
    with pytest.raises(DomainError, match=r"negative colour -1 on edge \(1,2\)"):
        verify_edge(path_graph(3), [0, -1])


def test_verify_edge_rejects_what_is_not_an_int():
    # True == 1 and 0.0 == 0, so either would pass for a colour it equals
    with pytest.raises(DomainError, match=r"colour True on edge \(0,1\) is not an int"):
        verify_edge(complete_graph(2), [True])
    with pytest.raises(DomainError, match=r"colour 0\.0 on edge \(0,1\) is not an int"):
        verify_edge(complete_graph(3), [0.0, 0, 1])


@given(st.integers(0, 2**32 - 1), st.sampled_from(["bool", "float", "negative"]))
def test_one_bad_colour_is_named_wherever_it_is(seed, defect):
    """One bool, float or negative colour planted at a random position of a
    random int colouring: the record, and for an edge verify_edge, refuse it
    and name that element."""
    r = random.Random(seed)
    g = random_graph(r, max_n=7, p=r.random())
    vcs = [r.randrange(4) for _ in range(g.n)]
    ecs = [r.randrange(4) for _ in g.edges]
    on_edge = bool(ecs) and r.random() < 0.5
    target = ecs if on_edge else vcs
    i = r.randrange(len(target))
    bad = {"bool": True, "float": float(target[i]), "negative": -1}[defect]
    target[i] = bad
    at = "edge (%d,%d)" % g.edges[i] if on_edge else f"vertex {i}"
    if defect == "negative":
        message = f"negative colour -1 on {at}"
    else:
        message = f"colour {bad!r} on {at} is not an int"
    with pytest.raises(DomainError) as info:
        TotalColouring(vcs, g.edges, ecs)
    assert str(info.value) == message
    if on_edge:
        with pytest.raises(DomainError) as info:
            verify_edge(g, ecs)
        assert str(info.value) == message


def test_total_colouring_rejects_a_negative_edge_colour():
    with pytest.raises(DomainError, match=r"negative colour -1 on edge \(0,1\)"):
        TotalColouring([0, 1], ((0, 1),), [-1])
    with pytest.raises(DomainError, match=r"negative colour -1 on vertex 1"):
        TotalColouring([0, -1], ((0, 1),), [2])


# the package surface: every public name, each resolved on first use
EXPORTED = """
    CertificationStatus CertificationVerdict CrownTotalColouring DomainError Element
    Graph GraphConstructionError IncompleteColouringError NoRainbowError
    NotBipartiteError OpenProblemError OracleResult OracleStatus ParseError
    PreconditionError ProductVertexMap SearchBudget TotalColourError TotalColouring
    VerificationReport bipartite_delta_edge_colouring certify_construction
    chi_total_bruteforce complete_bipartite complete_graph crown_edge_colouring
    crown_graph crown_total_colouring cycle_graph direct_product edgeless_graph
    exact_chi_total find_bipartition incidence_conflicts kn_k2_total_colouring
    kn_times_bipartite knm_total_colouring lift_bipartite make_graph normalize_total
    one_factorization path_graph rainbow_kmm total_graph verify_edge verify_total
""".split()
SUBMODULES = [
    "colouring", "constructions", "edge_colouring", "errors", "graph_core", "oracle",
    "products",
]


def test_every_exported_name_resolves():
    # each name once, and each reached by a star import
    names = totalcolour.__all__
    assert names == EXPORTED
    assert [name for name in names if not hasattr(totalcolour, name)] == []
    assert set(names) <= set(dir(totalcolour))
    namespace: dict = {}
    exec("from totalcolour import *", namespace)
    assert set(names) <= namespace.keys()
    with pytest.raises(AttributeError, match=r"^module 'totalcolour' has no attribute 'nope'$"):
        totalcolour.nope
    # each submodule is an attribute after a bare import, also in a fresh
    # interpreter, where no other import has loaded it yet
    code = "import totalcolour; print(*(getattr(totalcolour, m).__name__ for m in %r))"
    proc = subprocess.run(
        [sys.executable, "-c", code % SUBMODULES], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == [f"totalcolour.{m}" for m in SUBMODULES]


def test_normalize_total_compacts_order_preserving():
    tc = TotalColouring.from_parts([5, 9], [(0, 1, 7)])
    norm = normalize_total(tc)
    assert norm.vertex_colours == [0, 2]
    assert norm.edges == ((0, 1),) and norm.edge_colours == [1]
    assert norm.palette_size == tc.palette_size == 3


@given(st.permutations(list(range(12))))
def test_injective_relabelling_preserves_validity(perm):
    g, _ = direct_product(complete_graph(3), complete_graph(2))
    base = knm_colouring_of_c6()
    relabelled = TotalColouring.from_parts(
        [perm[c] for c in base.vertex_colours],
        [(u, v, perm[c]) for (u, v), c in zip(base.edges, base.edge_colours)],
    )
    rep = verify_total(g, relabelled)
    assert rep.valid
    assert rep.colours_used == base.palette_size


def knm_colouring_of_c6():
    # 3-colour total colouring of K3 x K2 (a 6-cycle), fixed by hand:
    # product cycle order 0-3-4-1-2-5-0; colours repeat 0,1,2 around it.
    cycle = [0, 3, 4, 1, 2, 5]
    vertex_colours = {}
    for pos, v in enumerate(cycle):
        vertex_colours[v] = pos % 3
    edge_colours = [(v, cycle[(pos + 1) % 6], (pos + 2) % 3) for pos, v in enumerate(cycle)]
    return TotalColouring.from_parts(
        [vertex_colours[i] for i in range(6)], edge_colours
    )


def test_hand_built_c6_colouring_is_valid():
    g, _ = direct_product(complete_graph(3), complete_graph(2))
    rep = verify_total(g, knm_colouring_of_c6())
    assert rep.valid and rep.colours_used == 3


def test_verifier_catches_planted_conflicts(rng):
    """Overwrite one element's colour with a conflicting neighbour's colour;
    the report must become invalid, cite the mutated element, and list
    exactly the pairs the naive scan finds."""
    g, _ = direct_product(complete_graph(4), complete_graph(3))
    base = knm_total_colouring(4, 3)
    els = elements_of(g)
    for _ in range(50):
        victim = rng.choice(els)
        neighbours = [
            other
            for other in els
            if other != victim
            and _conflicts(g, victim, other)
        ]
        donor = rng.choice(neighbours)
        mutated = with_colour(base, victim, element_colours(base)[donor])
        rep = verify_total(g, mutated)
        assert not rep.valid
        assert any(victim in (a, b) for a, b, _ in rep.violations)
        assert reported_pairs(rep) == set(naive_conflict_scan(g, mutated))
        assert rep.violations == naive_ordered_report(g, mutated)


@pytest.mark.parametrize("n, m", [(5, 4), (6, 5), (7, 4)])
def test_listing_matches_naive_order_with_merged_classes(n, m):
    """Ten colour classes merged into two leave most vertices with several
    conflicts in two interleaved classes; both verifiers must still list
    them in order."""
    g, _ = direct_product(complete_graph(n), complete_graph(m))
    base = knm_total_colouring(n, m)
    r = random.Random(n * 100 + m)
    for _ in range(3):
        classes = r.sample(sorted(base.colours), 10)
        merge = {c: classes[i // 5 * 5] for i, c in enumerate(classes)}
        tc = TotalColouring(
            [merge.get(c, c) for c in base.vertex_colours],
            base.edges,
            [merge.get(c, c) for c in base.edge_colours],
        )
        naive = naive_ordered_report(g, tc)
        assert verify_total(g, tc).violations == naive
        edge_pairs = [x for x in naive if x[0][0] == x[1][0] == "e"]
        assert verify_edge(g, tc.edge_colours).violations == edge_pairs
        touched = Counter(w for a, b, _ in naive for w in {*a[1:], *b[1:]})
        assert sum(k > 1 for k in touched.values()) > g.n // 2


def test_listing_of_sparse_colours_is_the_shifted_listing():
    """Colours are sparse ints: adding 10**12 to each colour of a merged-class
    K8 x K7 colouring shifts the colour of every reported pair and leaves the
    pairs and ``colours_used`` as they were, so no listing may size a buffer
    by the largest colour."""
    g, _ = direct_product(complete_graph(8), complete_graph(7))
    base = knm_total_colouring(8, 7)
    classes = random.Random(87).sample(sorted(base.colours), 10)
    merge = {c: classes[0] for c in classes}
    tc = TotalColouring(
        [merge.get(c, c) for c in base.vertex_colours],
        base.edges,
        [merge.get(c, c) for c in base.edge_colours],
    )
    shift = 10**12
    far = TotalColouring(
        [c + shift for c in tc.vertex_colours],
        tc.edges,
        [c + shift for c in tc.edge_colours],
    )
    for near_rep, far_rep in [
        (verify_total(g, tc), verify_total(g, far)),
        (verify_edge(g, tc.edge_colours), verify_edge(g, far.edge_colours)),
    ]:
        assert not near_rep.valid and not far_rep.valid
        assert far_rep.colours_used == near_rep.colours_used
        assert far_rep.violations == [(a, b, c + shift) for a, b, c in near_rep.violations]


def _conflicts(g, a, b):
    from totalcolour import incidence_conflicts

    return incidence_conflicts(g, a, b)
