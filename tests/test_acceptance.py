"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without ``-s`` they still appear in the captured output of any
failing criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from totalcolour import (
    CertificationStatus,
    NoRainbowError,
    OpenProblemError,
    OracleStatus,
    PreconditionError,
    SearchBudget,
    TotalColouring,
    bipartite_delta_edge_colouring,
    certify_construction,
    chi_total_bruteforce,
    complete_bipartite,
    complete_graph,
    crown_graph,
    cycle_graph,
    direct_product,
    exact_chi_total,
    kn_times_bipartite,
    knm_total_colouring,
    lift_bipartite,
    make_graph,
    path_graph,
    rainbow_kmm,
    verify_edge,
    verify_total,
)
from totalcolour.cli import main


@contextmanager
def criterion(num, title, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {title}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} took {elapsed:.1f}s, budget {limit_seconds}s"
    )
    print(f"[criterion {num}] PASS  {title} ({elapsed:.2f}s)")


def test_criterion_1_type_ii_baseline():
    with criterion(1, "K2 x K2 is type II: exact chi'' = 3 = max_degree + 2", 1.0):
        g, _ = direct_product(complete_graph(2), complete_graph(2))
        res = exact_chi_total(g, SearchBudget(max_seconds=1.0))
        assert res.status is OracleStatus.EXACT
        assert res.chi_total == 3 == g.max_degree + 2


def test_criterion_2_kn_x_k2_baseline():
    with criterion(2, "K_n x K_2 type I for n=3..7, oracle-confirmed for n=3,4,5", 30.0):
        for n in range(3, 8):
            prod, _ = direct_product(complete_graph(n), complete_graph(2))
            tc = kn_times_bipartite(n, complete_graph(2))
            rep = verify_total(prod, tc)
            assert rep.valid and rep.colours_used == n == prod.max_degree + 1
        for n in (3, 4, 5):
            prod, _ = direct_product(complete_graph(n), complete_graph(2))
            res = exact_chi_total(prod, SearchBudget(max_seconds=10.0))
            assert res.status is OracleStatus.EXACT
            assert res.chi_total == n


def test_criterion_3_knm_reproduction():
    pairs = [(4, 3), (3, 4), (4, 4), (4, 5), (6, 3), (6, 5)]
    with criterion(3, f"K_n x K_m colourings for {pairs} use (n-1)(m-1)+1 colours", 10.0):
        for n, m in pairs:
            tc = knm_total_colouring(n, m)
            prod, _ = direct_product(complete_graph(n), complete_graph(m))
            rep = verify_total(prod, tc)
            assert rep.valid, (n, m)
            assert rep.colours_used == (n - 1) * (m - 1) + 1, (n, m)


def test_criterion_4_knm_optimality_certification():
    with criterion(4, "oracle certifies (4,3) and (6,3) colourings as optimal", 300.0):
        for n, m in [(4, 3), (6, 3)]:
            g, _ = direct_product(complete_graph(n), complete_graph(m))
            verdict = certify_construction(
                g, knm_total_colouring(n, m), SearchBudget(max_seconds=140.0)
            )
            assert verdict.status is CertificationStatus.OPTIMAL, (n, m)
            assert verdict.colours_used == (n - 1) * (m - 1) + 1


def test_criterion_5_lift_reproduction():
    with criterion(
        5, "lift over K2/P4/C6/K33/S5 from K3, K4 (C5 has no valid source)", 30.0
    ):
        h_builders = [
            complete_graph(2),
            path_graph(4),
            cycle_graph(6),
            complete_bipartite(3, 3),
            complete_bipartite(1, 5),
        ]
        from totalcolour import kn_k2_total_colouring

        for g, f in [
            (complete_graph(3), kn_k2_total_colouring(3)),
            (complete_graph(4), kn_k2_total_colouring(4)),
        ]:
            gk2, _ = direct_product(g, complete_graph(2))
            pre = verify_total(gk2, f)
            assert pre.valid and pre.colours_used == g.max_degree + 1
            for h in h_builders:
                tc = lift_bipartite(g, f, h)
                prod, _ = direct_product(g, h)
                rep = verify_total(prod, tc)
                assert rep.valid
                assert rep.colours_used == g.max_degree * h.max_degree + 1

        # C5 x K2 = C10 is type II: no max_degree+1 source colouring exists,
        # so the lift's precondition must reject the best possible input.
        c5 = cycle_graph(5)
        c10, _ = direct_product(c5, complete_graph(2))
        res = exact_chi_total(c10, SearchBudget(max_seconds=10.0))
        assert res.status is OracleStatus.EXACT
        assert res.chi_total == 4 == c10.max_degree + 2
        # build an explicit valid 4-colour total colouring of the product cycle
        order = _cycle_order(c10)
        vertex_colours = [0] * 10
        edge_colours = []
        for pos, v in enumerate(order):
            vertex_colours[v] = pos % 2
            edge_colours.append((v, order[(pos + 1) % 10], 2 + (pos % 2)))
        four_colour = TotalColouring.from_parts(vertex_colours, edge_colours)
        assert verify_total(c10, four_colour).valid
        with pytest.raises(PreconditionError):
            lift_bipartite(c5, four_colour, complete_graph(2))


def _cycle_order(g):
    order = [0]
    prev = None
    while len(order) < g.n:
        here = order[-1]
        nxt = min(v for v in g.adjacency[here] if v != prev)
        order.append(nxt)
        prev = here
    return order


def test_criterion_6_bipartite_edge_colouring_exactness():
    with criterion(6, "exact max-degree edge colouring on 200 random bipartite graphs", 60.0):
        rng = random.Random(631)
        for _ in range(200):
            a = rng.randint(1, 15)
            b = rng.randint(1, 15)
            edges = [
                (i, a + j)
                for i in range(a)
                for j in range(b)
                if rng.random() < rng.choice((0.2, 0.5, 0.8))
            ]
            h = make_graph(a + b, edges)
            ec = bipartite_delta_edge_colouring(h)
            delta = h.max_degree
            if delta == 0:
                assert ec == []
                continue
            assert verify_edge(h, ec).valid
            assert set(ec) == set(range(delta))
            colour = dict(zip(h.edges, ec))
            for v in range(h.n):
                if h.degrees[v] == delta:
                    assert sorted(
                        colour[min(v, w), max(v, w)] for w in h.adjacency[v]
                    ) == list(range(delta))


def test_criterion_7_rainbow_witness():
    with criterion(7, "rainbow-matched squares for m=3..8; m=2 provably impossible", 10.0):
        for m in range(3, 9):
            ec = rainbow_kmm(m)
            matching = {(i, m + i) for i in range(m)}
            kmm = complete_bipartite(m, m)
            rep = verify_edge(kmm, ec)
            assert rep.valid and rep.colours_used == m
            colour = dict(zip(kmm.edges, ec))
            assert len({colour[e] for e in matching}) == m
        with pytest.raises(NoRainbowError):
            rainbow_kmm(2)
        # justification: exhaust both proper 2-edge-colourings of K_{2,2}
        k22 = complete_bipartite(2, 2)
        edges = sorted(k22.edges)
        proper = []
        for colours in itertools.product(range(2), repeat=4):
            if verify_edge(k22, colours).valid:
                proper.append(dict(zip(edges, colours)))
        assert len(proper) == 2
        for colour in proper:
            for matching in ({(0, 2), (1, 3)}, {(0, 3), (1, 2)}):
                assert len({colour[e] for e in matching}) == 1


def _corpus():
    """>= 100 small graphs, every one with at most 8 elements."""
    graphs = []
    for n in range(1, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(len(pairs) + 1):
            for sub in itertools.combinations(pairs, k):
                graphs.append(make_graph(n, sub))
    pairs4 = list(itertools.combinations(range(4), 2))
    for k in range(5):
        for sub in itertools.combinations(pairs4, k):
            graphs.append(make_graph(4, sub))
    rng = random.Random(88)
    while len(graphs) < 120:
        n = rng.randint(5, 8)
        budget = 8 - n
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(0, budget))
        graphs.append(make_graph(n, edges))
    return graphs


def test_criterion_8_oracle_cross_validation():
    with criterion(8, "DSATUR oracle agrees with brute force on >= 100 small graphs", 120.0):
        corpus = _corpus()
        assert len(corpus) >= 100
        for g in corpus:
            assert g.element_count() <= 8
            bf = chi_total_bruteforce(g)
            res = exact_chi_total(g, SearchBudget(max_seconds=5.0))
            assert res.status is OracleStatus.EXACT
            assert res.chi_total == bf, (g.n, sorted(g.edges), bf, res)


def test_criterion_9_open_problem_guardrail(tmp_path, capsys):
    with criterion(9, "odd x odd complete products are refused, library and CLI", 10.0):
        with pytest.raises(OpenProblemError):
            knm_total_colouring(3, 3)
        out = tmp_path / "bundle.json"
        code = main(["colour", "knm", "3", "3", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert not out.exists()
        assert "open problem" in captured.err
