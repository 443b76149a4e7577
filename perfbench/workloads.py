"""Workload inputs, reference answers and output checks.

Every reference answer here comes from a closed form or from the benchmark's
own bucketing count, never from the code path an op times.  A check returns
a :class:`Verdict` or raises :class:`CheckFailed`.
"""

from __future__ import annotations

import io
import json
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

# One node budget for every oracle op and no wall-clock budget, so node
# counts and answers do not depend on the machine.  K6 x K3 needs ~123k
# nodes to finish exact.
NODE_BUDGET = 150_000


class CheckFailed(Exception):
    """An op returned, but its output disagrees with the reference."""


@dataclass(frozen=True)
class Verdict:
    exact: bool  # the op settled its question exactly
    bounds: tuple[int, int] | None  # proven (lower, upper) on chi'', if any


@dataclass(frozen=True)
class Op:
    name: str
    elements: int  # |V| + |E| of the op's graph
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]


# ---------------------------------------------------------------- graphs
# Edge lists built here, independently of totalcolour's graph constructors.


def complete_edges(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def bipartite_edges(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def product_edges(
    n: int, ge: list[tuple[int, int]], m: int, he: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Direct product edges, vertex (i, j) packed as i * m + j."""
    out = []
    for a, b in ge:
        for c, d in he:
            out.append((a * m + c, b * m + d))
            out.append((a * m + d, b * m + c))
    return out


def max_degree(n: int, edges: list[tuple[int, int]]) -> int:
    deg = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg.values(), default=0)


def write_graph(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    obj = {"n": n, "edges": [sorted(e) for e in sorted(edges)]}
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def write_json(path: Path, obj: Any) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def count_conflicts(
    n: int, edges: list[list[int]], vertex_colours: list[int], edge_colours: list[int]
) -> int:
    """Conflicting element pairs, counted by bucketing colours per vertex."""
    count = 0
    buckets = [Counter() for _ in range(n)]
    for (u, v), c in zip(edges, edge_colours):
        count += (vertex_colours[u] == vertex_colours[v])
        count += (vertex_colours[u] == c) + (vertex_colours[v] == c)
        buckets[u][c] += 1
        buckets[v][c] += 1
    for bucket in buckets:
        count += sum(k * (k - 1) // 2 for k in bucket.values())
    return count


# ------------------------------------------------------------- CLI ops


def run_cli(tc, argv: list[str]) -> tuple[int, str]:
    """``totalcolour.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tc.cli.main(argv)
    return code, out.getvalue()


_PALETTE_LINE = re.compile(r"(?m)^(?:\S+: )?valid[:,] (\d+) colours, max_degree=(\d+)$")
_INVALID_LINE = re.compile(r"INVALID: (\d+) conflicts")


def check_palette(outcome: tuple[int, str], palette: int, delta: int) -> Verdict:
    """Exit 0, and the printed palette and max degree equal the closed forms."""
    code, text = outcome
    if code != 0:
        raise CheckFailed(f"exit code {code}, expected 0")
    m = _PALETTE_LINE.search(text)
    if not m:
        raise CheckFailed(f"no palette line in {text[:80]!r}")
    got_palette, got_delta = int(m.group(1)), int(m.group(2))
    if got_delta != delta:
        raise CheckFailed(f"max_degree {got_delta}, expected {delta}")
    if got_palette != palette:
        raise CheckFailed(f"{got_palette} colours, expected {palette}")
    # A (delta + 1)-colouring is optimal, since delta + 1 is a lower bound.
    return Verdict(exact=True, bounds=(delta + 1, got_palette))


def check_invalid(outcome: tuple[int, str], conflicts: int) -> Verdict:
    """Exit 1, and the printed conflict count equals the planted count."""
    code, text = outcome
    if code != 1:
        raise CheckFailed(f"exit code {code}, expected 1")
    m = _INVALID_LINE.search(text)
    if not m:
        raise CheckFailed(f"no INVALID line in {text[:80]!r}")
    if int(m.group(1)) != conflicts:
        raise CheckFailed(f"{m.group(1)} conflicts, expected {conflicts}")
    return Verdict(exact=True, bounds=None)


def check_bounds(lower: int, upper: int, exact_value: int | None, delta: int, known: int) -> None:
    if not delta + 1 <= lower <= known <= upper:
        raise CheckFailed(
            f"bounds [{lower}, {upper}] do not bracket {known} above {delta + 1}"
        )
    if exact_value is not None and exact_value != known:
        raise CheckFailed(f"exact answer {exact_value}, expected {known}")


def check_chi(outcome: tuple[int, str], delta: int, known: int) -> Verdict:
    """Exit 0 (exact) or 5 (budget spent) with bounds that bracket chi''."""
    code, text = outcome
    if code not in (0, 5):
        raise CheckFailed(f"exit code {code}, expected 0 or 5")
    lines = text.strip().splitlines()
    if not lines:
        raise CheckFailed("no oracle output")
    obj = json.loads(lines[-1])
    exact = obj["status"] == "exact"
    if exact != (code == 0):
        raise CheckFailed(f"status {obj['status']} with exit code {code}")
    value = obj["chi_total"] if exact else None
    if exact and not obj["lower"] == obj["upper"] == value:
        raise CheckFailed(f"exact status with bounds [{obj['lower']}, {obj['upper']}]")
    check_bounds(obj["lower"], obj["upper"], value, delta, known)
    return Verdict(exact=exact, bounds=(obj["lower"], obj["upper"]))


def check_certified(verdict: Any, delta: int, known: int) -> Verdict:
    """OPTIMAL or VALID_BUT_UNPROVEN on a palette of exactly chi''."""
    status = verdict.status.value
    if status not in ("optimal", "valid_but_unproven"):
        raise CheckFailed(f"certification status {status}")
    if verdict.colours_used != known:
        raise CheckFailed(f"{verdict.colours_used} colours, expected {known}")
    result = verdict.oracle
    optimal = status == "optimal"
    check_bounds(result.lower, result.upper, result.chi_total if optimal else None, delta, known)
    return Verdict(exact=optimal, bounds=(result.lower, result.upper))


# ------------------------------------------------------------ workloads

# Sized so that one pass takes about 8 s at the seed, which leaves room for
# the three passes a run needs.  perfbench/README.md lists what is left out.
CERTIFY_LADDER = (
    ("knm", 4, 3), ("knm", 6, 5), ("knm", 8, 7), ("knm", 10, 9), ("knm", 12, 11),
    ("knm", 6, 4), ("knm", 8, 6), ("knm", 10, 8),
    ("crown", 8), ("crown", 12), ("crown", 20), ("crown", 22), ("crown", 24),
    ("kn-bipartite", 4, 6), ("kn-bipartite", 6, 10),  # H = K_{a,a}
)


def closed_form(case: tuple) -> tuple[int, int, int]:
    """(elements, max_degree, palette) of a construction from its parameters."""
    kind = case[0]
    if kind == "knm":
        n, m = case[1], case[2]
        delta = (n - 1) * (m - 1)
        return n * m + n * (n - 1) * m * (m - 1) // 2, delta, delta + 1
    if kind == "crown":
        m = case[1]
        return 2 * m + m * (m - 1), m - 1, m
    n, a = case[1], case[2]  # K_n x K_{a,a}: palette (n-1) * Delta(H) + 1
    delta = (n - 1) * a
    return 2 * n * a + n * (n - 1) * a * a, delta, delta + 1


def setup_certify(tc, rng: random.Random, work: Path) -> list[Op]:
    pairs = []
    for idx, case in enumerate(CERTIFY_LADDER):
        elements, delta, palette = closed_form(case)
        bundle = str(work / f"certify-{idx}.json")
        if case[0] == "kn-bipartite":
            h = work / f"kaa-{case[2]}.json"
            write_graph(h, 2 * case[2], bipartite_edges(case[2], case[2]))
            params = [str(case[1]), str(h)]
        else:
            params = [str(x) for x in case[1:]]
        argv = ["colour", case[0], *params, "-o", bundle]
        check = (lambda o, p=palette, d=delta: check_palette(o, p, d))
        label = " ".join(str(x) for x in case)
        pairs.append((
            Op(f"colour {label}", elements, lambda a=argv: run_cli(tc, a), check),
            Op(f"verify {label}", elements, lambda b=bundle: run_cli(tc, ["verify", b]), check),
        ))
    rng.shuffle(pairs)
    return [op for pair in pairs for op in pair]


# The certify ladder without K10 x K8 and K10 x K9, so that a pass stays
# near 10 s; K12 x K11 alone takes 7 s of it.
REVERIFY_CASES = tuple(
    case for case in CERTIFY_LADDER if case not in (("knm", 10, 8), ("knm", 10, 9))
)
MERGED_CLASSES = 10


def _construct(tc, case: tuple) -> tuple[dict, dict]:
    """Graph and colouring documents of one construction, via the library."""
    if case[0] == "knm":
        g, _ = tc.direct_product(tc.complete_graph(case[1]), tc.complete_graph(case[2]))
        col = tc.knm_total_colouring(case[1], case[2])
    elif case[0] == "crown":
        g = tc.crown_graph(case[1])
        col = tc.crown_total_colouring(case[1]).colouring
    else:
        h = tc.complete_bipartite(case[2], case[2])
        g, _ = tc.direct_product(tc.complete_graph(case[1]), h)
        col = tc.kn_times_bipartite(case[1], h)
    return tc.jsonio.graph_to_obj(g), tc.jsonio.colouring_to_obj(col)


def setup_reverify(tc, rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for idx, case in enumerate(REVERIFY_CASES):
        elements, delta, palette = closed_form(case)
        graph, colouring = _construct(tc, case)
        n, edges = graph["n"], graph["edges"]
        vc = list(colouring["vertex_colours"])
        triples = colouring["edge_colours"]
        if [t[:2] for t in triples] != edges:
            raise RuntimeError("colouring document is not in sorted-edge order")
        ec = [t[2] for t in triples]

        planted_v = rng.randrange(n)
        neighbours = [v if u == planted_v else u for u, v in edges if planted_v in (u, v)]
        one = list(vc)
        one[planted_v] = vc[rng.choice(neighbours)]

        palette_now = sorted(set(vc) | set(ec))
        classes = rng.sample(palette_now, min(MERGED_CLASSES, len(palette_now) // 2))
        relabel = {c: classes[0] for c in classes}
        merged_vc = [relabel.get(c, c) for c in vc]
        merged_ec = [relabel.get(c, c) for c in ec]

        label = " ".join(str(x) for x in case)
        for variant, vcs, ecs in (
            ("valid", vc, ec), ("one-conflict", one, ec), ("merged", merged_vc, merged_ec),
        ):
            conflicts = count_conflicts(n, edges, vcs, ecs)
            if (conflicts == 0) != (variant == "valid"):
                raise RuntimeError(f"{label} {variant}: {conflicts} planted conflicts")
            path = work / f"reverify-{idx}-{variant}.json"
            write_json(path, {
                "graph": graph,
                "colouring": {
                    "vertex_colours": vcs,
                    "edge_colours": [[u, v, c] for (u, v), c in zip(edges, ecs)],
                },
            })
            if conflicts:
                check = (lambda o, k=conflicts: check_invalid(o, k))
            else:
                check = (lambda o, p=palette, d=delta: check_palette(o, p, d))
            ops.append(Op(
                f"verify {label} {variant}", elements,
                lambda p=str(path): run_cli(tc, ["verify", p]), check,
            ))
    rng.shuffle(ops)
    return ops


def _chi_known(kind: str, *p: int) -> tuple[int, list[tuple[int, int]], int]:
    """(vertex count, edges, chi'') of a graph whose chi'' has a closed form."""
    if kind == "C":
        return p[0], cycle_edges(p[0]), 3 if p[0] % 3 == 0 else 4
    if kind == "P":
        return p[0], path_edges(p[0]), 3
    if kind == "K":
        n = p[0]
        return n, complete_edges(n), n if n % 2 else n + 1
    if kind == "Kab":
        a, b = p
        return a + b, bipartite_edges(a, b), max(a, b) + (2 if a == b else 1)
    n, m = p  # K_n x K_m, one factor even (K_2 x K_2 is a matching: 3)
    edges = product_edges(n, complete_edges(n), m, complete_edges(m))
    return n * m, edges, 3 if n == m == 2 else (n - 1) * (m - 1) + 1


ORACLE_HARD = (("K", 8), ("Kab", 5, 5), ("KxK", 6, 3))  # the same for every seed
ORACLE_EASY = (
    *[("K", n) for n in (2, 3, 4, 5, 6, 7, 9)],
    *[("Kab", a, b) for a in (1, 2, 3) for b in range(a, 7)],
    ("Kab", 4, 4), ("Kab", 4, 5), ("Kab", 4, 6),
    *[("KxK", n, 2) for n in (2, 3, 4, 5)],
    ("KxK", 4, 3), ("KxK", 4, 4),
)
ORACLE_STRATA = 10  # seeded C_n and P_n sizes: one per stratum of [3, 62]
ORACLE_CERTIFY = ((4, 3), (6, 4))  # certify_construction on knm_total_colouring
DEFECT_CYCLE = 601  # exact_chi_total(C_601) raises RecursionError at the seed


def setup_oracle(tc, rng: random.Random, work: Path) -> list[Op]:
    cases = list(ORACLE_HARD) + list(ORACLE_EASY)
    for kind in ("C", "P"):
        cases += [(kind, 3 + 6 * k + rng.randrange(6)) for k in range(ORACLE_STRATA)]
    cases.append(("C", DEFECT_CYCLE))
    ops = []
    for idx, case in enumerate(cases):
        n, edges, known = _chi_known(*case)
        path = work / f"oracle-{idx}.json"
        write_graph(path, n, edges)
        argv = ["chi", str(path), "--nodes", str(NODE_BUDGET)]
        delta = max_degree(n, edges)
        name = "chi " + " ".join(str(x) for x in case)
        ops.append(Op(
            name, n + len(edges), lambda a=argv: run_cli(tc, a),
            lambda o, d=delta, k=known: check_chi(o, d, k),
        ))
    for n, m in ORACLE_CERTIFY:
        g, _ = tc.direct_product(tc.complete_graph(n), tc.complete_graph(m))
        col = tc.knm_total_colouring(n, m)
        delta = (n - 1) * (m - 1)
        budget = tc.SearchBudget(max_nodes=NODE_BUDGET)
        ops.append(Op(
            f"certify_construction knm {n} {m}", n * m + len(g.edges),
            lambda g=g, col=col, b=budget: tc.certify_construction(g, col, b),
            lambda v, d=delta: check_certified(v, d, d + 1),
        ))
    rng.shuffle(ops)
    return ops


SETUP = {"certify": setup_certify, "reverify": setup_reverify, "oracle": setup_oracle}


# ---------------------------------------------------------- self-check


def selfcheck(tc, work: Path) -> int:
    """Feed every checker a tampered output; each must count as a failure.

    Returns the number of tampered outputs rejected, and raises when a
    checker accepts one, or rejects the untampered output.
    """
    bundle = work / "selfcheck.json"
    n, m = 4, 3
    _, delta, palette = closed_form(("knm", n, m))
    code, _ = run_cli(tc, ["colour", "knm", str(n), str(m), "-o", str(bundle)])
    if code != 0:
        raise RuntimeError(f"self-check colour op exited {code}")
    doc = json.loads(bundle.read_text(encoding="utf-8"))
    vc = doc["colouring"]["vertex_colours"]
    triples = doc["colouring"]["edge_colours"]
    edges = [t[:2] for t in triples]
    good = run_cli(tc, ["verify", str(bundle)])
    check_palette(good, palette, delta)

    # Wrong palette: give one edge a colour of its own.  The colouring stays
    # proper, so only the palette check can catch it.
    fresh = max(vc + [t[2] for t in triples]) + 1
    doc["colouring"]["edge_colours"] = [[*triples[0][:2], fresh]] + triples[1:]
    write_json(bundle, doc)
    wrong_palette = run_cli(tc, ["verify", str(bundle)])
    if wrong_palette[0] != 0:
        raise RuntimeError("self-check: the wrong-palette bundle does not verify")

    # A planted conflict checked against a count that is off by one.
    planted = [vc[edges[0][1]] if i == edges[0][0] else c for i, c in enumerate(vc)]
    doc["colouring"]["vertex_colours"] = planted
    doc["colouring"]["edge_colours"] = triples
    write_json(bundle, doc)
    invalid = run_cli(tc, ["verify", str(bundle)])
    planted_count = count_conflicts(n * m, edges, planted, [t[2] for t in triples])
    check_invalid(invalid, planted_count)

    graph = work / "selfcheck-k4.json"
    write_graph(graph, 4, complete_edges(4))
    chi = run_cli(tc, ["chi", str(graph), "--nodes", str(NODE_BUDGET)])
    check_chi(chi, 3, 5)
    answer = json.loads(chi[1].strip().splitlines()[-1])
    lowered = dict(answer, chi_total=4, lower=4, upper=4)
    raised = dict(answer, status="timed_out", chi_total=None, lower=6, upper=7)

    tampered = [
        ("wrong palette", lambda: check_palette(wrong_palette, palette, delta)),
        ("verify exit code", lambda: check_palette((1, good[1]), palette, delta)),
        ("conflict count", lambda: check_invalid(invalid, planted_count + 1)),
        ("valid as invalid", lambda: check_invalid(good, planted_count)),
        ("oracle answer", lambda: check_chi((0, json.dumps(lowered)), 3, 5)),
        ("oracle bounds", lambda: check_chi((5, json.dumps(raised)), 3, 5)),
        ("oracle exit code", lambda: check_chi((5, chi[1]), 3, 5)),
    ]
    for what, run in tampered:
        try:
            run()
        except CheckFailed:
            continue
        raise RuntimeError(f"self-check: the {what} check accepted a tampered output")
    return len(tampered)
