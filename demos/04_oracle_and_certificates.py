"""Tour of the exact oracle, certification, and the export formats.

Run with:  python3 demos/04_oracle_and_certificates.py
"""

import json
import tempfile
from pathlib import Path

from totalcolour import (
    SearchBudget,
    certify_construction,
    chi_total_bruteforce,
    complete_graph,
    cycle_graph,
    direct_product,
    exact_chi_total,
    jsonio,
    knm_total_colouring,
    make_graph,
    total_graph,
    verify_total,
)

budget = SearchBudget(max_seconds=30.0)

# ----------------------------------------------------------------------
# The oracle colours the "total graph": one vertex per element, joined
# when the elements may not share a colour.  Its chromatic number is the
# total chromatic number.
# ----------------------------------------------------------------------

t = total_graph(cycle_graph(6))
print(f"total graph of C6: {t.n} vertices, {t.max_degree}-regular")
print(f"  element labels: {t.labels[:6]} ...")
print()

# K2 x K2 is the classic tight case: it NEEDS max_degree + 2 colours.
two_k2, _ = direct_product(complete_graph(2), complete_graph(2))
res = exact_chi_total(two_k2, budget)
kind = "TYPE_I" if res.chi_total == two_k2.max_degree + 1 else "TYPE_II"
print(f"K2 x K2: chi'' = {res.chi_total} (max degree {two_k2.max_degree}) -> {kind}")

res = exact_chi_total(cycle_graph(6), budget)
print(f"C6:      chi'' = {res.chi_total} -> type I")
print()

# Cross-check against the second, dumber oracle on something tiny; the
# oracle answers paths and cycles in closed form, with no search.
g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
print(f"path on 4 vertices: closed form={exact_chi_total(g, budget).chi_total}, "
      f"brute-force={chi_total_bruteforce(g)}")
print()

# ----------------------------------------------------------------------
# Certification: is a construction's palette actually optimal?
# ----------------------------------------------------------------------

prod, _ = direct_product(complete_graph(4), complete_graph(3))
tc = knm_total_colouring(4, 3)
verdict = certify_construction(prod, tc, SearchBudget(max_seconds=120.0))
print(f"K4 x K3 construction: {verdict.colours_used} colours, "
      f"verdict={verdict.status.value} "
      f"(oracle searched {verdict.oracle.nodes} nodes)")
print()

# The open case: both factors odd.  No construction exists in this
# library; the oracle can still PROBE small instances and report bounds
# as data (this is exploratory output, not a theorem).
k3k3, _ = direct_product(complete_graph(3), complete_graph(3))
res = exact_chi_total(k3k3, SearchBudget(max_seconds=60.0))
print(f"K3 x K3 probe: status={res.status.value}, "
      f"bounds=[{res.lower}, {res.upper}], chi''={res.chi_total}, "
      f"max_degree+1={k3k3.max_degree + 1}")
print()

# ----------------------------------------------------------------------
# Certificate bundles: graph + colouring + verification report in one
# self-contained JSON object, plus DOT for quick rendering.
# ----------------------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    report = verify_total(prod, tc)
    bundle = jsonio.bundle_to_obj(prod, tc, report, meta={"construction": "knm"})
    path = Path(tmp) / "k4xk3.json"
    jsonio.save_json(path, bundle)
    print(f"bundle written to {path.name}: "
          f"{json.dumps({k: type(v).__name__ for k, v in bundle.items()})}")
    dot = jsonio.to_dot(prod, tc)
    print("DOT preview:")
    for line in dot.splitlines()[:5]:
        print(f"  {line}")
    print(f"  ... ({len(dot.splitlines())} lines total)")
