"""Tour of the edge-colouring primitives.

Each primitive returns a list of colours aligned with its graph's sorted
edge tuple: colours[i] colours g.edges[i].

Run with:  python3 demos/02_edge_colouring_toolkit.py
"""

import random

from totalcolour import (
    bipartite_delta_edge_colouring,
    complete_bipartite,
    complete_graph,
    crown_edge_colouring,
    crown_graph,
    make_graph,
    one_factorization,
    rainbow_kmm,
    verify_edge,
)

# ----------------------------------------------------------------------
# Bipartite graphs can always be edge-coloured with exactly max-degree
# colours.  The colouring below inserts edges one at a time, flipping an
# alternating path whenever the preferred colour is busy.
# ----------------------------------------------------------------------

rng = random.Random(7)
a = b = 6
edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5]
h = make_graph(a + b, edges)
ec = bipartite_delta_edge_colouring(h)
print(f"random bipartite graph: {len(h.edges)} edges, max degree {h.max_degree}")
print(f"  colours used: {sorted(set(ec))} (exactly max degree)")
print(f"  proper: {verify_edge(h, ec).valid}")
for c in sorted(set(ec)):
    print(f"  class {c}: {sorted(e for e, col in zip(h.edges, ec) if col == c)}")
print()

# ----------------------------------------------------------------------
# One-factorizations: K_n for even n splits into n-1 perfect matchings.
# This is the classic circle method used for round-robin schedules.
# ----------------------------------------------------------------------

n = 8
kn = complete_graph(n)
ec = one_factorization(n)
print(f"one factorization of K_{n} (think: {n - 1} rounds of a tournament)")
for r in range(n - 1):
    matches = sorted(e for e, col in zip(kn.edges, ec) if col == r)
    print(f"  round {r}: " + "  ".join(f"{u}-{v}" for u, v in matches))
print(f"  proper: {verify_edge(kn, ec).valid}")
print()

# ----------------------------------------------------------------------
# Rainbow-matched squares: an m-edge-colouring of K_{m,m} whose cell
# (i, j) colour is a Latin square entry, with the main diagonal carrying
# m pairwise distinct colours (a perfect rainbow matching).
# ----------------------------------------------------------------------

for m in (5, 6):
    ec = rainbow_kmm(m)  # the square read row by row
    print(f"order-{m} square with a rainbow diagonal:")
    for i in range(m):
        marked = [
            f"[{s}]" if j == i else f" {s} "
            for j, s in enumerate(ec[i * m : (i + 1) * m])
        ]
        print("   " + " ".join(marked))
    print(f"  diagonal symbols: {sorted(ec[:: m + 1])}")
    print(f"  K_{{{m},{m}}} edge colouring proper: "
          f"{verify_edge(complete_bipartite(m, m), ec).valid}")
    print()

print("m = 2 is impossible: both proper 2-edge-colourings of K_{2,2} make")
print("each perfect matching monochromatic, so rainbow_kmm(2) raises.")
print()

# ----------------------------------------------------------------------
# Crown graphs are (m-1)-regular bipartite, so they get exactly m-1
# colours, each class again a perfect matching.
# ----------------------------------------------------------------------

m = 5
ec = crown_edge_colouring(m)
crown = crown_graph(m)
print(f"crown on {2 * m} vertices: {len(set(ec))} colours, "
      f"proper={verify_edge(crown, ec).valid}")
