"""Tour of the graph builders: direct products, their degree law, and crowns.

Run with:  python3 demos/01_products_and_crowns.py
"""

from totalcolour import (
    complete_graph,
    crown_graph,
    cycle_graph,
    direct_product,
    edgeless_graph,
    find_bipartition,
)

# ----------------------------------------------------------------------
# The direct product joins (u, v) to (u', v') exactly when both
# coordinates move along an edge of their factor.
# ----------------------------------------------------------------------

k2 = complete_graph(2)
prod, vmap = direct_product(k2, k2)
print("K2 x K2:")
print(f"  vertices = {prod.n}, edges = {sorted(prod.edges)}")
print("  two disjoint edges: the product of two K2s falls apart.")
print()

# Multiplying by an edgeless graph kills every edge.
nothing, _ = direct_product(complete_graph(3), edgeless_graph(3))
print(f"K3 x (edgeless on 3): {nothing.n} vertices, {len(nothing.edges)} edges")
print()

# ----------------------------------------------------------------------
# Degrees multiply: deg((v, w)) = deg(v) * deg(w).
# ----------------------------------------------------------------------

g = complete_graph(4)
h = cycle_graph(6)
prod, vmap = direct_product(g, h)
print(f"K4 x C6: {prod.n} vertices, {len(prod.edges)} edges")
for i, j in [(0, 0), (3, 5)]:
    p = vmap.index(i, j)
    print(
        f"  deg(({i},{j})) = {prod.degrees[p]}"
        f" = deg_G({i}) * deg_H({j}) = {g.degrees[i]} * {h.degrees[j]}"
    )
print(f"  max degree {prod.max_degree} = {g.max_degree} * {h.max_degree}")

# A bipartite factor makes the whole product bipartite.
right = find_bipartition(prod)
print(f"  bipartite parts of the product: {right.count(False)} + {right.count(True)}")
print()

# ----------------------------------------------------------------------
# Crown graphs: K_{m,m} minus a perfect matching, aka K_m x K2.
# ----------------------------------------------------------------------

for m in (2, 3, 4):
    crown = crown_graph(m)
    print(
        f"crown on 2*{m} vertices: {len(crown.edges)} edges, "
        f"{crown.max_degree}-regular, labels {crown.labels[:3]}..."
    )

crown = crown_graph(3)
prod, vmap = direct_product(complete_graph(3), complete_graph(2))
relabelled = {
    tuple(sorted((vmap.pair(u)[0] + 3 * vmap.pair(u)[1], vmap.pair(v)[0] + 3 * vmap.pair(v)[1])))
    for u, v in prod.edges
}
print(f"crown(3) == K3 x K2 after relabelling: {relabelled == set(crown.edges)}")
print("(the crown on 6 vertices is a 6-cycle in disguise)")
