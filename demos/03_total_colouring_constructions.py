"""Tour of the total-colouring constructions and the verifier.

A total colouring gives every vertex AND every edge a colour so that no two
adjacent or incident elements agree.  Every graph needs at least
max_degree + 1 colours; the constructions here always achieve exactly that
bound on their direct products, certifying the products as "type I".

Run with:  python3 demos/03_total_colouring_constructions.py
"""

from totalcolour import (
    complete_graph,
    crown_graph,
    crown_total_colouring,
    cycle_graph,
    direct_product,
    kn_k2_total_colouring,
    knm_total_colouring,
    lift_bipartite,
    verify_total,
)

# ----------------------------------------------------------------------
# Crown graphs: delete a rainbow perfect matching from K_{m,m} and give
# each endpoint the colour of its deleted edge.
# ----------------------------------------------------------------------

m = 4
crown = crown_total_colouring(m)
g = crown_graph(m)
rep = verify_total(g, crown.colouring)
print(f"crown on {2 * m} vertices: valid={rep.valid}, "
      f"colours={rep.colours_used} = max_degree + 1 = {g.max_degree + 1}")
print(f"  vertex colours by pair: {tuple(crown.colouring.vertex_colours[:m])} "
      "(x_k and y_k share a colour; all pairs distinct)")
print(f"  type: {'TYPE_I' if rep.colours_used == g.max_degree + 1 else 'TYPE_II'}")
print()

# ----------------------------------------------------------------------
# K_n x K_m with one even factor is the bipartite lift's step applied to
# the crown over a one-factorization (a tournament schedule) of the even
# K_n.  Vertices copy the crown permutation fibre by fibre; edges over
# round 0 copy the crown's edge colours; edges over round c >= 1 take the
# band c*(m-1) + 1 .. (c+1)*(m-1), so bands never collide.
# ----------------------------------------------------------------------

n, m = 6, 5
tc = knm_total_colouring(n, m)
prod, _ = direct_product(complete_graph(n), complete_graph(m))
rep = verify_total(prod, tc)
print(f"K{n} x K{m}: {prod.n} vertices, {len(prod.edges)} edges, "
      f"max degree {prod.max_degree}")
print(f"  valid={rep.valid}, colours={rep.colours_used} "
      f"= (n-1)(m-1)+1 = {(n - 1) * (m - 1) + 1}")
print(f"  type: {'TYPE_I' if rep.colours_used == prod.max_degree + 1 else 'TYPE_II'}")
print()

try:
    knm_total_colouring(5, 7)
except Exception as exc:
    print(f"K5 x K7 (both odd) is refused: {type(exc).__name__}: {exc}")
print()

# ----------------------------------------------------------------------
# The bipartite lift: any max_degree+1 total colouring of G x K2 extends
# to G x H for every bipartite H, keeping the optimal palette.  Every band
# comes from factor-sized colourings: edges over H's colour class 0 copy
# the input, and those over class d >= 1 take d*max_degree(G) + 1 plus an
# exact edge colouring of G x K2.
# ----------------------------------------------------------------------

g = complete_graph(4)
f = kn_k2_total_colouring(4)  # 4 colours on K4 x K2
for h, name in [(cycle_graph(6), "C6"), (complete_graph(2), "K2")]:
    tc = lift_bipartite(g, f, h)
    prod, _ = direct_product(g, h)
    rep = verify_total(prod, tc)
    print(f"lift K4 x {name}: valid={rep.valid}, "
          f"colours={rep.colours_used} = {g.max_degree}*{h.max_degree}+1")

print()
print("Every construction is re-checked by verify_total, which lists the")
print("conflicting element pairs of any broken colouring instead of just")
print("saying no:")

from totalcolour import TotalColouring

k2 = complete_graph(2)
# from_parts takes (u, v, colour) triples in any order and orientation
broken = TotalColouring.from_parts([0, 1], [(1, 0, 0)])
rep = verify_total(k2, broken)
print(f"  K2 with edge colour 0: valid={rep.valid}, violations={rep.violations}")
print("  (vertex i is ('v', i) and edge uv is ('e', u, v) with u < v, the")
print("  tuples that a report's JSON writes as [\"v\", i] and [\"e\", u, v])")
