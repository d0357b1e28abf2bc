#!/usr/bin/env python3
# King's grids (both diagonals) and slant grids (one diagonal): distances,
# middle-row placements, and tiling bounds for wider slant grids.

from trdom import (
    king_distance,
    king_gamma,
    king_graph,
    king_towers,
    slant_gamma_2xn,
    slant_graph,
    slant_lattice_distance,
    slant_tile_cover,
    slant_towers_2xn,
    slant_upper_bound,
    solve,
)
from trdom.reception import render_reception

# King moves make distance Chebyshev; the slant diagonal only helps
# displacements whose components share a sign.
print("distances:")
print("  king  (0,0)->(3,1):", king_distance((0, 0), (3, 1)))
print("  slant (0,0)->(3,3):", slant_lattice_distance((0, 0), (3, 3)))
print("  slant (0,0)->(2,-2):", slant_lattice_distance((0, 0), (2, -2)))

# On a king's grid every tower sits on the middle row; with few enough
# rows the value matches the path formula exactly.
print("\nking's grid, (t, r) = (2, 1):")
for n in (6, 10):
    plan = king_towers(3, n, 2, 1)
    oracle = solve(king_graph(3, n), 2, 1)
    print(f"  K_3,{n}: formula {king_gamma(3, n, 2, 1).value}, "
          f"towers {plan.towers.towers}, exact {oracle.gamma}")
print(render_reception(king_graph(3, 10), king_towers(3, 10, 2, 1).towers))

# Two-row slant grids have an exact formula; the placement alternates a
# row-2 tower and a row-1 tower per block of 4t - 2r - 1 columns.
print("\nslant 2xn, (t, r) = (2, 1):")
for n in (5, 8, 12):
    plan = slant_towers_2xn(n, 2, 1)
    oracle = solve(slant_graph(2, n), 2, 1)
    print(f"  S_2,{n}: formula {slant_gamma_2xn(n, 2, 1).value}, "
          f"towers {plan.towers.towers}, exact {oracle.gamma}, "
          f"efficient={plan.verify().efficient}")
print(render_reception(slant_graph(2, 12), slant_towers_2xn(12, 2, 1).towers))

# Wider slant grids get covers sliced from the infinite-lattice pattern,
# staying within the tabulated bounds.
print("\nslant tile covers vs table bounds:")
for (m, n, t, r) in ((2, 8, 2, 1), (4, 8, 2, 1), (2, 16, 2, 1), (4, 20, 3, 2)):
    bound = slant_upper_bound(m, n, t, r).value
    plan = slant_tile_cover(m, n, t, r)
    print(f"  S_{m},{n} (t={t}, r={r}): bound {bound}, cover {len(plan)} towers, "
          f"dominates={plan.verify().dominated}")
print(render_reception(slant_graph(4, 8), slant_tile_cover(4, 8, 2, 1).towers))
