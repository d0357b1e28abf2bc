#!/usr/bin/env python3
# Grid graphs: two-tower starting blocks, the column-extension formula,
# and the parameter pockets where that formula over-counts.

from trdom import (
    grid_gamma,
    grid_graph,
    grid_starting_block,
    grid_starting_block_dims,
    grid_towers,
    solve,
)
from trdom.reception import render_reception

# A starting block is a grid dominated *efficiently* by two corner towers.
# Its width shrinks as rows are added: n = 2t - r - (m - 2).
print("starting blocks (m rows -> block width):")
for (m, t, r) in ((2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 3, 2), (4, 4, 2)):
    dims = grid_starting_block_dims(m, t, r)
    plan = grid_starting_block(m, t, r)
    report = plan.verify()
    print(f"  (t={t}, r={r}) m={m}: block {dims.dims}, towers "
          f"{plan.towers.towers}, efficient={report.efficient}")

print("\nthe 2x3 block at (2,1), reception rendered:")
plan = grid_starting_block(2, 2, 1)
print(render_reception(grid_graph(2, 3), plan.towers))

# Wider grids chain blocks: one extra tower per width-1 columns,
# alternating top and bottom rows.
print("\nextension along the columns, (t, r) = (2, 1), m = 2:")
for n in (3, 5, 7, 9):
    plan = grid_towers(2, n, 2, 1)
    print(f"  n={n}: {len(plan)} towers {plan.towers.towers}")
print(render_reception(grid_graph(2, 9), grid_towers(2, 9, 2, 1).towers))

# The stated formula is a correct upper bound everywhere (the placement
# above witnesses it), but the exact solver shows it is NOT tight for
# some r = 1 pockets, e.g. two towers suffice on the 2x6 grid at (3,1).
print("\nformula vs exact solver:")
for (m, n, t, r) in ((2, 5, 2, 1), (2, 6, 3, 1), (3, 5, 2, 1), (3, 4, 3, 2)):
    formula = grid_gamma(m, n, t, r).value
    oracle = solve(grid_graph(m, n), t, r)
    marker = "" if formula == oracle.gamma else "   <-- formula over-counts"
    print(f"  G_{m},{n} (t={t}, r={r}): formula {formula}, "
          f"exact {oracle.gamma}{marker}")
print("\nwitness for G_2,6 at (3,1):", solve(grid_graph(2, 6), 3, 1).witness.towers)
print(render_reception(grid_graph(2, 6), solve(grid_graph(2, 6), 3, 1).witness))
