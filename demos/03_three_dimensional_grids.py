#!/usr/bin/env python3
# 3D grids: starting blocks, the dimension-sum family, and the 2-per-block
# tiling bound compared with exact values.

from trdom import (
    block3d_dims,
    block3d_family,
    block3d_sum,
    block3d_towers,
    grid3d_cover,
    grid3d_graph,
    grid3d_upper_bound,
    solve,
)
from trdom.reception import render_reception

# Stated block shapes for a few (t, r); all share the dimension sum 2t - r + 3.
print("starting blocks by shape:")
for (shape, t, r) in (("2x2", 2, 1), ("2x2", 3, 2), ("3xN", 3, 1), ("3x3", 3, 2)):
    block = block3d_dims(shape, t, r)
    print(f"  (t={t}, r={r}) {shape}: {block.dims}  [{block.theorem_tag}] "
          f"sum={sum(block.dims)}")

# Any box with the same dimension sum is two-tower dominable: towers at
# opposite corners (1,1,k) and (m,n,1) give every doubly-covered vertex
# reception exactly r.
t, r = 2, 1
print(f"\nall boxes with dimension sum {block3d_sum(t, r)} for (t, r) = ({t}, {r}):")
for block in block3d_family(block3d_sum(t, r), t, r):
    plan = block3d_towers(block, t, r)
    report = plan.verify()
    oracle = solve(grid3d_graph(*block.dims), t, r)
    print(f"  {block.dims}: towers {plan.towers.towers} "
          f"efficient={report.efficient} exact={oracle.gamma}")

# Larger boxes are covered by translated blocks, two towers per block.
print("\ncovering G_2,2,5 with 2x2x2 blocks at (2,1):")
block = block3d_dims("2x2", 2, 1)
plan = grid3d_cover(2, 2, 5, 2, 1, block)
bound = grid3d_upper_bound(2, 2, 5, 2, 1, block)
oracle = solve(grid3d_graph(2, 2, 5), 2, 1)
print(f"  bound 2B = {bound.value}, cover uses {len(plan)} towers, "
      f"exact value {oracle.gamma} (gap {bound.value - oracle.gamma})")
print(f"  cover dominates: {plan.verify().dominated}")
print("\n  exact witness rendered, one layer per line block:")
print(render_reception(grid3d_graph(2, 2, 5), oracle.witness))

# The claimed per-layer value for 2x2xk fails at k=1 (a 4-cycle needs two
# towers), and the exact solver makes that visible.
print("\n2x2xk at (2,1): claim k vs exact")
from trdom import grid3d_2_2_k_gamma
for k in range(1, 6):
    claim = grid3d_2_2_k_gamma(k).value
    truth = solve(grid3d_graph(2, 2, k), 2, 1).gamma
    marker = "" if claim == truth else "   <-- claim is wrong here"
    print(f"  k={k}: claim {claim}, exact {truth}{marker}")
