#!/usr/bin/env python3
# Broadcast domination on paths: the model, the closed form, and the
# explicit placements, cross-checked against exhaustive enumeration.

from trdom import (
    TowerSet,
    compute_reception,
    naive_enumerate,
    path_gamma,
    path_graph,
    path_towers,
    verify,
)
from trdom.reception import render_reception

# A tower of strength t contributes max(0, t - d) signal to each vertex;
# a set of towers dominates at requirement r when every vertex collects
# at least r.  Start with a single tower in the middle of P_7.
g = path_graph(7)
ts = TowerSet((4,), 3)
print("reception on P_7, one tower of strength 3 at vertex 4:")
print("  ", render_reception(g, ts))
print("   (tower shown as T; its own reception is t = 3)")

# The minimum number of towers has a closed form: ceil((n + r - 1) / (2t - r)).
print("\nclosed form vs exhaustive enumeration on paths:")
for (n, t, r) in ((5, 2, 1), (9, 3, 1), (7, 3, 2), (12, 4, 3)):
    formula = path_gamma(n, t, r)
    oracle = naive_enumerate(path_graph(n), t, r)
    print(f"  P_{n} (t={t}, r={r}): formula {formula.value} "
          f"[{formula.theorem_tag}], enumeration {oracle.gamma}")

# The matching construction places towers at t - r + 1 and then every
# 2t - r vertices, clamping the last one to the path.
print("\nconstructed placements:")
for (n, t, r) in ((5, 2, 1), (9, 3, 1), (7, 3, 2)):
    plan = path_towers(n, t, r)
    report = plan.verify()
    print(f"  P_{n} (t={t}, r={r}): towers {plan.towers.towers} "
          f"dominated={report.dominated} efficient={report.efficient}")
    print("    ", render_reception(path_graph(n), plan.towers))

# Consecutive non-clamped zones overlap in exactly r - 1 vertices, each
# receiving exactly r (a clamped final tower would bunch up at the edge).
n, t, r = 10, 3, 2
plan = path_towers(n, t, r)
rec = compute_reception(path_graph(n), plan.towers).reception
overlap = [v for v in range(1, n + 1)
           if sum(abs(v - w) <= t - 1 for w in plan.towers.towers) >= 2]
print(f"\nP_{n} (t={t}, r={r}): towers {plan.towers.towers}, "
      f"zone overlap {overlap} with receptions {[rec[v] for v in overlap]}")

# Requirements above t are allowed: domination must then come from overlap.
report = verify(path_graph(2), TowerSet((1, 2), 2), 3)
print(f"\nP_2, towers at both vertices, t=2, r=3: dominated={report.dominated} "
      f"(flagged r > t: {report.r_exceeds_t})")
