"""The claim registry and the formula / construction / oracle audit.

``CLAIMS`` pairs each graph family with its closed form or bound (the
claim) and the construction behind it; it is the only place that pairing
is written.  The audit checks each claim three ways per instance: the
formula's value, a constructed tower set that must dominate within that
value, and the exact oracle where the graph is small enough.

Other layers are reached through module attributes (``graphs.build``,
``solver.solve``, ``fo.*``, ``cons.*``) looked up at call time, so a
tracer that rebinds those attributes sees every call made from here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import constructions as cons
from . import formulas as fo
from . import graphs, solver
from .graphs import DominationError, GraphFamily

MAX_ORACLE_VERTICES = 30


def _auto_grid3d_bound(m: int, n: int, k: int, t: int,
                       r: int) -> Tuple[fo.GammaResult, fo.BlockDims]:
    best = None
    for block in fo.block3d_family(fo.block3d_sum(t, r), t, r):
        result = fo.grid3d_upper_bound(m, n, k, t, r, block)
        if best is None or result.value < best[0].value:
            best = (result, block)
    return best


def _grid3d_claim(m: int, n: int, k: int, t: int, r: int) -> fo.GammaResult:
    if (m, n) == (2, 2) and (t, r) == (2, 1):
        return fo.grid3d_2_2_k_gamma(k, t, r)
    return _auto_grid3d_bound(m, n, k, t, r)[0]


# kind -> (claim, construction), both called with (*dims, t, r).
CLAIMS = {
    "path": (lambda n, t, r: fo.path_gamma(n, t, r),
             lambda n, t, r: cons.path_towers(n, t, r)),
    "cycle": (lambda n, t, r: fo.cycle_upper_bound(n, t, r),
              lambda n, t, r: cons.cycle_towers(n, t, r)),
    "grid": (lambda m, n, t, r: fo.grid_gamma(m, n, t, r),
             lambda m, n, t, r: cons.grid_towers(m, n, t, r)),
    "grid3d": (_grid3d_claim,
               lambda m, n, k, t, r: cons.grid3d_cover(
                   m, n, k, t, r, _auto_grid3d_bound(m, n, k, t, r)[1])),
    "slant": (lambda m, n, t, r: (fo.slant_gamma_2xn(n, t, r) if m == 2
                                  else fo.slant_upper_bound(m, n, t, r)),
              lambda m, n, t, r: (cons.slant_towers_2xn(n, t, r) if m == 2
                                  else cons.slant_tile_cover(m, n, t, r))),
    "king": (lambda m, n, t, r: fo.king_gamma(m, n, t, r),
             lambda m, n, t, r: cons.king_towers(m, n, t, r)),
}


def gamma_for_family(family: GraphFamily, t: int, r: int,
                     decomposition=None) -> fo.GammaResult:
    """The family's claim; a tree's bound needs a path decomposition."""
    if family.kind == "tree":
        if decomposition is None:
            raise DominationError("tree gamma bound needs --decomposition")
        return fo.tree_decomposition_bound(graphs.build(family), decomposition, t, r)
    return CLAIMS[family.kind][0](*family.dims, t, r)


def construct_for_family(family: GraphFamily, t: int, r: int) -> cons.PlacementPlan:
    """The construction behind the family's claim."""
    if family.kind not in CLAIMS:
        raise DominationError(f"no constructor for family {family.kind!r}")
    return CLAIMS[family.kind][1](*family.dims, t, r)


# --------------------------------------------------------------------------
# audit rows

@dataclass
class ComparisonRow:
    """One audited instance: formula vs construction vs oracle."""

    instance: str
    t: int
    r: int
    theorem_tag: str
    kind: str
    formula: int
    constructed: Optional[int] = None
    oracle: Optional[int] = None
    status: str = "oracle-skipped"
    note: str = ""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def finish_row(row: ComparisonRow) -> ComparisonRow:
    """Set the row's status from its formula and oracle values."""
    if row.oracle is None:
        row.status = "oracle-skipped"
        return row
    if row.kind == fo.EXACT:
        row.status = "match" if row.formula == row.oracle else "MISMATCH"
    else:
        delta = row.formula - row.oracle
        if delta < 0:
            row.status = "MISMATCH"
            row.note = (row.note + " bound below oracle").strip()
        elif delta == 0:
            row.status = "match"
        else:
            row.status = f"bound-gap(+{delta})"
    return row


def _audit_instance(
    family: GraphFamily,
    t: int,
    r: int,
    result: fo.GammaResult,
    plan: Optional[cons.PlacementPlan],
    oracle_limit: int,
    expect_count: bool = True,
) -> ComparisonRow:
    g = graphs.build(family)
    row = ComparisonRow(
        instance=family.describe(), t=t, r=r,
        theorem_tag=result.theorem_tag, kind=result.kind, formula=result.value,
    )
    if plan is not None:
        row.constructed = len(plan)
        if not plan.verify(g).dominated:
            row.note = "constructed plan does not dominate"
        elif expect_count and result.kind == fo.EXACT and len(plan) != result.value:
            row.note = f"constructed {len(plan)} towers, formula says {result.value}"
        elif not expect_count and len(plan) > result.value:
            row.note = f"constructed {len(plan)} towers exceeds bound {result.value}"
        if row.note:
            row.status = "MISMATCH"  # the construction fails the claim
            return row
    if g.vertex_count <= oracle_limit:
        # gamma is proven with or without the canonical witness phase.
        row.oracle = solver.solve(g, t, r, solver.SolverConfig(canonical_witness=False)).gamma
    return finish_row(row)


def _audit_family(family: GraphFamily, t: int, r: int, oracle_limit: int) -> ComparisonRow:
    claim, construct = CLAIMS[family.kind]
    return _audit_instance(family, t, r, claim(*family.dims, t, r),
                           construct(*family.dims, t, r), oracle_limit)


def _suite_paths(n_max: int, t_max: int, oracle_limit: int) -> List[ComparisonRow]:
    return [_audit_family(GraphFamily.path(n), t, r, oracle_limit)
            for t in range(1, t_max + 1)
            for r in range(1, t + 1)
            for n in range(1, n_max + 1)]


def _suite_grids(oracle_limit: int, cell_cap: int = 27) -> List[ComparisonRow]:
    rows = []
    for m in (2, 3):
        for t, r in ((2, 1), (3, 1), (3, 2)):
            if 2 * t - r <= m - 1:
                continue
            for n in range(fo.grid_block_width(m, t, r), cell_cap // m + 1):
                rows.append(_audit_family(GraphFamily.grid(m, n), t, r, oracle_limit))
    return rows


def _suite_grid3d(oracle_limit: int) -> List[ComparisonRow]:
    rows = []
    for k in range(1, 6):
        family = GraphFamily.grid3d(2, 2, k)
        rows.append(_audit_instance(
            family, 2, 1, fo.grid3d_2_2_k_gamma(k), None, oracle_limit))
    for t in (2, 3):
        for r in range(1, t + 1):
            for block in fo.block3d_family(fo.block3d_sum(t, r), t, r):
                if block.vertex_count() > 27:
                    continue
                claim = fo.GammaResult(2, fo.EXACT, "Thm4.4")
                plan = cons.block3d_towers(block, t, r)
                rows.append(_audit_instance(
                    GraphFamily.grid3d(*block.dims), t, r, claim, plan, oracle_limit))
    block = fo.block3d_dims("2x2", 2, 1)
    for dims in ((2, 2, 5), (2, 4, 2), (4, 4, 4)):
        bound = fo.grid3d_upper_bound(*dims, 2, 1, block)
        plan = cons.grid3d_cover(*dims, 2, 1, block)
        rows.append(_audit_instance(
            GraphFamily.grid3d(*dims), 2, 1, bound, plan, oracle_limit,
            expect_count=False))
    return rows


def _suite_king(t_max: int, oracle_limit: int, cell_cap: int = 30) -> List[ComparisonRow]:
    return [_audit_family(GraphFamily.king(m, n), t, r, oracle_limit)
            for t in range(2, t_max + 1)
            for r in range(1, t)
            for m in range(1, 2 * (t - r) + 2)
            for n in range(1, cell_cap // m + 1)]


def _suite_slant(n_max: int, t_max: int, oracle_limit: int) -> List[ComparisonRow]:
    rows = [_audit_family(GraphFamily.slant(2, n), t, r, oracle_limit)
            for t in range(2, t_max + 1)
            for r in range(1, t)
            for n in range(1, n_max + 1)]
    # The Table 1 tiles call the tiling bound directly: at m = 2, CLAIMS
    # selects Thm5.7 instead, but these rows audit the table.
    for (t, r), tile in sorted(fo.SLANT_TILE_ROWS.items()):
        for p in (1, 2):
            for q in (1, 2):
                for dl in (0, 1):
                    for dk in (0, 1):
                        m = tile.height * p + dl
                        n = tile.width * q + dk
                        bound = fo.slant_upper_bound(m, n, t, r)
                        plan = cons.slant_tile_cover(m, n, t, r)
                        rows.append(_audit_instance(
                            GraphFamily.slant(m, n), t, r, bound, plan,
                            oracle_limit, expect_count=False))
    return rows


SUITES = ("paths", "grids", "grid3d", "king", "slant", "all")


def run_audit(
    suite: str,
    n_max: int = 14,
    t_max: int = 4,
    oracle_limit: int = MAX_ORACLE_VERTICES,
) -> List[ComparisonRow]:
    rows: List[ComparisonRow] = []
    if suite in ("paths", "all"):
        rows += _suite_paths(n_max, t_max, oracle_limit)
    if suite in ("grids", "all"):
        rows += _suite_grids(oracle_limit)
    if suite in ("grid3d", "all"):
        rows += _suite_grid3d(oracle_limit)
    if suite in ("king", "all"):
        rows += _suite_king(min(t_max, 3), oracle_limit)
    if suite in ("slant", "all"):
        rows += _suite_slant(n_max, min(t_max, 3), oracle_limit)
    rows.sort(key=lambda row: (row.instance, row.t, row.r, row.theorem_tag))
    return rows


def format_rows(rows: Sequence[ComparisonRow]) -> str:
    headers = ("instance", "t", "r", "tag", "kind", "formula", "built", "oracle", "status")
    table = [headers]
    for row in rows:
        table.append((
            row.instance, str(row.t), str(row.r), row.theorem_tag, row.kind,
            str(row.formula),
            "-" if row.constructed is None else str(row.constructed),
            "-" if row.oracle is None else str(row.oracle),
            row.status + (f"  [{row.note}]" if row.note else ""),
        ))
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
             for line in table]
    return "\n".join(lines)
