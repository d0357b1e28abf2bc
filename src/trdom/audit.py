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

from typing import List, Optional, Sequence, Tuple

from . import constructions as cons
from . import formulas as fo
from . import graphs, solver
from .graphs import DominationError, GraphFamily, Record

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

# A row's fields in order: its JSON keys and the ``audit --csv`` columns.
ROW_FIELDS = ("instance", "t", "r", "theorem_tag", "kind", "formula", "constructed", "oracle",
              "status", "note")


class ComparisonRow(Record):
    """One audited instance: formula vs construction vs oracle."""

    __slots__ = ROW_FIELDS

    def __init__(self, instance: str, t: int, r: int, theorem_tag: str, kind: str, formula: int,
                 constructed: Optional[int] = None, oracle: Optional[int] = None,
                 status: str = "oracle-skipped", note: str = ""):
        super().__init__(instance, t, r, theorem_tag, kind, formula, constructed, oracle, status,
                         note)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in ROW_FIELDS}


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


def _audit_case(family: GraphFamily, t: int, r: int, claim: fo.GammaResult,
                plan: Optional[cons.PlacementPlan], oracle_limit: int) -> ComparisonRow:
    """One row: claim vs construction (if any) vs oracle.  An exact claim's
    construction must have exactly its count; any other must stay within it."""
    g = graphs.build(family)
    row = ComparisonRow(family.describe(), t, r, claim.theorem_tag, claim.kind, claim.value)
    if plan is not None:
        row.constructed = len(plan)
        if not plan.verify(g).dominated:
            row.note = "constructed plan does not dominate"
        elif claim.kind == fo.EXACT and len(plan) != claim.value:
            row.note = f"constructed {len(plan)} towers, formula says {claim.value}"
        elif len(plan) > claim.value:
            row.note = f"constructed {len(plan)} towers exceeds bound {claim.value}"
        if row.note:
            row.status = "MISMATCH"  # the construction fails the claim
            return row
    if g.vertex_count <= oracle_limit:
        # gamma is proven with or without the canonical witness phase.
        row.oracle = solver.solve(g, t, r, solver.SolverConfig(canonical_witness=False)).gamma
    return finish_row(row)


# --------------------------------------------------------------------------
# suites: each yields (family, t, r, claim, plan) cases from (n_max, t_max)

def _registered(family: GraphFamily, t: int, r: int):
    claim, construct = CLAIMS[family.kind]
    return family, t, r, claim(*family.dims, t, r), construct(*family.dims, t, r)


def _paths(n_max: int, t_max: int):
    for t in range(1, t_max + 1):
        for r in range(1, t + 1):
            for n in range(1, n_max + 1):
                yield _registered(GraphFamily.path(n), t, r)


def _grids(n_max: int, t_max: int, cell_cap: int = 27):
    for m in (2, 3):
        for t, r in ((2, 1), (3, 1), (3, 2)):
            if 2 * t - r > m - 1:
                for n in range(fo.grid_block_width(m, t, r), cell_cap // m + 1):
                    yield _registered(GraphFamily.grid(m, n), t, r)


def _grid3d(n_max: int, t_max: int):
    for k in range(1, 6):
        yield GraphFamily.grid3d(2, 2, k), 2, 1, fo.grid3d_2_2_k_gamma(k), None
    for t in (2, 3):
        for r in range(1, t + 1):
            for block in fo.block3d_family(fo.block3d_sum(t, r), t, r):
                if block.vertex_count() <= 27:
                    yield (GraphFamily.grid3d(*block.dims), t, r,
                           fo.GammaResult(2, fo.EXACT, "Thm4.4"), cons.block3d_towers(block, t, r))
    block = fo.block3d_dims("2x2", 2, 1)
    for dims in ((2, 2, 5), (2, 4, 2), (4, 4, 4)):
        yield (GraphFamily.grid3d(*dims), 2, 1, fo.grid3d_upper_bound(*dims, 2, 1, block),
               cons.grid3d_cover(*dims, 2, 1, block))


def _king(n_max: int, t_max: int, cell_cap: int = 30):
    for t in range(2, min(t_max, 3) + 1):
        for r in range(1, t):
            for m in range(1, 2 * (t - r) + 2):
                for n in range(1, cell_cap // m + 1):
                    yield _registered(GraphFamily.king(m, n), t, r)


def _slant(n_max: int, t_max: int):
    for t in range(2, min(t_max, 3) + 1):
        for r in range(1, t):
            for n in range(1, n_max + 1):
                yield _registered(GraphFamily.slant(2, n), t, r)
    # The Table 1 tiles call the tiling bound directly: at m = 2, CLAIMS
    # selects Thm5.7 instead, but these rows audit the table.
    for (t, r), tile in sorted(fo.SLANT_TILE_ROWS.items()):
        for p in (1, 2):
            for q in (1, 2):
                for dl in (0, 1):
                    for dk in (0, 1):
                        m, n = tile.height * p + dl, tile.width * q + dk
                        yield (GraphFamily.slant(m, n), t, r, fo.slant_upper_bound(m, n, t, r),
                               cons.slant_tile_cover(m, n, t, r))


# suite name -> its case generator; ``all`` runs every suite in this order.
SUITES = {"paths": _paths, "grids": _grids, "grid3d": _grid3d, "king": _king, "slant": _slant}


def run_audit(
    suite: str,
    n_max: int = 14,
    t_max: int = 4,
    oracle_limit: int = MAX_ORACLE_VERTICES,
) -> List[ComparisonRow]:
    rows = [_audit_case(*case, oracle_limit)
            for name in (SUITES if suite == "all" else (suite,))
            for case in SUITES[name](n_max, t_max)]
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
