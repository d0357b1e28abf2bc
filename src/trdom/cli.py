"""Command-line surface: compute, construct, verify, solve, and audit.

Subcommands: ``gamma``, ``construct``, ``verify``, ``exact``,
``lattice``, ``table``, ``render``, ``audit``.  Output is a human
summary by default; ``--json`` switches to machine format.  Exit codes:
0 ok, 1 usage or hypothesis error, 2 verification failure under
``--require-dominated``, 3 formula/oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import __version__
from . import constructions as cons
from . import formulas as fo
from .graphs import (
    DominationError,
    GraphFamily,
    GraphInstance,
    build,
    family_from_json,
    family_to_json,
    vertex_from_json,
    vertex_to_json,
)
from .reception import TowerSet, compute_reception, verify
from .solver import SolverConfig, solve

MAX_ORACLE_VERTICES = 30


class _UsageError(DominationError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json_arg(value: str):
    """Accept inline JSON or a path to a JSON file."""
    text = value.strip()
    if not text.startswith(("{", "[")):
        with open(value) as handle:
            text = handle.read()
    return json.loads(text)


def _add_family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=["path", "cycle", "grid", "grid3d", "slant", "king", "tree"])
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--edges", help="tree edge list as JSON, e.g. [[1,2],[2,3]]")
    parser.add_argument("--graph", help="graph spec JSON (inline or file)")


def _family_from_args(args) -> GraphFamily:
    if args.graph:
        return family_from_json(_load_json_arg(args.graph))
    if not args.family:
        raise _UsageError("provide --family or --graph")
    kind = args.family
    if kind == "tree":
        if not args.edges:
            raise _UsageError("tree family needs --edges")
        return GraphFamily.tree(_load_json_arg(args.edges))
    need = {"path": ("n",), "cycle": ("n",), "grid": ("m", "n"),
            "slant": ("m", "n"), "king": ("m", "n"), "grid3d": ("m", "n", "k")}[kind]
    dims = []
    for name in need:
        value = getattr(args, name)
        if value is None:
            raise _UsageError(f"family {kind} needs --{name}")
        dims.append(value)
    return GraphFamily(kind, tuple(dims))


def _towers_from_arg(value: str, t: Optional[int]) -> TowerSet:
    data = _load_json_arg(value)
    if isinstance(data, dict):
        return TowerSet.from_json(data)
    if t is None:
        raise _UsageError("a bare tower list needs --t")
    return TowerSet(tuple(vertex_from_json(w) for w in data), t)


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _wrap(command: str, params: dict, body: dict) -> dict:
    return {"tool": "trdom", "version": __version__, "command": command,
            "params": params, **body}


# --------------------------------------------------------------------------
# rendering

def render_reception(
    g: GraphInstance,
    ts: TowerSet,
    col_start: int = 1,
    max_cols: int = 60,
) -> str:
    """ASCII reception grid: towers as ``T``, digits, ``+`` above 9.

    Row 1 prints first.  Columns are windowed to ``max_cols`` starting
    at ``col_start`` (1-based); 3D grids print one block per layer.
    """
    rec = compute_reception(g, ts).reception
    towers = set(ts.towers)

    def cell(v) -> str:
        if v in towers:
            return "T"
        f = rec[v]
        return str(f) if f <= 9 else "+"

    kind = g.family.kind
    if kind in ("path", "cycle", "tree"):
        n = g.vertex_count
        cols = range(col_start, min(n, col_start + max_cols - 1) + 1)
        return "".join(cell(i) for i in cols)
    if kind == "grid3d":
        m, n, k = g.family.dims
        cols = range(col_start, min(n, col_start + max_cols - 1) + 1)
        blocks = []
        for layer in range(1, k + 1):
            rows = ["".join(cell((r, c, layer)) for c in cols) for r in range(1, m + 1)]
            blocks.append(f"layer {layer}\n" + "\n".join(rows))
        return "\n\n".join(blocks)
    m, n = g.family.dims
    cols = range(col_start, min(n, col_start + max_cols - 1) + 1)
    return "\n".join("".join(cell((r, c)) for c in cols) for r in range(1, m + 1))


# --------------------------------------------------------------------------
# per-family dispatch

def _auto_grid3d_bound(m: int, n: int, k: int, t: int, r: int) -> Tuple[fo.GammaResult, fo.BlockDims]:
    best = None
    for block in fo.block3d_family(fo.block3d_sum(t, r), t, r):
        result = fo.grid3d_upper_bound(m, n, k, t, r, block)
        if best is None or result.value < best[0].value:
            best = (result, block)
    return best


def _gamma_for_family(family: GraphFamily, t: int, r: int,
                      decomposition=None) -> fo.GammaResult:
    kind = family.kind
    if kind == "path":
        return fo.path_gamma(family.dims[0], t, r)
    if kind == "cycle":
        return fo.cycle_upper_bound(family.dims[0], t, r)
    if kind == "grid":
        return fo.grid_gamma(*family.dims, t, r)
    if kind == "king":
        return fo.king_gamma(*family.dims, t, r)
    if kind == "slant":
        m, n = family.dims
        if m == 2:
            return fo.slant_gamma_2xn(n, t, r)
        return fo.slant_upper_bound(m, n, t, r)
    if kind == "grid3d":
        m, n, k = family.dims
        if (m, n) == (2, 2) and (t, r) == (2, 1):
            return fo.grid3d_2_2_k_gamma(k, t, r)
        return _auto_grid3d_bound(m, n, k, t, r)[0]
    if kind == "tree":
        if decomposition is None:
            raise _UsageError("tree gamma bound needs --decomposition")
        return fo.tree_decomposition_bound(build(family), decomposition, t, r)
    raise _UsageError(f"no formula dispatch for family {kind!r}")


def _construct_for_family(family: GraphFamily, t: int, r: int) -> cons.PlacementPlan:
    kind = family.kind
    if kind == "path":
        return cons.path_towers(family.dims[0], t, r)
    if kind == "cycle":
        return cons.cycle_towers(family.dims[0], t, r)
    if kind == "grid":
        return cons.grid_towers(*family.dims, t, r)
    if kind == "king":
        return cons.king_towers(*family.dims, t, r)
    if kind == "slant":
        m, n = family.dims
        if m == 2:
            return cons.slant_towers_2xn(n, t, r)
        return cons.slant_tile_cover(m, n, t, r)
    if kind == "grid3d":
        m, n, k = family.dims
        block = _auto_grid3d_bound(m, n, k, t, r)[1]
        return cons.grid3d_cover(m, n, k, t, r, block)
    raise _UsageError(f"no constructor for family {kind!r}")


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
        return {
            "instance": self.instance, "t": self.t, "r": self.r,
            "theorem_tag": self.theorem_tag, "kind": self.kind,
            "formula": self.formula, "constructed": self.constructed,
            "oracle": self.oracle, "status": self.status, "note": self.note,
        }


def _finish_row(row: ComparisonRow) -> ComparisonRow:
    if row.status == "construction-failed":
        row.status = "MISMATCH"
        return row
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
    g = build(family)
    row = ComparisonRow(
        instance=family.describe(), t=t, r=r,
        theorem_tag=result.theorem_tag, kind=result.kind, formula=result.value,
    )
    if plan is not None:
        row.constructed = len(plan)
        report = plan.verify(g)
        if not report.dominated:
            row.note = "constructed plan does not dominate"
            row.status = "construction-failed"
            return _finish_row(row)
        if expect_count and result.kind == fo.EXACT and len(plan) != result.value:
            row.note = f"constructed {len(plan)} towers, formula says {result.value}"
            row.status = "construction-failed"
            return _finish_row(row)
        if not expect_count and len(plan) > result.value:
            row.note = f"constructed {len(plan)} towers exceeds bound {result.value}"
            row.status = "construction-failed"
            return _finish_row(row)
    if g.vertex_count <= oracle_limit:
        # gamma is proven with or without the canonical witness phase.
        row.oracle = solve(g, t, r, SolverConfig(canonical_witness=False)).gamma
    return _finish_row(row)


def _suite_paths(n_max: int, t_max: int, oracle_limit: int) -> List[ComparisonRow]:
    rows = []
    for t in range(1, t_max + 1):
        for r in range(1, t + 1):
            for n in range(1, n_max + 1):
                family = GraphFamily.path(n)
                rows.append(_audit_instance(
                    family, t, r, fo.path_gamma(n, t, r),
                    cons.path_towers(n, t, r), oracle_limit))
    return rows


def _suite_grids(oracle_limit: int, cell_cap: int = 27) -> List[ComparisonRow]:
    rows = []
    for m in (2, 3):
        for t, r in ((2, 1), (3, 1), (3, 2)):
            if 2 * t - r <= m - 1:
                continue
            width = fo.grid_block_width(m, t, r)
            n = width
            while m * n <= cell_cap:
                family = GraphFamily.grid(m, n)
                rows.append(_audit_instance(
                    family, t, r, fo.grid_gamma(m, n, t, r),
                    cons.grid_towers(m, n, t, r), oracle_limit))
                n += 1
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
    rows = []
    for t in range(2, t_max + 1):
        for r in range(1, t):
            for m in range(1, 2 * (t - r) + 2):
                for n in range(1, cell_cap // m + 1):
                    family = GraphFamily.king(m, n)
                    rows.append(_audit_instance(
                        family, t, r, fo.king_gamma(m, n, t, r),
                        cons.king_towers(m, n, t, r), oracle_limit))
    return rows


def _suite_slant(n_max: int, t_max: int, oracle_limit: int) -> List[ComparisonRow]:
    rows = []
    for t in range(2, t_max + 1):
        for r in range(1, t):
            for n in range(1, n_max + 1):
                family = GraphFamily.slant(2, n)
                rows.append(_audit_instance(
                    family, t, r, fo.slant_gamma_2xn(n, t, r),
                    cons.slant_towers_2xn(n, t, r), oracle_limit))
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


_SUITES = ("paths", "grids", "grid3d", "king", "slant", "all")


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


def _format_rows(rows: Sequence[ComparisonRow]) -> str:
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


# --------------------------------------------------------------------------
# subcommand handlers

def _cmd_gamma(args) -> int:
    family = _family_from_args(args)
    decomposition = _load_json_arg(args.decomposition) if args.decomposition else None
    result = _gamma_for_family(family, args.t, args.r, decomposition)
    params = {"graph": family_to_json(family), "t": args.t, "r": args.r}
    if not args.exact:
        _emit(args, _wrap("gamma", params, {"result": result.to_json()}),
              f"{family.describe()} (t={args.t}, r={args.r}): gamma "
              f"{'=' if result.kind == fo.EXACT else '<='} {result.value}"
              f"   [{result.theorem_tag}, {result.kind}]")
        return 0
    g = build(family)
    if g.vertex_count > args.max_oracle_vertices and not args.allow_large:
        raise _UsageError(
            f"{g.vertex_count} vertices exceeds --max-oracle-vertices="
            f"{args.max_oracle_vertices}; pass --allow-large to override")
    oracle = solve(g, args.t, args.r)
    row = ComparisonRow(
        instance=family.describe(), t=args.t, r=args.r,
        theorem_tag=result.theorem_tag, kind=result.kind,
        formula=result.value, oracle=oracle.gamma)
    _finish_row(row)
    _emit(args, _wrap("gamma", params, {"result": result.to_json(),
                                        "oracle": oracle.to_json(),
                                        "comparison": row.to_json()}),
          _format_rows([row]))
    return 0 if row.status != "MISMATCH" else 3


def _cmd_construct(args) -> int:
    family = _family_from_args(args)
    plan = _construct_for_family(family, args.t, args.r)
    report = plan.verify()
    payload = _wrap("construct",
                    {"graph": family_to_json(family), "t": args.t, "r": args.r},
                    {"plan": plan.to_json(), "verification": report.to_json()})
    human = (f"{family.describe()} (t={args.t}, r={args.r}) [{plan.theorem_tag}]\n"
             f"towers ({len(plan)}): "
             f"{json.dumps([vertex_to_json(w) for w in plan.towers.towers])}\n"
             f"dominated={report.dominated} efficient={report.efficient}")
    _emit(args, payload, human)
    if args.require_dominated and not report.dominated:
        return 2
    return 0


def _cmd_verify(args) -> int:
    if args.plan:
        data = _load_json_arg(args.plan)
        if isinstance(data, dict) and "plan" in data:
            data = data["plan"]  # accept `construct --json` output unchanged
        plan = cons.PlacementPlan.from_json(data)
        g = plan.build_graph()
        towers = plan.towers
        r = args.r if args.r is not None else plan.r
    else:
        if not args.towers:
            raise _UsageError("verify needs --plan or --graph plus --towers")
        family = _family_from_args(args)
        g = build(family)
        towers = _towers_from_arg(args.towers, args.t)
        if args.r is None:
            raise _UsageError("verify needs --r when not reading a plan")
        r = args.r
    report = verify(g, towers, r)
    payload = _wrap("verify",
                    {"graph": family_to_json(g.family), "t": towers.t, "r": r},
                    {"report": report.to_json()})
    human = (f"{g.family.describe()} t={towers.t} r={r}: "
             f"dominated={report.dominated} efficient={report.efficient} "
             f"min_reception={report.min_reception} "
             f"deficient={len(report.deficient)} overlap={len(report.overlap_vertices)} "
             f"wasted_signal={report.wasted_signal}")
    _emit(args, payload, human)
    if args.require_dominated and not report.dominated:
        return 2
    return 0


def _cmd_exact(args) -> int:
    family = _family_from_args(args)
    g = build(family)
    if g.vertex_count > args.max_oracle_vertices and not args.allow_large:
        raise _UsageError(
            f"{g.vertex_count} vertices exceeds --max-oracle-vertices="
            f"{args.max_oracle_vertices}; pass --allow-large to override")
    cfg = SolverConfig(
        max_cardinality=args.max_cardinality,
        canonical_witness=not args.no_canonical,
        node_budget=args.node_budget,
    )
    result = solve(g, args.t, args.r, cfg)
    payload = _wrap("exact",
                    {"graph": family_to_json(family), "t": args.t, "r": args.r},
                    {"oracle": result.to_json()})
    human = (f"{family.describe()} (t={args.t}, r={args.r}): gamma = {result.gamma}"
             f"{'' if result.proven_minimal else ' (not proven minimal)'}\n"
             f"witness: {json.dumps([vertex_to_json(w) for w in result.witness.towers])}\n"
             f"canonical: {json.dumps(result.canonical)}\n"
             f"explored_nodes: {result.explored_nodes}")
    _emit(args, payload, human)
    return 0


def _cmd_lattice(args) -> int:
    if args.kind == "triangular":
        pattern = cons.triangular_lattice_pattern(args.t, args.r)
    else:
        pattern = cons.king_lattice_pattern(args.t, args.r)
        if pattern.kind != args.kind:
            raise _UsageError(f"--r {args.r} selects pattern {pattern.kind}, not {args.kind}")
    halfwidth = args.halfwidth if args.halfwidth is not None else 4 * args.t
    report = cons.verify_lattice_window(pattern, args.t, args.r, halfwidth)
    if args.index_range:
        x0, x1, y0, y1 = args.index_range
        coords = [pattern.tower_at(x, y)
                  for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]
        coords_key = "towers_for_index_range"
    else:
        coords = pattern.towers_in_box(-halfwidth, halfwidth, -halfwidth, halfwidth)
        coords_key = "towers_in_window"
    payload = _wrap("lattice",
                    {"kind": pattern.kind, "t": args.t, "r": args.r,
                     "halfwidth": halfwidth, "index_range": args.index_range},
                    {"basis": [list(v) for v in pattern.basis()],
                     coords_key: [list(w) for w in coords],
                     "window_report": report.to_json()})
    human = (f"{pattern.kind} pattern (t={args.t}, r={args.r}), "
             f"basis {pattern.basis()}\n"
             f"{coords_key.replace('_', ' ')} "
             f"({len(coords)}): {coords if len(coords) <= 24 else '...'}\n"
             f"interior dominated={report.dominated} efficient={report.efficient} "
             f"min_reception={report.min_reception}")
    _emit(args, payload, human)
    if args.require_dominated and not report.dominated:
        return 2
    return 0


def _cmd_table(args) -> int:
    if args.all_rows:
        pairs = sorted(fo.SLANT_TILE_ROWS)
    else:
        pairs = [(args.t, args.r)]
    entries = []
    for t, r in pairs:
        tile = fo.slant_tile_row(t, r)
        m = tile.height * args.p + args.ell
        n = tile.width * args.q + args.k
        result = fo.slant_upper_bound(m, n, t, r)
        entries.append({
            "t": t, "r": r, "tile_height": tile.height, "tile_width": tile.width,
            "p": args.p, "q": args.q, "ell": args.ell, "k": args.k,
            "m": m, "n": n, "bound": result.value, "theorem_tag": result.theorem_tag,
        })
    payload = _wrap("table", {"preset": args.preset, "p": args.p, "q": args.q,
                              "ell": args.ell, "k": args.k},
                    {"rows": entries})
    human = "\n".join(
        f"(t,r)=({e['t']},{e['r']})  tile {e['tile_height']}x{e['tile_width']}  "
        f"S_({e['m']},{e['n']})  bound {e['bound']}" for e in entries)
    _emit(args, payload, human)
    return 0


def _cmd_render(args) -> int:
    family = _family_from_args(args)
    g = build(family)
    towers = _towers_from_arg(args.towers, args.t)
    text = render_reception(g, towers, col_start=args.col_start, max_cols=args.max_cols)
    if args.json:
        print(json.dumps(_wrap("render",
                               {"graph": family_to_json(family), "t": towers.t},
                               {"ascii": text.splitlines()}), indent=2))
    else:
        print(text)
    return 0


def _cmd_audit(args) -> int:
    oracle_limit = 10**9 if args.allow_large else args.max_oracle_vertices
    rows = run_audit(args.suite, n_max=args.n_max, t_max=args.t_max,
                     oracle_limit=oracle_limit)
    mismatches = sum(1 for row in rows if row.status == "MISMATCH")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].to_json()))
            writer.writeheader()
            for row in rows:
                writer.writerow(row.to_json())
    payload = _wrap("audit",
                    {"suite": args.suite, "n_max": args.n_max, "t_max": args.t_max,
                     "max_oracle_vertices": args.max_oracle_vertices},
                    {"rows": [row.to_json() for row in rows],
                     "mismatches": mismatches})
    human = _format_rows(rows) + f"\n{len(rows)} rows, {mismatches} mismatch(es)"
    _emit(args, payload, human)
    return 3 if mismatches else 0


# --------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="trdom", description="(t, r) broadcast domination toolkit")
    parser.add_argument("--version", action="version", version=f"trdom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if oracle:
            p.add_argument("--max-oracle-vertices", type=int, default=MAX_ORACLE_VERTICES)
            p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("gamma", help="evaluate a closed form or bound")
    _add_family_args(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="also run the exact solver")
    p.add_argument("--decomposition", help="tree path decomposition JSON")
    common(p, oracle=True)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("construct", help="emit a tower placement plan")
    _add_family_args(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--require-dominated", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify towers against a graph")
    _add_family_args(p)
    p.add_argument("--towers", help="tower set JSON (inline or file)")
    p.add_argument("--plan", help="placement plan JSON from `construct`")
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--require-dominated", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="run the branch-and-bound oracle")
    _add_family_args(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--max-cardinality", type=int)
    p.add_argument("--no-canonical", action="store_true")
    common(p, oracle=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("lattice", help="emit an infinite-lattice pattern + window check")
    p.add_argument("--kind", choices=["king-t1", "king-t2", "triangular"], required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--halfwidth", type=int)
    p.add_argument("--index-range", type=int, nargs=4,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                   help="export towers for these generator indices")
    p.add_argument("--require-dominated", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("table", help="slant tiling bounds")
    p.add_argument("--preset", choices=["slant"], default="slant")
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--all-rows", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("render", help="ASCII reception grid")
    _add_family_args(p)
    p.add_argument("--towers", required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--col-start", type=int, default=1)
    p.add_argument("--max-cols", type=int, default=60)
    common(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("audit", help="formula-vs-oracle sweep")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--csv", help="also write the comparison rows to this CSV file")
    common(p, oracle=True)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "table" and not args.all_rows and (args.t is None or args.r is None):
        print("trdom table: error: need --t and --r (or --all-rows)", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (DominationError, OSError, json.JSONDecodeError) as exc:
        print(f"trdom {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
