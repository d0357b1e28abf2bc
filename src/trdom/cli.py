"""Command-line surface: compute, construct, verify, solve, and audit.

Subcommands: ``gamma``, ``construct``, ``verify``, ``exact``,
``lattice``, ``table``, ``render``, ``audit``.  The CLI only parses
arguments and formats output; the work is done by library calls, with
the family claims and the audit in :mod:`trdom.audit`.  Output is a human
summary by default; ``--json`` switches to machine format.  Exit codes:
0 ok, 1 usage or hypothesis error, 2 verification failure under
``--require-dominated``, 3 formula/oracle mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from . import __version__
from . import constructions as cons
from . import formulas as fo
from .audit import (MAX_ORACLE_VERTICES, SUITES, ComparisonRow, construct_for_family, finish_row,
                    format_rows, gamma_for_family, run_audit)
from .graphs import (FAMILY_DIMS, DominationError, GraphFamily, GraphInstance, build,
                     family_from_json, family_to_json, vertex_from_json, vertex_to_json)
from .reception import TowerSet, render_reception, verify
from .solver import SolverConfig, solve


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
    parser.add_argument("--family", choices=list(FAMILY_DIMS))
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
    dims = []
    for name in FAMILY_DIMS[kind]:
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


def _oracle_graph(args, family: GraphFamily) -> GraphInstance:
    g = build(family)
    if g.vertex_count > args.max_oracle_vertices and not args.allow_large:
        raise _UsageError(
            f"{g.vertex_count} vertices exceeds --max-oracle-vertices="
            f"{args.max_oracle_vertices}; pass --allow-large to override")
    return g


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _wrap(command: str, params: dict, body: dict) -> dict:
    return {"tool": "trdom", "version": __version__, "command": command,
            "params": params, **body}


# --------------------------------------------------------------------------
# subcommand handlers

def _cmd_gamma(args) -> int:
    family = _family_from_args(args)
    decomposition = _load_json_arg(args.decomposition) if args.decomposition else None
    result = gamma_for_family(family, args.t, args.r, decomposition)
    params = {"graph": family_to_json(family), "t": args.t, "r": args.r}
    if not args.exact:
        _emit(args, _wrap("gamma", params, {"result": result.to_json()}),
              f"{family.describe()} (t={args.t}, r={args.r}): gamma "
              f"{'=' if result.kind == fo.EXACT else '<='} {result.value}"
              f"   [{result.theorem_tag}, {result.kind}]")
        return 0
    oracle = solve(_oracle_graph(args, family), args.t, args.r)
    row = ComparisonRow(
        instance=family.describe(), t=args.t, r=args.r,
        theorem_tag=result.theorem_tag, kind=result.kind,
        formula=result.value, oracle=oracle.gamma)
    finish_row(row)
    _emit(args, _wrap("gamma", params, {"result": result.to_json(),
                                        "oracle": oracle.to_json(),
                                        "comparison": row.to_json()}),
          format_rows([row]))
    return 0 if row.status != "MISMATCH" else 3


def _cmd_construct(args) -> int:
    family = _family_from_args(args)
    plan = construct_for_family(family, args.t, args.r)
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
    g = _oracle_graph(args, family)
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
    elif args.t is None or args.r is None:
        raise _UsageError("need --t and --r (or --all-rows)")
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
    _emit(args, _wrap("render", {"graph": family_to_json(family), "t": towers.t},
                      {"ascii": text.splitlines()}), text)
    return 0


def _cmd_audit(args) -> int:
    oracle_limit = 10**9 if args.allow_large else args.max_oracle_vertices
    rows = run_audit(args.suite, n_max=args.n_max, t_max=args.t_max,
                     oracle_limit=oracle_limit)
    mismatches = sum(1 for row in rows if row.status == "MISMATCH")
    if args.csv:
        import csv  # only audit --csv needs it; keeps CLI start-up lean

        with open(args.csv, "w", newline="") as handle:
            fields = [field.name for field in dataclasses.fields(ComparisonRow)]
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            writer.writerows(row.to_json() for row in rows)
    payload = _wrap("audit",
                    {"suite": args.suite, "n_max": args.n_max, "t_max": args.t_max,
                     "max_oracle_vertices": args.max_oracle_vertices},
                    {"rows": [row.to_json() for row in rows],
                     "mismatches": mismatches})
    human = format_rows(rows) + f"\n{len(rows)} rows, {mismatches} mismatch(es)"
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
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--csv", help="also write the comparison rows to this CSV file")
    common(p, oracle=True)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DominationError, OSError, json.JSONDecodeError) as exc:
        print(f"trdom {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
