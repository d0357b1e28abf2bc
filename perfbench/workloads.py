"""Seeded inputs and output checks for the three benchmark workloads.

Each workload turns a seed into one *pass*: a list of CLI commands.  The
harness repeats whole passes, so every run sees the same mix of
commands.  The seed picks the instances (for ``paper`` only their
order); the program sees only the generated argv.

Instances are drawn from slots.  The alternatives in one slot cost about
the same at commit 9dd70c7, so two seeds give different instances but
the same latency profile, which keeps the medians and the 90th
percentile steady from seed to seed.  The 50th and 90th percentiles of
each pass fall inside a slot group, not on the edge between two groups.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from trdom import cli as trdom_cli
from trdom import solver as trdom_solver
from trdom.graphs import GraphFamily, build, vertex_from_json, vertex_to_json
from trdom.reception import TowerSet, verify
from trdom.solver import SolverConfig, solve

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_DEFAULT_ORACLE = 30  # the CLI's default --max-oracle-vertices
NAIVE_LIMIT = 16  # naive_enumerate's cap


@dataclass
class Op:
    """One CLI command of a pass.

    ``key`` names the instance and command; it repeats across passes.
    ``argv`` receives the stdout of the previous command in the pass.
    """

    key: str
    argv: Callable[[Optional[str]], List[str]]
    props: Dict = field(default_factory=dict)
    family: Optional[GraphFamily] = None


def _family_argv(kind: str, dims) -> List[str]:
    names = {"path": ("--n",), "cycle": ("--n",),
             "grid3d": ("--m", "--n", "--k")}.get(kind, ("--m", "--n"))
    out = ["--family", kind]
    for name, value in zip(names, dims):
        out += [name, str(value)]
    return out


def _describe(kind: str, dims) -> str:
    return f"{kind}({', '.join(map(str, dims))})"


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.ops = self.generate(seed)
        self.reference: Dict[str, object] = {}  # first answer per key
        self.checked: set = set()  # keys fully checked in this phase

    def generate(self, seed: int) -> List[Op]:
        raise NotImplementedError

    def begin_phase(self) -> None:
        self.checked = set()

    def check(self, op: Op, code: int, out: str, oracle_scope) -> Optional[str]:
        """Return a problem description, or None when the output is right."""
        raise NotImplementedError

    def _same_as_before(self, key: str, answer) -> Optional[str]:
        first = self.reference.setdefault(key, answer)
        if first != answer:
            return f"{key}: answer differs from an earlier run of the same command"
        return None

    def extra_layer_metrics(self, traced_keys: List[str]) -> Dict[str, float]:
        return {}


# --------------------------------------------------------------------------
# paper: the whole paper through the CLI

PAPER_SUITES = ("paths", "grids", "grid3d", "king", "slant")
AUDIT_FIELDS = ("instance", "t", "r", "theorem_tag", "kind", "formula",
                "constructed", "oracle", "status")


def _lattice_cases():
    for kind in ("king-t1", "king-t2", "triangular"):
        for t in range(2, 9):
            rs = {"king-t1": (1,), "king-t2": (2,)}.get(kind, range(1, t + 1))
            for r in rs:
                yield kind, t, r


def audit_answers(payload: dict) -> List[list]:
    return [[row[name] for name in AUDIT_FIELDS] for row in payload["rows"]]


class Paper(Workload):
    """Every audit suite plus the 49 lattice checks; the seed sets the order."""

    name = "paper"

    def __init__(self, seed):
        super().__init__(seed)
        with open(os.path.join(HERE, "paper_reference.json")) as handle:
            self.expected_rows = json.load(handle)

    def generate(self, seed):
        ops = [Op(f"audit:{suite}", lambda _, s=suite: ["audit", "--suite", s, "--json"],
                  {"family": f"audit:{suite}"})
               for suite in PAPER_SUITES]
        for kind, t, r in _lattice_cases():
            argv = ["lattice", "--kind", kind, "--t", str(t), "--r", str(r), "--json"]
            ops.append(Op(f"lattice:{kind}:{t}:{r}", lambda _, a=argv: a,
                          {"family": kind, "t": t, "r": r}))
        random.Random(seed).shuffle(ops)
        return ops

    def check(self, op, code, out, oracle_scope):
        payload = json.loads(out)
        if op.key.startswith("audit:"):
            suite = op.key.split(":", 1)[1]
            rows = audit_answers(payload)
            expected = self.expected_rows[suite]
            want_code = 3 if any(row[-1] == "MISMATCH" for row in expected) else 0
            if code != want_code:
                return f"{op.key}: exit code {code}, expected {want_code}"
            if rows != expected:
                return f"{op.key}: audit rows differ from the recorded reference"
            op.props.update(rows=len(rows), mismatches=payload["mismatches"])
            return None
        if code != 0:
            return f"{op.key}: exit code {code}"
        report = payload["window_report"]
        if not (report["dominated"] and report["efficient"]):
            return f"{op.key}: lattice window not dominated and efficient"
        towers = payload.get("towers_in_window", [])
        hw = payload["params"]["halfwidth"]
        op.props.update(V=(2 * (hw - op.props["t"]) + 1) ** 2, towers=len(towers))
        return self._same_as_before(op.key, [towers, report["min_reception"]])


# --------------------------------------------------------------------------
# boards: construct + verify on large boards

# Alternatives per slot: (kind, (t, r), dims choices).  The first eight
# slots cost about 0.11 s per command at commit 9dd70c7, the last two
# (paths and cycles near n = 3000) about 0.65 s, so the 90th percentile
# lands inside the long-board group and the median inside the rest.
_SLANT_COVER = [("slant", (3, 1), [(36, 36), (35, 37), (37, 35), (36, 37), (37, 36)]),
                ("slant", (4, 3), [(36, 36), (36, 37), (37, 36)])]
_SLANT_2XN = [("slant", (2, 1), [(2, n) for n in range(440, 461)]),
              ("slant", (3, 2), [(2, n) for n in range(500, 521)]),
              ("slant", (3, 1), [(2, n) for n in range(560, 581)])]
_GRID3D = [("grid3d", (3, 1), [(9, 10, 11), (9, 11, 10), (10, 9, 11),
                               (10, 11, 9), (11, 9, 10), (11, 10, 9)])]
BOARD_SLOTS = [
    _SLANT_COVER, _SLANT_COVER, _SLANT_2XN, _SLANT_2XN, _GRID3D, _GRID3D,
    [("grid", (2, 1), [(3, n) for n in range(235, 256)]),
     ("grid", (3, 2), [(3, n) for n in range(325, 346)])],
    [("king", (2, 1), [(3, n) for n in range(300, 321)]),
     ("king", (3, 2), [(3, n) for n in range(380, 401)])],
    [("path", (3, 1), [(n,) for n in range(2950, 3001)]),
     ("path", (4, 3), [(n,) for n in range(2950, 3001)])],
    [("cycle", (3, 1), [(n,) for n in range(2950, 3001)]),
     ("cycle", (4, 3), [(n,) for n in range(2950, 3001)])],
]
REPORT_FIELDS = ("dominated", "min_reception", "deficient", "overlap_vertices",
                 "efficient", "wasted_signal", "total_excess", "t", "r", "r_exceeds_t")


def _ball_report(g, towers, t: int, r: int):
    """Recompute verify's report by BFS cut at depth t - 1.

    An independent route to the same answer, whose cost is the local
    work: returns (sum of |broadcast zone| over towers, report fields).
    """
    reception = dict.fromkeys(g.vertices, 0)
    zones = dict.fromkeys(g.vertices, 0)
    balls = 0
    for w in towers:
        depth = {w: 0}
        queue = deque([w])
        while queue:
            u = queue.popleft()
            if depth[u] < t - 1:
                for v in g.neighbors(u):
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        queue.append(v)
        balls += len(depth)
        for v, d in depth.items():
            reception[v] += t - d
            zones[v] += 1
    overlap = [v for v in g.vertices if zones[v] >= 2]
    deficient = [v for v in g.vertices if reception[v] < r]
    return balls, {
        "dominated": not deficient,
        "min_reception": min(reception.values()),
        "deficient": [vertex_to_json(v) for v in deficient],
        "overlap_vertices": [vertex_to_json(v) for v in overlap],
        "efficient": not deficient and all(reception[v] == r for v in overlap),
        "wasted_signal": sum(reception[v] - r for v in overlap if reception[v] > r),
        "total_excess": sum(f - r for f in reception.values() if f > r),
    }


class Boards(Workload):
    """``construct`` then ``verify --plan`` on ten seeded large boards."""

    name = "boards"

    def __init__(self, seed):
        super().__init__(seed)
        self.construct_reports: Dict[str, dict] = {}

    def generate(self, seed):
        rng = random.Random(seed)
        ops = []
        boards = []
        for slot in BOARD_SLOTS:
            while True:
                kind, (t, r), shapes = rng.choice(slot)
                board = (kind, rng.choice(shapes), t, r)
                if board not in boards:
                    break
            boards.append(board)
        rng.shuffle(boards)
        for kind, dims, t, r in boards:
            name = f"{_describe(kind, dims)}@({t},{r})"
            # Both commands of a board share one props dict.
            props = {"family": kind, "dims": list(dims), "t": t, "r": r}
            construct = ["construct", *_family_argv(kind, dims), "--t", str(t),
                         "--r", str(r), "--require-dominated", "--json"]
            ops.append(Op(f"construct:{name}", lambda _, a=construct: a, props))
            ops.append(Op(f"verify:{name}",
                          lambda prev: ["verify", "--plan", prev or "",
                                        "--require-dominated", "--json"],
                          props))
        return ops

    def _gamma(self, op) -> dict:
        p = op.props
        args = ["gamma", *_family_argv(p["family"], p["dims"]),
                "--t", str(p["t"]), "--r", str(p["r"]), "--json"]
        return run_quietly(args)["result"]

    def check(self, op, code, out, oracle_scope):
        if code != 0:
            return f"{op.key}: exit code {code}"
        payload = json.loads(out)
        board = op.key.split(":", 1)[1]
        if op.key.startswith("construct:"):
            plan = payload["plan"]
            report = {k: payload["verification"][k] for k in REPORT_FIELDS}
            self.construct_reports[board] = report
            problem = self._same_as_before(op.key, [plan, report])
            if problem or op.key in self.checked:
                return problem
            self.checked.add(op.key)
            if not report["dominated"]:
                return f"{op.key}: plan does not dominate"
            gamma = self._gamma(op)
            count = len(plan["towers"])
            if count > gamma["value"] or (
                    gamma["kind"] == "exact-formula" and count != gamma["value"]):
                return f"{op.key}: {count} towers against {gamma['kind']} {gamma['value']}"
            p = op.props
            g = build(GraphFamily(p["family"], tuple(p["dims"])))
            towers = [vertex_from_json(w) for w in plan["towers"]]
            balls, expected = _ball_report(g, towers, p["t"], p["r"])
            p.update(V=g.vertex_count, towers=len(towers), ball_sum=balls,
                     local_work_share=balls / (len(towers) * g.vertex_count))
            if any(report[k] != v for k, v in expected.items()):
                return f"{op.key}: report differs from a ball-by-ball recount"
            return None
        report = {k: payload["report"][k] for k in REPORT_FIELDS}
        if report != self.construct_reports.get(board):
            return f"{op.key}: verify report differs from construct's report"
        if not report["dominated"]:
            return f"{op.key}: board not dominated"
        return None


# --------------------------------------------------------------------------
# exact: the branch-and-bound oracle on 16-49 vertex instances

_TR = ((2, 1), (3, 1), (3, 2))
# 16-vertex instances, checked against naive_enumerate too (~1 ms each).
SMALL16 = [(kind, dims, tr) for kind, dims in (
    ("grid", (4, 4)), ("grid", (2, 8)), ("slant", (4, 4)), ("slant", (2, 8)),
    ("king", (4, 4)), ("king", (2, 8)), ("grid3d", (2, 2, 4))) for tr in _TR]
# About 14-17 ms per solve at commit 9dd70c7; the median falls here.
MID = [("grid", (3, 8), (2, 1)), ("slant", (4, 5), (3, 2)), ("grid", (2, 14), (3, 1)),
       ("slant", (5, 6), (2, 1)), ("grid3d", (2, 2, 7), (3, 2)), ("slant", (2, 13), (2, 1)),
       ("slant", (2, 12), (3, 2)), ("slant", (2, 14), (2, 1)), ("grid3d", (2, 2, 8), (3, 1)),
       ("slant", (3, 7), (3, 2)), ("grid", (3, 7), (3, 2)), ("cycle", (32,), (2, 1))]
# About 40-50 ms.
UPPER = [("slant", (6, 6), (2, 1)), ("grid3d", (2, 3, 5), (3, 2)), ("slant", (2, 16), (3, 2)),
         ("slant", (5, 5), (3, 2)), ("grid", (2, 15), (2, 1)), ("grid", (2, 16), (2, 1)),
         ("king", (2, 17), (3, 2)), ("king", (2, 18), (3, 2))]
# About 0.3 s; the 90th percentile falls here.
HEAVY = [("grid3d", (3, 3, 4), (3, 2)), ("slant", (6, 6), (3, 2)),
         ("slant", (3, 12), (3, 2)), ("grid3d", (2, 3, 6), (3, 2))]
FIXED = ("grid", (7, 7), (2, 1))  # canonical witness: 6.7k -> 61.6k nodes


def _random_tree(rng, n: int):
    return [[rng.randint(1, i - 1), i] for i in range(2, n + 1)]


class Exact(Workload):
    """``exact`` on seeded 16-49 vertex instances with a heavy tail."""

    name = "exact"

    def generate(self, seed):
        rng = random.Random(seed)
        picks = []
        for _ in range(2):
            picks.append(("tree", _random_tree(rng, 16), rng.choice(_TR)))
        picks.append(("cycle", (rng.randint(16, 24),), rng.choice(_TR)))
        picks += rng.sample(SMALL16, 3)
        picks += rng.sample(MID, 8)
        picks += rng.sample(UPPER, 2)
        picks += rng.sample(HEAVY, 3)
        picks.append(FIXED)
        rng.shuffle(picks)
        ops = []
        for kind, dims, (t, r) in picks:
            if kind == "tree":
                family = GraphFamily.tree(dims)
                argv = ["--family", "tree", "--edges", json.dumps(dims)]
                name = f"tree{json.dumps(dims, separators=(',', ':'))}"
                vertices = len(dims) + 1
            else:
                family = GraphFamily(kind, tuple(dims))
                argv = _family_argv(kind, dims)
                name = _describe(kind, dims)
                vertices = math.prod(dims)
            argv = ["exact", *argv, "--t", str(t), "--r", str(r), "--json"]
            if vertices > MAX_DEFAULT_ORACLE:
                argv.append("--allow-large")
            ops.append(Op(f"{name}@({t},{r})", lambda _, a=argv: a,
                          {"family": kind, "V": vertices, "t": t, "r": r}, family))
        return ops

    def check(self, op, code, out, oracle_scope):
        if code != 0:
            return f"{op.key}: exit code {code}"
        oracle = json.loads(out)["oracle"]
        answer = [oracle["gamma"], oracle["witness"], oracle["explored_nodes"],
                  oracle["proven_minimal"]]
        problem = self._same_as_before(op.key, answer)
        if problem or op.key in self.checked:
            return problem
        self.checked.add(op.key)
        p = op.props
        t, r = p["t"], p["r"]
        g = build(op.family)
        witness = tuple(vertex_from_json(w) for w in oracle["witness"])
        p.update(towers=len(witness), nodes=oracle["explored_nodes"])
        if not oracle["proven_minimal"]:
            return f"{op.key}: result not proven minimal"
        if len(witness) != oracle["gamma"]:
            return f"{op.key}: witness size {len(witness)} != gamma {oracle['gamma']}"
        if not verify(g, TowerSet(witness, t), r).dominated:
            return f"{op.key}: witness does not dominate"
        if g.vertex_count <= NAIVE_LIMIT:
            with oracle_scope():
                naive = trdom_solver.naive_enumerate(g, t, r)
            if naive.gamma != oracle["gamma"] or naive.witness.towers != witness:
                return f"{op.key}: solve disagrees with naive_enumerate"
        return None

    def extra_layer_metrics(self, traced_keys):
        """Canonical-witness cost: default solve minus a non-canonical solve."""
        split = {}
        for op in self.ops:
            g = build(op.family)
            t, r = op.props["t"], op.props["r"]
            start = perf_counter()
            full = solve(g, t, r)
            middle = perf_counter()
            plain = solve(g, t, r, SolverConfig(canonical_witness=False))
            end = perf_counter()
            split[op.key] = ((middle - start) - (end - middle),
                             full.explored_nodes - plain.explored_nodes)
        return {
            "solver.canonical_s": sum(split[k][0] for k in traced_keys),
            "solver.canonical_nodes": sum(split[k][1] for k in traced_keys),
        }


def run_quietly(argv: List[str], ok_codes=(0,)) -> dict:
    """Run a CLI command outside the timed region and parse its JSON."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = trdom_cli.main(argv)
    if code not in ok_codes:
        raise RuntimeError(f"reference command {argv} exited {code}")
    return json.loads(buf.getvalue())


WORKLOADS = {cls.name: cls for cls in (Paper, Boards, Exact)}
