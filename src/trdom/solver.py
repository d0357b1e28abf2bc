"""Exact minimum-cardinality solvers for broadcast domination.

:func:`solve` is a branch-and-bound search: iterative deepening on the
cardinality k, depth-first branching on the towers that can still reach
one deficient vertex, and a counting prune (remaining slots times the
best single-tower capped supply must cover the residual deficit).
:func:`naive_enumerate` checks all subsets in cardinality order and is
the independent second oracle for small graphs.

Determinism: vertices are ordered row-major.  The branching vertex is
the deficient vertex with the fewest open towers (towers in its zone
neither chosen nor excluded), then the least reception, then row-major
order; candidate towers are ordered by descending marginal contribution
with row-major tie-break.  With ``canonical_witness`` the witness is the
lexicographically least minimum dominating set in row-major order,
which is exactly what :func:`naive_enumerate` returns.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional, Sequence, Tuple

from .graphs import DominationError, FrozenRecord, GraphInstance, Vertex, vertex_to_json
from .reception import TowerSet


class TooLarge(DominationError):
    """The graph exceeds the subset-enumeration oracle's size cap."""


class Infeasible(DominationError):
    """No tower set can reach the required reception (r too large)."""


class SolverConfig(FrozenRecord):
    """Search knobs; caps must be positive when present."""

    __slots__ = ("max_cardinality", "canonical_witness", "node_budget")

    def __init__(self, max_cardinality: Optional[int] = None, canonical_witness: bool = True,
                 node_budget: Optional[int] = None):
        if max_cardinality is not None and max_cardinality < 1:
            raise DominationError("max_cardinality must be positive")
        if node_budget is not None and node_budget < 1:
            raise DominationError("node_budget must be positive")
        super().__init__(max_cardinality, canonical_witness, node_budget)


class OracleResult(FrozenRecord):
    """An oracle's answer; ``canonical`` means the witness is the
    lexicographically least minimum dominating set.  ``stats`` (from
    :func:`solve`) holds per-phase ``nodes`` and ``seconds``, the bounds,
    the deepening ``levels`` tried and ``budget_exhausted_in``; equality
    and hash leave it out.
    """

    __slots__ = ("gamma", "witness", "explored_nodes", "proven_minimal", "canonical", "stats")

    def __init__(self, gamma: int, witness: TowerSet, explored_nodes: int,
                 proven_minimal: bool, canonical: bool = False, stats: Optional[dict] = None):
        super().__init__(gamma, witness, explored_nodes, proven_minimal, canonical, stats)

    def _key(self) -> tuple:
        return (self.gamma, self.witness, self.explored_nodes, self.proven_minimal,
                self.canonical)

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "witness": [vertex_to_json(w) for w in self.witness.towers],
            "t": self.witness.t,
            "explored_nodes": self.explored_nodes,
            "proven_minimal": self.proven_minimal,
            "canonical": self.canonical,
            "stats": self.stats,
        }


class _BudgetExhausted(Exception):
    pass


class _Problem:
    """Shared precomputation: gains, zones, and supply bounds."""

    def __init__(self, g: GraphInstance, t: int, r: int):
        if r < 1 or t < 1:
            raise DominationError(f"need t >= 1 and r >= 1, got t={t}, r={r}")
        self.g = g
        self.t = t
        self.r = r
        self.vertices: Tuple[Vertex, ...] = g.vertices
        self.n = len(self.vertices)
        index = {v: i for i, v in enumerate(self.vertices)}
        # gains[w] lists (vertex index, signal) pairs for d < t; zones is
        # its transpose and, by symmetry of d, has the same index sets.
        self.gains: List[List[Tuple[int, int]]] = []
        self.zone: List[List[int]] = [[] for _ in range(self.n)]
        max_reception = [0] * self.n
        for w_idx, w in enumerate(self.vertices):
            row = []
            for v, d in g.ball(w, t - 1).items():
                v_idx = index[v]
                row.append((v_idx, t - d))
                self.zone[v_idx].append(w_idx)
                max_reception[v_idx] += t - d
            row.sort()
            self.gains.append(row)
        for lst in self.zone:
            lst.sort()
        deficient = [self.vertices[i] for i in range(self.n) if max_reception[i] < r]
        if deficient:
            raise Infeasible(
                f"even with towers everywhere, reception stays below r={r} "
                f"at {deficient[:4]}"
            )
        # One tower cuts the deficit sum_v min(r, f(v)) by at most this.
        self.supply = [sum(min(r, amount) for _, amount in row) for row in self.gains]
        self.s_max = max(self.supply)

    def witness(self, indices: Sequence[int]) -> TowerSet:
        return TowerSet(tuple(self.vertices[i] for i in sorted(indices)), self.t)


class _Search:
    """Search state; ``blocked[w]`` means w is chosen or excluded, and
    ``open_[v]`` counts the unblocked towers in ``zone[v]``."""

    def __init__(self, problem: _Problem, counter: List[int], budget: Optional[int]):
        self.p = problem
        self.reception = [0] * problem.n
        self.deficit = problem.n * problem.r
        self.chosen: List[int] = []
        self.blocked = [False] * problem.n
        self.open_ = [len(zone) for zone in problem.zone]
        self.counter = counter
        self.budget = budget

    def block(self, w: int) -> None:
        self.blocked[w] = True
        for v, _ in self.p.gains[w]:
            self.open_[v] -= 1

    def unblock(self, w: int) -> None:
        self.blocked[w] = False
        for v, _ in self.p.gains[w]:
            self.open_[v] += 1

    def apply(self, w: int) -> None:
        """Choose w: add its signal and block it (block's loop inlined)."""
        r, reception, open_ = self.p.r, self.reception, self.open_
        deficit = self.deficit
        for v, amount in self.p.gains[w]:
            before = reception[v]
            if before < r:
                deficit -= amount if amount < r - before else r - before
            reception[v] = before + amount
            open_[v] -= 1
        self.deficit = deficit
        self.blocked[w] = True
        self.chosen.append(w)

    def unapply(self, w: int) -> None:
        r, reception, open_ = self.p.r, self.reception, self.open_
        deficit = self.deficit
        for v, amount in self.p.gains[w]:
            after = reception[v] - amount
            if after < r:
                deficit += amount if amount < r - after else r - after
            reception[v] = after
            open_[v] += 1
        self.deficit = deficit
        self.blocked[w] = False
        self.chosen.pop()

    def _branch_vertex(self) -> int:
        """The deficient vertex with the fewest open towers (fail first)."""
        r, open_ = self.p.r, self.open_
        best, best_o, best_f = -1, self.p.n + 1, r
        for v, f in enumerate(self.reception):
            if f < r and (open_[v] < best_o or open_[v] == best_o and f < best_f):
                best, best_o, best_f = v, open_[v], f
                if not best_o:
                    break
        return best

    def _marginal(self, w: int) -> int:
        r, reception = self.p.r, self.reception
        total = 0
        for v, amount in self.p.gains[w]:
            gap = r - reception[v]
            if gap > 0:
                total += amount if amount < gap else gap
        return total

    def candidates(self, v: int) -> List[Tuple[int, int]]:
        """(-marginal, w) for the open towers of zone[v], best first."""
        return sorted((-self._marginal(w), w) for w in self.p.zone[v] if not self.blocked[w])

    def dfs(self, slots: int) -> Optional[List[int]]:
        """Any extension by at most ``slots`` unblocked towers; restores the state."""
        self.counter[0] += 1
        if self.budget is not None and self.counter[0] > self.budget:
            raise _BudgetExhausted
        if self.deficit == 0:
            return list(self.chosen)
        if slots == 0 or slots * self.p.s_max < self.deficit:
            return None
        tried, result = [], None
        # A child whose gain leaves more deficit than slots - 1 towers can
        # cut fails the prune above; gains only fall along the list.
        floor = self.deficit - (slots - 1) * self.p.s_max
        for neg_gain, w in self.candidates(self._branch_vertex()):
            if -neg_gain < floor:
                break
            self.apply(w)
            result = self.dfs(slots - 1)
            self.unapply(w)
            if result is not None:
                break
            self.block(w)
            tried.append(w)
        for w in tried:
            self.unblock(w)
        return result


def _canonical(problem: _Problem, k: int, counter: List[int],
               budget: Optional[int]) -> Optional[List[int]]:
    """Lexicographically least dominating set of size k, ascending scan.

    A tower with no completion stays blocked: later prefix towers are larger.
    """
    search = _Search(problem, counter, budget)
    for w in range(problem.n):
        if search.deficit == 0:
            break
        search.apply(w)
        if search.dfs(k - len(search.chosen)) is None:
            search.unapply(w)
            search.block(w)
    return search.chosen if search.deficit == 0 else None


def _greedy(problem: _Problem) -> List[int]:
    """Repeatedly place the tower of largest marginal gain (least index)."""
    search = _Search(problem, [0], None)
    while search.deficit > 0:
        search.apply(max((w for w in range(problem.n) if not search.blocked[w]),
                         key=lambda w: (search._marginal(w), -w)))
    return search.chosen


def solve(
    g: GraphInstance, t: int, r: int, cfg: Optional[SolverConfig] = None
) -> OracleResult:
    """True gamma and a witness, by iterative-deepening branch and bound.

    The deepening starts at the counting lower bound ceil(n * r / S_max),
    where S_max = max_w sum_v min(r, t - d(w, v)) is the most one tower
    can cut the total deficit sum_v (r - min(r, f(v))).  On budget
    exhaustion the best-known witness is returned: in the deepening it
    is the greedy one with ``proven_minimal=False``; in the canonical
    phase gamma stays proven and the witness has ``canonical=False``.
    """
    cfg = cfg or SolverConfig()
    problem = _Problem(g, t, r)
    counter = [0]
    phases = {name: {"nodes": 0, "seconds": 0.0}
              for name in ("greedy", "deepening", "canonical")}
    stats = {"phases": phases, "levels": [], "budget_exhausted_in": None}

    def run(phase, step, *args):
        before, start = counter[0], time.perf_counter()
        try:
            return step(*args)
        except _BudgetExhausted:
            stats["budget_exhausted_in"] = phase
            return None
        finally:
            phases[phase]["nodes"] += counter[0] - before
            phases[phase]["seconds"] += time.perf_counter() - start

    best = run("greedy", _greedy, problem)
    upper, lower = len(best), max(1, -(-problem.n * r // problem.s_max))
    stats.update(lower_bound=lower, upper_bound=upper)
    cap = upper if cfg.max_cardinality is None else min(upper, cfg.max_cardinality)
    proven = canonical = False
    # The deepening always terminates at or below `upper`: a dominating
    # set of that size exists, so the search at k = upper finds one.
    for k in range(lower, cap + 1):
        before = counter[0]
        found = run("deepening", _Search(problem, counter, cfg.node_budget).dfs, k)
        stats["levels"].append({"k": k, "nodes": counter[0] - before})
        if found is not None:
            best, proven = found, True
        if found is not None or stats["budget_exhausted_in"]:
            break
    if proven and cfg.canonical_witness:
        least = run("canonical", _canonical, problem, len(best), counter, cfg.node_budget)
        if least is not None:
            best, canonical = least, True
    return OracleResult(gamma=len(best), witness=problem.witness(best),
                        explored_nodes=counter[0], proven_minimal=proven,
                        canonical=canonical, stats=stats)


NAIVE_VERTEX_CAP = 16


def naive_enumerate(g: GraphInstance, t: int, r: int) -> OracleResult:
    """Check all tower subsets in cardinality order (second oracle).

    The first dominating subset found is the lexicographically least of
    minimum size, matching the canonical witness of :func:`solve`.
    """
    problem = _Problem(g, t, r)
    n = problem.n
    if n > NAIVE_VERTEX_CAP:
        raise TooLarge(f"naive enumeration is capped at {NAIVE_VERTEX_CAP} vertices, got {n}")
    checked = 0
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            checked += 1
            reception = [0] * n
            for w in combo:
                for v, amount in problem.gains[w]:
                    reception[v] += amount
            if min(reception) >= r:
                return OracleResult(
                    gamma=k,
                    witness=problem.witness(combo),
                    explored_nodes=checked,
                    proven_minimal=True,
                    canonical=True,
                )
    raise Infeasible("no subset dominates; feasibility precheck should have caught this")
