"""Exact minimum-cardinality solvers for broadcast domination.

:func:`solve` is a branch-and-bound search: iterative deepening on the
cardinality k, depth-first branching on towers that can reach the
currently most-deficient vertex, and a counting prune (remaining slots
times the best single-tower supply must cover the residual demand).
:func:`naive_enumerate` checks all subsets in cardinality order and is
the independent second oracle for small graphs.

Determinism: vertices are ordered row-major; branching vertices are the
minimum-reception vertex with row-major tie-break, and candidate towers
are ordered by descending marginal contribution with row-major
tie-break.  With ``canonical_witness`` the witness is the
lexicographically least minimum dominating set in row-major order,
which is exactly what :func:`naive_enumerate` returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import DominationError, GraphInstance, Vertex, vertex_to_json
from .reception import TowerSet


class TooLarge(DominationError):
    """The graph exceeds the subset-enumeration oracle's size cap."""


class Infeasible(DominationError):
    """No tower set can reach the required reception (r too large)."""


@dataclass(frozen=True)
class SolverConfig:
    """Search knobs; caps must be positive when present."""

    max_cardinality: Optional[int] = None
    canonical_witness: bool = True
    node_budget: Optional[int] = None

    def __post_init__(self):
        if self.max_cardinality is not None and self.max_cardinality < 1:
            raise DominationError("max_cardinality must be positive")
        if self.node_budget is not None and self.node_budget < 1:
            raise DominationError("node_budget must be positive")


@dataclass(frozen=True)
class OracleResult:
    gamma: int
    witness: TowerSet
    explored_nodes: int
    proven_minimal: bool

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "witness": [vertex_to_json(w) for w in self.witness.towers],
            "t": self.witness.t,
            "explored_nodes": self.explored_nodes,
            "proven_minimal": self.proven_minimal,
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
        self.supply = [sum(amount for _, amount in row) for row in self.gains]
        self.s_max = max(self.supply)

    def witness(self, indices: Sequence[int]) -> TowerSet:
        return TowerSet(tuple(self.vertices[i] for i in sorted(indices)), self.t)


class _Search:
    """Mutable search state for one depth-first exploration."""

    def __init__(self, problem: _Problem, counter: List[int], budget: Optional[int]):
        self.p = problem
        self.reception = [0] * problem.n
        self.deficit = problem.n * problem.r
        self.chosen: List[int] = []
        self.chosen_set: set = set()
        self.excluded: set = set()
        self.counter = counter
        self.budget = budget

    def _tick(self):
        self.counter[0] += 1
        if self.budget is not None and self.counter[0] > self.budget:
            raise _BudgetExhausted

    def apply(self, w: int) -> None:
        r = self.p.r
        for v, amount in self.p.gains[w]:
            before = self.reception[v]
            self.deficit -= min(r, before + amount) - min(r, before)
            self.reception[v] = before + amount
        self.chosen.append(w)
        self.chosen_set.add(w)

    def unapply(self, w: int) -> None:
        r = self.p.r
        for v, amount in self.p.gains[w]:
            before = self.reception[v]
            self.deficit += min(r, before) - min(r, before - amount)
            self.reception[v] = before - amount
        self.chosen.pop()
        self.chosen_set.remove(w)

    def _branch_vertex(self) -> int:
        r = self.p.r
        best = -1
        best_f = None
        for v in range(self.p.n):
            f = self.reception[v]
            if f < r and (best_f is None or f < best_f):
                best, best_f = v, f
        return best

    def _marginal(self, w: int) -> int:
        r = self.p.r
        total = 0
        for v, amount in self.p.gains[w]:
            gap = r - self.reception[v]
            if gap > 0:
                total += min(amount, gap)
        return total

    def candidates(self, v: int, min_index: int = 0) -> List[int]:
        pool = [
            w
            for w in self.p.zone[v]
            if w >= min_index and w not in self.chosen_set and w not in self.excluded
        ]
        pool.sort(key=lambda w: (-self._marginal(w), w))
        return pool

    def dfs(self, slots: int, min_index: int = 0) -> Optional[List[int]]:
        """Find any extension by at most ``slots`` towers (indices >= min_index)."""
        self._tick()
        if self.deficit == 0:
            return list(self.chosen)
        if slots == 0 or slots * self.p.s_max < self.deficit:
            return None
        v = self._branch_vertex()
        added = []
        result = None
        for w in self.candidates(v, min_index):
            self.apply(w)
            result = self.dfs(slots - 1, min_index)
            self.unapply(w)
            if result is not None:
                break
            self.excluded.add(w)
            added.append(w)
        for w in added:
            self.excluded.remove(w)
        return result


def _canonical(problem: _Problem, k: int, counter: List[int],
               budget: Optional[int]) -> Optional[List[int]]:
    """Lexicographically least dominating set of size k, ascending scan."""
    search = _Search(problem, counter, budget)
    prefix: List[int] = []
    last = -1
    while search.deficit > 0:
        placed = False
        for w in range(last + 1, problem.n):
            search.apply(w)
            slots = k - len(prefix) - 1
            saved_excluded = set(search.excluded)
            completion = search.dfs(slots, min_index=w + 1)
            search.excluded = saved_excluded
            if completion is not None:
                prefix.append(w)
                last = w
                placed = True
                break
            search.unapply(w)
        if not placed:
            return None
    return prefix


def _greedy(problem: _Problem) -> List[int]:
    counter = [0]
    search = _Search(problem, counter, None)
    while search.deficit > 0:
        best_w = -1
        best_gain = 0
        for w in range(problem.n):
            if w in search.chosen_set:
                continue
            gain = search._marginal(w)
            if gain > best_gain:
                best_w, best_gain = w, gain
        search.apply(best_w)
    return list(search.chosen)


def solve(
    g: GraphInstance, t: int, r: int, cfg: Optional[SolverConfig] = None
) -> OracleResult:
    """True gamma and a witness, by iterative-deepening branch and bound.

    The deepening starts at the counting lower bound ceil(n * r / S_max)
    with S_max the best single-tower total supply.  On budget
    exhaustion the best-known (greedy) witness is returned with
    ``proven_minimal=False`` instead of an error.
    """
    cfg = cfg or SolverConfig()
    problem = _Problem(g, t, r)
    counter = [0]
    greedy = _greedy(problem)
    upper = len(greedy)
    lower = max(1, -(-problem.n * r // problem.s_max))
    cap = upper if cfg.max_cardinality is None else min(upper, cfg.max_cardinality)
    best = greedy
    proven = False
    try:
        # The deepening always terminates at or below `upper`: a
        # dominating set of that size exists, so the search at k = upper
        # finds one.
        for k in range(lower, cap + 1):
            found = _Search(problem, counter, cfg.node_budget).dfs(k)
            if found is not None:
                best, proven = found, True
                break
    except _BudgetExhausted:
        return OracleResult(
            gamma=len(best),
            witness=problem.witness(best),
            explored_nodes=counter[0],
            proven_minimal=False,
        )
    gamma = len(best)
    if proven and cfg.canonical_witness:
        try:
            canonical = _canonical(problem, gamma, counter, cfg.node_budget)
        except _BudgetExhausted:
            canonical = None  # gamma stays proven; keep the found witness
        if canonical is not None:
            best = canonical
    return OracleResult(
        gamma=gamma,
        witness=problem.witness(best),
        explored_nodes=counter[0],
        proven_minimal=proven,
    )


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
                )
    raise Infeasible("no subset dominates; feasibility precheck should have caught this")
