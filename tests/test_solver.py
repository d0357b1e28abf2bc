import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trdom import (
    GraphFamily,
    Infeasible,
    SolverConfig,
    TooLarge,
    TowerSet,
    build,
    cycle_graph,
    grid_graph,
    grid3d_graph,
    king_graph,
    naive_enumerate,
    path_graph,
    slant_graph,
    solve,
    tree_graph,
    verify,
)
from trdom.solver import _Problem, _Search


class TestSolve:
    def test_examples(self):
        assert solve(path_graph(5), 2, 1).gamma == 2
        assert solve(grid_graph(2, 3), 2, 1).gamma == 2
        assert solve(king_graph(3, 6), 2, 1).gamma == 2

    def test_witness_dominates_and_is_minimal(self):
        for (g, t, r) in (
            (grid_graph(3, 4), 2, 1),
            (slant_graph(2, 7), 3, 2),
            (cycle_graph(9), 2, 2),
            (tree_graph([[1, 2], [2, 3], [2, 4], [4, 5]]), 2, 1),
        ):
            result = solve(g, t, r)
            assert result.proven_minimal
            assert verify(g, result.witness, r).dominated
            assert len(result.witness) == result.gamma
            for drop in result.witness.towers:
                remaining = tuple(w for w in result.witness.towers if w != drop)
                assert not verify(g, TowerSet(remaining, t), r).dominated

    def test_explored_nodes_positive_and_deterministic(self):
        first = solve(grid_graph(3, 3), 2, 1)
        second = solve(grid_graph(3, 3), 2, 1)
        assert first.explored_nodes == second.explored_nodes > 0
        assert first.witness == second.witness


class TestNaiveEnumerate:
    def test_examples(self):
        # P_4 at (2, 2): no 2-subset reaches reception 2 everywhere (the
        # formula agrees: ceil((4 + 1) / 2) = 3).
        assert naive_enumerate(path_graph(4), 2, 2).gamma == 3
        assert naive_enumerate(cycle_graph(3), 2, 1).gamma == 1
        assert naive_enumerate(path_graph(1), 1, 1).gamma == 1

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            naive_enumerate(path_graph(17), 2, 1)

    def test_witness_is_lex_least(self):
        result = naive_enumerate(path_graph(6), 2, 1)
        assert result.gamma == 2
        assert result.witness.towers == (2, 5)  # no 2-set lex-before (2, 5) works


class TestAgreement:
    @pytest.mark.parametrize(
        "g",
        [
            path_graph(8),
            cycle_graph(7),
            grid_graph(2, 6),
            grid_graph(2, 8),
            grid_graph(3, 4),
            grid3d_graph(2, 2, 3),
            grid3d_graph(2, 2, 4),
            slant_graph(3, 4),
            king_graph(3, 4),
            king_graph(4, 4),
            tree_graph([[1, 2], [2, 3], [3, 4], [2, 5], [5, 6], [1, 7]]),
        ],
        ids=lambda g: g.family.describe(),
    )
    def test_solve_matches_naive_with_canonical_witness(self, g):
        for t in range(1, 5):
            for r in range(1, t + 2):
                _assert_agree(g, t, r)


def _assert_agree(g, t, r):
    try:
        expected = naive_enumerate(g, t, r)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve(g, t, r)
        return
    got = solve(g, t, r)
    assert got.gamma == expected.gamma
    assert got.witness == expected.witness
    assert got.proven_minimal and got.canonical


@st.composite
def _small_families(draw):
    """Every family kind with at most 16 vertices, random trees included."""
    kind = draw(st.sampled_from(["path", "cycle", "grid", "slant", "king", "grid3d", "tree"]))
    if kind == "path":
        return GraphFamily.path(draw(st.integers(1, 16)))
    if kind == "cycle":
        return GraphFamily.cycle(draw(st.integers(3, 16)))
    if kind == "tree":
        n = draw(st.integers(2, 16))
        parents = [draw(st.integers(1, i - 1)) for i in range(2, n + 1)]
        return GraphFamily.tree([[p, i] for i, p in enumerate(parents, start=2)])
    if kind == "grid3d":
        m = draw(st.integers(1, 2))
        n = draw(st.integers(1, 8 // m))
        return GraphFamily(kind, (m, n, draw(st.integers(1, 16 // (m * n)))))
    m = draw(st.integers(1, 4))
    return GraphFamily(kind, (m, draw(st.integers(1, 16 // m))))


@given(family=_small_families(), t=st.integers(1, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_naive_on_random_small_graphs(family, t, data):
    _assert_agree(build(family), t, data.draw(st.integers(1, t + 1)))


class TestSearchState:
    def _snapshot(self, search):
        return (list(search.reception), search.deficit, list(search.blocked),
                list(search.open_), list(search.chosen))

    @pytest.mark.parametrize("g, t, r", [
        (grid_graph(4, 5), 2, 1), (grid3d_graph(2, 3, 4), 2, 2), (king_graph(4, 4), 2, 1),
    ])
    def test_failed_dfs_restores_state(self, g, t, r):
        problem = _Problem(g, t, r)
        gamma = solve(g, t, r).gamma
        search = _Search(problem, [0], None)
        search.apply(0)
        search.block(1)  # as the canonical scan leaves a rejected tower
        before = self._snapshot(search)
        assert search.dfs(gamma - 2) is None
        assert search.counter[0] > 1  # it branched before failing
        assert self._snapshot(search) == before

    def test_open_counts_match_blocked(self):
        problem = _Problem(grid_graph(3, 4), 2, 1)
        search = _Search(problem, [0], None)
        for w in (0, 5, 7):
            search.apply(w)
        search.block(2)
        for v, zone in enumerate(problem.zone):
            assert search.open_[v] == sum(not search.blocked[w] for w in zone)


class TestNodeGuards:
    """Deterministic node budgets that catch an exponential search tail."""

    def test_grid_5x6_r_above_t(self):
        # About 2.9k nodes; branching on the least reception alone takes 9.1M.
        result = solve(grid_graph(5, 6), 2, 3, SolverConfig(node_budget=50_000))
        assert result.proven_minimal and result.canonical
        assert result.gamma == 20

    def test_grid_7x7_heavy_tail(self):
        # About 5.1k nodes with the canonical witness; branching on the
        # least reception with an uncapped supply bound takes 61.6k.
        result = solve(grid_graph(7, 7), 2, 1, SolverConfig(node_budget=15_000))
        assert result.proven_minimal and result.canonical
        assert result.gamma == 12


class TestMonotoneUnderEdgeAddition:
    def test_king_le_slant_le_grid(self):
        # Denser adjacency can only shorten distances, so gamma shrinks.
        for (m, n) in ((2, 4), (3, 4), (2, 6), (3, 3)):
            for t in range(1, 4):
                for r in range(1, t + 1):
                    grid = solve(grid_graph(m, n), t, r).gamma
                    slant = solve(slant_graph(m, n), t, r).gamma
                    king = solve(king_graph(m, n), t, r).gamma
                    assert king <= slant <= grid


class TestConfig:
    def test_budget_exhaustion_returns_unproven_witness(self):
        g = grid_graph(3, 5)
        result = solve(g, 2, 1, SolverConfig(node_budget=3))
        assert not result.proven_minimal
        assert verify(g, result.witness, 1).dominated
        assert result.gamma == len(result.witness)
        assert solve(g, 2, 1).gamma <= result.gamma

    def test_max_cardinality_below_gamma(self):
        g = grid_graph(3, 5)
        result = solve(g, 2, 1, SolverConfig(max_cardinality=2))
        assert not result.proven_minimal
        assert verify(g, result.witness, 1).dominated

    def test_non_canonical_still_minimal(self):
        g = grid_graph(2, 5)
        result = solve(g, 2, 1, SolverConfig(canonical_witness=False))
        assert result.gamma == 3
        assert verify(g, result.witness, 1).dominated

    def test_budget_in_canonical_phase_reports_non_canonical_witness(self):
        g = slant_graph(6, 6)
        full = solve(g, 3, 2, SolverConfig(node_budget=None))
        assert full.canonical
        assert full.witness.towers == ((1, 1), (1, 5), (4, 5), (5, 1), (5, 4))
        phases = full.stats["phases"]
        budget = phases["deepening"]["nodes"] + phases["canonical"]["nodes"] // 2
        cut = solve(g, 3, 2, SolverConfig(node_budget=budget))
        assert cut.proven_minimal and cut.gamma == full.gamma
        assert not cut.canonical
        assert cut.stats["budget_exhausted_in"] == "canonical"
        assert verify(g, cut.witness, 2).dominated
        assert cut.to_json()["canonical"] is False

    def test_budget_in_deepening(self):
        result = solve(grid_graph(3, 5), 2, 1, SolverConfig(node_budget=3))
        assert not result.proven_minimal and not result.canonical
        assert result.stats["budget_exhausted_in"] == "deepening"
        assert result.stats["phases"]["canonical"]["nodes"] == 0

    def test_non_canonical_run_says_so(self):
        result = solve(grid_graph(2, 5), 2, 1, SolverConfig(canonical_witness=False))
        assert result.proven_minimal and not result.canonical

    def test_invalid_config(self):
        with pytest.raises(Exception):
            SolverConfig(max_cardinality=0)
        with pytest.raises(Exception):
            SolverConfig(node_budget=0)


class TestStats:
    @pytest.mark.parametrize("g, t, r", [
        (grid_graph(4, 5), 2, 1), (slant_graph(5, 5), 3, 2), (cycle_graph(12), 3, 4),
    ])
    def test_stats_add_up(self, g, t, r):
        result = solve(g, t, r)
        stats = result.stats
        phases = stats["phases"]
        assert set(phases) == {"greedy", "deepening", "canonical"}
        assert result.explored_nodes == sum(p["nodes"] for p in phases.values())
        assert all(p["seconds"] >= 0 for p in phases.values())
        levels = stats["levels"]
        assert [level["k"] for level in levels] == list(
            range(stats["lower_bound"], result.gamma + 1))
        assert sum(level["nodes"] for level in levels) == phases["deepening"]["nodes"]
        assert stats["lower_bound"] <= result.gamma <= stats["upper_bound"]
        assert stats["budget_exhausted_in"] is None

    def test_capped_supply_lower_bound(self):
        # An interior tower at (3, 1) covers 13 cells, each capped at r = 1:
        # ceil(49 / 13) = 4, where the uncapped supply 3 + 2*4 + 8 gives 3.
        assert solve(grid_graph(7, 7), 3, 1).stats["lower_bound"] == 4


class TestInfeasible:
    def test_single_vertex_r_above_t(self):
        with pytest.raises(Infeasible):
            solve(path_graph(1), 1, 2)
        with pytest.raises(Infeasible):
            naive_enumerate(path_graph(1), 1, 2)

    def test_r_above_t_can_still_dominate(self):
        # Two adjacent strength-2 towers give reception 3 at both ends.
        result = solve(path_graph(2), 2, 3)
        assert result.gamma == 2

    def test_oracle_result_json(self):
        data = solve(path_graph(5), 2, 1).to_json()
        assert data["gamma"] == 2
        assert data["witness"] == [1, 4]  # lex-least witness, unlike the
        assert data["proven_minimal"] is True  # construction's (2, 5)
