import pytest

from trdom import (
    Infeasible,
    SolverConfig,
    TooLarge,
    TowerSet,
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
            for r in range(1, t + 1):
                expected = naive_enumerate(g, t, r)
                got = solve(g, t, r)
                assert got.gamma == expected.gamma
                assert got.witness == expected.witness
                assert got.proven_minimal


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

    def test_invalid_config(self):
        with pytest.raises(Exception):
            SolverConfig(max_cardinality=0)
        with pytest.raises(Exception):
            SolverConfig(node_budget=0)


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
