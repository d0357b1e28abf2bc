import pytest

from trdom import (
    HypothesisViolated,
    PlacementPlan,
    TowerSet,
    block3d_dims,
    block3d_family,
    block3d_sum,
    block3d_towers,
    compute_reception,
    cycle_towers,
    cycle_upper_bound,
    grid3d_cover,
    grid_starting_block,
    grid_towers,
    grid_gamma,
    king_gamma,
    king_towers,
    naive_enumerate,
    path_gamma,
    path_graph,
    path_towers,
    slant_gamma_2xn,
    slant_graph,
    slant_tile_cover,
    slant_towers_2xn,
    verify,
)


class TestPathTowers:
    def test_examples(self):
        assert path_towers(5, 2, 1).towers.towers == (2, 5)
        assert path_towers(1, 3, 1).towers.towers == (1,)
        assert path_towers(7, 3, 2).towers.towers == (2, 6)

    def test_counts_match_formula_and_dominate(self):
        for t in range(1, 5):
            for r in range(1, t + 1):
                for n in range(1, 20):
                    plan = path_towers(n, t, r)
                    assert len(plan) == path_gamma(n, t, r).value
                    report = plan.verify()
                    assert report.dominated
                    if plan.claims_efficient:
                        assert report.efficient

    def test_interior_spacing_and_overlap(self):
        # Non-clamped consecutive towers: spacing 2t - r, zone overlap of
        # exactly r - 1 vertices, each overlap vertex at reception exactly r.
        for (n, t, r) in ((12, 3, 2), (14, 4, 3), (15, 3, 1), (16, 4, 2)):
            plan = path_towers(n, t, r)
            g = plan.build_graph()
            towers = plan.towers.towers
            reception = compute_reception(g, plan.towers).reception
            for a, b in zip(towers, towers[1:]):
                if b - a != 2 * t - r:
                    continue  # the clamped tail pair
                shared = frozenset(g.ball(a, t - 1)) & frozenset(g.ball(b, t - 1))
                assert len(shared) == r - 1
                assert all(reception[v] == r for v in shared)

    def test_overlap_at_least_r_minus_1_for_minimal_sets(self):
        # Consecutive towers of constructed and oracle-minimal path sets
        # share at least r - 1 zone vertices.
        for (n, t, r) in ((9, 3, 2), (11, 4, 3), (8, 2, 2), (10, 3, 3)):
            g = path_graph(n)
            for towers in (
                path_towers(n, t, r).towers,
                naive_enumerate(g, t, r).witness if n <= 16 else None,
            ):
                if towers is None:
                    continue
                ordered = sorted(towers.towers)
                for a, b in zip(ordered, ordered[1:]):
                    shared = frozenset(g.ball(a, t - 1)) & frozenset(g.ball(b, t - 1))
                    assert len(shared) >= r - 1


class TestGridTowers:
    def test_starting_block_examples(self):
        assert grid_starting_block(2, 2, 1).towers.towers == ((1, 1), (2, 3))
        assert grid_starting_block(2, 3, 1).towers.towers == ((1, 1), (2, 5))
        assert grid_starting_block(3, 3, 2).towers.towers == ((1, 1), (3, 3))

    def test_starting_blocks_verify_efficient(self):
        for (m, t, r) in ((2, 2, 1), (2, 3, 1), (3, 3, 2), (3, 3, 1), (4, 4, 2)):
            plan = grid_starting_block(m, t, r)
            assert plan.claims_efficient
            report = plan.verify()
            assert report.dominated and report.efficient

    def test_grid_towers_examples(self):
        assert len(grid_towers(2, 3, 2, 1)) == 2
        plan = grid_towers(2, 5, 2, 1)
        assert len(plan) == 3
        assert plan.towers.towers[2][0] == 1  # third tower in row 1
        assert len(grid_towers(3, 7, 3, 1)) == 3

    def test_counts_and_domination(self):
        for m in (2, 3):
            for (t, r) in ((2, 1), (3, 1), (3, 2), (4, 2)):
                if 2 * t - r <= m - 1:
                    continue
                width = 2 * t - r - (m - 2)
                for n in range(width, width * 4):
                    plan = grid_towers(m, n, t, r)
                    assert len(plan) == grid_gamma(m, n, t, r).value
                    assert plan.verify().dominated


class TestBlock3d:
    def test_tower_examples(self):
        assert block3d_towers(block3d_dims("2x2", 2, 1), 2, 1).towers.towers == (
            (1, 1, 2), (2, 2, 1))
        assert block3d_towers(block3d_dims("3x3", 3, 2), 3, 2).towers.towers == (
            (1, 1, 1), (3, 3, 1))
        assert block3d_towers((1, 1, 4), 2, 1).towers.towers == ((1, 1, 4), (1, 1, 1))

    def test_every_family_block_dominates_efficiently(self):
        for t in range(1, 5):
            for r in range(1, t + 1):
                for block in block3d_family(block3d_sum(t, r), t, r):
                    if block.vertex_count() > 40:
                        continue
                    plan = block3d_towers(block, t, r)
                    assert len(plan) == 2
                    report = plan.verify()
                    assert report.dominated and report.efficient

    def test_dims_sum_validated(self):
        with pytest.raises(HypothesisViolated):
            block3d_towers((2, 2, 2), 3, 1)  # (3,1) blocks sum to 8


class TestGrid3dCover:
    def test_examples(self):
        block = block3d_dims("2x2", 2, 1)
        plan = grid3d_cover(2, 2, 5, 2, 1, block)
        assert len(plan) == 6
        assert plan.verify().dominated
        assert len(grid3d_cover(2, 2, 2, 2, 1, block)) == 2
        assert len(grid3d_cover(2, 4, 2, 2, 1, block)) == 4

    def test_covers_dominate(self):
        for (dims, t, r) in (
            ((3, 3, 3), 2, 1), ((2, 5, 3), 2, 1), ((4, 4, 4), 2, 1),
            ((3, 4, 5), 3, 2), ((2, 2, 7), 2, 2),
        ):
            block = block3d_dims("2x2", t, r)
            plan = grid3d_cover(*dims, t, r, block)
            assert plan.verify().dominated


class TestKingTowers:
    def test_examples(self):
        assert king_towers(3, 6, 2, 1).towers.towers == ((2, 2), (2, 5))
        plan = king_towers(3, 10, 2, 1)
        assert len(plan) == 4
        assert all(w[0] == 2 for w in plan.towers.towers)
        assert king_towers(1, 3, 2, 1).towers.towers == ((1, 2),)

    def test_starting_block_efficient(self):
        plan = king_towers(3, 6, 2, 1)
        assert plan.claims_efficient
        report = plan.verify()
        assert report.dominated and report.efficient

    def test_counts_and_domination(self):
        for t in range(2, 5):
            for r in range(1, t):
                for m in range(1, 2 * (t - r) + 2):
                    for n in range(1, 4 * (2 * t - r)):
                        plan = king_towers(m, n, t, r)
                        assert len(plan) == king_gamma(m, n, t, r).value
                        assert plan.verify().dominated


class TestSlantTowers:
    def test_two_tower_layout_on_2x5(self):
        plan = slant_towers_2xn(5, 2, 1)
        assert plan.towers.towers == ((2, 2), (1, 4))
        report = plan.verify()
        assert report.dominated and report.efficient

    def test_examples(self):
        assert len(slant_towers_2xn(8, 2, 1)) == 4
        plan = slant_towers_2xn(2, 3, 2)
        assert len(plan) == 1
        assert plan.theorem_tag == "Lemma5.5"
        assert plan.towers.towers[0][0] == 1  # single tower on row 1

    def test_counts_and_domination(self):
        for t in range(2, 5):
            for r in range(1, t):
                for n in range(1, 3 * (4 * t - 2 * r - 1)):
                    plan = slant_towers_2xn(n, t, r)
                    assert len(plan) == slant_gamma_2xn(n, t, r).value
                    report = plan.verify()
                    assert report.dominated
                    if plan.claims_efficient:
                        assert report.efficient

    def test_single_tower_lemmas(self):
        # One bottom-row tower handles S_{2,n} whenever n <= 2(t - r).
        for t in range(2, 6):
            for r in range(1, t):
                for n in range(1, 2 * (t - r) + 1):
                    plan = slant_towers_2xn(n, t, r)
                    assert len(plan) == 1
                    assert plan.verify().dominated
        # One corner tower handles the square S_{n,n} with n = t - r + 1
        # (Lemma 5.2).
        for t in range(1, 6):
            for r in range(1, t + 1):
                n = t - r + 1
                assert verify(slant_graph(n, n), TowerSet([(1, 1)], t), r).dominated


class TestSlantTileCover:
    def test_examples(self):
        plan = slant_tile_cover(2, 8, 2, 1)
        assert len(plan) <= 5
        assert plan.verify().dominated
        assert len(slant_tile_cover(4, 8, 2, 1)) <= 10
        assert len(slant_tile_cover(2, 16, 2, 1)) <= 9

    def test_cover_reuses_corner_towers_between_tiles(self):
        # Horizontally adjacent tiles share their corner-row towers: the
        # double-width cover needs fewer than two single-tile covers.
        single = len(slant_tile_cover(2, 8, 2, 1))
        double = len(slant_tile_cover(2, 16, 2, 1))
        assert double < 2 * single

    def test_wide_and_degenerate_covers_stay_within_bound(self):
        # The raw pattern slice packs slightly denser than the table
        # budget; wide graphs must switch to the strip fallback (the
        # 2 x 40 case needs 21 towers at most, the raw slice has 23).
        from trdom import slant_upper_bound
        from trdom.formulas import SLANT_TILE_ROWS

        cases = [(2, 40, 2, 1), (4, 80, 2, 1), (6, 60, 3, 1), (3, 101, 4, 2),
                 (1, 30, 3, 2), (2, 64, 5, 4), (5, 44, 4, 3)]
        for (m, n, t, r) in cases:
            assert (t, r) in SLANT_TILE_ROWS
            plan = slant_tile_cover(m, n, t, r)
            assert plan.verify().dominated, (m, n, t, r)
            assert len(plan) <= slant_upper_bound(m, n, t, r).value, (m, n, t, r)


class TestCycleTowers:
    def test_bound_witness(self):
        for (n, t, r) in ((6, 2, 1), (3, 2, 1), (12, 3, 2), (9, 2, 2)):
            plan = cycle_towers(n, t, r)
            assert len(plan) == cycle_upper_bound(n, t, r).value
            assert plan.verify().dominated


def test_every_plan_dominates_across_families():
    plans = [
        path_towers(11, 3, 2),
        grid_starting_block(3, 4, 2),
        grid_towers(3, 9, 3, 1),
        block3d_towers((2, 3, 2), 3, 2),
        grid3d_cover(3, 3, 4, 2, 1, block3d_dims("2x2", 2, 1)),
        king_towers(3, 9, 3, 2),
        slant_towers_2xn(11, 3, 1),
        slant_tile_cover(3, 9, 2, 1),
        cycle_towers(10, 2, 1),
    ]
    for plan in plans:
        assert plan.verify().dominated, plan.theorem_tag


def test_plan_json_round_trip():
    plan = king_towers(3, 6, 2, 1)
    data = plan.to_json()
    assert data["towers"] == [[2, 2], [2, 5]]
    assert data["theorem"] == "Lemma5.8"
    back = PlacementPlan.from_json(data)
    assert back.towers == plan.towers
    assert back.graph_family == plan.graph_family
    assert back.verify().dominated
