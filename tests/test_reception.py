import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trdom import (
    DominationError,
    GraphFamily,
    GraphInstance,
    TowerOutsideGraph,
    TowerSet,
    VerificationReport,
    broadcast_zone,
    build,
    compute_reception,
    grid_graph,
    king_graph,
    path_graph,
    slant_graph,
    slant_tile_cover,
    solve,
    verify,
)
from step_bfs import bfs_distances, step_adjacency


def test_reception_path3_center_tower():
    rep = compute_reception(path_graph(3), TowerSet((2,), 2))
    assert [rep.reception[i] for i in (1, 2, 3)] == [1, 2, 1]


def test_reception_grid_2x3_two_towers():
    g = grid_graph(2, 3)
    rep = compute_reception(g, TowerSet(((1, 1), (2, 3)), 2))
    assert min(rep.reception.values()) >= 1
    assert rep.reception[(1, 1)] == 2
    assert rep.reception[(2, 3)] == 2


def test_reception_path5_endpoint_towers():
    rep = compute_reception(path_graph(5), TowerSet((1, 5), 3))
    assert rep.reception[3] == 2


def test_verify_grid_2x3_efficient():
    report = verify(grid_graph(2, 3), TowerSet(((1, 1), (2, 3)), 2), 1)
    assert report.dominated
    assert report.efficient
    assert report.overlap_vertices == ()
    assert report.wasted_signal == 0


def test_verify_empty_tower_set():
    report = verify(path_graph(4), TowerSet((), 2), 1)
    assert not report.dominated
    assert set(report.deficient) == {1, 2, 3, 4}
    assert report.min_reception == 0


def test_verify_deficient_endpoints():
    report = verify(path_graph(5), TowerSet((3,), 2), 1)
    assert not report.dominated
    assert set(report.deficient) == {1, 5}


def test_verify_flags_r_above_t():
    # Neighboring towers of strength 1 can still reach r = 2 jointly.
    g = path_graph(2)
    report = verify(g, TowerSet((1, 2), 2), 3)
    assert report.r_exceeds_t
    assert report.dominated


def test_overlap_and_waste_accounting():
    # Towers at 2 and 4 of P_5 with t=2: vertex 3 sits in both zones.
    report = verify(path_graph(5), TowerSet((2, 4), 2), 1)
    assert report.dominated
    assert report.overlap_vertices == (3,)
    assert report.wasted_signal == 1  # reception 2 where r = 1
    assert not report.efficient
    assert report.total_excess >= report.wasted_signal


def test_tower_outside_graph():
    with pytest.raises(TowerOutsideGraph):
        compute_reception(grid_graph(2, 2), TowerSet(((3, 1),), 2))


def test_duplicate_towers_rejected():
    with pytest.raises(DominationError):
        TowerSet((1, 1), 2)


def test_zone_bound_no_signal_at_distance_t():
    g = king_graph(4, 4)
    t = 2
    rep = compute_reception(g, TowerSet(((1, 1),), t))
    for v in g.vertices:
        if g.distance(v, (1, 1)) >= t:
            assert rep.reception[v] == 0
        else:
            assert rep.reception[v] == t - g.distance(v, (1, 1))


def test_broadcast_zone_radius():
    g = grid_graph(3, 3)
    zone = broadcast_zone(g, (2, 2), 2)
    assert zone == frozenset({(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)})


_GRAPHS = [path_graph(9), grid_graph(3, 4), slant_graph(3, 4), king_graph(3, 4)]


@given(data=st.data(), gi=st.integers(min_value=0, max_value=len(_GRAPHS) - 1),
       t=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_reception_additive_over_disjoint_sets(data, gi, t):
    g = _GRAPHS[gi]
    verts = list(g.vertices)
    split = data.draw(st.integers(min_value=0, max_value=len(verts)))
    picks = data.draw(st.permutations(verts))
    a, b = tuple(picks[:split][:3]), tuple(picks[split:][:3])
    combined = compute_reception(g, TowerSet(a + b, t)).reception
    part_a = compute_reception(g, TowerSet(a, t)).reception
    part_b = compute_reception(g, TowerSet(b, t)).reception
    assert all(combined[v] == part_a[v] + part_b[v] for v in verts)


@given(data=st.data(), gi=st.integers(min_value=0, max_value=len(_GRAPHS) - 1),
       t=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_adding_a_tower_never_decreases_reception(data, gi, t):
    g = _GRAPHS[gi]
    verts = list(g.vertices)
    base = tuple(data.draw(st.permutations(verts))[:3])
    extra = data.draw(st.sampled_from([v for v in verts if v not in base]))
    before = compute_reception(g, TowerSet(base, t)).reception
    after = compute_reception(g, TowerSet(base + (extra,), t)).reception
    assert all(after[v] >= before[v] for v in verts)


def test_towers_json_round_trip():
    ts = TowerSet(((1, 2), (2, 5)), 3)
    assert TowerSet.from_json(ts.to_json()) == ts
    flat = TowerSet((2, 5), 2)
    assert TowerSet.from_json(flat.to_json()) == flat


_SIDE = st.integers(min_value=1, max_value=6)
_RANDOM_TREES = st.integers(min_value=2, max_value=14).flatmap(
    lambda n: st.tuples(*[st.integers(min_value=1, max_value=i - 1) for i in range(2, n + 1)])
).map(lambda parents: GraphFamily.tree([(p, i) for i, p in enumerate(parents, start=2)]))
_FAMILIES = st.one_of(
    st.builds(GraphFamily.path, st.integers(min_value=1, max_value=12)),
    st.builds(GraphFamily.cycle, st.integers(min_value=3, max_value=12)),
    st.builds(GraphFamily.grid, _SIDE, _SIDE),
    st.builds(GraphFamily.slant, _SIDE, _SIDE),
    st.builds(GraphFamily.king, _SIDE, _SIDE),
    st.builds(GraphFamily.grid3d, *[st.integers(min_value=1, max_value=3)] * 3),
    _RANDOM_TREES,
)


def _reference_report(g, towers, t, r):
    """The defining sums over full BFS distance vectors, written out directly."""
    adj = step_adjacency(g)
    full = [bfs_distances(adj, w) for w in towers]
    reception = {v: sum(max(0, t - dist[v]) for dist in full) for v in g.vertices}
    zones = {v: sum(1 for dist in full if dist[v] <= t - 1) for v in g.vertices}
    deficient = tuple(v for v in g.vertices if reception[v] < r)
    overlap = tuple(v for v in g.vertices if zones[v] >= 2)
    report = VerificationReport(
        dominated=not deficient,
        min_reception=min(reception.values()),
        deficient=deficient,
        overlap_vertices=overlap,
        efficient=not deficient and all(reception[v] == r for v in overlap),
        wasted_signal=sum(max(0, reception[v] - r) for v in overlap),
        total_excess=sum(max(0, reception[v] - r) for v in g.vertices),
        t=t,
        r=r,
        r_exceeds_t=r > t,
    )
    return reception, report


@given(data=st.data(), family=_FAMILIES, t=st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_ball_kernel_matches_full_bfs(data, family, t):
    g = build(family)
    adj = step_adjacency(g)
    for w in g.vertices:
        full = bfs_distances(adj, w)
        assert g.distances_from(w) == full
        assert g.ball(w, t - 1) == {v: d for v, d in full.items() if d < t}
    towers = tuple(data.draw(st.lists(st.sampled_from(g.vertices), unique=True, max_size=6)))
    r = data.draw(st.integers(min_value=1, max_value=t + 1))
    reception, report = _reference_report(g, towers, t, r)
    ts = TowerSet(towers, t)
    assert compute_reception(g, ts).reception == reception
    assert verify(g, ts, r) == report


def test_signal_paths_never_run_a_full_bfs(monkeypatch):
    def forbidden(self, source):
        raise AssertionError("full-graph BFS on the signal path")

    monkeypatch.setattr(GraphInstance, "distances_from", forbidden)
    plan = slant_tile_cover(60, 60, 2, 1)
    report = plan.verify()
    assert report.dominated
    g = plan.build_graph()
    assert min(compute_reception(g, plan.towers).reception.values()) == report.min_reception
    assert broadcast_zone(g, (30, 30), 3) == frozenset(g.ball((30, 30), 2))
    small = grid_graph(3, 4)
    result = solve(small, 2, 1)
    assert result.proven_minimal and verify(small, result.witness, 1).dominated
