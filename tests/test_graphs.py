import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trdom import (
    DisconnectedTree,
    GraphFamily,
    InvalidDimensions,
    UnknownVertex,
    build,
    cycle_graph,
    family_from_json,
    family_to_json,
    grid3d_graph,
    grid_graph,
    king_distance,
    king_graph,
    path_graph,
    slant_graph,
    slant_lattice_distance,
    tree_graph,
)
from step_bfs import bfs_distances, step_adjacency


def _edges_via_neighbors(g):
    """Edge count from ``neighbors``, after checking it against the unit steps."""
    adj = step_adjacency(g)
    assert {v: g.neighbors(v) for v in g.vertices} == adj
    return sum(len(nbrs) for nbrs in adj.values()) // 2


def test_grid_2x3_counts():
    g = grid_graph(2, 3)
    assert g.vertex_count == 6
    assert _edges_via_neighbors(g) == 7


def test_king_2x2_is_complete():
    g = king_graph(2, 2)
    assert g.vertex_count == 4
    assert _edges_via_neighbors(g) == 6


def test_slant_2x2_single_diagonal():
    g = slant_graph(2, 2)
    assert g.vertex_count == 4
    assert _edges_via_neighbors(g) == 5
    assert (2, 2) in g.neighbors((1, 1))
    assert (2, 1) not in g.neighbors((1, 2))


def test_edge_counts_scale_with_dims():
    m, n = 4, 6
    grid_edges = m * (n - 1) + n * (m - 1)
    assert _edges_via_neighbors(grid_graph(m, n)) == grid_edges
    assert _edges_via_neighbors(slant_graph(m, n)) == grid_edges + (m - 1) * (n - 1)
    assert _edges_via_neighbors(king_graph(m, n)) == grid_edges + 2 * (m - 1) * (n - 1)
    g = grid3d_graph(2, 3, 4)
    assert g.vertex_count == 24
    assert _edges_via_neighbors(g) == 3 * 4 + 2 * 2 * 4 + 2 * 3 * 3
    assert _edges_via_neighbors(path_graph(7)) == 6
    assert _edges_via_neighbors(cycle_graph(7)) == 7
    assert _edges_via_neighbors(cycle_graph(3)) == 3


def test_distance_examples():
    assert king_graph(5, 5).distance((1, 1), (4, 2)) == 3
    assert path_graph(7).distance(2, 2) == 0
    assert slant_graph(4, 4).distance((1, 1), (3, 3)) == 2
    assert cycle_graph(6).distance(1, 5) == 2


def test_king_lattice_distance():
    assert king_distance((0, 0), (3, 1)) == 3
    assert king_distance((0, 0), (0, 0)) == 0
    assert king_distance((-2, 5), (1, 5)) == 3


def test_slant_lattice_distance():
    assert slant_lattice_distance((0, 0), (3, 3)) == 3
    assert slant_lattice_distance((0, 0), (2, -2)) == 4
    assert slant_lattice_distance((0, 0), (0, 4)) == 4
    assert slant_lattice_distance((1, 1), (-2, -2)) == 3


def test_lattice_distances_match_bfs_windows():
    # Center a 9x9 window at the origin: lattice (x, y) -> (row y+5, col x+5).
    king = step_adjacency(king_graph(9, 9))
    slant = step_adjacency(slant_graph(9, 9))
    pts = [(0, 0), (3, 1), (-2, 3), (1, -4), (4, 4), (-3, -3), (2, -2)]
    for p in pts:
        king_bfs = bfs_distances(king, (p[1] + 5, p[0] + 5))
        slant_bfs = bfs_distances(slant, (p[1] + 5, p[0] + 5))
        for q in pts:
            assert king_distance(p, q) == king_bfs[(q[1] + 5, q[0] + 5)]
            assert slant_lattice_distance(p, q) == slant_bfs[(q[1] + 5, q[0] + 5)]


@pytest.mark.parametrize(
    "g",
    [
        path_graph(13),
        cycle_graph(9),
        grid_graph(4, 5),
        grid3d_graph(2, 3, 4),
        slant_graph(4, 6),
        king_graph(4, 6),
    ],
    ids=lambda g: g.family.describe(),
)
def test_closed_forms_equal_bfs_everywhere(g):
    adj = step_adjacency(g)
    for u in g.vertices:
        bfs = bfs_distances(adj, u)
        assert g.distances_from(u) == bfs
        for v in g.vertices:
            assert g.distance(u, v) == bfs[v]


@pytest.mark.parametrize(
    "g",
    [grid_graph(3, 4), slant_graph(3, 4), king_graph(3, 4), cycle_graph(8)],
    ids=lambda g: g.family.describe(),
)
def test_distance_is_a_metric(g):
    vs = g.vertices
    for u in vs:
        assert g.distance(u, u) == 0
        for v in vs:
            assert g.distance(u, v) == g.distance(v, u)
            for w in vs[:: max(1, len(vs) // 5)]:
                assert g.distance(u, w) <= g.distance(u, v) + g.distance(v, w)


def test_adjacency_symmetric_irreflexive_connected():
    for g in (path_graph(5), cycle_graph(4), slant_graph(3, 3), king_graph(2, 4),
              grid3d_graph(2, 2, 2), tree_graph([[1, 2], [2, 3], [2, 4]])):
        adj = {v: g.neighbors(v) for v in g.vertices}
        assert adj == step_adjacency(g)
        for v, nbrs in adj.items():
            assert v not in nbrs
            for w in nbrs:
                assert v in adj[w]
        reach = bfs_distances(adj, g.vertices[0])
        assert len(reach) == g.vertex_count


@pytest.mark.parametrize(
    "g",
    [
        path_graph(600),
        cycle_graph(600),
        grid_graph(20, 30),
        grid3d_graph(6, 10, 10),
        slant_graph(20, 30),
        king_graph(20, 30),
    ],
    ids=lambda g: g.family.describe(),
)
def test_closed_forms_equal_bfs_at_600_vertices(g):
    adj = step_adjacency(g)
    for u in g.vertices:
        bfs = bfs_distances(adj, u)
        assert g.distances_from(u) == bfs
        for v in g.vertices:
            assert g.distance(u, v) == bfs[v]


@given(
    m=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(["grid", "slant", "king"]),
)
@settings(max_examples=40, deadline=None)
def test_random_2d_closed_form_matches_bfs(m, n, kind):
    g = build(GraphFamily(kind, (m, n)))
    vs = g.vertices
    adj = step_adjacency(g)
    for u in vs[:: max(1, len(vs) // 4)]:
        bfs = bfs_distances(adj, u)
        assert g.distances_from(u) == bfs
        for v in vs:
            assert g.distance(u, v) == bfs[v]


@pytest.mark.parametrize(
    "g",
    [path_graph(3000), cycle_graph(2999), king_graph(3, 400), slant_graph(3, 3),
     grid3d_graph(2, 3, 4)],
    ids=lambda g: g.family.describe(),
)
def test_ball_beyond_the_board_is_the_whole_board(g):
    # A radius past the diameter must clip to the box, never scan a
    # (2R + 1)^dim stencil.
    for w in (g.vertices[0], g.vertices[len(g.vertices) // 2], g.vertices[-1]):
        assert g.ball(w, 10**8) == {v: g.distance(w, v) for v in g.vertices}


def test_invalid_dimensions():
    with pytest.raises(InvalidDimensions):
        path_graph(0)
    with pytest.raises(InvalidDimensions):
        grid_graph(2, -1)
    with pytest.raises(InvalidDimensions):
        cycle_graph(2)


def test_tree_validation():
    g = tree_graph([[1, 2], [2, 3], [2, 4]])
    assert g.vertex_count == 4
    assert g.distance(3, 4) == 2
    with pytest.raises(DisconnectedTree):
        tree_graph([[1, 2], [3, 4]])  # two components given 4 labels, 2 edges
    with pytest.raises(DisconnectedTree):
        tree_graph([[1, 2], [2, 3], [3, 1]])  # cycle
    with pytest.raises(DisconnectedTree):
        tree_graph([[1, 2], [2, 3], [3, 1], [4, 5]])  # n - 1 edges, a cycle and a component
    with pytest.raises(DisconnectedTree):
        tree_graph([])
    with pytest.raises(DisconnectedTree):
        tree_graph([[1, 3]])  # label gap
    # k chained 4-cycles (1 + 3k labels, 4k edges) plus k lone edges make
    # n = 1 + 5k labels and n - 1 edges.  A connectivity search that let
    # two frontier vertices both add a shared neighbour would double its
    # copies at every 4-cycle: 2^k of them after the last one.
    k = 22
    edges = []
    for i in range(k):
        a, b, c, nxt = 3 * i + 1, 3 * i + 2, 3 * i + 3, 3 * i + 4
        edges += [[a, b], [a, c], [b, nxt], [c, nxt]]
    base = 3 * k + 1
    edges += [[base + 2 * i + 1, base + 2 * i + 2] for i in range(k)]
    assert len(edges) == base + 2 * k - 1
    start = time.perf_counter()
    with pytest.raises(DisconnectedTree, match="not connected"):
        tree_graph(edges)
    assert time.perf_counter() - start < 1.0


def test_unknown_vertex():
    g = grid_graph(2, 2)
    with pytest.raises(UnknownVertex):
        g.distance((1, 1), (3, 1))
    with pytest.raises(UnknownVertex):
        g.neighbors((0, 0))


def test_family_json_round_trip():
    families = [
        GraphFamily.path(7),
        GraphFamily.cycle(5),
        GraphFamily.grid(3, 5),
        GraphFamily.grid3d(2, 2, 5),
        GraphFamily.slant(2, 8),
        GraphFamily.king(3, 6),
        GraphFamily.tree([(1, 2), (2, 3)]),
    ]
    for family in families:
        data = family_to_json(family)
        assert family_from_json(data) == family
    g = build(family_from_json({"family": "grid", "m": 3, "n": 5}))
    assert g.vertex_count == 15
    with pytest.raises(InvalidDimensions):
        family_from_json({"family": "moebius", "n": 5})
    with pytest.raises(InvalidDimensions):
        family_from_json({"family": "grid", "m": 3})
