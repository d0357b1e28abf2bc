"""Explicit tower placements backing every formula and bound.

Each constructor returns a :class:`PlacementPlan` whose tower set is a
machine-checkable witness for the corresponding claim; correctness
always rests on the reception verifier, never on trust in the
construction.  Final towers that would land outside the graph are
clamped inward to the boundary, which can only shorten distances and so
preserves domination.

Row/column normalization: all emitted coordinates are (row, col) with
rows counted so that the slant diagonal joins (r, c) to (r + 1, c + 1);
placements quoted in (col, row) order elsewhere are normalized here.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .formulas import (
    BlockDims,
    HypothesisViolated,
    _ceil_div,
    _require,
    block3d_sum,
    grid_block_width,
    grid_gamma,
    grid_starting_block_dims,
    grid3d_tiling,
    king_gamma,
    path_gamma,
    slant_gamma_2xn,
    slant_tile_row,
    slant_upper_bound,
)
from .graphs import (
    METRICS,
    DominationError,
    FrozenRecord,
    GraphFamily,
    GraphInstance,
    LatticePoint,
    Vertex,
    build,
    family_from_json,
    family_to_json,
    int_from_json,
    slant_lattice_distance,
    stencil,
    vertex_to_json,
)
from .reception import TowerSet, VerificationReport, report_from_sums, verify


class UnsupportedR(DominationError):
    """No infinite king's-lattice pattern is stated for this r."""


class WindowTooSmall(DominationError):
    """The verification window cannot isolate boundary effects."""


class PlacementPlan(FrozenRecord):
    """A tower placement tied to the claim that produced it."""

    __slots__ = ("towers", "r", "theorem_tag", "claims_efficient", "graph_family")

    def __init__(self, towers: TowerSet, r: int, theorem_tag: str, claims_efficient: bool,
                 graph_family: GraphFamily):
        super().__init__(towers, r, theorem_tag, claims_efficient, graph_family)

    @property
    def t(self) -> int:
        return self.towers.t

    def __len__(self) -> int:
        return len(self.towers)

    def build_graph(self) -> GraphInstance:
        return build(self.graph_family)

    def verify(self, g: GraphInstance | None = None) -> VerificationReport:
        return verify(g or self.build_graph(), self.towers, self.r)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_tag,
            "t": self.t,
            "r": self.r,
            "towers": [vertex_to_json(w) for w in self.towers.towers],
            "claims_efficient": self.claims_efficient,
            "graph": family_to_json(self.graph_family),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlacementPlan":
        try:
            r = data["r"]
            graph = data["graph"]
        except (KeyError, TypeError) as missing:
            raise DominationError(f"plan JSON is missing {missing}")
        return cls(
            towers=TowerSet.from_json(data),
            r=int_from_json(r, "plan requirement r"),
            theorem_tag=data.get("theorem", ""),
            claims_efficient=bool(data.get("claims_efficient", False)),
            graph_family=family_from_json(graph),
        )


def _plan(family, vertices, t, r, tag, efficient=False) -> PlacementPlan:
    deduped = tuple(dict.fromkeys(vertices))
    return PlacementPlan(
        towers=TowerSet(deduped, t),
        r=r,
        theorem_tag=tag,
        claims_efficient=efficient,
        graph_family=family,
    )


def path_towers(n: int, t: int, r: int) -> PlacementPlan:
    """Towers at t - r + 1 and every 2t - r thereafter, clamped to n.

    Interior consecutive towers sit exactly 2t - r apart, so their zones
    overlap in exactly r - 1 vertices; only the final tower can clamp.
    """
    count = path_gamma(n, t, r).value
    positions = [min(n, (t - r + 1) + i * (2 * t - r)) for i in range(count)]
    efficient = count == 1 or (r == 1 and n % (2 * t - 1) == 0)
    return _plan(GraphFamily.path(n), positions, t, r, "Thm1.1", efficient)


def grid_starting_block(m: int, t: int, r: int) -> PlacementPlan:
    """Opposite-corner towers on the m-row grid starting block."""
    dims = grid_starting_block_dims(m, t, r)
    m_, width = dims.dims
    towers = [(1, 1), (m_, width)]
    return _plan(GraphFamily.grid(m_, width), towers, t, r, dims.theorem_tag, True)


def grid_towers(m: int, n: int, t: int, r: int) -> PlacementPlan:
    """Starting block towers plus one tower every width - 1 columns.

    The extra towers alternate between row 1 and row m, starting in
    row 1, and the last column clamps to n.
    """
    count = grid_gamma(m, n, t, r).value
    width = grid_block_width(m, t, r)
    towers: List[Vertex] = [(1, 1), (m, width)]
    for j in range(1, count - 1):
        col = min(n, width + j * (width - 1))
        row = 1 if j % 2 == 1 else m
        towers.append((row, col))
    return _plan(GraphFamily.grid(m, n), towers, t, r, "Thm1.2", efficient=n == width)


def block3d_towers(dims: BlockDims | Tuple[int, int, int], t: int, r: int) -> PlacementPlan:
    """Opposite-corner towers (1, 1, k) and (m, n, 1) on a 3D block.

    Every vertex of the box lies on a geodesic between these corners, so
    vertices in both zones receive exactly 2t - (q - 3) = r when the
    dimension sum q matches the starting-block sum.
    """
    triple = dims.dims if isinstance(dims, BlockDims) else tuple(dims)
    _require(len(triple) == 3 and all(d >= 1 for d in triple), f"bad block dims {triple}")
    q = sum(triple)
    _require(
        q == block3d_sum(t, r),
        f"dims {triple} sum to {q}, expected {block3d_sum(t, r)} for (t,r)=({t},{r})",
    )
    m, n, k = triple
    towers = [(1, 1, k), (m, n, 1)]
    tag = dims.theorem_tag if isinstance(dims, BlockDims) and dims.theorem_tag else "Thm4.4"
    return _plan(GraphFamily.grid3d(m, n, k), towers, t, r, tag, efficient=True)


def grid3d_cover(m: int, n: int, k: int, t: int, r: int, block: BlockDims) -> PlacementPlan:
    """Tile G_{m,n,k} with translated starting blocks, 2 towers each.

    Uses the block orientation minimizing the block count; towers of
    clipped boundary blocks are clamped inward.
    """
    blocks, (bm, bn, bk) = grid3d_tiling(m, n, k, block)
    towers: List[Vertex] = []
    for a in range(_ceil_div(m, bm)):
        for b in range(_ceil_div(n, bn)):
            for c in range(_ceil_div(k, bk)):
                oi, oj, ok = a * bm, b * bn, c * bk
                towers.append((min(m, 1 + oi), min(n, 1 + oj), min(k, bk + ok)))
                towers.append((min(m, bm + oi), min(n, bn + oj), min(k, 1 + ok)))
    plan = _plan(GraphFamily.grid3d(m, n, k), towers, t, r, "Thm1.3")
    assert len(plan) <= 2 * blocks
    return plan


def king_towers(m: int, n: int, t: int, r: int) -> PlacementPlan:
    """All towers on row ceil(m / 2), spaced 2t - r columns apart.

    The first column is t - r + 1 and the final tower clamps to column
    n.  With n = 4t - 3r + 1 this is exactly the two-tower starting
    block, placed efficiently.
    """
    count = king_gamma(m, n, t, r).value
    row = _ceil_div(m, 2)
    towers = [(row, min(n, (t - r + 1) + i * (2 * t - r))) for i in range(count)]
    efficient = count == 1 or n == 4 * t - 3 * r + 1
    tag = "Lemma5.8" if n == 4 * t - 3 * r + 1 else "Thm1.4"
    return _plan(GraphFamily.king(m, n), towers, t, r, tag, efficient)


def slant_towers_2xn(n: int, t: int, r: int) -> PlacementPlan:
    """Repeated two-tower blocks on S_{2,n}, clamped at the right edge.

    Each block spans 4t - 2r - 1 columns and holds one tower in row 2
    (column t - r + 1 of the block) and one in row 1 (2t - r - 1
    columns further right).  When the whole graph fits in a single
    tower's reach (n <= 2(t - r)) one row-1 tower at column t - r
    suffices.
    """
    count = slant_gamma_2xn(n, t, r).value
    if count == 1:
        col = max(1, min(n, t - r))
        return _plan(
            GraphFamily.slant(2, n), [(1, col)], t, r, "Lemma5.5", efficient=True
        )
    stride = 4 * t - 2 * r - 1
    towers: List[Vertex] = []
    for i in range(count):
        block, half = divmod(i, 2)
        col = (t - r + 1) + block * stride + half * (2 * t - r - 1)
        row = 2 if half == 0 else 1
        towers.append((row, min(n, col)))
    efficient = n == 4 * t - 3 * r
    tag = "Thm5.6" if efficient else "Thm5.7"
    return _plan(GraphFamily.slant(2, n), towers, t, r, tag, efficient)


class LatticePattern(NamedTuple):
    """A doubly periodic tower layout on an infinite lattice.

    ``kind`` selects both the coordinate rule and the ambient metric:
    ``king-t1`` and ``king-t2`` live on the king's lattice (Chebyshev
    distance), ``triangular`` on the slant lattice.  The pattern is
    closed under its two generating translations.
    """

    kind: str
    t: int
    r: int

    def tower_at(self, x: int, y: int) -> LatticePoint:
        t, r = self.t, self.r
        if self.kind == "king-t1":
            step = 2 * t - 1
            return (x * step, y * step)
        if self.kind == "king-t2":
            s = 2 * t - r
            return (s * x - y, x + s * y)
        a = (2 * t - r) * x + (t - r) * y
        b = t * x + (2 * t - r) * y
        # alpha1 = (-1, 0), alpha2 = (1, 1): a*alpha1 + b*alpha2.
        return (b - a, b)

    @property
    def board(self) -> str:
        """The box kind whose metric the pattern's lattice carries."""
        return "slant" if self.kind == "triangular" else "king"

    def distance(self, p: LatticePoint, q: LatticePoint) -> int:
        return METRICS[self.board]((q[0] - p[0], q[1] - p[1]))

    def basis(self) -> Tuple[LatticePoint, LatticePoint]:
        origin = self.tower_at(0, 0)
        return (
            tuple(a - o for a, o in zip(self.tower_at(1, 0), origin)),
            tuple(a - o for a, o in zip(self.tower_at(0, 1), origin)),
        )

    def towers_in_box(
        self, xmin: int, xmax: int, ymin: int, ymax: int
    ) -> List[LatticePoint]:
        """All pattern towers with coordinates inside the closed box, sorted.

        ``tower_at`` is linear in the index, so the box corners map through
        the inverse basis (integer adjugate over the determinant) to an
        index rectangle, and only that rectangle is scanned.  The cost is
        the number of towers in the box times a constant set by the basis
        shape, wherever the box lies; the arithmetic is exact integers.
        """
        if xmin > xmax or ymin > ymax:
            return []
        (ax, ay), (bx, by) = self.basis()
        ox, oy = self.tower_at(0, 0)
        det = ax * by - bx * ay
        corners = [(px - ox, py - oy) for px in (xmin, xmax) for py in (ymin, ymax)]
        x_range = _index_range([by * px - bx * py for px, py in corners], det)
        y_range = _index_range([ax * py - ay * px for px, py in corners], det)
        found = []
        for x in x_range:
            for y in y_range:
                px, py = self.tower_at(x, y)
                if xmin <= px <= xmax and ymin <= py <= ymax:
                    found.append((px, py))
        return sorted(found)


def _index_range(numerators: List[int], det: int) -> range:
    """Integers from the least floor to the greatest ceil of n / det."""
    return range(min(n // det for n in numerators),
                 max(-(-n // det) for n in numerators) + 1)


def king_lattice_pattern(t: int, r: int) -> LatticePattern:
    """Infinite king's-lattice pattern for r = 1 or r = 2."""
    if r not in (1, 2):
        raise UnsupportedR(f"king's-lattice patterns are stated for r in (1, 2), got {r}")
    _require(t > 1, f"need t > 1, got {t}")
    return LatticePattern("king-t1" if r == 1 else "king-t2", t, r)


def triangular_lattice_pattern(t: int, r: int) -> LatticePattern:
    """Triangular-lattice pattern embedded in slant coordinates."""
    _require(t >= r >= 1, f"need t >= r >= 1, got t={t}, r={r}")
    return LatticePattern("triangular", t, r)


def verify_lattice_window(
    pattern: LatticePattern, t: int, r: int, window_halfwidth: int
) -> VerificationReport:
    """Check domination and efficiency on a window interior.

    Reception on the interior subwindow (halfwidth ``window_halfwidth -
    t``) is exact because every tower within signal reach of it, inside
    the window or not, is included; the computation doubles as its own
    oracle since the lattice distances are closed forms.  Each tower adds
    the lattice's :func:`stencil` of radius t - 1, the same one that box
    boards' balls use, so the cost is towers × ball size rather than
    interior size × towers.
    """
    if pattern.t != t or pattern.r != r:
        raise HypothesisViolated(
            f"pattern is for (t, r) = ({pattern.t}, {pattern.r}), not ({t}, {r})"
        )
    if window_halfwidth < 3 * t:
        raise WindowTooSmall(
            f"window halfwidth {window_halfwidth} < 3t = {3 * t}"
        )
    inner = window_halfwidth - t
    # Both lattice metrics dominate Chebyshev distance, so every ball fits
    # in the (2t - 1)-square and every tower that reaches the interior
    # lies within t - 1 of it in each coordinate.
    signal = [(dx, dy, t - d) for dx, dy, d in stencil(pattern.board, t - 1, (t - 1, t - 1))]
    reach = inner + t - 1
    towers = pattern.towers_in_box(-reach, reach, -reach, reach)
    # Filled in sorted key order, which the report lists vertices in.
    reception = {(vx, vy): 0 for vx in range(-inner, inner + 1)
                 for vy in range(-inner, inner + 1)}
    zones = dict(reception)
    for wx, wy in towers:
        for dx, dy, gain in signal:
            v = (wx + dx, wy + dy)
            if v in reception:
                reception[v] += gain
                zones[v] += 1
    return report_from_sums(reception, zones, t, r)


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def slant_tile_cover(m: int, n: int, t: int, r: int) -> PlacementPlan:
    """Cover S_{m,n} within the tiling-table bound for (t, r).

    The primary cover clamps the infinite-pattern towers whose hexagonal
    zones reach the graph inward to the boundary; clamping never
    increases slant distance to a graph vertex, so the cover dominates
    whenever the pattern does.  The pattern packs towers slightly denser
    than the table budgets (one column per tile is pure slack), so wide
    graphs fall back to stacked horizontal strips: tile-height strips
    covered by the exact two-row layout (or a spaced middle-row layout
    for three-row tiles), which stays within the budget at any width.
    """
    _require(m >= 1 and n >= 1, f"slant dims must be positive, got ({m}, {n})")
    tile = slant_tile_row(t, r)
    bound = slant_upper_bound(m, n, t, r).value
    pattern = triangular_lattice_pattern(t, r)
    pad = t - 1
    candidates = pattern.towers_in_box(-pad, n - 1 + pad, -pad, m - 1 + pad)
    towers: List[Vertex] = []
    for wx, wy in candidates:
        cx, cy = _clamp(wx, 0, n - 1), _clamp(wy, 0, m - 1)
        if slant_lattice_distance((wx, wy), (cx, cy)) <= t - 1:
            towers.append((cy + 1, cx + 1))
    towers = sorted(dict.fromkeys(towers))
    if len(towers) > bound:
        towers = _stacked_strip_cover(m, n, t, r, tile.height)
    return _plan(GraphFamily.slant(m, n), towers, t, r, f"Table1-({t},{r})")


def _strip_layout(n: int, t: int, r: int, height: int) -> List[Vertex]:
    """Towers dominating one horizontal slant strip of the given height."""
    if height == 1:
        return [(1, w) for w in path_towers(n, t, r).towers.towers]
    if height == 2:
        return list(slant_towers_2xn(n, t, r).towers.towers)
    # Three rows: middle-row towers spaced 2(t - r) - 1 apart leave every
    # strip vertex within t - r of one of them (reception >= r).
    reach = t - r
    spacing = max(1, 2 * reach - 1)
    cols = [min(n, reach)]
    while cols[-1] + reach - 1 < n:
        cols.append(min(n, cols[-1] + spacing))
    return [(2, c) for c in cols]


def _stacked_strip_cover(m: int, n: int, t: int, r: int, height: int) -> List[Vertex]:
    towers: List[Vertex] = []
    base = 1
    while base <= m:
        strip_h = min(height, m - base + 1)
        if strip_h < height and base > 1:
            # Clamp the final strip upward instead of shrinking it.
            base = m - min(height, m) + 1
            strip_h = min(height, m)
        for row, col in _strip_layout(n, t, r, strip_h):
            towers.append((base + row - 1, col))
        base += height
    return sorted(dict.fromkeys(towers))


def cycle_towers(n: int, t: int, r: int) -> PlacementPlan:
    """Path construction reused on C_n; witnesses the cycle bound."""
    base = path_towers(n, t, r)
    return PlacementPlan(
        towers=base.towers,
        r=r,
        theorem_tag="Cor6.1",
        claims_efficient=False,
        graph_family=GraphFamily.cycle(n),
    )
