"""Signal computation and domination/efficiency verification.

A tower of strength ``t`` placed at ``w`` contributes
``max(0, t - d(v, w))`` to every vertex ``v``; a tower set dominates at
requirement ``r`` when every vertex accumulates at least ``r``.  The
broadcast zone of a tower is the radius ``t - 1`` ball around it, and a
broadcast is *efficient* when every vertex lying in two or more zones
receives exactly ``r``.

Signal is summed over each tower's zone only (:meth:`GraphInstance.ball`),
so the cost grows with towers times zone size, not with the graph.
Everything here is a pure function of immutable inputs and keeps no
cache, so evaluation across many tower sets can run in parallel freely.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Tuple

from .graphs import (DominationError, FrozenRecord, GraphInstance, Vertex, int_from_json,
                     vertex_from_json, vertex_to_json)


class TowerOutsideGraph(DominationError):
    """A tower set references a vertex the target graph does not have."""


class TowerSet(FrozenRecord):
    """An ordered, duplicate-free collection of towers of strength ``t``."""

    __slots__ = ("towers", "t")

    def __init__(self, towers: Iterable[Vertex], t: int):
        towers = tuple(towers)
        if t < 1:
            raise DominationError(f"tower strength must be positive, got {t}")
        if len(set(towers)) != len(towers):
            raise DominationError("tower list contains duplicates")
        super().__init__(towers, t)

    def __len__(self) -> int:
        return len(self.towers)

    def to_json(self) -> dict:
        return {"t": self.t, "towers": [vertex_to_json(w) for w in self.towers]}

    @classmethod
    def from_json(cls, data: dict) -> "TowerSet":
        try:
            towers = data["towers"]
            t = data["t"]
        except (KeyError, TypeError) as missing:
            raise DominationError(f"tower set JSON is missing {missing}")
        if not isinstance(towers, list):
            raise DominationError(f"tower set JSON 'towers' must be a list, got {towers!r}")
        return cls(tuple(vertex_from_json(w) for w in towers),
                   int_from_json(t, "tower strength t"))


class ReceptionMap(NamedTuple):
    """Per-vertex accumulated signal for one (graph, towers, t) triple."""

    reception: Dict[Vertex, int]
    t: int
    r: int | None = None

    def minimum(self) -> int:
        return min(self.reception.values())


class VerificationReport(NamedTuple):
    """Domination and efficiency verdict for a tower set.

    ``wasted_signal`` sums the excess over ``r`` on overlap vertices
    only; ``total_excess`` is the same sum over every vertex and is
    reported as a separate diagnostic.
    """

    dominated: bool
    min_reception: int
    deficient: Tuple[Vertex, ...]
    overlap_vertices: Tuple[Vertex, ...]
    efficient: bool
    wasted_signal: int
    total_excess: int
    t: int
    r: int
    r_exceeds_t: bool

    def to_json(self) -> dict:
        return {
            "dominated": self.dominated,
            "min_reception": self.min_reception,
            "deficient": [vertex_to_json(v) for v in self.deficient],
            "overlap_vertices": [vertex_to_json(v) for v in self.overlap_vertices],
            "efficient": self.efficient,
            "wasted_signal": self.wasted_signal,
            "total_excess": self.total_excess,
            "t": self.t,
            "r": self.r,
            "r_exceeds_t": self.r_exceeds_t,
        }


def _check_towers(g: GraphInstance, ts: TowerSet) -> None:
    for w in ts.towers:
        if not g.has_vertex(w):
            raise TowerOutsideGraph(
                f"tower {w!r} lies outside {g.family.describe()}"
            )


def _accumulate(g: GraphInstance, ts: TowerSet) -> Tuple[Dict[Vertex, int], Dict[Vertex, int]]:
    """Per-vertex signal and number of covering zones, summed ball by ball."""
    _check_towers(g, ts)
    t = ts.t
    reception = dict.fromkeys(g.vertices, 0)
    zones = dict.fromkeys(g.vertices, 0)
    for w in ts.towers:
        for v, d in g.ball(w, t - 1).items():
            reception[v] += t - d
            zones[v] += 1
    return reception, zones


def compute_reception(g: GraphInstance, ts: TowerSet, r: int | None = None) -> ReceptionMap:
    """Evaluate the defining signal sum exactly, with no thresholding."""
    reception, _ = _accumulate(g, ts)
    return ReceptionMap(reception=reception, t=ts.t, r=r)


def verify(g: GraphInstance, ts: TowerSet, r: int) -> VerificationReport:
    """Check domination at requirement ``r`` and efficiency of ``ts``.

    ``r > t`` is permitted (domination can still arise from overlapping
    zones); the report flags it rather than rejecting.
    """
    if r < 1:
        raise DominationError(f"required reception must be positive, got {r}")
    reception, zones = _accumulate(g, ts)
    return report_from_sums(reception, zones, ts.t, r)


def report_from_sums(reception: Dict[Vertex, int], zones: Dict[Vertex, int],
                     t: int, r: int) -> VerificationReport:
    """The verdict for per-vertex signal sums and zone counts.

    Deficient and overlap vertices are listed in the dicts' key order.
    """
    deficient = tuple(v for v, f in reception.items() if f < r)
    overlap = tuple(v for v, z in zones.items() if z >= 2)
    dominated = not deficient
    return VerificationReport(
        dominated=dominated,
        min_reception=min(reception.values(), default=0),
        deficient=deficient,
        overlap_vertices=overlap,
        efficient=dominated and all(reception[v] == r for v in overlap),
        wasted_signal=sum(max(0, reception[v] - r) for v in overlap),
        total_excess=sum(max(0, f - r) for f in reception.values()),
        t=t,
        r=r,
        r_exceeds_t=r > t,
    )


def render_reception(
    g: GraphInstance,
    ts: TowerSet,
    col_start: int = 1,
    max_cols: int = 60,
) -> str:
    """ASCII reception grid: towers as ``T``, digits, ``+`` above 9.

    Row 1 prints first.  Columns are windowed to ``max_cols`` starting
    at ``col_start`` (1-based); 3D grids print one block per layer.
    """
    if col_start < 1 or max_cols < 1:
        raise DominationError(
            f"column window needs col_start >= 1 and max_cols >= 1, "
            f"got {col_start} and {max_cols}")
    rec = compute_reception(g, ts).reception
    towers = set(ts.towers)

    def cell(v) -> str:
        if v in towers:
            return "T"
        f = rec[v]
        return str(f) if f <= 9 else "+"

    if g.family.kind in ("path", "cycle", "tree"):
        return "".join(cell(v) for v in g.vertices[col_start - 1:col_start - 1 + max_cols])
    m, n = g.family.dims[:2]
    cols = range(col_start, min(n + 1, col_start + max_cols))
    if g.family.kind == "grid3d":
        blocks = []
        for layer in range(1, g.family.dims[2] + 1):
            rows = ["".join(cell((r, c, layer)) for c in cols) for r in range(1, m + 1)]
            blocks.append(f"layer {layer}\n" + "\n".join(rows))
        return "\n\n".join(blocks)
    return "\n".join("".join(cell((r, c)) for c in cols) for r in range(1, m + 1))
