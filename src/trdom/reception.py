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

from dataclasses import dataclass
from typing import Dict, Tuple

from .graphs import (DominationError, GraphInstance, Vertex, int_from_json, vertex_from_json,
                     vertex_to_json)


class TowerOutsideGraph(DominationError):
    """A tower set references a vertex the target graph does not have."""


@dataclass(frozen=True)
class TowerSet:
    """An ordered, duplicate-free collection of towers of strength ``t``."""

    towers: Tuple[Vertex, ...]
    t: int

    def __post_init__(self):
        object.__setattr__(self, "towers", tuple(self.towers))
        if self.t < 1:
            raise DominationError(f"tower strength must be positive, got {self.t}")
        if len(set(self.towers)) != len(self.towers):
            raise DominationError("tower list contains duplicates")

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


@dataclass(frozen=True)
class ReceptionMap:
    """Per-vertex accumulated signal for one (graph, towers, t) triple."""

    reception: Dict[Vertex, int]
    t: int
    r: int | None = None

    def minimum(self) -> int:
        return min(self.reception.values())


@dataclass(frozen=True)
class VerificationReport:
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
    t = ts.t
    deficient = tuple(v for v in g.vertices if reception[v] < r)
    overlap = tuple(v for v in g.vertices if zones[v] >= 2)
    dominated = not deficient
    efficient = dominated and all(reception[v] == r for v in overlap)
    wasted = sum(max(0, reception[v] - r) for v in overlap)
    excess = sum(max(0, reception[v] - r) for v in g.vertices)
    return VerificationReport(
        dominated=dominated,
        min_reception=min(reception.values()) if reception else 0,
        deficient=deficient,
        overlap_vertices=overlap,
        efficient=efficient,
        wasted_signal=wasted,
        total_excess=excess,
        t=t,
        r=r,
        r_exceeds_t=r > t,
    )


def broadcast_zone(g: GraphInstance, w: Vertex, t: int) -> frozenset:
    """Vertices within distance ``t - 1`` of tower ``w``."""
    return frozenset(g.ball(w, t - 1))
