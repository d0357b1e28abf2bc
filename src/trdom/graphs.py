"""Graph families used throughout the library.

Supported families: paths P_n, cycles C_n, grid graphs G_{m,n}, 3D grids
G_{m,n,k}, slant grids S_{m,n}, king's grids K_{m,n}, and explicit trees.

Coordinate conventions
----------------------
Vertices are 1-indexed.  Paths, cycles and trees use plain integers; 2D
families use ``(row, col)`` pairs; 3D grids use ``(row, col, layer)``.
The slant grid adds one diagonal per unit cell, joining ``(r, c)`` to
``(r + 1, c + 1)``; read rows bottom-up to see the usual picture of the
slant lattice with its up-right diagonal.  The king's grid adds both
diagonals.  Infinite-lattice helpers (:func:`king_distance`,
:func:`slant_lattice_distance`) work on signed ``(x, y)`` pairs anchored
at the origin.

Distances use a closed form where one is exact (paths, cycles, grids,
slant grids, king's grids) and breadth-first search for trees.  Signal
is evaluated over depth-bounded balls (:meth:`GraphInstance.ball`), so
its cost grows with the ball, not with the graph.  Nothing is cached:
instances are immutable after :func:`build`, so concurrent reads are
safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple, Union

Vertex = Union[int, Tuple[int, int], Tuple[int, int, int]]
LatticePoint = Tuple[int, int]


class DominationError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidDimensions(DominationError):
    """A graph family was given a non-positive or unusable dimension."""


class DisconnectedTree(DominationError):
    """An explicit edge list does not describe a tree."""


class UnknownVertex(DominationError):
    """A vertex identifier does not belong to the graph."""


FAMILY_KINDS = ("path", "cycle", "grid", "grid3d", "slant", "king", "tree")


@dataclass(frozen=True)
class GraphFamily:
    """A named family plus its dimensions (or edge list for trees)."""

    kind: str
    dims: Tuple[int, ...] = ()
    edges: Tuple[Tuple[int, int], ...] = ()

    @classmethod
    def path(cls, n: int) -> "GraphFamily":
        return cls("path", (n,))

    @classmethod
    def cycle(cls, n: int) -> "GraphFamily":
        return cls("cycle", (n,))

    @classmethod
    def grid(cls, m: int, n: int) -> "GraphFamily":
        return cls("grid", (m, n))

    @classmethod
    def grid3d(cls, m: int, n: int, k: int) -> "GraphFamily":
        return cls("grid3d", (m, n, k))

    @classmethod
    def slant(cls, m: int, n: int) -> "GraphFamily":
        return cls("slant", (m, n))

    @classmethod
    def king(cls, m: int, n: int) -> "GraphFamily":
        return cls("king", (m, n))

    @classmethod
    def tree(cls, edges: Iterable[Sequence[int]]) -> "GraphFamily":
        try:
            pairs = tuple((int(a), int(b)) for a, b in edges)
        except (TypeError, ValueError, OverflowError):
            raise DisconnectedTree(f"tree edges must be integer pairs, got {edges!r}") from None
        return cls("tree", (), pairs)

    def describe(self) -> str:
        if self.kind == "tree":
            return f"tree({len(self.edges) + 1}v)"
        return f"{self.kind}({', '.join(map(str, self.dims))})"


@dataclass
class GraphInstance:
    """A concrete finite graph with adjacency and distance access.

    Adjacency is symmetric and irreflexive and the graph is connected;
    both are guaranteed by :func:`build`.  Vertices are kept in
    row-major order, which every deterministic ordering in the package
    (solver branching, canonical witnesses) relies on.
    """

    family: GraphFamily
    vertices: Tuple[Vertex, ...]
    adjacency: Dict[Vertex, FrozenSet[Vertex]]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def has_vertex(self, v: Vertex) -> bool:
        return v in self.adjacency

    def require_vertex(self, v: Vertex) -> None:
        if v not in self.adjacency:
            raise UnknownVertex(f"{v!r} is not a vertex of {self.family.describe()}")

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        self.require_vertex(v)
        return self.adjacency[v]

    def ball(self, source: Vertex, radius: int) -> Dict[Vertex, int]:
        """Distances from ``source`` to every vertex within ``radius``.

        A breadth-first search that stops after ``radius`` levels; a
        tower of strength ``t`` reaches exactly ``ball(w, t - 1)``.  The
        ball is empty for a negative radius.
        """
        self.require_vertex(source)
        if radius < 0:
            return {}
        adjacency = self.adjacency
        dist = {source: 0}
        frontier = [source]
        for d in range(1, radius + 1):
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt
        return dist

    def distances_from(self, source: Vertex) -> Dict[Vertex, int]:
        """All shortest-path lengths from ``source``, by a full BFS."""
        return self.ball(source, len(self.vertices))

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Shortest-path distance, via closed form where one is exact."""
        self.require_vertex(u)
        self.require_vertex(v)
        kind = self.family.kind
        if kind == "path":
            return abs(u - v)
        if kind == "cycle":
            n = self.family.dims[0]
            d = abs(u - v)
            return min(d, n - d)
        if kind == "grid":
            return abs(u[0] - v[0]) + abs(u[1] - v[1])
        if kind == "grid3d":
            return sum(abs(a - b) for a, b in zip(u, v))
        if kind == "slant":
            return slant_lattice_distance(u, v)
        if kind == "king":
            return king_distance(u, v)
        # Trees have no closed form; tests assert the others agree with BFS.
        return self.distances_from(u)[v]


def slant_lattice_distance(p: LatticePoint, q: LatticePoint) -> int:
    """Distance between two points of the infinite slant lattice.

    The lattice has unit steps along both axes plus the (+1, +1)
    diagonal, so displacements whose components share a sign ride the
    diagonal (Chebyshev cost) while opposing components pay the full
    Manhattan cost.
    """
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    if dx * dy > 0:
        return max(abs(dx), abs(dy))
    return abs(dx) + abs(dy)


def king_distance(p: LatticePoint, q: LatticePoint) -> int:
    """Chebyshev distance max(|dx|, |dy|) on the infinite king's lattice."""
    return max(abs(q[0] - p[0]), abs(q[1] - p[1]))


def _check_dims(family: GraphFamily, count: int, minimum: int = 1) -> Tuple[int, ...]:
    dims = family.dims
    if len(dims) != count:
        raise InvalidDimensions(
            f"{family.kind} expects {count} dimension(s), got {dims!r}"
        )
    for d in dims:
        if not isinstance(d, int) or d < minimum:
            raise InvalidDimensions(f"{family.kind} dimension {d!r} must be >= {minimum}")
    return dims


def _tree_adjacency(family: GraphFamily) -> Dict[Vertex, set]:
    edges = family.edges
    if not edges:
        raise DisconnectedTree("tree requires at least one edge")
    labels = sorted({v for e in edges for v in e})
    if labels[0] < 1:
        raise DisconnectedTree("tree labels must be positive integers")
    n = labels[-1]
    if labels != list(range(1, n + 1)):
        raise DisconnectedTree("tree labels must cover 1..max without gaps")
    if len(edges) != n - 1:
        raise DisconnectedTree(f"tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    adj: Dict[Vertex, set] = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        if a == b or b in adj[a]:
            raise DisconnectedTree(f"bad tree edge ({a}, {b})")
        adj[a].add(b)
        adj[b].add(a)
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != n:
        raise DisconnectedTree("edge list is not connected")
    return adj


def build(family: GraphFamily) -> GraphInstance:
    """Construct the concrete graph for ``family``.

    Raises :class:`InvalidDimensions` for non-positive dimensions (or a
    cycle shorter than 3) and :class:`DisconnectedTree` when an explicit
    edge list is not a tree.
    """
    kind = family.kind
    adj: Dict[Vertex, set]
    if kind == "path":
        (n,) = _check_dims(family, 1)
        adj = {i: set() for i in range(1, n + 1)}
        for i in range(1, n):
            adj[i].add(i + 1)
            adj[i + 1].add(i)
    elif kind == "cycle":
        (n,) = _check_dims(family, 1, minimum=3)
        adj = {i: set() for i in range(1, n + 1)}
        for i in range(1, n + 1):
            j = i % n + 1
            adj[i].add(j)
            adj[j].add(i)
    elif kind in ("grid", "slant", "king"):
        m, n = _check_dims(family, 2)
        adj = {(r, c): set() for r in range(1, m + 1) for c in range(1, n + 1)}
        diagonals = {"grid": (), "slant": ((1, 1),), "king": ((1, 1), (1, -1))}[kind]
        steps = ((0, 1), (1, 0)) + diagonals
        for r, c in list(adj):
            for dr, dc in steps:
                w = (r + dr, c + dc)
                if w in adj:
                    adj[(r, c)].add(w)
                    adj[w].add((r, c))
    elif kind == "grid3d":
        m, n, k = _check_dims(family, 3)
        adj = {
            (r, c, l): set()
            for r in range(1, m + 1)
            for c in range(1, n + 1)
            for l in range(1, k + 1)
        }
        for r, c, l in list(adj):
            for w in ((r + 1, c, l), (r, c + 1, l), (r, c, l + 1)):
                if w in adj:
                    adj[(r, c, l)].add(w)
                    adj[w].add((r, c, l))
    elif kind == "tree":
        adj = _tree_adjacency(family)
    else:
        raise InvalidDimensions(f"unknown family kind {kind!r}")

    vertices = tuple(sorted(adj))
    frozen = {v: frozenset(adj[v]) for v in vertices}
    return GraphInstance(family=family, vertices=vertices, adjacency=frozen)


def path_graph(n: int) -> GraphInstance:
    return build(GraphFamily.path(n))


def cycle_graph(n: int) -> GraphInstance:
    return build(GraphFamily.cycle(n))


def grid_graph(m: int, n: int) -> GraphInstance:
    return build(GraphFamily.grid(m, n))


def grid3d_graph(m: int, n: int, k: int) -> GraphInstance:
    return build(GraphFamily.grid3d(m, n, k))


def slant_graph(m: int, n: int) -> GraphInstance:
    return build(GraphFamily.slant(m, n))


def king_graph(m: int, n: int) -> GraphInstance:
    return build(GraphFamily.king(m, n))


def tree_graph(edges: Iterable[Sequence[int]]) -> GraphInstance:
    return build(GraphFamily.tree(edges))


_DIM_NAMES = {"path": ("n",), "cycle": ("n",), "grid": ("m", "n"),
              "slant": ("m", "n"), "king": ("m", "n"), "grid3d": ("m", "n", "k")}


def family_to_json(family: GraphFamily) -> dict:
    if family.kind == "tree":
        return {"family": "tree", "edges": [list(e) for e in family.edges]}
    names = _DIM_NAMES[family.kind]
    out = {"family": family.kind}
    out.update(dict(zip(names, family.dims)))
    return out


def family_from_json(data: dict) -> GraphFamily:
    try:
        kind = data["family"]
    except (KeyError, TypeError):
        raise InvalidDimensions("graph JSON needs a 'family' key")
    if kind == "tree":
        return GraphFamily.tree(data.get("edges", []))
    if not isinstance(kind, str) or kind not in _DIM_NAMES:
        raise InvalidDimensions(f"unknown family {kind!r}")
    try:
        dims = tuple(int_from_json(data[name], f"{kind} dimension {name}", InvalidDimensions)
                     for name in _DIM_NAMES[kind])
    except KeyError as missing:
        raise InvalidDimensions(f"{kind} JSON is missing dimension {missing}")
    return GraphFamily(kind, dims)


def graph_from_json(data: dict) -> GraphInstance:
    return build(family_from_json(data))


def vertex_to_json(v: Vertex):
    return list(v) if isinstance(v, tuple) else v


def int_from_json(value, what: str, error: type = DominationError) -> int:
    """``int(value)`` for a JSON field; bad input raises ``error`` with a message."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be an integer, got {value!r}") from None


def vertex_from_json(item) -> Vertex:
    if isinstance(item, list):
        if len(item) not in (2, 3):
            raise UnknownVertex(f"bad vertex JSON {item!r}")
        return tuple(int_from_json(x, "vertex coordinate", UnknownVertex) for x in item)
    return int_from_json(item, "vertex", UnknownVertex)
