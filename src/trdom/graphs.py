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

Every family but the tree is a box board, and every box board is
metrically convex: a shortest path between two of its vertices stays in
the box.  So its distance is a closed form (:data:`METRICS`), and the
ball a tower reaches is the kind's offset :func:`stencil` moved to the
tower and clipped to the box.  Box boards hold no adjacency; only trees
do, and only trees run a breadth-first search.  Signal is evaluated over
balls (:meth:`GraphInstance.ball`), so its cost grows with the ball, not
with the graph.  Instances are immutable after :func:`build` and the
stencil cache holds immutable tuples, so concurrent reads are safe.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import sub
from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

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


class Record:
    """A slotted record, compared and shown by the fields in ``__slots__``.

    ``__init__`` takes the field values in ``__slots__`` order.  Records
    of one class are equal when their ``_key()`` values are; a plain
    record is mutable and unhashable.  Immutable values without extra
    behaviour are ``NamedTuple`` instead.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A hashable record whose fields are never reassigned after ``__init__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen; cannot delete {name!r}")


# Each family kind and the names of its dimensions; a tree is given by its
# edge list instead.
FAMILY_DIMS = {"path": ("n",), "cycle": ("n",), "grid": ("m", "n"), "grid3d": ("m", "n", "k"),
               "slant": ("m", "n"), "king": ("m", "n"), "tree": ()}


class GraphFamily(NamedTuple):
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


class GraphInstance(Record):
    """A concrete finite graph with membership, ball and distance access.

    Only a tree holds an ``adjacency`` (symmetric and irreflexive); box
    boards answer from :func:`stencil` and :data:`METRICS`.  Vertices are
    kept in row-major order, which solver branching and canonical
    witnesses rely on.
    """

    __slots__ = ("family", "vertices", "members", "adjacency")

    def __init__(self, family: GraphFamily, vertices: Tuple[Vertex, ...],
                 members: FrozenSet[Vertex],
                 adjacency: Optional[Dict[Vertex, FrozenSet[Vertex]]] = None):
        super().__init__(family, vertices, members, adjacency)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def has_vertex(self, v: Vertex) -> bool:
        return v in self.members

    def require_vertex(self, v: Vertex) -> None:
        if v not in self.members:
            raise UnknownVertex(f"{v!r} is not a vertex of {self.family.describe()}")

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        """The vertices at distance 1: the radius-1 ball minus ``v``."""
        return frozenset(self.ball(v, 1)).difference((v,))

    def ball(self, source: Vertex, radius: int) -> Dict[Vertex, int]:
        """Distances from ``source`` to every vertex within ``radius``.

        A tower of strength ``t`` reaches exactly ``ball(w, t - 1)``; the
        ball is empty for a negative radius.  On a box board it is the
        kind's stencil moved to ``source`` and clipped to the box (taken
        modulo n on a cycle).  The stencil spans at most the box's extent
        on each side, so even a huge radius costs O(2^dim V).  On a tree
        it is a breadth-first search that stops after ``radius`` levels.
        """
        self.require_vertex(source)
        if radius < 0:
            return {}
        if self.adjacency is not None:
            dist = {source: 0}
            frontier = [source]
            for d in range(1, radius + 1):
                nxt = []
                for u in frontier:
                    for w in self.adjacency[u]:
                        if w not in dist:
                            dist[w] = d
                            nxt.append(w)
                if not nxt:
                    break
                frontier = nxt
            return dist
        kind, dims = self.family.kind, self.family.dims
        offsets = _box_stencil(kind, radius, dims)
        if kind == "cycle":
            (n,) = dims
            return {(source + dx - 1) % n + 1: d for dx, d in offsets}
        if kind == "path":
            (n,) = dims
            return {source + dx: d for dx, d in offsets if 0 < source + dx <= n}
        if len(dims) == 2:
            (r, c), (m, n) = source, dims
            return {(r + dr, c + dc): d for dr, dc, d in offsets
                    if 0 < r + dr <= m and 0 < c + dc <= n}
        (r, c, l), (m, n, k) = source, dims
        return {(r + dr, c + dc, l + dl): d for dr, dc, dl, d in offsets
                if 0 < r + dr <= m and 0 < c + dc <= n and 0 < l + dl <= k}

    def distances_from(self, source: Vertex) -> Dict[Vertex, int]:
        """All shortest-path lengths from ``source``: closed forms or a tree's BFS."""
        return self.ball(source, len(self.vertices))

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Shortest-path distance: the kind's metric, or BFS on a tree."""
        self.require_vertex(u)
        self.require_vertex(v)
        kind = self.family.kind
        if kind == "tree":
            return self.distances_from(u)[v]
        offset = tuple(map(sub, v, u)) if isinstance(u, tuple) else (v - u,)
        d = METRICS[kind](offset)
        return min(d, self.family.dims[0] - d) if kind == "cycle" else d


def slant_lattice_distance(p: LatticePoint, q: LatticePoint) -> int:
    """Distance between two points of the infinite slant lattice.

    The lattice has unit steps along both axes plus the (+1, +1)
    diagonal, so displacements whose components share a sign ride the
    diagonal (Chebyshev cost) while opposing components pay the full
    Manhattan cost.
    """
    return METRICS["slant"]((q[0] - p[0], q[1] - p[1]))


def king_distance(p: LatticePoint, q: LatticePoint) -> int:
    """Chebyshev distance max(|dx|, |dy|) on the infinite king's lattice."""
    return METRICS["king"]((q[0] - p[0], q[1] - p[1]))


def _manhattan(offset: Tuple[int, ...]) -> int:
    return sum(map(abs, offset))


def _chebyshev(offset: Tuple[int, ...]) -> int:
    return max(map(abs, offset))


def _slant(offset: Tuple[int, ...]) -> int:
    dx, dy = offset
    return max(abs(dx), abs(dy)) if dx * dy > 0 else abs(dx) + abs(dy)


# Each box kind's metric on a displacement (a 1-tuple for paths and
# cycles); a cycle also takes the shorter way round.  Box boards are
# metrically convex, so this is the graph distance inside the box.
METRICS = {"path": _manhattan, "cycle": _manhattan, "grid": _manhattan, "grid3d": _manhattan,
           "slant": _slant, "king": _chebyshev}


@lru_cache(maxsize=256)
def stencil(kind: str, radius: int, extents: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Every offset within ``radius`` of the origin under ``kind``'s metric.

    Each entry is the offset's coordinates followed by its distance, in
    lexicographic order.  Coordinate i is scanned over ``[-extents[i],
    extents[i]]`` only, so callers clip it to the box they serve.
    """
    metric = METRICS[kind]
    offsets = product(*(range(-e, e + 1) for e in extents))
    return tuple(o + (metric(o),) for o in offsets if metric(o) <= radius)


@lru_cache(maxsize=1024)
def _box_stencil(kind: str, radius: int, dims: Tuple[int, ...]) -> tuple:
    """The stencil of a radius-``radius`` ball on a ``dims`` box, each
    coordinate clipped to the farthest offset the box can hold."""
    reach = tuple(d // 2 if kind == "cycle" else d - 1 for d in dims)
    return stencil(kind, radius, tuple(min(e, radius) for e in reach))


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
    return adj


def build(family: GraphFamily) -> GraphInstance:
    """Construct the concrete graph for ``family``.

    Raises :class:`InvalidDimensions` for non-positive dimensions (or a
    cycle shorter than 3) and :class:`DisconnectedTree` when an explicit
    edge list is not a tree.
    """
    kind = family.kind
    if kind == "tree":
        adj = _tree_adjacency(family)
        vertices = tuple(sorted(adj))
        tree = GraphInstance(family, vertices, frozenset(vertices),
                             {v: frozenset(adj[v]) for v in vertices})
        if len(tree.ball(1, len(vertices))) != len(vertices):
            raise DisconnectedTree("edge list is not connected")
        return tree
    if kind not in FAMILY_DIMS:
        raise InvalidDimensions(f"unknown family kind {kind!r}")
    dims = _check_dims(family, len(FAMILY_DIMS[kind]), minimum=3 if kind == "cycle" else 1)
    if len(dims) == 1:
        vertices = tuple(range(1, dims[0] + 1))
    else:
        vertices = tuple(product(*(range(1, d + 1) for d in dims)))
    return GraphInstance(family, vertices, frozenset(vertices))


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


def family_to_json(family: GraphFamily) -> dict:
    if family.kind == "tree":
        return {"family": "tree", "edges": [list(e) for e in family.edges]}
    names = FAMILY_DIMS[family.kind]
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
    if not isinstance(kind, str) or kind not in FAMILY_DIMS:
        raise InvalidDimensions(f"unknown family {kind!r}")
    try:
        dims = tuple(int_from_json(data[name], f"{kind} dimension {name}", InvalidDimensions)
                     for name in FAMILY_DIMS[kind])
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
