"""An independent route to graph distances for the tests.

The library answers distances on box boards from closed forms and
stencils; this module rebuilds each board's edges from its kind's unit
steps and runs a plain breadth-first search over them, so tests can
compare the two.
"""

from collections import deque

# Unit steps per kind; each is linked in both directions, and a cycle
# also wraps n to 1.
STEPS = {
    "path": (1,),
    "cycle": (1,),
    "grid": ((0, 1), (1, 0)),
    "slant": ((0, 1), (1, 0), (1, 1)),
    "king": ((0, 1), (1, 0), (1, 1), (1, -1)),
    "grid3d": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


def step_adjacency(g):
    """Adjacency sets of ``g`` from its kind's unit steps (a tree's edge list)."""
    kind = g.family.kind
    adj = {v: set() for v in g.vertices}
    if kind == "tree":
        pairs = g.family.edges
    elif kind in ("path", "cycle"):
        n = g.family.dims[0]
        pairs = [(i, i % n + 1 if kind == "cycle" else i + 1) for i in g.vertices]
    else:
        pairs = [(v, tuple(a + b for a, b in zip(v, step)))
                 for v in g.vertices for step in STEPS[kind]]
    for u, w in pairs:
        if w in adj:
            adj[u].add(w)
            adj[w].add(u)
    return adj


def bfs_distances(adjacency, source):
    """Distances from ``source`` to every vertex it reaches in ``adjacency``."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist
