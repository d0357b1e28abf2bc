"""Span recorder for the traced benchmark run.

The tracer rebinds each layer's public entry points, including the names
other modules imported directly, with wrappers that record one span per
call: (name, start, end, parent index, op id).  Nothing inside ``src/``
is changed.  A layer's self time is its spans' durations minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# Span name -> layer.  Every span belongs to exactly one layer, so the
# layer self times add up to the wall time of the root spans.
LAYER_OF = {
    "harness.op": "harness",
    "cli.main": "cli",
    "graphs.build": "graphs",
    "graphs.distances_from": "graphs",
    "reception.verify": "reception",
    "reception.compute_reception": "reception",
    "formulas": "formulas",
    "constructions.plan": "constructions",
    "constructions.towers_in_box": "constructions",
    "constructions.verify_lattice_window": "constructions",
    "solver.solve": "solver",
    "solver.naive_enumerate": "solver",
}


class Tracer:
    """Keeps spans in memory; records only while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.op_id = -1
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._sources = {}

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if after is not None:
                after(args, result)
            return result

        return traced

    def end_op(self):
        """Drop per-op state so the op's graphs can be freed."""
        self._sources.clear()

    # -- counters fed by the wrappers ------------------------------------

    def _count_distances(self, args, result):
        graph, source = args[0], args[1]
        seen = self._sources.get(id(graph))
        if seen is None:
            # Holding the graph keeps its id unique until end_op().
            seen = self._sources[id(graph)] = (graph, set())
        if source not in seen[1]:
            seen[1].add(source)
            self.counts["graphs.distance_entries"] += len(result)

    def _count_nodes(self, args, result):
        self.counts["solver.nodes"] += result.explored_nodes

    # -- installation ----------------------------------------------------

    def install(self, trdom):
        """Rebind the public entry points of every trdom layer."""
        from trdom import cli, constructions, formulas, graphs, reception, solver

        modules = [trdom, graphs, reception, formulas, constructions, solver, cli]

        def rebind(fn, name, after=None):
            wrapper = self.wrap(name, fn, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

        def public_functions(module):
            return [value for attr, value in vars(module).items()
                    if inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__]

        graph_cls = graphs.GraphInstance
        graph_cls.distances_from = self.wrap(
            "graphs.distances_from", graph_cls.distances_from, self._count_distances)
        pattern_cls = constructions.LatticePattern
        pattern_cls.towers_in_box = self.wrap(
            "constructions.towers_in_box", pattern_cls.towers_in_box)

        rebind(graphs.build, "graphs.build")
        rebind(reception.verify, "reception.verify")
        rebind(reception.compute_reception, "reception.compute_reception")
        rebind(solver.solve, "solver.solve", self._count_nodes)
        rebind(solver.naive_enumerate, "solver.naive_enumerate")
        for fn in public_functions(formulas):
            rebind(fn, "formulas")
        for fn in public_functions(constructions):
            if fn.__name__ == "verify_lattice_window":
                rebind(fn, "constructions.verify_lattice_window")
            else:
                rebind(fn, "constructions.plan")
        rebind(cli.main, "cli.main")

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds); plus total root wall time."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        wall = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[index]
            if parent < 0:
                wall += end - start
        return calls, self_s, wall
