"""Closed-loop benchmark of the trdom command line.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 35 --trace 0

One client on one thread: each command starts when the previous one
returns.  Every command calls ``trdom.cli.main`` in-process with
``--json``; its stdout is captured and checked outside the timed region.
Whole passes of the workload run until the commands have taken
``--seconds`` in total.

``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference machine speed (see ``probe_seconds``); the report also gives
them unscaled.  ``--trace 1`` runs half the time untraced and half
traced, and prints the per-layer metrics.  The
last line of stdout is the JSON result; the lines before it are a
report.  Per-op records (and the spans of a traced run) are written to
``.perfbench-out/`` in the working directory.  The exit code is 0 only
when every command's output checked out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import deque
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3
PROBE_REF_S = 0.012  # the speed probe's time at the reference speed
PROBE_EVERY_S = 0.25  # of command time
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import trdom.cli; "
                "print(time.perf_counter() - start)")


def import_trdom():
    """Import trdom from ./src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "trdom", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/trdom not found; run from the repository root")
    sys.path.insert(0, SRC)
    import trdom
    import trdom.cli

    if not os.path.abspath(trdom.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported trdom from {trdom.__file__}, not from {SRC}")
    return trdom


def import_seconds() -> float:
    """Time ``import trdom.cli`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def probe_seconds() -> float:
    """Time a fixed pure-Python BFS: a gauge of the machine's current speed.

    On a shared VM the same command's time drifts by tens of percent over
    minutes.  The probe drifts with it (correlation 0.85-0.93 over 20 s
    windows), so times scaled by PROBE_REF_S over the run's median probe
    time vary about half as much from run to run.
    """
    n = 70
    gc.disable()
    try:
        start = perf_counter()
        adjacency = {(r, c): [(r + dr, c + dc) for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
                              if 0 <= r + dr < n and 0 <= c + dc < n]
                     for r in range(n) for c in range(n)}
        depth = {(0, 0): 0}
        queue = deque([(0, 0)])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        return perf_counter() - start
    finally:
        gc.enable()


class Harness:
    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.tracer = None  # set for the traced phase
        self.problems = []
        self.failed = 0
        self.attempted = 0
        self.records = {op.key: {"props": op.props} for op in workload.ops}
        self.scope_s = 0.0
        self.probes = []

    @contextlib.contextmanager
    def oracle_scope(self):
        """Trace a reference-oracle call made by a check, as its own root span."""
        start = perf_counter()
        if self.tracer is not None:
            self.tracer.on = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.on = False
                self.tracer.end_op()
            self.scope_s += perf_counter() - start

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = "raised:\n" + traceback.format_exc()
            latency = perf_counter() - start
        return latency, code, out.getvalue(), err.getvalue()

    def run_phase(self, seconds: float, after_pass=None):
        """Run whole passes until the commands took ``seconds``.

        Returns one list of (key, latency) per pass.
        """
        self.workload.begin_phase()
        tracer = self.tracer
        call = self._call if tracer is None else tracer.wrap("harness.op", self._call)
        passes = []
        busy = 0.0
        next_probe = 0.0
        while busy < seconds or not passes:
            latencies = []
            passes.append(latencies)
            prev = None
            for op in self.workload.ops:
                argv = op.argv(prev)
                if busy >= next_probe:
                    self.probes.append(probe_seconds())
                    next_probe = busy + PROBE_EVERY_S
                if tracer is not None:
                    tracer.op_id = self.attempted
                    tracer.on = True
                latency, code, out, err = call(argv)
                if tracer is not None:
                    tracer.on = False
                    tracer.end_op()
                    tracer.counts["cli.output_bytes"] += len(out.encode())
                self.attempted += 1
                busy += latency
                latencies.append((op.key, latency))
                field = "latency_ms" if tracer is None else "traced_latency_ms"
                self.records[op.key].setdefault(field, []).append(latency * 1000)
                if isinstance(code, str):
                    problem = f"{op.key}: {code}"
                else:
                    try:
                        problem = self.workload.check(op, code, out, self.oracle_scope)
                    except Exception as exc:  # malformed output fails the check
                        problem = f"{op.key}: check raised {exc!r}; stderr: {err.strip()}"
                if problem:
                    self.failed += 1
                    self.problems.append(problem)
                prev = out
            if after_pass is not None:
                after_pass()
        return passes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_samples, scale=1.0):
    """End-to-end metrics, with times multiplied by ``scale``."""
    times = [latency * scale for latencies in passes for _, latency in latencies]
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return {
        "setup_s": _metric(statistics.median(setup_samples) * scale, "s"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
        "op_p50_ms": _metric(statistics.median(times) * 1000, "ms"),
        "op_p90_ms": _metric(p90 * 1000, "ms"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, untraced, traced, extra):
    from spans import LAYER_OF

    calls, self_s, wall = tracer.self_times()
    shared = min(len(untraced), len(traced))
    overhead = (sum(t for _, t in traced[:shared]) / sum(t for _, t in untraced[:shared]))
    metrics = {
        "graphs.build.calls": _metric(calls["graphs.build"], "count"),
        "graphs.build.self_s": _metric(self_s["graphs.build"], "s"),
        "graphs.distances_from.calls": _metric(calls["graphs.distances_from"], "count"),
        "graphs.distances_from.self_s": _metric(self_s["graphs.distances_from"], "s"),
        "graphs.distance_entries": _metric(tracer.counts["graphs.distance_entries"], "count"),
        "reception.verify.calls": _metric(calls["reception.verify"], "count"),
        "reception.verify.self_s": _metric(self_s["reception.verify"], "s"),
        "reception.compute_reception.self_s": _metric(
            self_s["reception.compute_reception"], "s"),
        "solver.solve.calls": _metric(calls["solver.solve"], "count"),
        "solver.solve.self_s": _metric(self_s["solver.solve"], "s"),
        "solver.nodes": _metric(tracer.counts["solver.nodes"], "count"),
        "solver.canonical_s": _metric(extra.get("solver.canonical_s", 0.0), "s"),
        "solver.canonical_nodes": _metric(extra.get("solver.canonical_nodes", 0), "count"),
        "solver.naive_enumerate.self_s": _metric(self_s["solver.naive_enumerate"], "s"),
        "constructions.plan.self_s": _metric(self_s["constructions.plan"], "s"),
        "constructions.towers_in_box.calls": _metric(
            calls["constructions.towers_in_box"], "count"),
        "constructions.towers_in_box.self_s": _metric(
            self_s["constructions.towers_in_box"], "s"),
        "constructions.verify_lattice_window.self_s": _metric(
            self_s["constructions.verify_lattice_window"], "s"),
        "formulas.self_s": _metric(self_s["formulas"], "s"),
        "cli.main.calls": _metric(calls["cli.main"], "count"),
        "cli.self_s": _metric(self_s["cli.main"], "s"),
        "cli.output_bytes": _metric(tracer.counts["cli.output_bytes"], "bytes"),
        "trace.wall_s": _metric(wall, "s"),
        "trace.overhead_ratio": _metric(overhead, "ratio"),
    }
    layers = {}
    for name, seconds in self_s.items():
        layers[LAYER_OF[name]] = layers.get(LAYER_OF[name], 0.0) + seconds
    return metrics, layers, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "boards", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    trdom = import_trdom()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setup_samples = []

    def set_up():
        imported = import_seconds()
        start = perf_counter()
        workload = cls(args.seed)
        setup_samples.append(imported + perf_counter() - start)
        return workload

    for _ in range(SETUP_REPEATS):
        workload = set_up()

    problems = []
    keys = [op.key for op in workload.ops]
    if keys != [op.key for op in cls(args.seed).ops]:
        problems.append("the same seed generated different inputs")
    if keys == [op.key for op in cls(args.seed + 1).ops]:
        problems.append("another seed generated the same inputs")

    tracer = None
    harness = Harness(trdom.cli, workload)
    if args.trace:
        from spans import Tracer

        untraced = [x for p in harness.run_phase(args.seconds / 2) for x in p]
        tracer = Tracer()
        tracer.install(trdom)
        harness.tracer = tracer
        traced = [x for p in harness.run_phase(args.seconds / 2) for x in p]
        extra = workload.extra_layer_metrics([key for key, _ in traced])
        metrics, layers, wall = per_layer(tracer, untraced, traced, extra)
        clock = sum(t for _, t in traced) + harness.scope_s
        if abs(sum(layers.values()) - clock) > 0.02 * clock:
            problems.append(f"layer self times add to {sum(layers.values()):.4f} s, "
                            f"harness clock says {clock:.4f} s")
        samples = len(traced)
        unscaled = {}
    else:
        passes = harness.run_phase(args.seconds, after_pass=set_up)
        metrics = end_to_end(passes, setup_samples,
                             PROBE_REF_S / statistics.median(harness.probes))
        unscaled = end_to_end(passes, setup_samples)
        samples = sum(len(latencies) for latencies in passes)
    problems = harness.problems + problems

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": harness.records, "problems": problems}
    if tracer is not None:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        record["spans"] = [[n, s - origin, e - origin, p, o] for n, s, e, p, o in tracer.spans]
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, default=str)

    probe = statistics.median(harness.probes)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"probe={probe * 1000:.4f} ms (reference {PROBE_REF_S * 1000:g} ms)")
    report = dict(metrics)
    # Zero at a sound commit, so it cannot carry a bound (a share of the
    # median); the result line carries it as "failed" out of "attempted".
    report["failed_ratio"] = _metric(harness.failed / harness.attempted, "ratio")
    for name, metric in report.items():
        count = len(setup_samples) if name == "setup_s" else samples
        note = f"  unscaled={unscaled[name]['value']:.6g}" if name in unscaled else ""
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"samples={count}{note}")
    if tracer is not None:
        print(f"  layer self time, share of traced wall {wall:.4f} s:")
        for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            print(f"    {layer:<14} {seconds:>10.4f} s {100 * seconds / wall:6.2f}%")
    boards = [r["props"] for r in harness.records.values() if "ball_sum" in r["props"]]
    if boards:
        share = (sum(p["ball_sum"] for p in boards)
                 / sum(p["towers"] * p["V"] for p in boards))
        print(f"  local-work share sum|zone| / (towers * V): {share:.4g} "
              f"over {len(boards)} board commands")
    for problem in problems[:10]:
        print(f"  FAILED {problem}", file=sys.stderr)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": harness.attempted,
                      "failed": harness.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
