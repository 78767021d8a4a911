"""Span tracing of the package's public functions, installed from outside.

`Tracer.install` replaces every public function of every package module, at
each module attribute that binds it, with a wrapper that records the span
(function, parent span, start, end).  The modules import names directly --
`cli.solve` is `solver.solve`, `solver.reduce` is `graphs.reduce` -- so each
binding gets its own wrapper; every wrapper of one function records under
one name, taken from the module that defines it.  Nothing in the package
changes, and `uninstall` puts every original back.

Spans live in flat arrays while the run goes and are written out at its end.
A span's self time is its duration minus its children's durations.  Each
function's self time is charged to one per-layer metric; the root's own
time is the harness's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

PACKAGE = "freeflood"
LAYERS = ("cli", "instances", "graphs", "metrics", "solver", "oracle")
ROOT = "bench.instance"

# Per-layer time metrics: the functions whose self time each one sums.
TIME_METRICS = {
    "instances.parse_ms": ("instances.parse_grid_spec", "instances.parse_graph",
                           "instances.parse_grid", "instances.parse_moves"),
    "instances.grid_graph_ms": ("instances.grid_graph",),
    "instances.digest_ms": ("instances.instance_digest",),
    "graphs.build_ms": ("graphs.build",),
    "graphs.reduce_ms": ("graphs.reduce",),
    "graphs.apply_flood_ms": ("graphs.apply_flood",),
    "graphs.contract_ms": ("graphs.contract_with_trace", "graphs.contract"),
    "metrics.radius_ms": ("metrics.radius_and_center",),
    "metrics.bfs_ms": ("metrics.bfs_distances", "metrics.eccentricity"),
    "solver.solve_self_ms": ("solver.solve",),
    "solver.verify_self_ms": ("solver.verify_solution",),
    "oracle.brute_force_ms": ("oracle.brute_force_min_moves",),
    "oracle.lemma_ms": ("oracle.check_radius_bounds", "oracle.check_distance_bounds",
                        "oracle.check_far_witness"),
}
# Public helpers whose self time belongs to whichever function called them:
# zone labelling serves both `reduce` and the oracle's state search, the
# canonical text serves the digest, the move text serves `cli`, and
# `min_moves` is part of verification.  A traced function that is in none of
# these, nor in `cli`, is charged to no metric, and the traced run fails.
INHERIT = frozenset({"graphs.monochromatic_zones", "instances.emit_graph",
                     "instances.emit_moves", "solver.min_moves", "solver.solve_reduced"})
# Call counts, per instance, of these functions.
CALL_METRICS = {
    "graphs.reduce_calls": "graphs.reduce",
    "graphs.apply_flood_calls": "graphs.apply_flood",
    "graphs.contract_calls": "graphs.contract_with_trace",
    "metrics.radius_calls": "metrics.radius_and_center",
    "metrics.bfs_calls": "metrics.bfs_distances",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """`fn` recording one span per call under `name`; the root span is one too."""
        fid = self._name_id(name)
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.partition(".")
                if home[0] != PACKAGE or home[2] not in LAYERS:
                    continue
                name = f"{home[2]}.{value.__name__}"
                self._saved.append((module, attr, value))
                setattr(module, attr, self.wrap(name, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self) -> dict:
        """Per-metric totals over all spans, the per-layer self-time split, the
        roots' own time (the harness) and the functions charged to no metric."""
        own = self.self_times()
        metric_of_name = {fn: metric for metric, fns in TIME_METRICS.items() for fn in fns}
        time_ms = {metric: 0.0 for metric in ("cli.self_ms", *TIME_METRICS)}
        calls = {metric: 0 for metric in CALL_METRICS}
        call_metric_of = {fn: metric for metric, fn in CALL_METRICS.items()}
        by_layer: dict[str, float] = {}
        span_metric: list[str | None] = []
        unmapped: set[str] = set()
        roots = 0
        root_ms = harness_ms = 0.0
        for i, fid in enumerate(self.fid):
            name = self.names[fid]
            parent = self.parent[i]
            if name == ROOT:
                roots += 1
                root_ms += (self.end[i] - self.start[i]) * 1000.0
                harness_ms += own[i] * 1000.0
                metric = None
            elif name in INHERIT and parent >= 0:
                metric = span_metric[parent]
            elif name.startswith("cli."):
                metric = "cli.self_ms"
            else:
                metric = metric_of_name.get(name)
            span_metric.append(metric)
            if metric is not None:
                time_ms[metric] += own[i] * 1000.0
            elif name != ROOT:
                unmapped.add(name)
            if name in call_metric_of:
                calls[call_metric_of[name]] += 1
            layer = name.partition(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + own[i] * 1000.0
        return {"roots": roots, "root_ms": root_ms, "harness_ms": harness_ms,
                "time_ms": time_ms, "calls": calls, "by_layer": by_layer,
                "unmapped": sorted(unmapped), "min_self_ms": min(own, default=0.0) * 1000.0}

    def write(self, path) -> None:
        """One header line naming the functions, then `fid parent start_us end_us` per span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# " + " ".join(self.names) + "\n")
            for i in range(len(self.fid)):
                handle.write(f"{self.fid[i]} {self.parent[i]} "
                             f"{(self.start[i] - t0) * 1e6:.3f} {(self.end[i] - t0) * 1e6:.3f}\n")
