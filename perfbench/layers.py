"""Per-layer timing for the traced run, from the benchmark's own files.

While installed, :class:`Tracer` replaces the public functions each
layer exposes with timing wrappers (restored on exit) and enables the
program's ``repro.obs`` metrics to read its generator and engine
counters. The untraced run installs nothing and leaves metrics off.

A layer called in the timed loop is reported per op; a layer that only
runs in set-up (graph generation in ``auto_count``, the model in
``sim_cell``) is reported per set-up call. Layers a workload never
calls read 0.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import repro.pipeline as pipeline
import repro.planner as planner
from repro.distributions import sampling
from repro.engine import native
from repro.experiments import harness
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.obs import metrics
from repro.orientations import relabel
from repro.orientations.degenerate import DegenerateOrder

#: obs counters read per traced op, and the amount each feeds.
COUNTERS = {
    "generator.rejections": "rejections",
    "generator.swap_repaired_stubs": "swap_repaired_stubs",
    "generator.havel_hakimi_fallbacks": "havel_hakimi_fallbacks",
    "engine.native.ops": "engine_ops",
}


def _generated(amount, args, graph):
    amount["edges"] += graph.m
    amount["stub_pairs"] += int(args[0].sum()) // 2


def _oriented(amount, args, oriented):
    amount["orient_edges"] += oriented.m


def _listed(amount, args, arr):
    amount["triangles"] += 0 if arr is None else arr.shape[0]


def _counted(amount, args, count):
    amount["triangles"] += count or 0


#: (owner, attribute, layer, amount hook): the calls the traced run times.
#: ``orient`` is timed whole; ``orientations.orient`` is its
#: ``OrientedGraph`` step and relabelling is the rest.
CALLS = (
    (harness, "sample_degree_sequence", "distributions.sample", None),
    (sampling, "sample_degree_sequence", "distributions.sample", None),
    (harness, "generate_graph", "graphs.generate", _generated),
    (generators, "configuration_model", "graphs.generate", _generated),
    (harness, "orient", "orientations.total", None),
    (pipeline, "orient", "orientations.total", None),
    (relabel, "OrientedGraph", "orientations.orient", _oriented),
    (harness, "per_node_cost", "core.cost", None),
    (pipeline, "method_cost", "core.cost", None),
    (harness, "model_cost", "core.model", None),
    (pipeline, "list_triangles", "listing.list", None),
    (native, "list_triangles_array", "engine.list_array", _listed),
    (native, "count_triangles", "engine.count", _counted),
    (planner, "plan_for_graph", "planner.plan", None),
    (DegenerateOrder, "labels_for", "planner.degenerate_order", None),
)


class Bucket:
    """Time, calls and amounts gathered in one phase of the run."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.amount = defaultdict(float)


class Tracer:
    """Times the layer calls of the ops it is installed around."""

    def __init__(self):
        self.setup = Bucket()
        self.loop = Bucket()
        self.ops = 0
        self.op_seconds = 0.0
        self.plain_seconds = 0.0

    def _wrap(self, bucket, fn, layer, hook):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            bucket.seconds[layer] += time.perf_counter() - start
            bucket.calls[layer] += 1
            if hook is not None:
                hook(bucket.amount, args, out)
            return out
        return timed

    @contextlib.contextmanager
    def installed(self, bucket: Bucket):
        """Wrap every layer call and enable metrics for the block."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, __, __ in CALLS]
        for (owner, attr, layer, hook), (__, __, fn) in zip(CALLS, saved):
            setattr(owner, attr, self._wrap(bucket, fn, layer, hook))
        metrics.reset()
        metrics.enable()
        try:
            yield
        finally:
            metrics.disable()
            for name, key in COUNTERS.items():
                bucket.amount[key] += metrics.counter(name)
            metrics.reset()
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def time_builds(self, bucket: Bucket, graphs) -> None:
        """Time ``Graph(n, edges)`` on generated edges, outside any op."""
        for graph in graphs:
            start = time.perf_counter()
            Graph(graph.n, graph.edges)
            bucket.seconds["graphs.build"] += time.perf_counter() - start
            bucket.calls["graphs.build"] += 1

    def _bucket_for(self, layer):
        """(bucket, divisor): per op if the loop calls ``layer``."""
        if self.loop.calls[layer]:
            return self.loop, self.ops
        if self.setup.calls[layer]:
            return self.setup, self.setup.calls[layer]
        return None, 1

    def _per(self, layer, key=None):
        bucket, div = self._bucket_for(layer)
        if bucket is None:
            return 0.0
        value = bucket.amount[key] if key else bucket.seconds[layer]
        return value / div

    def _ratio(self, layer, key, scale=1.0, num=None):
        bucket, __ = self._bucket_for(layer)
        if bucket is None or not bucket.amount[key]:
            return 0.0
        top = bucket.amount[num] if num else bucket.seconds[layer]
        return scale * top / bucket.amount[key]

    def report(self, import_s: float, native_s: float) -> dict:
        """Every per-layer metric of BENCHMARK.json, as ``name -> value``."""
        per = self._per
        list_s = per("listing.list")
        array_s = per("engine.list_array")
        return {
            "setup.import_s": import_s,
            "setup.native_build_s": native_s,
            "distributions.sample_s": per("distributions.sample"),
            "graphs.generate_s": per("graphs.generate"),
            "graphs.generate_ns_per_edge":
                self._ratio("graphs.generate", "edges", 1e9),
            "graphs.swap_repaired_stubs":
                per("graphs.generate", "swap_repaired_stubs"),
            "graphs.havel_hakimi_fallbacks":
                per("graphs.generate", "havel_hakimi_fallbacks"),
            "graphs.build_s": per("graphs.build"),
            "graphs.config_rejected_frac":
                self._ratio("graphs.generate", "stub_pairs",
                            num="rejections"),
            "orientations.relabel_s":
                per("orientations.total") - per("orientations.orient"),
            "orientations.orient_s": per("orientations.orient"),
            "orientations.orient_ns_per_edge":
                self._ratio("orientations.orient", "orient_edges", 1e9),
            "listing.list_s": list_s,
            "listing.materialise_s": list_s - array_s if array_s else 0.0,
            "engine.list_array_s": array_s,
            "engine.count_s": per("engine.count"),
            "engine.ops": self._engine_per("engine_ops"),
            "engine.triangles": self._engine_per("triangles"),
            "planner.plan_s": per("planner.plan"),
            "planner.degenerate_order_s": per("planner.degenerate_order"),
            "core.cost_s": per("core.cost"),
            "core.model_s": per("core.model"),
            "trace.op_s": self.op_seconds / self.ops,
            "trace.overhead_frac": self.op_seconds / self.plain_seconds - 1,
        }

    def _engine_per(self, key):
        for layer in ("engine.list_array", "engine.count"):
            if self.loop.calls[layer]:
                return self.loop.amount[key] / self.ops
        return 0.0

    def shares(self) -> dict:
        """Each layer's share of the traced ops' wall time.

        ``graphs.build`` is left out: it is timed outside the ops.
        """
        total = self.op_seconds
        return {layer: secs / total
                for layer, secs in sorted(self.loop.seconds.items())
                if layer != "graphs.build"}
