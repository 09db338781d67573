"""The benchmark's three workloads: set-up, one op, and the op's check.

Each workload builds its inputs from the generator it is handed, so
the same seed gives the same inputs. ``run(i, rng)`` is the op the
timed loop repeats; ``check(out)`` verifies its output outside the
timed region; ``check_run()`` is the once-per-run check.

Calls into the program go through module attributes
(``sampling.sample_degree_sequence``, ``generators.configuration_model``,
``harness.simulate_cost``) so the traced run's wrappers in
``layers.py`` see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.distributions import sampling
from repro.distributions.pareto import DiscretePareto
from repro.distributions.truncation import linear_truncation, root_truncation
from repro.experiments import harness
from repro.graphs import generators
from repro.listing.api import ALL_METHODS, count_triangles, list_triangles
from repro.orientations.permutations import AscendingDegree, RoundRobin
from repro.orientations.relabel import orient
import repro.pipeline as pipeline

#: The degree law of Tables 7 and 10: discrete Pareto, alpha = 1.7.
LAW = DiscretePareto(1.7, 21.0)


@dataclass
class Outcome:
    """What one op produced, kept only until it is checked."""

    value: object            # compared between the traced and plain runs
    graphs: list             # graphs the op generated
    payload: object = None   # what the check needs


def reference_count(graph) -> int:
    """Triangle count on an ascending-degree orientation.

    The workloads' ops orient differently (descending, RR, CRR or the
    planner's pick), so this counts over a different CSR.
    """
    return count_triangles(orient(graph, AscendingDegree()), "T1")


class SimCell:
    """One Monte-Carlo instance of the Table 7 ``T2+RR`` cell at n = 2500.

    The op is ``harness.simulate_cost`` with one sequence and one graph:
    sample -> residual generator -> orient (RR, random tie-break) ->
    ``per_node_cost``. The listing engine is never called.
    """

    name = "sim_cell"
    n = 2_500

    def __init__(self, rng: np.random.Generator):
        self.spec = harness.SimulationSpec(
            base_dist=LAW, truncation=root_truncation, method="T2",
            permutation=RoundRobin(), limit_map="rr",
            n_sequences=1, n_graphs=1, generator="residual",
            tie_break="random")
        self.model = harness.model_cost(self.spec, self.n)
        self.generated: list = []

    def run(self, i: int, rng: np.random.Generator) -> Outcome:
        # simulate_cost returns only the mean cost; capture the degree
        # sequence and graph it generates so check() can verify them
        captured = []
        generate = harness.generate_graph

        def capture(degrees, rng, method="residual"):
            graph = generate(degrees, rng, method=method)
            captured.append((degrees, graph))
            return graph

        harness.generate_graph = capture
        try:
            cost = harness.simulate_cost(self.spec, self.n, rng)
        finally:
            harness.generate_graph = generate
        return Outcome(cost, [g for __, g in captured], captured)

    def check(self, out: Outcome) -> bool:
        # the residual generator realizes the requested sequence exactly
        return (len(out.payload) == 1
                and all(np.array_equal(g.degrees, d)
                        for d, g in out.payload)
                and math.isfinite(out.value) and out.value > 0)

    def check_run(self) -> bool:
        return math.isfinite(self.model) and self.model > 0


class ListCollect:
    """A user listing triangles: sample -> configuration model -> pipeline.

    M rotates over T1, T2, E1 and E4 with their optimal orderings, and
    every triangle is materialised as a Python tuple (``collect=True``).
    Linear truncation at n = 2000 gives ~24k edges and ~100k triangles
    per graph.
    """

    name = "list_collect"
    n = 2_000
    methods = ("T1", "T2", "E1", "E4")
    small_n = 500

    def __init__(self, rng: np.random.Generator):
        self.dist = LAW.truncate(linear_truncation(self.n))
        # the once-per-run reference check uses its own seeded graph
        self.small_seed = int(rng.integers(2**32))
        self.generated: list = []

    def run(self, i: int, rng: np.random.Generator) -> Outcome:
        method = self.methods[i % len(self.methods)]
        degrees = sampling.sample_degree_sequence(self.dist, self.n, rng)
        graph = generators.configuration_model(degrees, rng)
        report = pipeline.run_pipeline(graph, method, collect=True,
                                       rng=rng)
        return Outcome(report.count, [graph], (method, graph, report))

    def check(self, out: Outcome) -> bool:
        method, graph, report = out.payload
        return (report.result.method == method
                and len(report.triangles) == report.count
                and report.count == reference_count(graph))

    def check_run(self) -> bool:
        """Pipeline output equals the Python reference engine's set."""
        rng = np.random.default_rng(self.small_seed)
        dist = LAW.truncate(linear_truncation(self.small_n))
        graph = generators.configuration_model(
            sampling.sample_degree_sequence(dist, self.small_n, rng), rng)
        expected = graph.triangle_count_reference()
        oriented = []
        real_orient = pipeline.orient

        def capture(*args, **kwargs):
            oriented.append(real_orient(*args, **kwargs))
            return oriented[-1]

        ok = expected > 0
        for method in self.methods:
            oriented.clear()
            pipeline.orient = capture
            try:
                report = pipeline.run_pipeline(graph, method, collect=True,
                                               rng=rng)
            finally:
                pipeline.orient = real_orient
            ref = list_triangles(oriented[0], method, engine="python")
            ok = ok and (report.count == expected
                         and set(report.triangles) == set(ref.triangles))
        return ok


class AutoCount:
    """Planner-routed counting over a pool of graphs built in set-up.

    The op is ``run_pipeline(graph, "auto", collect=False)``: the
    planner prices every method and ordering (its pure-Python
    degenerate ordering included), then the pick is oriented and
    counted. No generation happens in the timed loop.
    """

    name = "auto_count"
    n = 8_000
    pool_size = 6

    def __init__(self, rng: np.random.Generator):
        dist = LAW.truncate(root_truncation(self.n))
        self.generated = []
        for __ in range(self.pool_size):
            degrees = sampling.sample_degree_sequence(dist, self.n, rng)
            self.generated.append(
                generators.configuration_model(degrees, rng))
        self.reference = [reference_count(g) for g in self.generated]

    def run(self, i: int, rng: np.random.Generator) -> Outcome:
        k = i % self.pool_size
        report = pipeline.run_pipeline(self.generated[k], "auto",
                                       collect=False)
        return Outcome((report.count, report.result.method, report.order),
                       [], (k, report))

    def check(self, out: Outcome) -> bool:
        k, report = out.payload
        return (report.count == self.reference[k]
                and report.result.method in ALL_METHODS
                and report.triangles is None)

    def check_run(self) -> bool:
        return all(c > 0 for c in self.reference)


WORKLOADS = {w.name: w for w in (SimCell, ListCollect, AutoCount)}
