"""Engine-level telemetry: per-chunk kernel counters and gauges.

The vectorized engine (:mod:`repro.engine.kernels`) publishes
``engine.*`` counters -- chunks, candidate pairs, Bloom probes/hits,
confirming binary searches -- once per run when the obs layer is
enabled, plus an ``engine.native`` gauge reporting whether the
compiled kernels ran. These tests pin the contract: the counters
are deterministic for a fixed seed, internally consistent with the
listing result, entirely absent (zero cost) when obs is disabled, and
``extra["engine"]``, the ``lister.engine.<label>`` counter published
by :func:`repro.listing.list_triangles` and the audit record's
``actual.engine`` all name the engine that actually ran.
"""

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, obs, orient
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.engine import native, run_native, run_numpy
from repro.graphs.generators import generate_graph
from repro.listing import list_triangles
from repro.obs import audit


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def oriented():
    n = 600
    rng = np.random.default_rng(7)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
    degrees = sample_degree_sequence(dist, n, rng)
    graph = generate_graph(degrees, rng)
    return orient(graph, DescendingDegree())


def engine_counters():
    return {k: v for k, v in obs.metrics.snapshot()["counters"].items()
            if k.startswith("engine.")}


class TestEngineCounters:
    def test_consistent_with_result(self, oriented):
        obs.enable()
        result = run_numpy(oriented, "E1", collect=True)
        got = engine_counters()
        assert got["engine.runs"] == 1
        assert got["engine.chunks"] >= 1
        # every candidate pair goes through exactly one Bloom probe
        assert got["engine.candidates"] == got["engine.bloom_probes"]
        # every Bloom passer is confirmed by one binary search ...
        assert got["engine.bloom_hits"] == \
            got["engine.confirm_binsearches"]
        # ... and the confirmed subset of passers is the triangle count
        assert result.count <= got["engine.bloom_hits"] \
            <= got["engine.candidates"]
        assert result.count > 0

    def test_deterministic_for_fixed_seed(self, oriented):
        # covers the native counters too when a toolchain is present:
        # per-thread op tallies are deterministic by the static block
        # assignment, so the snapshots must still match exactly
        snaps = []
        for _ in range(2):
            obs.enable()
            obs.reset()
            run_numpy(oriented, "T1", collect=True)
            run_numpy(oriented, "E4", collect=False)
            snaps.append(engine_counters())
            obs.disable()
        assert snaps[0] == snaps[1]
        assert snaps[0]["engine.runs"] == 2

    def test_disabled_costs_nothing(self, oriented):
        result = run_numpy(oriented, "E1", collect=True)
        snap = obs.metrics.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert result.count > 0


class TestNativeGauge:
    def test_fallback_reports_zero(self, oriented, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        obs.enable()
        result = run_numpy(oriented, "T1", collect=False)
        assert result.extra["engine"] == "numpy"
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 0.0
        # the fallback count path feeds the kernel counters instead
        assert engine_counters()["engine.chunks"] >= 1

    def test_native_reports_one_when_available(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        obs.enable()
        result = run_native(oriented, "T1", collect=False)
        assert result.extra["engine"] == "native"
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 1.0

    def test_collect_opt_out_is_pure_numpy(self, oriented):
        obs.enable()
        result = run_numpy(oriented, "E1", collect=True)
        assert result.extra["engine"] == "numpy"
        assert obs.metrics.snapshot()["gauges"]["engine.native"] == 0.0

    def test_native_collect_reports_kernel(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        obs.enable()
        result = run_native(oriented, "E1", collect=True)
        assert result.extra["engine"] == "native"
        assert result.extra["native_kernel"] in native.KERNEL_KINDS
        snap = obs.metrics.snapshot()
        assert snap["gauges"]["engine.native"] == 1.0
        assert snap["gauges"]["engine.native_threads"] >= 1.0


class TestNativeOpCounters:
    def test_per_thread_ops_sum_to_total(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        obs.enable()
        run_native(oriented, "T1", collect=False)
        counters = engine_counters()
        total = counters["engine.native.ops"]
        assert total > 0
        per_thread = [v for k, v in counters.items()
                      if k.startswith("engine.native.ops.t")]
        assert per_thread and sum(per_thread) == total
        stats = native.last_stats()
        assert stats["ops"] == total
        assert stats["triangles"] > 0


class TestListerEngineLabel:
    def test_python_and_numpy_labels(self, oriented, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        obs.enable()
        list_triangles(oriented, "T1", collect=False, engine="python")
        list_triangles(oriented, "T1", collect=False, engine="numpy")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.python"] == 1
        assert counters["lister.engine.numpy"] == 1

    def test_native_engine_value_labels_native(self, oriented):
        if not native.available():
            pytest.skip("no compiled kernel in this environment")
        obs.enable()
        list_triangles(oriented, "T1", collect=True, engine="native")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["lister.engine.native"] == 1


def _refuse(*args, **kwargs):
    raise AssertionError("the numpy engine called into the C kernels")


#: Engine that runs per (engine, native state, collect); ``None`` means
#: the call raises. ``declines`` = kernels available but the call
#: returns ``None`` (rc != 0 or n >= 2^32).
_ROUTES = {
    ("python", "available"): "python",
    ("python", "gated"): "python",
    ("python", "declines"): "python",
    ("numpy", "available"): "numpy",
    ("numpy", "gated"): "numpy",
    ("numpy", "declines"): "numpy",
    ("native", "available"): "native",
    ("native", "gated"): None,
    ("native", "declines"): None,
    ("auto", "available"): "native",
    ("auto", "gated"): {True: "python", False: "numpy"},
    ("auto", "declines"): "numpy",
}


class TestEngineRouting:
    """``extra["engine"]``, ``lister.engine.*`` and the audit's
    ``actual.engine`` agree on what ran, for every routing cell."""

    @pytest.mark.parametrize("collect", (True, False))
    @pytest.mark.parametrize("state", ("available", "gated", "declines"))
    @pytest.mark.parametrize("engine", ("python", "numpy", "native",
                                        "auto"))
    def test_route(self, oriented, monkeypatch, tmp_path, engine, state,
                   collect):
        if state == "available" and not native.available():
            pytest.skip("no compiled kernel in this environment")
        if state == "gated":
            monkeypatch.setattr(native, "_lib", None)
        elif state == "declines":
            monkeypatch.setattr(native, "available", lambda: True)
            monkeypatch.setattr(native, "count_triangles",
                                lambda *a, **k: None)
            monkeypatch.setattr(native, "list_triangles_array",
                                lambda *a, **k: None)
        if engine == "numpy":
            monkeypatch.setattr(native, "count_triangles", _refuse)
            monkeypatch.setattr(native, "list_triangles_array", _refuse)
        expected = _ROUTES[engine, state]
        if isinstance(expected, dict):
            expected = expected[collect]
        sink = tmp_path / "audit.jsonl"
        monkeypatch.setenv(audit.AUDIT_FILE_ENV, str(sink))
        monkeypatch.setattr(audit, "_enabled", True)
        obs.enable()
        if expected is None:
            with pytest.raises(RuntimeError, match="native engine"):
                list_triangles(oriented, "auto", collect=collect,
                               engine=engine)
            return
        result = list_triangles(oriented, "auto", collect=collect,
                                engine=engine)
        assert result.extra["engine"] == expected
        counters = obs.metrics.snapshot()["counters"]
        assert {k for k in counters if k.startswith("lister.engine.")} \
            == {f"lister.engine.{expected}"}
        (record,) = audit.load_audit(sink)
        assert record["actual"]["engine"] == expected
        ref = list_triangles(oriented, result.extra["auto_method"],
                             collect=collect, engine="python")
        assert (result.count, result.ops) == (ref.count, ref.ops)
        if collect:
            assert set(result.triangles) == set(ref.triangles)
