"""Compiled-kernel suite: equivalence, determinism, gating, fallback.

The contract of :mod:`repro.engine.native` v2, pinned three ways:

* **Equivalence** -- for every method x ordering the native listing
  path returns the same sorted triangle set, count, and closed-form
  ``ops`` as the pure-NumPy engine (itself pinned against the
  instrumented Python loops in ``test_engine_equivalence.py``).
* **Determinism** -- emitted buffers are *bit-identical* across thread
  counts (1, 2, 8) and across the two intersection variants
  (merge/bitmap), and streaming chunks concatenate to exactly the
  two-pass array.
* **Gating** -- ``REPRO_NATIVE`` off, a missing compiler, and a failed
  compile each degrade cleanly (cached per process, one structured
  warning for the failure case) while ``engine="native"`` raises
  instead of silently falling back.

Kernel tests skip where no C toolchain exists; the gating/fallback
tests run everywhere.
"""

import logging
import subprocess

import numpy as np
import pytest

from repro import (
    AscendingDegree,
    ComplementaryRoundRobin,
    DescendingDegree,
    DiscretePareto,
    RoundRobin,
    UniformRandom,
    generate_graph,
    orient,
)
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.engine import native, run_native, run_numpy
from repro.graphs.graph import Graph
from repro.listing.api import ALL_METHODS, list_triangles

ORDERINGS = {
    "ascending": AscendingDegree,
    "descending": DescendingDegree,
    "uniform": UniformRandom,
    "rr": RoundRobin,
    "crr": ComplementaryRoundRobin,
}

needs_native = pytest.mark.skipif(
    not native.available(), reason="no C toolchain in this environment")


@pytest.fixture(scope="module")
def pareto_graph():
    n = 500
    rng = np.random.default_rng(17)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
    return generate_graph(sample_degree_sequence(dist, n, rng), rng)


@pytest.fixture(scope="module", params=sorted(ORDERINGS))
def oriented(request, pareto_graph):
    return orient(pareto_graph, ORDERINGS[request.param](),
                  rng=np.random.default_rng(23))


@needs_native
class TestMethodOrderingEquivalence:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_matches_numpy_engine(self, oriented, method):
        """Sorted triangles, count, and ops agree for every cell."""
        ref = run_numpy(oriented, method, collect=True)
        nat = run_native(oriented, method, collect=True)
        assert nat.extra["engine"] == "native"
        assert nat.count == ref.count
        assert nat.ops == ref.ops
        assert nat.hash_inserts == ref.hash_inserts
        assert sorted(nat.triangles) == sorted(ref.triangles)

    def test_count_matches_listing(self, oriented):
        count = native.count_triangles(oriented)
        arr = native.list_triangles_array(oriented)
        assert count == arr.shape[0]
        assert (arr[:, 0] < arr[:, 1]).all()
        assert (arr[:, 1] < arr[:, 2]).all()


@needs_native
class TestDeterminism:
    def test_thread_count_invariance(self, oriented):
        """1, 2, and 8 threads produce bit-identical buffers/stats."""
        runs = {}
        for threads in (1, 2, 8):
            arr = native.list_triangles_array(oriented, threads=threads)
            stats = native.last_stats()
            assert stats["threads"] == min(threads, stats["blocks"])
            runs[threads] = (arr, stats["ops"], stats["triangles"])
        base = runs[1]
        for threads in (2, 8):
            arr, ops, triangles = runs[threads]
            assert np.array_equal(arr, base[0])
            assert arr.tobytes() == base[0].tobytes()
            assert (ops, triangles) == (base[1], base[2])

    def test_count_thread_invariance(self, oriented):
        counts = {t: native.count_triangles(oriented, threads=t)
                  for t in (1, 2, 8)}
        assert len(set(counts.values())) == 1

    def test_kind_invariance(self, oriented):
        """merge and bitmap emit the exact same byte sequence."""
        merge = native.list_triangles_array(oriented, kind="merge")
        bitmap = native.list_triangles_array(oriented, kind="bitmap")
        assert merge.tobytes() == bitmap.tobytes()

    def test_per_thread_ops_partition_total(self, oriented):
        native.count_triangles(oriented, threads=4)
        stats = native.last_stats()
        assert len(stats["ops_per_thread"]) == stats["threads"]
        assert sum(stats["ops_per_thread"]) == stats["ops"]


@needs_native
class TestStreaming:
    def test_chunks_concatenate_to_full_array(self, oriented):
        full = native.list_triangles_array(oriented)
        chunks = list(native.stream_triangles(oriented,
                                              chunk_triangles=64))
        assert len(chunks) > 1  # the cap actually forced spill-back
        assert all(c.dtype == np.uint32 for c in chunks)
        streamed = np.concatenate(chunks, axis=0)
        assert np.array_equal(streamed, full)
        assert native.last_stats()["triangles"] == full.shape[0]

    @pytest.mark.parametrize("kind", native.KERNEL_KINDS)
    def test_both_kinds_stream_identically(self, oriented, kind):
        full = native.list_triangles_array(oriented)
        chunks = list(native.stream_triangles(
            oriented, chunk_triangles=128, kind=kind))
        assert np.array_equal(np.concatenate(chunks, axis=0), full)


@needs_native
class TestDegenerateGraphs:
    def test_empty_graph(self):
        g = orient(Graph(5, []), DescendingDegree())
        assert native.count_triangles(g) == 0
        assert native.list_triangles_array(g).shape == (0, 3)

    def test_star_has_no_triangles(self):
        g = orient(Graph(6, [(0, i) for i in range(1, 6)]),
                   DescendingDegree())
        assert native.count_triangles(g) == 0

    def test_clique(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = orient(Graph(6, edges), DescendingDegree())
        assert native.count_triangles(g) == 20  # C(6,3)
        arr = native.list_triangles_array(g)
        assert sorted(map(tuple, arr.tolist())) == sorted(
            (x, y, z) for x in range(6) for y in range(x + 1, 6)
            for z in range(y + 1, 6))

    def test_self_test(self):
        assert native.self_test()


class TestKnobs:
    def test_resolve_threads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
        assert native.resolve_threads() == 8
        assert native.resolve_threads(2) == 2  # explicit wins
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "junk")
        assert native.resolve_threads() >= 1

    @needs_native
    def test_resolve_kind_env(self, oriented):
        assert native.resolve_kind(oriented, "merge") == "merge"
        assert native.resolve_kind(oriented, "bitmap") == "bitmap"
        with pytest.raises(ValueError, match="kernel"):
            native.resolve_kind(oriented, "simd")


@pytest.fixture
def fresh_native(monkeypatch):
    """Reset the module-level resolution cache (restored afterwards)."""
    monkeypatch.setattr(native, "_lib", native._UNSET)
    monkeypatch.setattr(native, "_status",
                        {"state": "unresolved", "reason": None,
                         "compiler": None})


class TestGatingAndFallback:
    @pytest.mark.parametrize("value", ("0", "false", "no", "off"))
    def test_repro_native_zero_gates(self, fresh_native, monkeypatch,
                                     pareto_graph, value):
        monkeypatch.setenv("REPRO_NATIVE", value)
        assert not native.available()
        assert native.status()["state"] == "gated"
        g = orient(pareto_graph, DescendingDegree())
        assert native.count_triangles(g) is None
        assert native.list_triangles_array(g) is None
        assert native.stream_triangles(g) is None
        # auto + collect keeps the python reference engine
        result = list_triangles(g, "T1", collect=True)
        assert result.extra["engine"] == "python"

    def test_missing_compiler_degrades(self, fresh_native, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        assert not native.available()
        assert native.status()["state"] == "no-compiler"

    def test_failed_compile_cached_and_warned_once(
            self, fresh_native, monkeypatch, caplog):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            raise subprocess.CalledProcessError(
                1, cmd, stderr=b"kernel.c:1: error: boom")

        monkeypatch.setattr(native.subprocess, "run", fake_run)
        with caplog.at_level(logging.DEBUG, logger=native.__name__):
            assert not native.available()
            assert not native.available()  # cached: no second compile
        assert len(calls) == 1
        status = native.status()
        assert status["state"] == "compile-failed"
        assert "boom" in status["reason"]
        warnings = [r for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1

    def test_native_engine_raises_when_unavailable(
            self, monkeypatch, pareto_graph):
        monkeypatch.setattr(native, "_lib", None)
        g = orient(pareto_graph, DescendingDegree())
        with pytest.raises(RuntimeError, match="native engine"):
            list_triangles(g, "T1", collect=True, engine="native")
        with pytest.raises(RuntimeError, match="native engine"):
            list_triangles(g, "T1", collect=False, engine="native")

    def test_numpy_engine_falls_back_silently(self, monkeypatch,
                                              pareto_graph):
        monkeypatch.setattr(native, "_lib", None)
        g = orient(pareto_graph, DescendingDegree())
        result = list_triangles(g, "T1", collect=True, engine="numpy")
        assert result.extra["engine"] == "numpy"
        ref = list_triangles(g, "T1", collect=True, engine="python")
        assert set(result.triangles) == set(ref.triangles)


@needs_native
class TestNativeEngineValue:
    def test_native_engine_runs(self, oriented):
        result = list_triangles(oriented, "E4", collect=True,
                                engine="native")
        assert result.extra["engine"] == "native"
        assert result.extra["native_kernel"] in native.KERNEL_KINDS
        ref = list_triangles(oriented, "E4", collect=True,
                             engine="python")
        assert sorted(result.triangles) == sorted(ref.triangles)
        assert result.ops == ref.ops
