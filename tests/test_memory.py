"""Tests for the memory observability layer (`repro.obs.memory`).

Covers the array ledger (check-in/out accounting, tag/span
attribution, weakref auto-release), the footprint conformance model
against real pipeline allocations, the `REPRO_*` env knobs, the
RAM-budget watchdog (pressure/breach events, graceful abort), the
per-span allocation attribution hook, the resource-sampler edge
cases, and the disabled-is-bit-identical guarantee.
"""

import gc
import json

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, obs
from repro.distributions import root_truncation
from repro.distributions.sampling import sample_degree_sequence
from repro.experiments.harness import SimulationSpec, sweep_n
from repro.graphs.generators import generate_graph
from repro.obs import bus, live, memory, metrics
from repro.obs.env import env_top_k
from repro.orientations.relabel import orient


@pytest.fixture(autouse=True)
def clean_memory():
    """Every test starts and ends with the whole obs stack off."""
    live.disable()
    bus.reset()
    obs.disable()
    obs.reset()
    memory.disable()
    memory.reset()
    yield
    live.disable()
    bus.reset()
    obs.disable()
    obs.reset()
    memory.disable()
    memory.reset()


def _oriented(n=2000, seed=3):
    rng = np.random.default_rng(seed)
    dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
    degrees = sample_degree_sequence(dist, n, rng)
    graph = generate_graph(degrees, rng)
    return orient(graph, DescendingDegree(), rng=rng)


class TestLedger:
    def test_disabled_checkin_is_none(self):
        assert memory.check_in("x", nbytes=100) is None
        assert memory.track(object(), "x", [np.zeros(4)]) == ()
        assert memory.attributed_bytes() == 0
        assert memory.ledger_rows() == []

    def test_checkin_checkout_accounting(self):
        memory.enable()
        a = np.zeros(1000, dtype=np.int64)
        token = memory.check_in("test.a", a)
        assert memory.attributed_bytes() == 8000
        assert memory.peak_bytes() == 8000
        (row,) = memory.ledger_rows()
        assert row["tag"] == "test.a"
        assert row["live_bytes"] == 8000
        assert row["dtypes"] == "int64"
        memory.check_out(token)
        assert memory.attributed_bytes() == 0
        (row,) = memory.ledger_rows()
        assert row["live_bytes"] == 0
        assert row["peak_bytes"] == 8000
        assert row["checkouts"] == 1

    def test_checkout_none_and_unknown_are_noops(self):
        memory.enable()
        memory.check_out(None)
        memory.check_out(12345)
        assert memory.attributed_bytes() == 0

    def test_nbytes_and_bytes_like(self):
        memory.enable()
        memory.check_in("raw", nbytes=512, dtype="blob")
        memory.check_in("buf", b"abcd")
        rows = {r["tag"]: r for r in memory.ledger_rows()}
        assert rows["raw"]["live_bytes"] == 512
        assert rows["buf"]["live_bytes"] == 4
        assert rows["buf"]["dtypes"] == "bytes"

    def test_unsizable_object_raises(self):
        memory.enable()
        with pytest.raises(TypeError):
            memory.check_in("bad", object())

    def test_track_releases_on_gc(self):
        memory.enable()

        class Owner:
            pass

        owner = Owner()
        tokens = memory.track(owner, "tracked",
                              [np.zeros(10, dtype=np.int64),
                               np.zeros(5, dtype=np.int64)])
        assert len(tokens) == 2
        assert memory.attributed_bytes() == 120
        del owner
        gc.collect()
        assert memory.attributed_bytes() == 0
        assert memory.peak_bytes() == 120

    def test_span_attribution(self):
        memory.enable()
        obs.enable()
        with obs.span("phase-x"):
            memory.check_in("inner", nbytes=64)
        summary = memory.ledger_summary()
        assert summary["spans"]["phase-x"]["peak_bytes"] == 64

    def test_metrics_gauges_published(self):
        memory.enable()
        metrics.enable()
        token = memory.check_in("g", nbytes=100)
        snap = metrics.snapshot()
        assert snap["gauges"]["mem.attributed_bytes"] == 100.0
        assert snap["counters"]["mem.ledger.checkins"] == 1
        memory.check_out(token)
        snap = metrics.snapshot()
        assert snap["gauges"]["mem.attributed_bytes"] == 0.0
        assert snap["gauges"]["mem.attributed_peak_bytes"] == 100.0

    def test_env_knob_resolved_lazily(self, monkeypatch):
        monkeypatch.setenv(memory.MEM_LEDGER_ENV, "1")
        monkeypatch.setattr(memory, "_enabled", None)
        assert memory.is_enabled()
        monkeypatch.setenv(memory.MEM_LEDGER_ENV, "0")
        monkeypatch.setattr(memory, "_enabled", None)
        assert not memory.is_enabled()

    def test_summary_is_json_serializable(self):
        memory.enable()
        memory.check_in("j", np.zeros(3, dtype=np.float64))
        json.dumps(memory.ledger_summary())


class TestFootprintConformance:
    def test_bloom_constant_pinned_to_kernels(self):
        from repro.engine import kernels
        assert memory.BLOOM_BYTES == kernels._BLOOM_BYTES

    def test_predict_python_engine_graph_only(self):
        pred = memory.predict_footprint(100, 400, engine="python")
        assert set(pred["components"]) == {"graph.csr", "graph.degrees"}
        assert pred["components"]["graph.csr"] == 8 * (800 + 202)
        assert pred["components"]["graph.degrees"] == 24 * 100

    def test_predict_in_keys_only_for_in_window_methods(self):
        base = memory.predict_footprint(100, 400, method="E1")
        inkey = memory.predict_footprint(100, 400, method="E4")
        assert (inkey["components"]["graph.keys"]
                - base["components"]["graph.keys"]) == 8 * 400

    @pytest.mark.parametrize("method", ["E1", "E4", "L6"])
    def test_pipeline_matches_prediction(self, method):
        from repro.engine import run_method_kernel
        memory.enable()
        oriented = _oriented()
        run_method_kernel(oriented, method)
        report = memory.conformance_report(oriented.n, oriented.m,
                                           method=method)
        assert report["verdict"] == "pass", report
        for row in report["components"]:
            assert row["within"], row

    def test_missing_tag_fails_not_passes(self):
        # an unobserved predicted component is a conformance failure
        report = memory.conformance_report(2000, 10000, method="E1",
                                           rows=[])
        assert report["verdict"] == "fail"
        assert all(r["actual_bytes"] == 0 for r in report["components"])

    def test_unmodeled_tags_listed_but_never_gate(self):
        memory.enable()
        oriented = _oriented()
        from repro.engine import run_method_kernel
        run_method_kernel(oriented, "E1")
        memory.check_in("custom.scratch", nbytes=123)
        report = memory.conformance_report(oriented.n, oriented.m,
                                           method="E1")
        assert report["verdict"] == "pass"
        assert {u["tag"] for u in report["unmodeled"]} == \
            {"custom.scratch"}

    def test_formatters_render(self):
        memory.enable()
        memory.check_in("fmt", nbytes=2048, dtype="int64")
        assert "fmt" in memory.format_ledger(memory.ledger_rows())
        report = memory.conformance_report(10, 20, method="E1")
        text = memory.format_conformance(report)
        assert "footprint conformance" in text
        summary_text = memory.format_summary(memory.ledger_summary(),
                                             report)
        assert "attributed" in summary_text
        assert memory.format_ledger([]).startswith("ledger empty")


class TestParseBytes:
    @pytest.mark.parametrize("text,expected", [
        ("", 0), ("0", 0), ("off", 0), ("garbage", 0),
        ("1048576", 1048576), ("512", 512),
        ("1k", 1024), ("512M", 512 * 1024 ** 2),
        ("2g", 2 * 1024 ** 3), ("1T", 1024 ** 4),
        ("512mb", 512 * 1024 ** 2), ("512MiB", 512 * 1024 ** 2),
        ("1.5k", 1536), ("100b", 100),
    ])
    def test_cases(self, text, expected):
        assert memory.parse_bytes(text) == expected

    def test_budget_from_env(self, monkeypatch):
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "4M")
        assert memory.budget_bytes_from_env() == 4 * 1024 ** 2
        monkeypatch.delenv(memory.MEM_BUDGET_ENV)
        assert memory.budget_bytes_from_env() == 0


class TestBudgetWatchdog:
    def test_disarmed_observe_is_noop(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        dog = memory.BudgetWatchdog(budget_bytes=0)
        assert not dog.armed
        dog.observe(10 ** 9)
        assert sink.events == []

    def test_pressure_and_breach_events_validate(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        metrics.enable()
        dog = memory.BudgetWatchdog(budget_bytes=1000)
        dog.observe(500)
        dog.observe(1500)  # breach
        dog.observe(1600)  # still breached: no second breach event
        pressures = sink.of_type("mem.pressure")
        breaches = sink.of_type("mem.breach")
        assert len(pressures) == 3
        assert len(breaches) == 1
        assert breaches[0]["overshoot_bytes"] == 500
        assert breaches[0]["action"] == "warn"
        count, errors = bus.validate_events(sink.events)
        assert errors == []
        snap = metrics.snapshot()
        assert snap["counters"]["mem.breaches"] == 1
        assert snap["gauges"]["mem.pressure"] == 1.6

    def test_breach_latch_rearms_below_95pct(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        dog = memory.BudgetWatchdog(budget_bytes=1000)
        dog.observe(1500)
        dog.observe(980)   # under budget but above 95%: still latched
        dog.observe(1500)
        assert len(sink.of_type("mem.breach")) == 1
        dog.observe(900)   # re-arms
        dog.observe(1500)
        assert len(sink.of_type("mem.breach")) == 2

    def test_abort_flag_and_check_budget(self, monkeypatch):
        monkeypatch.setenv(memory.MEM_BUDGET_ABORT_ENV, "1")
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        dog = memory.BudgetWatchdog(budget_bytes=1000)
        dog.observe(2000)
        assert sink.of_type("mem.breach")[0]["action"] == "abort"
        assert memory.abort_requested()
        with pytest.raises(memory.MemoryBudgetExceeded) as err:
            memory.check_budget("unit test")
        assert "unit test" in str(err.value)
        memory.clear_abort()
        memory.check_budget("unit test")  # no longer raises

    def test_pressure_carries_attributed_bytes_when_ledger_on(self):
        memory.enable()
        memory.check_in("p", nbytes=64)
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        memory.BudgetWatchdog(budget_bytes=1000).observe(100)
        (event,) = sink.of_type("mem.pressure")
        assert event["attributed_bytes"] == 64
        assert bus.validate_event(event) == []

    def test_engine_chunk_loop_aborts_gracefully(self):
        from repro.engine import run_method_kernel
        oriented = _oriented(n=500)
        memory.request_abort("test budget")
        with pytest.raises(memory.MemoryBudgetExceeded):
            run_method_kernel(oriented, "E1")

    def test_ooc_loop_aborts_gracefully(self):
        from repro.external.ooc_listing import external_e1
        oriented = _oriented(n=300)
        memory.request_abort("test budget")
        with pytest.raises(memory.MemoryBudgetExceeded):
            external_e1(oriented, 3, collect=False)


class TestResourceSampler:
    def test_empty_ring_summary_is_none(self):
        sampler = live.ResourceSampler(interval_s=10.0)
        assert sampler.summary() is None
        assert sampler.series() == []

    def test_summary_after_future_since_ts_is_none(self):
        sampler = live.ResourceSampler(interval_s=10.0)
        sampler.sample_once()
        assert sampler.summary(since_ts=float("inf")) is None

    def test_sample_has_honest_peak_field(self):
        sample = live.sample_resources()
        assert isinstance(sample["rss_bytes"], int)
        assert isinstance(sample["rss_peak_bytes"], int)
        assert sample["rss_bytes"] > 0
        assert sample["rss_peak_bytes"] >= sample["rss_bytes"] > 0

    def test_sample_event_validates_with_peak(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        live.ResourceSampler(interval_s=10.0).sample_once()
        (event,) = sink.of_type("resource.sample")
        assert event["rss_peak_bytes"] >= event["rss_bytes"]
        assert bus.validate_event(event) == []

    def test_old_sample_without_peak_still_validates(self):
        event = {"type": "resource.sample", "ts": 1.0, "pid": 1,
                 "rss_bytes": 1024, "cpu_user_s": 0.1,
                 "cpu_system_s": 0.1, "gc_collections": 1,
                 "gc_objects": 10, "threads": 1}
        assert bus.validate_event(event) == []

    def test_sampler_arms_watchdog_from_budget(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        sampler = live.ResourceSampler(interval_s=10.0,
                                       budget_bytes=1)  # 1 byte: breach
        assert sampler.watchdog.armed
        sampler.sample_once()
        assert sink.of_type("mem.pressure")
        assert sink.of_type("mem.breach")
        count, errors = bus.validate_events(sink.events)
        assert errors == []

    def test_sampler_disarmed_by_default(self, monkeypatch):
        monkeypatch.delenv(memory.MEM_BUDGET_ENV, raising=False)
        sampler = live.ResourceSampler(interval_s=10.0)
        assert not sampler.watchdog.armed


class TestLiveSurface:
    def test_state_folds_memory_events(self):
        state = live.LiveState()
        state.update({"type": "mem.pressure", "ts": 1.0, "pid": 1,
                      "rss_bytes": 800, "budget_bytes": 1000,
                      "frac": 0.8})
        state.update({"type": "mem.breach", "ts": 2.0, "pid": 1,
                      "rss_bytes": 1200, "budget_bytes": 1000,
                      "overshoot_bytes": 200, "action": "warn"})
        assert state.breaches == 1
        gauges = state.to_gauges()
        assert gauges["mem.budget_bytes"] == 1000.0
        assert gauges["mem.breaches"] == 1.0
        text = live.render_status(state)
        assert "memory" in text
        assert "BREACHED" in text

    def test_state_to_dict_roundtrips_json(self):
        state = live.LiveState()
        state.update({"type": "mem.pressure", "ts": 1.0, "pid": 1,
                      "rss_bytes": 800, "budget_bytes": 1000,
                      "frac": 0.8})
        data = json.loads(json.dumps(state.to_dict()))
        assert data["memory"]["rss_bytes"] == 800
        assert data["events"] == 1
        assert "gauges" in data


class TestAllocAttribution:
    def test_env_knob(self, monkeypatch):
        def top_k():
            return env_top_k(memory.TRACEMALLOC_ENV,
                             memory.DEFAULT_ALLOC_TOP_K)

        monkeypatch.delenv(memory.TRACEMALLOC_ENV, raising=False)
        assert top_k() == 0
        monkeypatch.setenv(memory.TRACEMALLOC_ENV, "1")
        assert top_k() == memory.DEFAULT_ALLOC_TOP_K
        monkeypatch.setenv(memory.TRACEMALLOC_ENV, "7")
        assert top_k() == 7
        monkeypatch.setenv(memory.TRACEMALLOC_ENV, "bogus")
        assert top_k() == 0

    def test_span_carries_top_allocations(self):
        obs.spans.enable(alloc=5)
        with obs.span("alloc-test"):
            _ = np.zeros(200_000, dtype=np.int64)  # ~1.6 MB
        (root,) = obs.spans.pop_finished()
        assert root.alloc, "no allocation sites attached"
        top = root.alloc[0]
        assert set(top) == {"file", "line", "size_bytes", "count"}
        assert top["size_bytes"] > 10_000
        data = root.to_dict()
        assert data["alloc"] == root.alloc
        back = obs.spans.Span.from_dict(data)
        assert back.alloc == root.alloc

    def test_alloc_off_by_default(self, monkeypatch):
        monkeypatch.delenv(memory.TRACEMALLOC_ENV, raising=False)
        obs.enable()
        with obs.span("no-alloc"):
            _ = np.zeros(1000)
        (root,) = obs.spans.pop_finished()
        assert root.alloc is None
        assert "alloc" not in root.to_dict()


class TestDisabledParity:
    def test_disabled_bit_identical(self, monkeypatch):
        """Counts/ops are byte-identical with memory obs on or off."""
        spec = SimulationSpec(
            base_dist=DiscretePareto(1.7, 21.0),
            truncation=root_truncation,
            method="T1",
            permutation=DescendingDegree(),
            limit_map="descending",
            n_sequences=2,
            n_graphs=2,
        )
        baseline = sweep_n(spec, [200], seed=11)
        memory.enable()
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "1G")
        with_mem = sweep_n(spec, [200], seed=11)
        memory.disable()
        memory.reset()
        monkeypatch.delenv(memory.MEM_BUDGET_ENV)
        again = sweep_n(spec, [200], seed=11)
        assert with_mem == baseline
        assert again == baseline

    def test_listing_identical_with_ledger(self):
        from repro.listing.api import list_triangles
        oriented = _oriented(n=800)
        off = list_triangles(oriented, "E1", collect=True,
                             engine="numpy")
        memory.enable()
        oriented2 = _oriented(n=800)
        on = list_triangles(oriented2, "E1", collect=True,
                            engine="numpy")
        assert on.count == off.count
        assert on.ops == off.ops
        assert set(on.triangles) == set(off.triangles)


class TestRecordsAndExports:
    def test_ledger_rides_run_record(self):
        from repro.obs import records
        memory.enable()
        memory.check_in("rec.tag", nbytes=4096, dtype="int64")
        record = records.collect("mem-test")
        summary = record.metrics["memory"]
        assert summary["current_bytes"] == 4096
        assert summary["tags"][0]["tag"] == "rec.tag"
        json.loads(json.dumps(record.to_dict(), default=bus.json_default))

    def test_trace_gets_memory_counter_track(self):
        from repro.obs import export, records
        record = records.RunRecord(
            name="mem-trace",
            spans=[{"name": "root", "start_ns": 1000,
                    "duration_ns": 5_000_000}],
            metrics={
                "resources": [
                    {"ts": 10.0, "rss_bytes": 1000,
                     "rss_peak_bytes": 1500},
                    {"ts": 10.5, "rss_bytes": 2000,
                     "rss_peak_bytes": 2500},
                ],
                "memory": {"current_bytes": 300, "peak_bytes": 400},
            })
        trace = export.records_to_trace([record])
        export.validate_trace(trace)
        counters = [e for e in trace["traceEvents"]
                    if e.get("cat") == "memory"]
        names = {e["name"] for e in counters}
        assert names == {"mem.rss_bytes", "mem.rss_peak_bytes",
                         "mem.attributed_current_bytes",
                         "mem.attributed_peak_bytes"}
        rss = [e for e in counters if e["name"] == "mem.rss_bytes"]
        assert [e["ts"] for e in rss] == [0.0, 500_000.0]
        assert [e["args"]["value"] for e in rss] == [1000, 2000]

    def test_validate_trace_rejects_bad_memory_counter(self):
        from repro.obs import export
        trace = {"traceEvents": [
            {"name": "mem.rss_bytes", "cat": "memory", "ph": "C",
             "pid": 1, "tid": 1, "ts": 0.0, "args": {"value": -5}},
        ]}
        with pytest.raises(ValueError, match="non-negative"):
            export.validate_trace(trace)

    def test_dashboard_memory_panel(self):
        from repro.obs import dashboard, records
        memory.enable()
        memory.check_in("graph.csr", nbytes=10_000, dtype="int64")
        record = records.collect("mem-dash")
        html = dashboard.render_dashboard([record])
        assert "Memory footprint" in html
        assert "graph.csr" in html
