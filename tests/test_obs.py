"""Tests for the observability subsystem (``repro.obs``)."""

import json
import logging
import os
import threading

import numpy as np
import pytest

from repro import cli, obs
from repro.obs import audit, bus, metrics, records, spans
from repro.obs.logging import StructuredFormatter, get_logger, log_event
from repro.planner.plan import plan_for_graph


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with a pristine, disabled obs layer."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpans:
    def test_disabled_is_noop(self):
        with obs.span("outer", key="v") as sp:
            with obs.span("inner"):
                pass
            sp.annotate(more=1)
        assert spans.pop_finished() == []

    def test_noop_span_is_shared(self):
        assert obs.span("a") is obs.span("b")

    def test_nesting_builds_tree(self):
        obs.enable()
        with obs.span("root", seed=7):
            with obs.span("child-a"):
                with obs.span("grandchild"):
                    pass
            with obs.span("child-b"):
                pass
        roots = spans.pop_finished()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert root.attrs == {"seed": 7}
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"
        # parent duration covers its children
        assert root.duration_ns >= sum(c.duration_ns
                                       for c in root.children)
        assert spans.pop_finished() == []  # drained

    def test_annotate_and_to_dict(self):
        obs.enable()
        with obs.span("phase", n=10) as sp:
            sp.annotate(ops=42)
        (root,) = spans.pop_finished()
        d = root.to_dict()
        assert d["name"] == "phase"
        assert d["attrs"] == {"n": 10, "ops": 42}
        assert d["duration_ns"] >= 0
        assert "children" not in d

    def test_exception_closes_span(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        (root,) = spans.pop_finished()
        assert root.attrs["error"] == "RuntimeError"
        assert spans.current_span() is None

    def test_phase_totals(self):
        obs.enable()
        with obs.span("root"):
            with obs.span("work"):
                pass
            with obs.span("work"):
                pass
        (root,) = spans.pop_finished()
        totals = root.phase_totals()
        assert set(totals) == {"root", "work"}
        assert totals["work"] >= 0

    def test_thread_safety(self):
        obs.enable()
        barrier = threading.Barrier(2)

        def worker(tag):
            barrier.wait()
            with obs.span(f"root-{tag}"):
                with obs.span("inner"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = spans.pop_finished()
        assert sorted(r.name for r in roots) == ["root-0", "root-1"]
        assert all(len(r.children) == 1 for r in roots)

    def test_memory_tracing(self):
        obs.enable(memory=True)
        with obs.span("alloc"):
            blob = [0] * 50_000
        del blob
        (root,) = spans.pop_finished()
        assert root.mem_peak_bytes is not None
        assert root.mem_peak_bytes > 0
        assert root.mem_delta_bytes is not None
        obs.disable()
        import tracemalloc
        assert not tracemalloc.is_tracing()

    def test_format_span_tree(self):
        obs.enable()
        with obs.span("root", method="T1"):
            with obs.span("child"):
                pass
        (root,) = spans.pop_finished()
        text = obs.format_span_tree(root)
        assert "root" in text and "child" in text
        assert "ms" in text and "method=T1" in text

    def test_name_attribute_allowed(self):
        obs.enable()
        with obs.span("table", name="table06"):
            pass
        (root,) = spans.pop_finished()
        assert root.attrs == {"name": "table06"}


class TestMetrics:
    def test_disabled_is_noop(self):
        metrics.inc("a")
        metrics.set_gauge("b", 1.0)
        metrics.observe("c", 2.0)
        snap = metrics.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_counters_gauges_histograms(self):
        metrics.enable()
        metrics.inc("lister.ops", 10)
        metrics.inc("lister.ops", 5)
        metrics.set_gauge("graph.n", 100)
        metrics.set_gauge("graph.n", 200)
        for v in (1.0, 3.0, 2.0):
            metrics.observe("cost", v)
        snap = metrics.snapshot()
        assert snap["counters"]["lister.ops"] == 15
        assert snap["gauges"]["graph.n"] == 200.0
        hist = snap["histograms"]["cost"]
        assert hist["count"] == 3
        assert hist["min"] == 1.0 and hist["max"] == 3.0
        assert hist["mean"] == pytest.approx(2.0)

    def test_reset(self):
        metrics.enable()
        metrics.inc("x")
        metrics.reset()
        assert metrics.snapshot()["counters"] == {}

    def test_registry_counter_read(self):
        metrics.enable()
        metrics.inc("y", 3)
        assert metrics.registry().counter("y") == 3
        assert metrics.registry().counter("missing") == 0

    def test_empty_histogram_summary(self):
        assert metrics.Histogram().summary() == {"count": 0}


class TestRecords:
    def test_collect_and_roundtrip(self, tmp_path):
        obs.enable()
        with obs.span("phase", n=np.int64(5)):
            metrics.inc("counter", np.int64(3))
        record = records.collect("unit", config={"seed": np.int64(7),
                                                 "sizes": np.arange(3)})
        sink = tmp_path / "runs.jsonl"
        assert records.write_record(record, sink) == sink
        loaded = records.load_records(sink)
        assert len(loaded) == 1
        got = loaded[0]
        assert got.name == "unit"
        assert got.config["seed"] == 7
        assert got.config["sizes"] == [0, 1, 2]
        assert got.metrics["counters"]["counter"] == 3
        assert got.spans[0]["name"] == "phase"
        assert got.meta["python"]

    def test_load_missing_file(self, tmp_path):
        assert records.load_records(tmp_path / "nope.jsonl") == []

    def test_corrupted_line_skipped_with_warning(self, tmp_path, caplog):
        sink = tmp_path / "runs.jsonl"
        records.write_record(records.RunRecord("one"), sink)
        with open(sink, "a", encoding="utf-8") as fh:
            fh.write('{"name": "torn", "config": {"tru\n')  # torn append
        records.write_record(records.RunRecord("two"), sink)
        with caplog.at_level(logging.WARNING, logger="repro"):
            loaded = records.load_records(sink)
        assert [r.name for r in loaded] == ["one", "two"]
        (warning,) = [r for r in caplog.records
                      if r.levelno == logging.WARNING]
        assert warning.getMessage() == \
            "skipped corrupted run-record lines"
        assert warning.fields["skipped"] == 1
        assert warning.fields["first_bad_line"] == 2

    def test_non_dict_line_skipped(self, tmp_path, caplog):
        sink = tmp_path / "runs.jsonl"
        sink.write_text('[1, 2, 3]\n"scalar"\n')
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert records.load_records(sink) == []
        (warning,) = [r for r in caplog.records
                      if r.levelno == logging.WARNING]
        assert warning.fields["skipped"] == 2
        assert warning.fields["first_bad_line"] == 1

    def test_clean_file_warns_nothing(self, tmp_path, caplog):
        sink = tmp_path / "runs.jsonl"
        records.write_record(records.RunRecord("one"), sink)
        with caplog.at_level(logging.WARNING, logger="repro"):
            records.load_records(sink)
        assert not [r for r in caplog.records
                    if r.levelno >= logging.WARNING]

    def test_append_semantics(self, tmp_path):
        sink = tmp_path / "deep" / "runs.jsonl"  # parents created
        records.write_record(records.RunRecord("one"), sink)
        records.write_record(records.RunRecord("two"), sink)
        assert [r.name for r in records.load_records(sink)] == ["one",
                                                               "two"]

    def test_phase_totals_from_record(self):
        obs.enable()
        with obs.span("run"):
            with obs.span("list"):
                pass
        record = records.collect("r")
        totals = record.phase_totals()
        assert set(totals) == {"run", "list"}

    def test_git_revision(self):
        rev = records.git_revision()
        assert rev is None or (isinstance(rev, str) and len(rev) >= 4)

    def test_runs_path_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_FILE", str(tmp_path / "r.jsonl"))
        assert records.runs_path() == tmp_path / "r.jsonl"
        assert records.runs_path("explicit.jsonl").name == "explicit.jsonl"

    def test_json_default_numpy(self):
        payload = {"i": np.int64(1), "f": np.float64(2.5),
                   "a": np.array([1, 2]), "s": {3, 1}}
        parsed = json.loads(json.dumps(payload,
                                       default=records.json_default))
        assert parsed == {"i": 1, "f": 2.5, "a": [1, 2], "s": [1, 3]}

    def test_record_is_a_run_end_event(self, tmp_path):
        sink = tmp_path / "runs.jsonl"
        records.write_record(records.RunRecord("one"), sink)
        line = json.loads(sink.read_text(encoding="utf-8"))
        assert line["type"] == "run.end"
        assert line["pid"] == os.getpid()
        assert bus.validate_event(line) == []
        assert [r.name for r in records.load_records(sink)] == ["one"]


def _fill_sink(kind, path, graph):
    """Two valid lines through the sink's own writer; their names."""
    names = ["one", "two"]
    if kind == "runs":
        for name in names:
            records.write_record(records.RunRecord(name), path)
    elif kind == "audit":
        plan = plan_for_graph(graph)
        for name in names:
            record = audit.open_record(plan, name)
            audit.write_audit_record(
                audit.finish_record(record, exact_plan=plan,
                                    stored_ratio=2.0), path)
    else:
        events = bus.EventBus()
        events.add_sink(bus.JsonlSink(path))
        for name in names:
            events.emit("run.start", name=name)
    return names


def _read_sink(kind, path):
    """The names the sink's loader (or ``repro top`` follower) returns."""
    if kind == "runs":
        return [r.name for r in records.load_records(path)]
    if kind == "audit":
        return [r["route"] for r in audit.load_audit(path)]
    lines, __ = bus.read_jsonl(path, follow=True,
                               counter="events.corrupted")
    return [e["name"] for __, e in lines if isinstance(e, dict)]


class TestTypedSinks:
    """Runs, audit and events files share one reader and validator."""

    # the live follower leaves a torn last line for its next read (a
    # producer mid-write), so it skips only the non-object line
    @pytest.mark.parametrize("kind, counter, skipped", [
        ("runs", "records.corrupted", 2),
        ("audit", "audit.corrupted", 2),
        ("events", "events.corrupted", 1),
    ])
    def test_bad_lines_skipped_counted_and_reported(
            self, kind, counter, skipped, tmp_path, pareto_graph,
            caplog, capsys):
        path = tmp_path / f"{kind}.jsonl"
        first, second = _fill_sink(kind, path, pareto_graph)
        good = path.read_text(encoding="utf-8").splitlines()
        path.write_text(f"{good[0]}\n[1, 2]\n{good[1]}\n"
                        '{"type": "run.e', encoding="utf-8")
        metrics.enable()
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert _read_sink(kind, path) == [first, second]
        (warning,) = [r for r in caplog.records
                      if r.levelno == logging.WARNING]
        assert warning.fields["skipped"] == skipped
        assert warning.fields["first_bad_line"] == 2
        assert metrics.snapshot()["counters"][counter] == skipped

        count, errors = bus.validate_file(path)
        assert count == 4
        assert [e.split(":")[0] for e in errors] == ["line 2", "line 4"]
        assert "not a JSON object" in errors[0]
        assert "not JSON" in errors[1]
        assert cli.main(["validate", str(path)]) == 1
        assert "2 schema error(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["runs", "audit", "events"])
    def test_clean_sink_validates(self, kind, tmp_path, pareto_graph,
                                  capsys):
        path = tmp_path / f"{kind}.jsonl"
        _fill_sink(kind, path, pareto_graph)
        assert cli.main(["validate", str(path)]) == 0
        assert "2 line(s) OK" in capsys.readouterr().out

    def test_run_record_spans_must_be_a_list(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        bad = records.RunRecord("one").to_dict()
        bad["spans"] = {"name": "list"}
        bus.append_jsonl_line(path, bad)
        assert cli.main(["validate", str(path)]) == 1
        assert "field 'spans' should be list" in capsys.readouterr().err


class TestEnableDisable:
    def test_enable_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert obs.enable_from_env() is False
        assert not obs.is_enabled()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert obs.enable_from_env() is True
        assert obs.is_enabled()
        assert spans.is_enabled() and metrics.is_enabled()

    def test_enable_disable_symmetry(self):
        obs.enable()
        assert obs.is_enabled()
        obs.disable()
        assert not obs.is_enabled()


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("experiments.harness").name == \
            "repro.experiments.harness"
        assert get_logger("repro.core").name == "repro.core"

    def test_structured_formatter_renders_fields(self):
        record = logging.LogRecord(
            name="repro.test", level=logging.WARNING, pathname=__file__,
            lineno=1, msg="divergence", args=(), exc_info=None)
        record.fields = {"method": "T1", "relative_error": 0.5,
                         "note": "two words"}
        text = StructuredFormatter().format(record)
        assert "divergence" in text
        assert "method=T1" in text
        assert "relative_error=0.5" in text
        assert "note='two words'" in text

    def test_log_event_attaches_fields(self, caplog):
        logger = get_logger("test-events")
        with caplog.at_level(logging.INFO, logger="repro"):
            log_event(logger, logging.INFO, "hello", n=3)
        (record,) = [r for r in caplog.records if r.message == "hello"]
        assert record.fields == {"n": 3}

    def test_repro_log_env_sets_level(self, monkeypatch):
        from repro.obs import logging as obs_logging
        monkeypatch.setenv("REPRO_LOG", "debug")
        logger = obs_logging.setup(force=True)
        assert logger.level == logging.DEBUG
        monkeypatch.delenv("REPRO_LOG")
        logger = obs_logging.setup(force=True)
        assert logger.level == logging.WARNING


class TestHarnessDivergenceWarning:
    def _spec(self):
        from repro import DescendingDegree, DiscretePareto
        from repro.distributions import root_truncation
        from repro.experiments.harness import SimulationSpec
        return SimulationSpec(
            base_dist=DiscretePareto(1.7, 21.0),
            truncation=root_truncation, method="T1",
            permutation=DescendingDegree(), limit_map="descending",
            n_sequences=1, n_graphs=1)

    def test_warns_above_threshold(self, monkeypatch, caplog):
        from repro.experiments.harness import simulated_vs_model
        monkeypatch.setenv("REPRO_MODEL_ERROR_WARN", "0.0")
        rng = np.random.default_rng(0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            sim, model, error = simulated_vs_model(self._spec(), 300, rng)
        warnings = [r for r in caplog.records
                    if r.message == "model-simulation divergence"]
        assert len(warnings) == 1
        assert warnings[0].fields["method"] == "T1"
        assert warnings[0].fields["n"] == 300
        assert warnings[0].fields["relative_error"] == error

    def test_silent_below_threshold(self, monkeypatch, caplog):
        from repro.experiments.harness import simulated_vs_model
        monkeypatch.setenv("REPRO_MODEL_ERROR_WARN", "1000")
        rng = np.random.default_rng(0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            simulated_vs_model(self._spec(), 300, rng)
        assert not [r for r in caplog.records
                    if r.message == "model-simulation divergence"]

    def test_threshold_parsing(self, monkeypatch):
        from repro.experiments import harness
        monkeypatch.setenv("REPRO_MODEL_ERROR_WARN", "0.5")
        assert harness.model_error_warn_threshold() == 0.5
        monkeypatch.setenv("REPRO_MODEL_ERROR_WARN", "junk")
        assert (harness.model_error_warn_threshold()
                == harness.MODEL_ERROR_WARN_DEFAULT)


class TestPipelineIntegration:
    def test_spans_cover_all_phases(self):
        from repro import (DescendingDegree, DiscretePareto,
                           generate_graph, list_triangles, orient,
                           sample_degree_sequence)
        from repro.distributions import root_truncation
        rng = np.random.default_rng(5)
        dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(300))
        degrees = sample_degree_sequence(dist, 300, rng)
        obs.enable()
        with obs.span("run"):
            graph = generate_graph(degrees, rng)
            oriented = orient(graph, DescendingDegree())
            result = list_triangles(oriented, "T1", collect=False)
        (root,) = spans.pop_finished()
        phases = root.phase_totals()
        for phase in ("generate", "relabel", "orient", "list"):
            assert phase in phases, phase
        snap = metrics.snapshot()
        assert snap["counters"]["lister.ops"] == result.ops
        assert snap["counters"]["orient.edges"] == graph.m
        assert 0 <= snap["counters"]["orient.edges_flipped"] <= graph.m

    def test_disabled_results_identical(self):
        from repro import (DescendingDegree, DiscretePareto,
                           generate_graph, list_triangles, orient,
                           sample_degree_sequence)
        from repro.distributions import root_truncation
        rng = np.random.default_rng(5)
        dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(300))
        degrees = sample_degree_sequence(dist, 300, rng)
        graph = generate_graph(degrees, rng)
        oriented = orient(graph, DescendingDegree())
        baseline = list_triangles(oriented, "E1", collect=False)
        obs.enable()
        traced = list_triangles(oriented, "E1", collect=False)
        obs.disable()
        again = list_triangles(oriented, "E1", collect=False)
        for result in (traced, again):
            assert result.ops == baseline.ops
            assert result.comparisons == baseline.comparisons
            assert result.hash_inserts == baseline.hash_inserts
            assert result.count == baseline.count
