"""Tests for the export layer: trace events, flame stacks, per-span
profiling, the HTML dashboard, and their CLI verbs."""

import json

import pytest

from repro import DescendingDegree, DiscretePareto, cli, obs
from repro.distributions import root_truncation
from repro.experiments.harness import SimulationSpec
from repro.experiments.parallel import sweep_n_parallel
from repro.obs import export, metrics, profiling
from repro.obs import records as obs_records
from repro.obs import report as obs_report
from repro.obs.env import env_top_k
from repro.obs.export import MAIN_TID


def _spec(n_sequences=3, n_graphs=1):
    return SimulationSpec(
        base_dist=DiscretePareto(1.7, 21.0),
        truncation=root_truncation,
        method="T1",
        permutation=DescendingDegree(),
        limit_map="descending",
        n_sequences=n_sequences,
        n_graphs=n_graphs,
    )


@pytest.fixture(scope="module")
def sweep_history(tmp_path_factory):
    """One recorded parallel sweep (2 workers) in a runs.jsonl sink."""
    runs = tmp_path_factory.mktemp("export") / "runs.jsonl"
    obs.enable()
    obs.reset()
    try:
        rows = sweep_n_parallel(_spec(), [400, 600], seed=3,
                                max_workers=2)
        record = obs.collect(
            "sweep",
            config={"rows": [{"label": "T1+descending", **row}
                             for row in rows]})
    finally:
        obs.disable()
    obs_records.write_record(record, runs)
    return record, runs


def _events_by_phase(trace):
    out = {"X": [], "C": [], "M": []}
    for event in trace["traceEvents"]:
        out[event["ph"]].append(event)
    return out


class TestTraceExport:
    def test_validates_and_has_all_phases(self, sweep_history):
        record, _ = sweep_history
        trace = export.records_to_trace([record])
        assert export.validate_trace(trace) == len(trace["traceEvents"])
        assert trace["displayTimeUnit"] == "ms"
        phases = _events_by_phase(trace)
        assert phases["X"] and phases["C"] and phases["M"]
        for event in phases["X"]:
            assert event["dur"] >= 0 and event["ts"] >= 0

    def test_worker_spans_get_own_tids(self, sweep_history):
        record, _ = sweep_history
        phases = _events_by_phase(export.records_to_trace([record]))
        sequences = [e for e in phases["X"] if e["name"] == "sequence"]
        assert sequences, "parallel sweep must export sequence spans"
        worker_tids = {e["tid"] for e in sequences}
        assert worker_tids and MAIN_TID not in worker_tids
        # every worker pid annotated on the span became its tid
        for event in sequences:
            assert event["tid"] == event["args"]["worker_pid"]
        # and every tid got a thread_name metadata event
        named = {e["tid"] for e in phases["M"]
                 if e["name"] == "thread_name"}
        assert worker_tids <= named

    def test_hierarchy_preserved_within_worker(self, sweep_history):
        """A sequence's children stay inside its exported window."""
        record, _ = sweep_history
        phases = _events_by_phase(export.records_to_trace([record]))
        by_tid = {}
        for event in phases["X"]:
            by_tid.setdefault(event["tid"], []).append(event)
        checked = 0
        for tid, events in by_tid.items():
            if tid == MAIN_TID:
                continue
            sequences = [e for e in events if e["name"] == "sequence"]
            inner = [e for e in events if e["name"] in ("sample", "list")]
            assert inner
            for child in inner:
                assert any(
                    seq["ts"] - 0.1 <= child["ts"] and
                    child["ts"] + child["dur"]
                    <= seq["ts"] + seq["dur"] + 0.1
                    for seq in sequences)
                checked += 1
        assert checked

    def test_counter_events_carry_values(self, sweep_history):
        record, _ = sweep_history
        phases = _events_by_phase(export.records_to_trace([record]))
        names = {e["name"] for e in phases["C"]}
        assert "harness.instances" in names
        for event in phases["C"]:
            assert isinstance(event["args"]["value"], (int, float))

    def test_round_trips_through_jsonl(self, sweep_history, tmp_path):
        """The satellite: export a *recorded* parallel sweep."""
        _, runs = sweep_history
        loaded = obs_records.load_records(runs)
        out = export.write_trace(loaded, tmp_path / "trace.json")
        trace = json.loads(out.read_text())
        assert export.validate_trace(trace) > 0
        tids = {e["tid"] for e in trace["traceEvents"]
                if e["ph"] == "X" and e["name"] == "sequence"}
        assert tids and MAIN_TID not in tids

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            export.validate_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            export.validate_trace({"traceEvents": [{"ph": "Z",
                                                    "pid": 1, "tid": 1}]})
        with pytest.raises(ValueError):
            export.validate_trace(
                {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1}]})

    def test_memory_counter_track_from_resources(self):
        record = obs_records.RunRecord(
            name="mem", spans=[{"name": "root", "start_ns": 0,
                                "duration_ns": 1_000_000}],
            metrics={"resources": [{"ts": 1.0, "rss_bytes": 100,
                                    "rss_peak_bytes": 150}]})
        trace = export.records_to_trace([record])
        export.validate_trace(trace)
        mem = [e for e in trace["traceEvents"]
               if e.get("cat") == "memory"]
        assert {e["name"] for e in mem} == {"mem.rss_bytes",
                                            "mem.rss_peak_bytes"}
        assert all(e["ph"] == "C" for e in mem)

    def test_validate_rejects_bool_memory_counter(self):
        trace = {"traceEvents": [
            {"name": "mem.rss_bytes", "cat": "memory", "ph": "C",
             "pid": 1, "tid": 1, "ts": 0.0, "args": {"value": True}},
        ]}
        with pytest.raises(ValueError):
            export.validate_trace(trace)


class TestCollapsedStacks:
    def test_span_self_time_lines(self, sweep_history):
        record, _ = sweep_history
        lines = export.collapsed_stacks([record], source="spans")
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack.startswith("sweep")
            assert int(weight) > 0
        assert any(";cell;sequence;" in line for line in lines)

    def test_profile_source_empty_without_attribution(self,
                                                      sweep_history):
        record, _ = sweep_history
        assert export.collapsed_stacks([record],
                                       source="profile") == []

    def test_unknown_source_rejected(self, sweep_history):
        record, _ = sweep_history
        with pytest.raises(ValueError):
            export.collapsed_stacks([record], source="wat")


class TestProfiling:
    def test_env_parsing(self, monkeypatch):
        cases = {"": 0, "0": 0, "off": 0, "junk": 0,
                 "1": profiling.DEFAULT_TOP_K,
                 "true": profiling.DEFAULT_TOP_K, "40": 40}
        for raw, expected in cases.items():
            monkeypatch.setenv("REPRO_PROFILE", raw)
            assert env_top_k("REPRO_PROFILE",
                             profiling.DEFAULT_TOP_K) == expected

    def test_top_level_span_gets_profile(self):
        obs.enable(profile=5)
        obs.reset()
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    sum(i * i for i in range(20_000))
            (root,) = obs.pop_finished()
        finally:
            obs.disable()
        assert root.profile, "top-level span must carry profile stats"
        assert len(root.profile) <= 5
        entry = root.profile[0]
        assert {"func", "file", "line", "ncalls", "tottime",
                "cumtime"} <= set(entry)
        # cProfile cannot nest: only the root profiles
        assert root.children[0].profile is None
        # and the attribution rides to_dict/from_dict round trips
        clone = obs.Span.from_dict(root.to_dict())
        assert clone.profile == root.profile

    def test_disabled_attaches_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        obs.enable()
        obs.reset()
        try:
            with obs.span("outer"):
                pass
            (root,) = obs.pop_finished()
        finally:
            obs.disable()
        assert root.profile is None
        assert "profile" not in root.to_dict()

    def test_format_profile(self):
        entries = [{"func": "f", "file": "x.py", "line": 3,
                    "ncalls": 2, "tottime": 0.5, "cumtime": 1.0}]
        text = profiling.format_profile(entries)
        assert "f (x.py:3)" in text
        assert "REPRO_PROFILE" in profiling.format_profile([])


class TestHistogramPercentiles:
    def test_summary_has_quantiles(self):
        h = metrics.Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100 and s["min"] == 1.0
        assert s["p50"] == pytest.approx(50.5)
        assert s["p95"] == pytest.approx(95.05)
        assert s["p99"] == pytest.approx(99.01)

    def test_single_sample(self):
        h = metrics.Histogram()
        h.observe(7.0)
        s = h.summary()
        assert s["p50"] == s["p99"] == 7.0

    def test_streaming_fields_exact_past_cap(self):
        h = metrics.Histogram()
        for v in range(metrics.MAX_SAMPLES + 50):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == metrics.MAX_SAMPLES + 50
        assert s["max"] == float(metrics.MAX_SAMPLES + 49)

    def test_trends_surface_task_percentiles(self, sweep_history):
        record, _ = sweep_history
        rows = obs_report.trend_rows([record])
        quantiles = rows[0]["quantiles"].get("parallel.task_ms")
        assert quantiles and {"p50", "p95", "p99"} <= set(quantiles)
        text = obs_report.format_trends(rows)
        assert "task ms p50/p95/p99" in text


class TestAtomicRecords:
    def test_round_trip_and_corruption_counter(self, tmp_path):
        runs = tmp_path / "runs.jsonl"
        record = obs_records.RunRecord(name="r1",
                                       config={"seed": 1})
        obs_records.write_record(record, runs)
        with open(runs, "a") as fh:
            fh.write('{"name": "torn", "con\n')
        obs_records.write_record(
            obs_records.RunRecord(name="r2"), runs, fsync=False)
        metrics.enable()
        try:
            metrics.reset()
            loaded = obs_records.load_records(runs)
            corrupted = metrics.snapshot()["counters"].get(
                "records.corrupted")
        finally:
            metrics.disable()
        assert [r.name for r in loaded] == ["r1", "r2"]
        assert corrupted == 1


class TestDashboard:
    def test_self_contained_html(self, sweep_history):
        record, _ = sweep_history
        html = obs.render_dashboard([record], title="t")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "table view" in html
        for external in ("<script", "src=", "href=", "@import",
                         "url("):
            assert external not in html

    def test_divergence_and_worker_sections(self, sweep_history):
        record, _ = sweep_history
        html = obs.render_dashboard([record])
        assert "Sim-vs-model divergence" in html
        assert "Worker task-time distribution" in html


class TestExportCLI:
    def test_missing_runs_exits_cleanly(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        for argv in (["export", "trace", "--runs", missing,
                      "--out", str(tmp_path / "t.json")],
                     ["export", "flame", "--runs", missing,
                      "--out", str(tmp_path / "f.txt")],
                     ["report", "html", "--runs", missing,
                      "--out", str(tmp_path / "d.html")],
                     ["report", "trends", "--runs", missing]):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert "no run records" in str(err.value)

    def test_filters_that_match_nothing_exit_cleanly(self,
                                                     sweep_history,
                                                     tmp_path):
        _, runs = sweep_history
        with pytest.raises(SystemExit) as err:
            cli.main(["export", "trace", "--runs", str(runs),
                      "--name", "nosuchbench",
                      "--out", str(tmp_path / "t.json")])
        assert "matched the filters" in str(err.value)

    def test_trace_flame_html_from_history(self, sweep_history,
                                           tmp_path, capsys):
        _, runs = sweep_history
        trace_out = tmp_path / "trace.json"
        flame_out = tmp_path / "flame.txt"
        html_out = tmp_path / "dash.html"
        assert cli.main(["export", "trace", "--runs", str(runs),
                         "--out", str(trace_out)]) == 0
        assert cli.main(["export", "flame", "--runs", str(runs),
                         "--out", str(flame_out)]) == 0
        assert cli.main(["report", "html", "--runs", str(runs),
                         "--out", str(html_out)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_out.read_text())
        assert export.validate_trace(trace) > 0
        assert flame_out.read_text().strip()
        assert html_out.read_text().startswith("<!DOCTYPE html>")

    def test_report_json_modes(self, sweep_history, capsys):
        _, runs = sweep_history
        assert cli.main(["report", "trends", "--runs", str(runs),
                         "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["name"] == "sweep"
        assert cli.main(["report", "divergence", "--runs", str(runs),
                         "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and {"label", "n", "error"} <= set(rows[0])

    def test_compare_json_mode(self, sweep_history, tmp_path, capsys):
        _, runs = sweep_history
        baseline = tmp_path / "base.json"
        assert cli.main(["report", "baseline", "--runs", str(runs),
                         "--out", str(baseline)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "compare", "--runs", str(runs),
                         "--baseline", str(baseline), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is False
        assert payload["summary"]["unchanged"] > 0
        assert all("classification" in d for d in payload["deltas"])

    def test_sweep_record_cli_end_to_end(self, tmp_path, capsys):
        """sweep --record -> export trace: the acceptance path."""
        runs = tmp_path / "cli-runs.jsonl"
        assert cli.main(["sweep", "--alpha", "1.7", "--beta", "21.0",
                         "--ns", "400", "--sequences", "2",
                         "--graphs", "1", "--workers", "2",
                         "--seed", "5", "--record", str(runs)]) == 0
        assert not obs.is_enabled()
        trace_out = tmp_path / "trace.json"
        assert cli.main(["export", "trace", "--runs", str(runs),
                         "--out", str(trace_out)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_out.read_text())
        assert export.validate_trace(trace) > 0
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert {"cell", "sequence"} <= names


class TestProfileCLIExports:
    def test_profile_trace_and_flame_out(self, tmp_path, capsys):
        trace_out = tmp_path / "p.trace.json"
        flame_out = tmp_path / "p.flame.txt"
        assert cli.main(["profile", "--n", "800", "--methods", "T1",
                         "--orders", "descending",
                         "--trace-out", str(trace_out),
                         "--flame-out", str(flame_out)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_out.read_text())
        assert export.validate_trace(trace) > 0
        assert flame_out.read_text().strip()
