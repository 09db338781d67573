"""Tests for graph I/O and the command-line interface."""

import numpy as np
import pytest

from repro import Graph
from repro.cli import main
from repro.graphs.io import (
    load_degree_sequence,
    load_edge_list,
    save_degree_sequence,
    save_edge_list,
)


class TestEdgeListIO:
    def test_roundtrip(self, bowtie_graph, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(bowtie_graph, path)
        loaded = load_edge_list(path)
        assert loaded.n == bowtie_graph.n
        assert loaded.m == bowtie_graph.m
        np.testing.assert_array_equal(loaded.edges, bowtie_graph.edges)

    def test_load_dedups_and_drops_loops(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_text("# comment\n0 1\n1 0\n2 2\n1 2\n")
        graph = load_edge_list(path)
        assert graph.m == 2
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(2, 2)

    def test_load_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        graph = load_edge_list(path, n=3)
        assert graph.n == 3 and graph.m == 0

    def test_bad_shape(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_degree_sequence_roundtrip(self, tmp_path):
        path = tmp_path / "deg.txt"
        save_degree_sequence([3, 1, 4, 1, 5], path)
        np.testing.assert_array_equal(load_degree_sequence(path),
                                      [3, 1, 4, 1, 5])


class TestCli:
    def test_generate_and_triangles(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["generate", "--n", "400", "--alpha", "1.7",
                     "--out", str(out), "--seed", "3"]) == 0
        assert out.exists()
        assert main(["triangles", "--graph", str(out), "--method", "E1",
                     "--order", "descending"]) == 0
        captured = capsys.readouterr().out
        assert "triangles" in captured
        assert "c_n" in captured

    def test_triangles_matches_library(self, tmp_path, capsys):
        from repro import DescendingDegree, count_triangles, orient
        out = tmp_path / "g.txt"
        main(["generate", "--n", "300", "--alpha", "2.1",
              "--out", str(out), "--seed", "5"])
        graph = load_edge_list(out)
        expected = count_triangles(orient(graph, DescendingDegree()))
        capsys.readouterr()
        main(["triangles", "--graph", str(out), "--method", "T1"])
        assert f"{expected} triangles" in capsys.readouterr().out

    def test_model_command(self, capsys):
        assert main(["model", "--alpha", "1.5", "--n", "1000",
                     "--method", "T1", "--map", "descending"]) == 0
        out = capsys.readouterr().out
        assert "142.8" in out  # Table 5's n=1e3 cell (142.85)

    def test_model_fast_flag(self, capsys):
        assert main(["model", "--alpha", "1.5", "--n", "1000000000",
                     "--method", "T1", "--map", "descending",
                     "--eps", "1e-4"]) == 0
        assert "Algorithm 2" in capsys.readouterr().out

    def test_limit_command(self, capsys):
        assert main(["limit", "--alpha", "2.5", "--method", "T2",
                     "--map", "rr"]) == 0
        assert "lim" in capsys.readouterr().out

    def test_decide_in_limit(self, capsys):
        assert main(["decide", "--alpha", "1.45"]) == 0
        out = capsys.readouterr().out
        assert "winner: hash" in out

    def test_decide_on_graph(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        main(["generate", "--n", "300", "--alpha", "2.1",
              "--out", str(out_file), "--seed", "5"])
        capsys.readouterr()
        assert main(["decide", "--graph", str(out_file)]) == 0
        assert "winner" in capsys.readouterr().out

    def test_regimes_command(self, capsys):
        assert main(["regimes", "1.3", "1.45", "1.7", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "1.450" in out

    def test_bad_beta(self):
        with pytest.raises(SystemExit):
            main(["limit", "--alpha", "0.9", "--method", "T1",
                  "--map", "descending"])

    def test_predict_command(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        main(["generate", "--n", "500", "--alpha", "1.8",
              "--out", str(out_file), "--seed", "2"])
        capsys.readouterr()
        assert main(["predict", "--graph", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "model c_n" in out
        assert "measured" in out
        assert "w = c(E1)/c(T1)" in out

    def test_predict_empty_graph(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(SystemExit):
            main(["predict", "--graph", str(path)])

    def test_table_command(self, tmp_path, capsys):
        assert main(["table", "table05", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table05.txt").exists()


class TestCliObservability:
    """The --version / --trace flags and the profile subcommand."""

    @pytest.fixture(autouse=True)
    def clean_obs(self):
        from repro import obs
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_trace_flag_prints_span_tree(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main(["generate", "--n", "300", "--alpha", "1.7",
              "--out", str(out), "--seed", "4"])
        capsys.readouterr()
        assert main(["triangles", "--graph", str(out), "--method", "T1",
                     "--trace"]) == 0
        text = capsys.readouterr().out
        assert "-- trace" in text
        for phase in ("relabel", "orient", "list"):
            assert phase in text
        assert "lister.ops" in text

    def test_trace_disabled_afterwards(self, tmp_path, capsys):
        from repro import obs
        out = tmp_path / "g.txt"
        main(["generate", "--n", "300", "--alpha", "1.7",
              "--out", str(out), "--seed", "4"])
        main(["triangles", "--graph", str(out), "--trace"])
        assert not obs.is_enabled()

    def test_trace_env_knob(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "g.txt"
        main(["generate", "--n", "300", "--alpha", "1.7",
              "--out", str(out), "--seed", "4"])
        capsys.readouterr()
        monkeypatch.setenv("REPRO_TRACE", "1")
        main(["triangles", "--graph", str(out)])
        assert "-- trace" in capsys.readouterr().out

    def test_no_trace_no_tree(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main(["generate", "--n", "300", "--alpha", "1.7",
              "--out", str(out), "--seed", "4"])
        capsys.readouterr()
        main(["triangles", "--graph", str(out)])
        assert "-- trace" not in capsys.readouterr().out

    def test_profile_prints_phase_table(self, capsys):
        assert main(["profile", "--n", "400", "--alpha", "1.7",
                     "--seed", "2", "--methods", "T1,E1",
                     "--orders", "descending"]) == 0
        text = capsys.readouterr().out
        assert "phase breakdown" in text
        for column in ("relabel ms", "orient ms", "list ms"):
            assert column in text
        # one row per (order, method) combination
        assert text.count("descending") >= 2

    def test_profile_on_graph_file(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main(["generate", "--n", "300", "--alpha", "1.7",
              "--out", str(out), "--seed", "4"])
        capsys.readouterr()
        assert main(["profile", "--graph", str(out),
                     "--methods", "T1", "--orders",
                     "descending,ascending"]) == 0
        text = capsys.readouterr().out
        assert "ascending" in text and "descending" in text

    def test_profile_record(self, tmp_path, capsys):
        import json
        sink = tmp_path / "runs.jsonl"
        assert main(["profile", "--n", "400", "--alpha", "1.7",
                     "--seed", "2", "--methods", "T1",
                     "--orders", "descending",
                     "--record", str(sink)]) == 0
        (record,) = [json.loads(line)
                     for line in sink.read_text().splitlines()]
        assert record["name"] == "profile"
        assert record["config"]["methods"] == ["T1"]
        names = {child["name"] for root in record["spans"]
                 for child in root.get("children", [])}
        assert {"relabel", "orient", "list"} <= names

    def test_profile_unknown_order(self):
        with pytest.raises(SystemExit):
            main(["profile", "--n", "300", "--orders", "sideways"])


class TestCliLive:
    """``repro top`` / ``repro serve-metrics`` and the live env knobs."""

    @pytest.fixture(autouse=True)
    def clean_live(self):
        from repro import obs
        from repro.obs import bus, live
        live.disable()
        bus.reset()
        obs.disable()
        obs.reset()
        yield
        live.disable()
        bus.reset()
        obs.disable()
        obs.reset()

    def _write_stream(self, tmp_path):
        import json
        events = [
            {"type": "phase", "ts": 1.0, "pid": 1, "name": "table",
             "status": "start"},
            {"type": "progress", "ts": 2.0, "pid": 1, "scope": "cell",
             "label": "cell n=200 T1", "done": 1.0, "total": 2.0,
             "frac": 0.5, "eta_s": 3.0, "ops_done": 5.0,
             "ops_predicted": 10.0},
            {"type": "heartbeat", "ts": 3.0, "pid": 1,
             "worker_pid": 42, "task": "seq 0 n=200 T1"},
        ]
        path = tmp_path / "events.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write_stream(tmp_path)
        assert main(["validate", str(path)]) == 0
        assert "3 line(s) OK" in capsys.readouterr().out

    def test_validate_rejects_bad_stream(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "progress", "ts": 1.0, "pid": 1}\n'
                        "not json at all\n")
        good = self._write_stream(tmp_path)
        assert main(["validate", str(good), str(path)]) == 1
        captured = capsys.readouterr()
        assert "3 line(s) OK" in captured.out
        assert "schema error" in captured.err
        assert "not JSON" in captured.err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_top_once_renders_state(self, tmp_path, capsys):
        path = self._write_stream(tmp_path)
        assert main(["top", "--events", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "table" in out
        assert "50.0%" in out
        assert "pid 42" in out

    def test_serve_metrics_once_scrapes(self, tmp_path, capsys):
        import threading
        import urllib.request
        path = self._write_stream(tmp_path)
        result = {}

        def serve():
            result["rc"] = main(["serve-metrics", "--port", "0",
                                 "--events", str(path), "--once"])

        thread = threading.Thread(target=serve, daemon=True)
        # capsys can't capture across threads reliably; read the
        # announced port by polling the captured stdout instead.
        thread.start()
        port = None
        for __ in range(100):
            out = capsys.readouterr().out
            if "metrics" in out:
                port = int(out.split(":")[-1].split("/")[0])
                break
            threading.Event().wait(0.05)
        assert port is not None, "server never announced its port"
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5) as rsp:
            assert rsp.status == 200
            assert "0.0.4" in rsp.headers["Content-Type"]
            body = rsp.read().decode()
        thread.join(timeout=5)
        assert result["rc"] == 0
        assert "repro_live_events 3" in body
        assert "repro_live_progress_cell 0.5" in body
        assert "repro_live_workers 1" in body

    def test_live_env_wraps_command(self, tmp_path, monkeypatch, capsys):
        from repro.obs import bus
        events = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LIVE", "1")
        monkeypatch.setenv("REPRO_LIVE_EVENTS", str(events))
        monkeypatch.setenv("REPRO_LIVE_INTERVAL", "0.05")
        assert main(["model", "--alpha", "1.5", "--n", "1000",
                     "--method", "T1", "--map", "descending"]) == 0
        count, errors = bus.validate_file(events)
        assert count >= 1
        assert errors == []
        sample_lines = [line for line in events.read_text().splitlines()
                        if '"resource.sample"' in line]
        assert sample_lines, "sampler emitted no samples"


class TestCliRunsFileAlias:
    """--runs-file is accepted wherever --runs is (report + export)."""

    def _history(self, tmp_path):
        from repro import obs
        from repro.obs import records
        obs.disable()
        obs.reset()
        obs.enable()
        with obs.span("table", name="t"):
            obs.metrics.inc("lister.ops", 10)
        record = records.collect("bench_x")
        sink = tmp_path / "runs.jsonl"
        records.write_record(record, sink)
        obs.disable()
        obs.reset()
        return sink

    def test_report_trends_runs_file(self, tmp_path, capsys):
        sink = self._history(tmp_path)
        assert main(["report", "trends", "--runs-file", str(sink)]) == 0
        out_alias = capsys.readouterr().out
        assert main(["report", "trends", "--runs", str(sink)]) == 0
        out_plain = capsys.readouterr().out
        assert "bench_x" in out_alias
        assert out_alias == out_plain

    def test_export_trace_runs_file(self, tmp_path):
        import json
        sink = self._history(tmp_path)
        out = tmp_path / "trace.json"
        assert main(["export", "trace", "--runs-file", str(sink),
                     "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
