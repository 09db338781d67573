"""Tests of the benchmark itself.

Run from the root of a checkout (takes about a minute)::

    python3 -m pytest perfbench/tests -q

They pin the workload and metric names, check that one command
prints every metric with its unit and passes every check, and that
the benchmark refuses to run where there is no program to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ["sim_cell", "list_collect", "auto_count"]
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
              "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER = [
    "setup.import_s", "setup.native_build_s", "distributions.sample_s",
    "graphs.generate_s", "graphs.generate_ns_per_edge",
    "graphs.swap_repaired_stubs", "graphs.havel_hakimi_fallbacks",
    "graphs.build_s", "graphs.config_rejected_frac",
    "orientations.relabel_s", "orientations.orient_s",
    "orientations.orient_ns_per_edge", "listing.list_s",
    "listing.materialise_s", "engine.list_array_s", "engine.count_s",
    "engine.ops", "engine.triangles", "planner.plan_s",
    "planner.degenerate_order_s", "core.cost_s", "core.model_s",
    "trace.op_s", "trace.overhead_frac",
]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_names_are_pinned():
    assert [w["name"] for w in BENCH["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert [m["name"] for m in BENCH["per_layer"]] == PER_LAYER


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCH["end_to_end"])
    setup_bound = next(m["bound"] for m in BENCH["end_to_end"]
                       if m["name"] == "setup_s")
    for metric in BENCH["end_to_end"]:
        assert 0 < metric["bound"] <= setup_bound <= 0.25
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_command_prints_every_metric_and_passes_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["perfbench"]
    assert info["native_threads"] >= 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        for name in ("setup_s", "ops_per_s", "op_s_p50", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert result["metrics"]["trace.op_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sim_cell", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
