"""JSONL run records: machine-readable trail of every measured run.

A :class:`RunRecord` bundles what a benchmark or experiment just did --
the finished span trees, a metrics snapshot, the run configuration
(method, permutation, n, seed, ...) and environment metadata (git
revision, python version, wall-clock timestamp) -- and appends it as
one ``run.end`` line to a ``runs.jsonl`` sink (default
``benchmarks/results/runs.jsonl``, overridable via the
``REPRO_RUNS_FILE`` environment variable or an explicit path). The
line is written and read back through :mod:`repro.obs.bus`, like every
other typed line.

:class:`~repro.listing.base.ListingResult` objects round-trip via
:func:`listing_result_to_dict` / :func:`listing_result_from_dict`.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import shutil
import subprocess
import sys
import time

from repro.obs import bus as _bus
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.bus import json_default

__all__ = [
    "DEFAULT_RUNS_PATH",
    "RunRecord",
    "collect",
    "git_revision",
    "host_meta",
    "json_default",
    "listing_result_from_dict",
    "listing_result_to_dict",
    "load_records",
    "record_run",
    "runs_path",
    "write_record",
]

DEFAULT_RUNS_PATH = pathlib.Path("benchmarks") / "results" / "runs.jsonl"

_git_rev_cache: str | None = None
_git_rev_known = False


def runs_path(path=None) -> pathlib.Path:
    """Resolve the JSONL sink: explicit arg > ``REPRO_RUNS_FILE`` > default."""
    if path is not None:
        return pathlib.Path(path)
    env = os.environ.get("REPRO_RUNS_FILE", "").strip()
    return pathlib.Path(env) if env else DEFAULT_RUNS_PATH


_compiler_version_cache = _UNRESOLVED = object()


def _compiler_version() -> str | None:
    """First line of ``cc/gcc --version``, resolved once per process."""
    global _compiler_version_cache
    if _compiler_version_cache is _UNRESOLVED:
        _compiler_version_cache = None
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is not None:
            try:
                proc = subprocess.run(
                    [compiler, "--version"], capture_output=True,
                    text=True, timeout=10)
                if proc.returncode == 0 and proc.stdout:
                    _compiler_version_cache = \
                        proc.stdout.splitlines()[0].strip()
            except (OSError, subprocess.SubprocessError):
                pass
    return _compiler_version_cache


def host_meta() -> dict:
    """Host metadata making records comparable across machines.

    Attached to benchmark sidecars and surfaced by ``repro report
    trends``: results from a 4-core CI runner and a 64-core box must
    never be averaged silently. ``native`` reports whether the
    compiled kernels actually resolved in this process (with the
    failure state when they did not), ``compiler`` the toolchain
    version line, and ``native_threads`` the thread count the block
    driver would use.
    """
    import platform
    from repro.engine import native as _native
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "native": _native.available(),
        "native_state": _native.status()["state"],
        "native_threads": _native.resolve_threads(),
        "compiler": _compiler_version(),
    }


def git_revision() -> str | None:
    """Short git revision of the repo containing this package, if any."""
    global _git_rev_cache, _git_rev_known
    if _git_rev_known:
        return _git_rev_cache
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=pathlib.Path(__file__).resolve().parent)
        _git_rev_cache = (proc.stdout.strip()
                          if proc.returncode == 0 and proc.stdout.strip()
                          else None)
    except (OSError, subprocess.SubprocessError):
        _git_rev_cache = None
    _git_rev_known = True
    return _git_rev_cache


@dataclasses.dataclass
class RunRecord:
    """One machine-readable run: spans + metrics + config + metadata."""

    name: str
    config: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)
    metrics: dict = dataclasses.field(default_factory=dict)
    meta: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        """The record as a ``run.end`` event, stamped now like
        :func:`repro.obs.bus.emit` stamps an event."""
        return {"type": "run.end", "ts": time.time(), "pid": os.getpid(),
                **dataclasses.asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(name=data.get("name", ""),
                   config=data.get("config", {}) or {},
                   spans=data.get("spans", []) or [],
                   metrics=data.get("metrics", {}) or {},
                   meta=data.get("meta", {}) or {})

    def phase_totals(self) -> dict[str, int]:
        """Aggregate ``duration_ns`` by span name over all span trees."""
        totals: dict[str, int] = {}

        def walk(node: dict) -> None:
            name = node.get("name", "?")
            totals[name] = totals.get(name, 0) + int(
                node.get("duration_ns", 0))
            for child in node.get("children", ()):
                walk(child)

        for root in self.spans:
            walk(root)
        return totals


def collect(name: str, config: dict | None = None,
            spans=None) -> RunRecord:
    """Assemble a record from the current obs state.

    Drains :func:`repro.obs.spans.pop_finished` unless an explicit list
    of :class:`~repro.obs.spans.Span` objects (or span dicts) is given,
    and snapshots the metrics registry.
    """
    if spans is None:
        spans = _spans.pop_finished()
    span_dicts = [s.to_dict() if hasattr(s, "to_dict") else s
                  for s in spans]
    metrics = _metrics.snapshot()
    # While the live runtime is on, the sampler's ring-buffered
    # RSS/CPU series rides into the record (lazy import: live imports
    # records' siblings, never the other way on the cold path).
    from repro.obs import live as _live
    if _live.is_enabled():
        series = _live.sampler_series()
        if series:
            metrics["resources"] = series
    # Likewise the array ledger: the full per-tag/per-span attribution
    # rides the record whenever REPRO_MEM_LEDGER was on for the run.
    from repro.obs import memory as _memory
    if _memory.is_enabled():
        metrics["memory"] = _memory.ledger_summary()
    return RunRecord(
        name=name,
        config=dict(config or {}),
        spans=span_dicts,
        metrics=metrics,
        meta={
            "git_rev": git_revision(),
            "python": sys.version.split()[0],
            "timestamp_unix": time.time(),
        },
    )


def write_record(record: RunRecord, path=None,
                 fsync: bool | None = None) -> pathlib.Path:
    """Append ``record`` as one JSONL line; returns the sink path.

    See :func:`repro.obs.bus.append_jsonl_line` for the atomicity and
    fsync contract; :func:`load_records` keeps its skip-with-warning
    path as the fallback for histories written before this guarantee
    (or torn by power loss mid-sector).
    """
    return _bus.append_jsonl_line(runs_path(path), record.to_dict(),
                                  fsync=fsync)


def record_run(name: str, config: dict | None = None,
               path=None) -> pathlib.Path:
    """:func:`collect` + :func:`write_record` in one call."""
    return write_record(collect(name, config), path)


def load_records(path=None) -> list[RunRecord]:
    """Parse every record in the sink (missing file = empty list).

    A truncated or corrupted line (a crashed writer, a partial append)
    must not take the whole history down: bad lines are skipped and
    counted, and one structured WARNING summarizes them via
    :mod:`repro.obs.logging`.
    """
    sink = runs_path(path)
    if not sink.exists():
        return []
    lines, __ = _bus.read_jsonl(sink, counter="records.corrupted",
                                what="run-record")
    return [RunRecord.from_dict(value) for __, value in lines
            if isinstance(value, dict)]


def listing_result_to_dict(result) -> dict:
    """JSON-ready dict of a :class:`ListingResult` (lossless)."""
    return {
        "method": result.method,
        "count": int(result.count),
        "triangles": ([list(t) for t in result.triangles]
                      if result.triangles is not None else None),
        "ops": int(result.ops),
        "comparisons": int(result.comparisons),
        "hash_inserts": int(result.hash_inserts),
        "n": int(result.n),
        "extra": dict(result.extra),
    }


def listing_result_from_dict(data: dict):
    """Inverse of :func:`listing_result_to_dict`."""
    from repro.listing.base import ListingResult
    triangles = data.get("triangles")
    if triangles is not None:
        triangles = [tuple(t) for t in triangles]
    return ListingResult(
        method=data["method"],
        count=int(data.get("count", 0)),
        triangles=triangles,
        ops=int(data.get("ops", 0)),
        comparisons=int(data.get("comparisons", 0)),
        hash_inserts=int(data.get("hash_inserts", 0)),
        n=int(data.get("n", 0)),
        extra=dict(data.get("extra") or {}),
    )
