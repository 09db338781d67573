"""Observability: spans, metrics, run records, and structured logging.

The paper is a *cost model* -- this subpackage makes the reproduction's
actual costs observable. Four small layers, all off by default and
near-free when disabled:

* :mod:`repro.obs.spans` -- hierarchical wall-clock timers
  (``with span("orient"): ...``) with optional tracemalloc peaks.
* :mod:`repro.obs.metrics` -- process-local named counters / gauges /
  histograms the instrumented code publishes into (``lister.ops``,
  ``orient.edges_flipped``, ``generator.rejections``, ...).
* :mod:`repro.obs.records` -- JSONL run records bundling span trees,
  metric snapshots, run config, and git/python metadata.
* :mod:`repro.obs.logging` -- structured stdlib logging with the
  ``REPRO_LOG`` env knob.
* :mod:`repro.obs.bus` -- every JSONL line the package writes is a
  typed event; the bus holds the one appender, reader and validator
  (``repro validate``).
* :mod:`repro.obs.bus` + :mod:`repro.obs.live` -- the live-telemetry
  runtime (``REPRO_LIVE=1``): a pub/sub event bus, a background
  resource sampler, model-ops progress/ETA events, worker heartbeats
  with a stall watchdog, and the ``repro top`` /
  ``repro serve-metrics`` read surface.
* :mod:`repro.obs.audit` -- the model-conformance audit layer
  (``REPRO_AUDIT=1``): per-decision predicted-vs-actual records for
  every auto-routed planner pick, realized regret, misplan diagnosis,
  and the ``repro audit`` read surface.
* :mod:`repro.obs.memory` -- the memory observability layer
  (``REPRO_MEM_LEDGER=1``): an array ledger attributing bytes to
  tagged allocations and owning spans, a footprint conformance model
  (predicted vs attributed bytes), per-span allocation attribution
  (``REPRO_TRACEMALLOC=K``), a RAM-budget watchdog
  (``REPRO_MEM_BUDGET``), and the ``repro mem`` read surface.

Two read-side layers analyze that history (``repro report`` on the
command line):

* :mod:`repro.obs.report` -- query/aggregation over the JSONL run
  history (median + MAD across repeats, trend and divergence tables).
* :mod:`repro.obs.baselines` -- baseline store + comparison engine
  classifying each cell as improved / unchanged / regressed (the CI
  perf-regression gate).

And three export layers turn it into artifacts for standard viewers:

* :mod:`repro.obs.export` -- Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and collapsed-stack flame-graph text
  (``repro export trace|flame``).
* :mod:`repro.obs.profiling` -- per-top-level-span :mod:`cProfile`
  attribution behind the ``REPRO_PROFILE`` knob.
* :mod:`repro.obs.dashboard` -- self-contained static HTML run-history
  dashboard (``repro report html``).

Typical use::

    from repro import obs

    obs.enable()                  # or REPRO_TRACE=1 + enable_from_env()
    ...run the pipeline...
    for root in obs.pop_finished():
        print(obs.format_span_tree(root))
    obs.record_run("my-run", config={"seed": 7})
    obs.disable()
"""

from __future__ import annotations

from repro.obs import audit, baselines, bus, dashboard, export, live
from repro.obs import logging as obs_logging
from repro.obs import memory, metrics, profiling, records, report, spans
from repro.obs.baselines import (Baseline, build_baseline, compare,
                                 has_regressions, load_baseline,
                                 save_baseline)
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.env import env_flag
from repro.obs.export import (collapsed_stacks, records_to_trace,
                              validate_trace, write_collapsed,
                              write_trace)
from repro.obs.logging import get_logger, log_event, setup as setup_logging
from repro.obs.records import (RunRecord, collect, git_revision,
                               listing_result_from_dict,
                               listing_result_to_dict, load_records,
                               record_run, write_record)
from repro.obs.spans import (Span, current_span, format_span_tree,
                             pop_finished, span)

__all__ = [
    "Baseline",
    "RunRecord",
    "Span",
    "audit",
    "baselines",
    "build_baseline",
    "bus",
    "collapsed_stacks",
    "collect",
    "compare",
    "dashboard",
    "export",
    "live",
    "has_regressions",
    "load_baseline",
    "report",
    "save_baseline",
    "current_span",
    "disable",
    "enable",
    "enable_from_env",
    "format_span_tree",
    "get_logger",
    "git_revision",
    "is_enabled",
    "listing_result_from_dict",
    "listing_result_to_dict",
    "load_records",
    "log_event",
    "memory",
    "metrics",
    "metrics_snapshot",
    "obs_logging",
    "pop_finished",
    "profiling",
    "record_run",
    "records",
    "records_to_trace",
    "render_dashboard",
    "reset",
    "reset_metrics",
    "setup_logging",
    "span",
    "spans",
    "validate_trace",
    "write_collapsed",
    "write_dashboard",
    "write_record",
    "write_trace",
]

def enable(memory: bool = False, profile: int | None = None,
           alloc: int | None = None) -> None:
    """Enable span collection and metric publication together.

    ``profile`` forwards to :func:`repro.obs.spans.enable`: top-K
    cProfile attribution per top-level span (``None`` consults the
    ``REPRO_PROFILE`` environment knob). ``alloc`` likewise: top-K
    tracemalloc allocation attribution (``None`` consults
    ``REPRO_TRACEMALLOC``).
    """
    spans.enable(memory=memory, profile=profile, alloc=alloc)
    metrics.enable()


def disable() -> None:
    """Disable span collection and metric publication."""
    spans.disable()
    metrics.disable()


def is_enabled() -> bool:
    """Whether the observability layer is currently recording."""
    return spans.is_enabled() or metrics.is_enabled()


def enable_from_env() -> bool:
    """Enable when ``REPRO_TRACE`` is truthy; returns the decision.

    ``REPRO_TRACE_MEMORY=1`` additionally turns on tracemalloc peaks.
    """
    if env_flag("REPRO_TRACE"):
        enable(memory=env_flag("REPRO_TRACE_MEMORY"))
        return True
    return False


def reset() -> None:
    """Clear finished spans, the open stack, and every metric."""
    spans.reset()
    metrics.reset()


def metrics_snapshot() -> dict:
    """Shortcut for :func:`repro.obs.metrics.snapshot`."""
    return metrics.snapshot()


def reset_metrics() -> None:
    """Shortcut for :func:`repro.obs.metrics.reset`."""
    metrics.reset()
