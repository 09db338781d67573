"""Live telemetry runtime: in-flight visibility for long runs.

Everything else in :mod:`repro.obs` is post-hoc; this module answers
"is the run making progress *right now*, is it leaking memory, is a
worker stuck?" -- the questions a 30-minute sweep or an out-of-core
listing run raises while it executes. Four parts, all publishing
through the :mod:`repro.obs.bus` event bus:

* :class:`ResourceSampler` -- a background daemon thread that
  periodically snapshots RSS / CPU time / GC counts / thread count
  (``/proc/self`` + :mod:`resource`, no psutil) into a ring buffer,
  publishes each sample as a ``resource.sample`` event, and mirrors
  the latest values into ``live.*`` gauges. The series rides into run
  records (:func:`repro.obs.records.collect`) and a compact summary is
  attached to closing top-level spans.
* :class:`Progress` -- tracks one workload against a *model-predicted
  op budget* (the paper's E[cost] per cell makes the total work known
  up front), emitting ``progress`` events whose ``frac``/``eta_s``
  derive from the fraction of predicted ops consumed.
* :func:`post_heartbeat` + :class:`HeartbeatWatchdog` -- pool workers
  post periodic liveness over a ``multiprocessing`` (manager) queue;
  the parent-side watchdog relays them as ``heartbeat`` events and
  flags workers silent for ``miss_threshold`` intervals with a
  ``worker.stalled`` event, a structured WARNING, and the
  ``live.stalled_workers`` counter -- keeping the last task context
  per worker.
* the read surface -- :func:`render_prometheus` /
  :class:`MetricsServer` expose Prometheus-text gauges and counters
  over a tiny :mod:`http.server` thread (``repro serve-metrics``), and
  :class:`LiveState` + :func:`render_status` fold an event stream into
  the in-place terminal view of ``repro top``.

The runtime is **off by default** (``REPRO_LIVE`` unset): every hook
in the engine, harness, and scheduler guards on one module-global
check, so hot-path timings and counters are untouched when disabled.
"""

from __future__ import annotations

import collections
import gc
import http.server
import logging
import math
import os
import re
import threading
import time

from repro.obs import bus as _bus
from repro.obs import metrics as _metrics
from repro.obs.env import env_flag
from repro.obs.logging import get_logger, log_event

__all__ = [
    "DEFAULT_INTERVAL_S",
    "HeartbeatWatchdog",
    "LiveState",
    "MetricsServer",
    "Progress",
    "ResourceSampler",
    "disable",
    "enable",
    "enable_from_env",
    "is_enabled",
    "live_interval",
    "post_heartbeat",
    "render_prometheus",
    "render_status",
    "sample_resources",
    "sampler_series",
]

_log = get_logger(__name__)

#: Default sampler / heartbeat cadence in seconds.
DEFAULT_INTERVAL_S = 0.5

#: Ring-buffer capacity of the resource series (at the default
#: cadence: ~8.5 minutes of history; older samples age out).
SERIES_MAXLEN = 1024

_enabled = False
_sampler: "ResourceSampler | None" = None
_jsonl_sink = None
_ticker_sink = None
_server: "MetricsServer | None" = None


def live_interval() -> float:
    """Sampler/heartbeat cadence: ``REPRO_LIVE_INTERVAL`` or 0.5 s."""
    raw = os.environ.get("REPRO_LIVE_INTERVAL", "").strip()
    try:
        value = float(raw)
        return value if value > 0 else DEFAULT_INTERVAL_S
    except ValueError:
        return DEFAULT_INTERVAL_S


def is_enabled() -> bool:
    """Whether the live runtime is on (the hook fast-path check)."""
    return _enabled


# ------------------------------------------------------- resource sampler

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_peak_bytes() -> int:
    """Peak resident set size: ``VmHWM``, else ``ru_maxrss``.

    ``/proc/self/status`` reports the high-water mark in KiB; the
    :mod:`resource` fallback is KiB on Linux too. This is the value
    the old ``_rss_bytes`` fallback used to *mislabel* as current.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - exotic platform
        return 0


def _rss_bytes() -> int:
    """Current resident set size via ``/proc/self/statm``.

    ``statm`` field 2 is resident pages -- current RSS, cheap to read.
    On platforms without procfs the only portable signal is the peak
    (an upper bound on current); callers that need the distinction
    read the separate ``rss_peak_bytes`` sample field instead of
    trusting a conflated fallback.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return _rss_peak_bytes()


def sample_resources() -> dict:
    """One process-resource snapshot (the ``resource.sample`` payload)."""
    times = os.times()
    stats = gc.get_stats()
    return {
        "rss_bytes": _rss_bytes(),
        "rss_peak_bytes": _rss_peak_bytes(),
        "cpu_user_s": float(times.user),
        "cpu_system_s": float(times.system),
        "gc_collections": int(sum(s.get("collections", 0)
                                  for s in stats)),
        "gc_objects": int(sum(gc.get_count())),
        "threads": threading.active_count(),
    }


class ResourceSampler:
    """Daemon thread snapshotting process resources into a ring buffer.

    Every ``interval_s`` it takes :func:`sample_resources`, appends the
    sample (plus a wall-clock ``ts``) to the ring, publishes it as a
    ``resource.sample`` bus event, and mirrors the latest values into
    ``live.rss_bytes`` / ``live.cpu_user_s`` / ... gauges (no-ops while
    metrics are disabled).
    """

    def __init__(self, interval_s: float | None = None,
                 maxlen: int = SERIES_MAXLEN,
                 budget_bytes: int | None = None):
        self.interval_s = interval_s if interval_s else live_interval()
        self._ring: collections.deque = collections.deque(maxlen=maxlen)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # RAM-budget watchdog (repro.obs.memory): disarmed unless
        # budget_bytes (or REPRO_MEM_BUDGET) is set, in which case
        # every sample also checks pressure/breach.
        from repro.obs import memory as _memory
        self.watchdog = _memory.BudgetWatchdog(budget_bytes)

    def sample_once(self) -> dict:
        """Take, record, and publish one sample; returns it."""
        sample = sample_resources()
        sample["ts"] = time.time()
        with self._lock:
            self._ring.append(sample)
        _bus.emit("resource.sample",
                  **{k: v for k, v in sample.items() if k != "ts"})
        _metrics.set_gauge("live.rss_bytes", sample["rss_bytes"])
        _metrics.set_gauge("live.rss_peak_bytes",
                           sample["rss_peak_bytes"])
        _metrics.set_gauge("live.cpu_user_s", sample["cpu_user_s"])
        _metrics.set_gauge("live.cpu_system_s", sample["cpu_system_s"])
        _metrics.set_gauge("live.threads", sample["threads"])
        if self.watchdog.armed:
            self.watchdog.observe(sample["rss_bytes"])
        return sample

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def start(self) -> "ResourceSampler":
        """Take an immediate first sample and start the loop."""
        self.sample_once()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-live-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop (takes one final sample for a closed series)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample_once()

    def series(self) -> list[dict]:
        """Snapshot of the ring buffer (oldest first)."""
        with self._lock:
            return list(self._ring)

    def summary(self, since_ts: float | None = None) -> dict | None:
        """Compact min/max/delta summary, optionally since ``since_ts``.

        This is the shape attached to closing top-level spans: peak
        RSS, CPU seconds consumed over the window, sample count.
        """
        samples = self.series()
        if since_ts is not None:
            samples = [s for s in samples if s["ts"] >= since_ts]
        if not samples:
            return None
        rss = [s["rss_bytes"] for s in samples]
        return {
            "samples": len(samples),
            "rss_max_bytes": max(rss),
            "rss_min_bytes": min(rss),
            "cpu_user_s": samples[-1]["cpu_user_s"]
            - samples[0]["cpu_user_s"],
            "cpu_system_s": samples[-1]["cpu_system_s"]
            - samples[0]["cpu_system_s"],
        }


def sampler_series() -> list[dict]:
    """The active sampler's ring-buffer snapshot ([] when off)."""
    return _sampler.series() if _sampler is not None else []


# ------------------------------------------------------------ progress/ETA

class Progress:
    """Progress/ETA over a workload with a model-predicted op budget.

    ``total_units`` is the unit count (cells, tasks, chunks);
    ``predicted_ops`` is the cost model's prediction of the total work
    (``E[c_n] * n * instances`` for a simulation cell). When given, the
    reported fraction and ETA derive from *ops consumed vs. predicted*
    -- the paper's cost model acting as the progress estimator -- and
    fall back to unit counting otherwise.

    ``min_interval_s`` throttles event volume for fine-grained callers
    (the engine chunk loop): intermediate events are dropped unless the
    interval elapsed; first and terminal events always publish.
    """

    def __init__(self, label: str, total_units: int | float,
                 predicted_ops: float | None = None,
                 scope: str = "cell", phase: str | None = None,
                 min_interval_s: float = 0.0):
        self.label = label
        self.total_units = max(float(total_units), 1.0)
        self.predicted_ops = (float(predicted_ops)
                              if predicted_ops else None)
        self.scope = scope
        self.phase = phase
        self.min_interval_s = min_interval_s
        self.done = 0.0
        self.ops_done = 0.0
        self._t0 = time.monotonic()
        self._last_emit = 0.0
        self._emitted = 0

    def frac(self) -> float:
        """Fraction complete, by predicted ops when available."""
        if self.predicted_ops:
            return min(self.ops_done / self.predicted_ops, 1.0)
        return min(self.done / self.total_units, 1.0)

    def eta_s(self) -> float | None:
        """Remaining seconds extrapolated from the consumed fraction."""
        frac = self.frac()
        if frac <= 0.0:
            return None
        elapsed = time.monotonic() - self._t0
        return elapsed * (1.0 - frac) / frac

    def advance(self, units: int | float = 1,
                ops: int | float | None = None) -> dict | None:
        """Consume ``units`` (and ``ops``) and maybe publish an event.

        Returns the published event dict, or ``None`` when throttled
        or when the bus is disabled.
        """
        self.done += units
        if ops is not None:
            self.ops_done += ops
        if not _bus.is_enabled():
            return None
        now = time.monotonic()
        terminal = self.done >= self.total_units
        if (self._emitted and not terminal
                and now - self._last_emit < self.min_interval_s):
            return None
        self._last_emit = now
        self._emitted += 1
        frac = self.frac()
        fields = {
            "scope": self.scope,
            "label": self.label,
            "done": float(self.done),
            "total": float(self.total_units),
            "frac": frac,
        }
        if self.phase is not None:
            fields["phase"] = self.phase
        if self.predicted_ops is not None:
            fields["ops_done"] = float(self.ops_done)
            fields["ops_predicted"] = float(self.predicted_ops)
        eta = self.eta_s()
        if eta is not None:
            fields["eta_s"] = eta
        _metrics.set_gauge(f"live.progress.{self.scope}", frac)
        if eta is not None:
            _metrics.set_gauge(f"live.eta_s.{self.scope}", eta)
        return _bus.emit("progress", **fields)


# ------------------------------------------------------------ heartbeats

def post_heartbeat(queue, task: str, **context) -> None:
    """Worker side: post one liveness beat (best-effort, non-fatal).

    ``queue`` is the manager queue the parent's watchdog drains (a
    manager proxy survives pickling under both ``fork`` and ``spawn``
    start methods). A broken queue must never kill the worker.
    """
    try:
        queue.put({"worker_pid": os.getpid(), "task": str(task),
                   "ts": time.time(), **context}, block=False)
    except Exception:  # pragma: no cover - manager already gone
        pass


class HeartbeatWatchdog:
    """Parent-side drain of the worker heartbeat queue + stall flagging.

    A daemon thread pulls beats off the queue, relays each as a
    ``heartbeat`` bus event, and tracks per-worker
    ``(last_seen, last_task, beats)``. A worker silent for more than
    ``miss_threshold * interval_s`` after its first beat is flagged
    *once per silence*: a ``worker.stalled`` event, a structured
    WARNING carrying the last task context, and the
    ``live.stalled_workers`` counter. A later beat clears the flag.
    """

    def __init__(self, queue, interval_s: float | None = None,
                 miss_threshold: int = 3):
        self.queue = queue
        self.interval_s = interval_s if interval_s else live_interval()
        self.miss_threshold = max(1, int(miss_threshold))
        self.workers: dict[int, dict] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- beat intake ----------------------------------------------------
    def _ingest(self, beat: dict) -> None:
        pid = int(beat.get("worker_pid", -1))
        with self._lock:
            state = self.workers.setdefault(
                pid, {"beats": 0, "stalled": False, "last_task": ""})
            state["beats"] += 1
            state["last_seen"] = time.monotonic()
            state["last_task"] = str(beat.get("task", ""))
            state["stalled"] = False
        _bus.emit("heartbeat", worker_pid=pid,
                  task=str(beat.get("task", "")),
                  **{k: v for k, v in beat.items()
                     if k not in ("worker_pid", "task", "ts")})

    def drain(self) -> int:
        """Pull every queued beat right now; returns how many."""
        drained = 0
        while True:
            try:
                beat = self.queue.get(block=False)
            except Exception:
                break
            self._ingest(beat)
            drained += 1
        return drained

    # -- stall detection ------------------------------------------------
    def check(self, now: float | None = None) -> list[int]:
        """Flag workers silent for too long; returns newly-stalled pids."""
        now = time.monotonic() if now is None else now
        limit = self.miss_threshold * self.interval_s
        newly = []
        with self._lock:
            candidates = [(pid, dict(state))
                          for pid, state in self.workers.items()
                          if not state["stalled"]
                          and now - state.get("last_seen", now) > limit]
            for pid, __ in candidates:
                self.workers[pid]["stalled"] = True
        for pid, state in candidates:
            silent = now - state.get("last_seen", now)
            missed = int(silent / self.interval_s)
            newly.append(pid)
            _metrics.inc("live.stalled_workers")
            _bus.emit("worker.stalled", worker_pid=pid,
                      silent_s=silent, missed=missed,
                      last_task=state.get("last_task", ""))
            log_event(_log, logging.WARNING, "worker heartbeat stalled",
                      worker_pid=pid, silent_s=round(silent, 2),
                      missed_intervals=missed,
                      last_task=state.get("last_task", ""))
        return newly

    # -- thread lifecycle -----------------------------------------------
    def _run(self) -> None:
        poll = min(self.interval_s / 2.0, 0.25)
        while not self._stop.wait(poll):
            self.drain()
            self.check()

    def start(self) -> "HeartbeatWatchdog":
        """Start the drain/check loop on a daemon thread."""
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-live-watchdog", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> dict[int, dict]:
        """Stop the loop, drain stragglers, return the worker table."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.drain()
        with self._lock:
            return {pid: dict(state)
                    for pid, state in self.workers.items()}


# ------------------------------------------------- Prometheus read surface

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    metric = _PROM_BAD.sub("_", name)
    if not metric.startswith("repro_"):
        metric = "repro_" + metric
    return metric


def render_prometheus(snapshot: dict | None = None,
                      extra_gauges: dict | None = None) -> str:
    """Prometheus text exposition (0.0.4) of a metrics snapshot.

    Counters map to ``counter``, gauges to ``gauge``, histograms to
    ``summary`` (quantile labels + ``_sum`` / ``_count``).
    ``extra_gauges`` lets the server fold in gauges derived elsewhere
    (the ``repro top`` state of an events file).
    """
    snapshot = snapshot if snapshot is not None else _metrics.snapshot()
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {float(snapshot['counters'][name]):g}")
    gauges = dict(snapshot.get("gauges", {}))
    gauges.update(extra_gauges or {})
    for name in sorted(gauges):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(gauges[name]):g}")
    for name in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][name]
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} summary")
        for q_key, q_label in (("p50", "0.5"), ("p95", "0.95"),
                               ("p99", "0.99")):
            if isinstance(summary.get(q_key), (int, float)):
                lines.append(f'{metric}{{quantile="{q_label}"}} '
                             f"{float(summary[q_key]):g}")
        lines.append(f"{metric}_sum {float(summary.get('sum', 0.0)):g}")
        lines.append(f"{metric}_count {int(summary.get('count', 0))}")
    return "\n".join(lines) + "\n"


class MetricsServer:
    """Tiny scrape endpoint: ``GET /metrics`` -> Prometheus text.

    Runs a :class:`http.server.ThreadingHTTPServer` on a daemon thread;
    ``render`` is called per scrape (default: the process registry plus
    the live sampler gauges), so the endpoint always reflects the
    current state. ``port=0`` binds an ephemeral port -- read it back
    from :attr:`port` after :meth:`start`.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1",
                 render=None):
        self.host = host
        self.port = port
        self.render = render or render_prometheus
        self._httpd: http.server.ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        """Bind + serve in the background; returns the bound port."""
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path not in ("/", "/metrics"):
                    self.send_error(404)
                    return
                try:
                    body = server.render().encode("utf-8")
                except Exception as exc:  # pragma: no cover
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-scrape stderr
                pass

        self._httpd = http.server.ThreadingHTTPServer(
            (self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-live-metrics", daemon=True)
        self._thread.start()
        return self.port

    def bind_plain(self) -> int:
        """Bind a single-threaded server without serving; returns port.

        The ``repro serve-metrics --once`` path: bind (so the scraper
        can't race the listener), announce the port, then block in
        :meth:`handle_one_request`.
        """
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                body = server.render().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-scrape stderr
                pass

        self._httpd = http.server.HTTPServer(
            (self.host, self.port), Handler)
        self.port = self._httpd.server_address[1]
        return self.port

    def handle_one_request(self) -> None:
        """Serve exactly one request on the calling thread (CI mode)."""
        if self._httpd is None:
            self.bind_plain()
        self._httpd.handle_request()

    def stop(self) -> None:
        """Shut the server down and release the socket."""
        if self._httpd is not None:
            if self._thread is not None:
                # shutdown() handshakes with serve_forever -- it would
                # block forever on a bind_plain()-only server.
                self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ----------------------------------------------------- event-stream state

class LiveState:
    """Folds a telemetry event stream into the current run picture.

    Feed events (dicts) through :meth:`update`; the state keeps the
    latest resource sample, the latest progress per ``(scope, label)``,
    the current phase stack, and a per-worker liveness table --
    everything ``repro top`` renders and ``repro serve-metrics
    --events`` exports as gauges.
    """

    def __init__(self):
        self.resources: dict | None = None
        self.progress: dict[tuple, dict] = {}
        self.phases: list[str] = []
        self.workers: dict[int, dict] = {}
        self.planner: dict | None = None
        self.misplans = 0
        self.drift: dict | None = None
        self.memory: dict | None = None
        self.breaches = 0
        self.events = 0
        self.last_ts: float | None = None

    def update(self, event: dict) -> None:
        """Fold one event into the state (non-dicts are ignored)."""
        if not isinstance(event, dict):
            return
        self.events += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            self.last_ts = ts
        type_ = event.get("type")
        if type_ == "resource.sample":
            self.resources = event
        elif type_ == "progress":
            self.progress[(event.get("scope"), event.get("label"))] = \
                event
        elif type_ == "phase":
            name = str(event.get("name"))
            if event.get("status") == "start":
                self.phases.append(name)
            elif name in self.phases:
                self.phases.remove(name)
        elif type_ == "heartbeat":
            pid = event.get("worker_pid")
            self.workers[pid] = {"last_ts": ts,
                                 "task": event.get("task", ""),
                                 "stalled": False}
        elif type_ == "worker.stalled":
            pid = event.get("worker_pid")
            state = self.workers.setdefault(
                pid, {"last_ts": ts, "task": ""})
            state["stalled"] = True
            state["task"] = event.get("last_task", state.get("task", ""))
        elif type_ == "planner.decision":
            self.planner = event
        elif type_ == "planner.misplan":
            self.misplans += 1
            self.planner = event
        elif type_ == "planner.drift":
            self.drift = event
        elif type_ == "mem.pressure":
            self.memory = event
        elif type_ == "mem.breach":
            self.breaches += 1
            self.memory = event

    def update_many(self, events) -> None:
        """Fold an iterable of events, in order."""
        for event in events:
            self.update(event)

    def to_gauges(self) -> dict[str, float]:
        """Gauge view of the state (the ``--events`` scrape surface)."""
        out: dict[str, float] = {"live.events": float(self.events)}
        if self.resources:
            for key in ("rss_bytes", "rss_peak_bytes", "cpu_user_s",
                        "cpu_system_s", "threads"):
                if isinstance(self.resources.get(key), (int, float)):
                    out[f"live.{key}"] = float(self.resources[key])
        # memory gauges appear only once a mem.* event was seen, so
        # streams from budget-free runs export exactly as before
        if self.memory is not None:
            for key in ("budget_bytes", "rss_bytes",
                        "attributed_bytes"):
                if isinstance(self.memory.get(key), (int, float)):
                    out[f"mem.{key}"] = float(self.memory[key])
            frac = self.memory.get("frac")
            budget = self.memory.get("budget_bytes")
            if isinstance(frac, (int, float)):
                out["mem.pressure"] = float(frac)
            elif isinstance(budget, (int, float)) and budget > 0:
                out["mem.pressure"] = float(
                    self.memory.get("rss_bytes", 0)) / budget
            out["mem.breaches"] = float(self.breaches)
        for (scope, __), event in self.progress.items():
            if isinstance(event.get("frac"), (int, float)):
                out[f"live.progress.{scope}"] = float(event["frac"])
            if isinstance(event.get("eta_s"), (int, float)):
                out[f"live.eta_s.{scope}"] = float(event["eta_s"])
        out["live.workers"] = float(len(self.workers))
        out["live.workers_stalled"] = float(
            sum(1 for w in self.workers.values() if w.get("stalled")))
        if self.planner is not None:
            conf = self.planner.get("confidence")
            if isinstance(conf, (int, float)):
                out["live.planner_confidence"] = float(conf)
            regret = _planner_regret(self.planner)
            if isinstance(regret, (int, float)) and \
                    math.isfinite(regret):
                out["live.planner_regret"] = float(regret)
        out["live.planner_misplans"] = float(self.misplans)
        if self.drift is not None and isinstance(
                self.drift.get("factor"), (int, float)):
            out["live.planner_drift_factor"] = float(
                self.drift["factor"])
        return out

    def to_dict(self) -> dict:
        """JSON-ready snapshot of the whole state.

        The ``repro top --once --json`` payload: everything
        :func:`render_status` shows (phases, progress, resources,
        workers, planner, memory) plus the gauge view, so CI and
        scripts consume the live status without screen-scraping.
        """
        return {
            "events": self.events,
            "last_ts": self.last_ts,
            "phases": list(self.phases),
            "progress": [dict(ev) for __, ev in
                         sorted(self.progress.items(),
                                key=lambda kv: (kv[0][0] or "",
                                                kv[0][1] or ""))],
            "resources": dict(self.resources) if self.resources
            else None,
            "workers": {str(pid): dict(state)
                        for pid, state in self.workers.items()},
            "planner": dict(self.planner) if self.planner else None,
            "misplans": self.misplans,
            "drift": dict(self.drift) if self.drift else None,
            "memory": dict(self.memory) if self.memory else None,
            "breaches": self.breaches,
            "gauges": self.to_gauges(),
        }


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return (f"{value:.1f} {unit}" if unit != "B"
                    else f"{int(value)} B")
        value /= 1024.0
    return f"{value:.1f} TB"  # pragma: no cover - unreachable


def _planner_pick(event: dict) -> str:
    """``METHOD+ordering`` of a planner event.

    A ``planner.decision`` carries the pick as an object, a
    ``planner.misplan`` as the joined key.
    """
    picked = event.get("picked")
    if isinstance(picked, dict):
        return f"{picked.get('method')}+{picked.get('ordering')}"
    return str(picked) if picked is not None else "?"


def _planner_regret(event: dict):
    """Realized regret of a planner event (``None`` when unknown).

    A decision holds it in ``realized.regret``, a misplan at the top.
    """
    realized = event.get("realized")
    if isinstance(realized, dict):
        return realized.get("regret")
    return event.get("regret")


def render_status(state: LiveState) -> str:
    """Render a :class:`LiveState` as the ``repro top`` text block."""
    lines = []
    stamp = (time.strftime("%H:%M:%S", time.localtime(state.last_ts))
             if state.last_ts else "--:--:--")
    lines.append(f"repro live · {state.events} event(s) · last {stamp}")
    lines.append(f"phase    : "
                 f"{' > '.join(state.phases) if state.phases else '--'}")
    if state.progress:
        for (scope, label), ev in sorted(state.progress.items(),
                                         key=lambda kv: kv[0][0] or ""):
            frac = float(ev.get("frac", 0.0))
            bar_n = int(round(20 * min(max(frac, 0.0), 1.0)))
            eta = ev.get("eta_s")
            eta_txt = (f"  eta {eta:6.1f}s"
                       if isinstance(eta, (int, float)) else "")
            ops = ""
            if isinstance(ev.get("ops_predicted"), (int, float)):
                ops = (f"  ops {ev.get('ops_done', 0):.3g}"
                       f"/{ev['ops_predicted']:.3g}")
            lines.append(f"{scope:<9}: [{'#' * bar_n}{'.' * (20 - bar_n)}]"
                         f" {100 * frac:5.1f}%{eta_txt}{ops}  {label}")
    else:
        lines.append("progress : --")
    if state.resources:
        res = state.resources
        lines.append(
            f"resources: rss {_fmt_bytes(res.get('rss_bytes', 0))}"
            f"   cpu {res.get('cpu_user_s', 0.0):.1f}s user"
            f" / {res.get('cpu_system_s', 0.0):.1f}s sys"
            f"   threads {res.get('threads', 0)}"
            f"   gc {res.get('gc_collections', 0)}")
    else:
        lines.append("resources: --")
    # the memory line appears only once a mem.* event was seen (a
    # budget-armed run), so budget-free streams render as before
    if state.memory is not None or state.breaches:
        ev = state.memory or {}
        rss = ev.get("rss_bytes", 0)
        budget = ev.get("budget_bytes", 0)
        frac = ev.get("frac")
        if not isinstance(frac, (int, float)):
            frac = (rss / budget) if budget else 0.0
        attributed = ev.get("attributed_bytes")
        attr_txt = (f"  attributed {_fmt_bytes(attributed)}"
                    if isinstance(attributed, (int, float)) else "")
        breach_txt = (f"  BREACHED x{state.breaches}"
                      if state.breaches else "")
        lines.append(
            f"memory   : rss {_fmt_bytes(rss)} / budget "
            f"{_fmt_bytes(budget)} ({100 * frac:5.1f}%)"
            f"{attr_txt}{breach_txt}")
    if state.workers:
        now = state.last_ts or time.time()
        for pid in sorted(state.workers):
            worker = state.workers[pid]
            age = now - (worker.get("last_ts") or now)
            flag = "STALLED" if worker.get("stalled") else "ok"
            lines.append(f"worker   : pid {pid:<8} {flag:<8} "
                         f"{age:5.1f}s ago  {worker.get('task', '')}")
    else:
        lines.append("worker   : --")
    # the planner line appears only once a decision event was seen, so
    # event streams from planner-free runs render exactly as before
    if state.planner is not None:
        ev = state.planner
        flag = "MISPLAN" if ev.get("type") == "planner.misplan" else "ok"
        conf = ev.get("confidence")
        conf_txt = (f"  conf {conf:.2f}"
                    if isinstance(conf, (int, float)) else "")
        regret = _planner_regret(ev)
        regret_txt = ""
        if isinstance(regret, (int, float)):
            regret_txt = ("  regret inf" if math.isinf(regret)
                          else f"  regret {100 * regret:.1f}%")
        kind = ev.get("kind")
        kind_txt = f"  [{kind}]" if isinstance(kind, str) else ""
        misplan_txt = (f"  misplans {state.misplans}"
                       if state.misplans else "")
        lines.append(f"planner  : {_planner_pick(ev):<16} "
                     f"{flag:<8}{conf_txt}{regret_txt}{kind_txt}"
                     f"{misplan_txt}")
        if state.drift is not None:
            d = state.drift
            lines.append(
                f"planner  : speed-ratio drift assumed "
                f"{d.get('assumed', 0.0):.3g}x vs calibrated "
                f"{d.get('calibrated', 0.0):.3g}x "
                f"({d.get('factor', 0.0):.1f}x apart)")
    return "\n".join(lines)


# ------------------------------------------------------- enable / disable

def enable(events_path=None, ticker: bool = False,
           interval_s: float | None = None,
           serve_port: int | None = None) -> None:
    """Start the live runtime: bus sinks, sampler, span hook, server.

    Idempotent-ish: calling while enabled reconfigures sinks. The
    JSONL sink (``events_path``) and stderr ticker are optional; the
    sampler always runs (its series is what run records pick up). With
    ``serve_port`` the Prometheus endpoint starts too (0 = ephemeral).
    """
    global _enabled, _sampler, _jsonl_sink, _ticker_sink, _server
    disable()
    _bus.enable()
    if events_path:
        _jsonl_sink = _bus.JsonlSink(events_path)
        _bus.add_sink(_jsonl_sink)
    if ticker:
        _ticker_sink = _bus.TickerSink()
        _bus.add_sink(_ticker_sink)
    _sampler = ResourceSampler(interval_s=interval_s).start()
    if serve_port is not None:
        _server = MetricsServer(port=serve_port)
        _server.start()
    from repro.obs import spans as _spans
    _spans.set_live_hook(_span_hook)
    _enabled = True


def disable() -> None:
    """Stop the sampler/server, detach the span hook, close sinks."""
    global _enabled, _sampler, _jsonl_sink, _ticker_sink, _server
    if not (_enabled or _sampler or _server):
        _bus.disable()
        return
    from repro.obs import spans as _spans
    _spans.set_live_hook(None)
    if _sampler is not None:
        _sampler.stop()
        _sampler = None
    if _server is not None:
        _server.stop()
        _server = None
    if _jsonl_sink is not None:
        _bus.remove_sink(_jsonl_sink)
        _jsonl_sink.close()
        _jsonl_sink = None
    if _ticker_sink is not None:
        _bus.remove_sink(_ticker_sink)
        _ticker_sink = None
    _bus.disable()
    _enabled = False


def enable_from_env() -> bool:
    """Start the runtime when ``REPRO_LIVE`` is truthy; the decision.

    Companion knobs: ``REPRO_LIVE_EVENTS`` (JSONL sink path),
    ``REPRO_LIVE_TICKER=1`` (stderr ticker),
    ``REPRO_LIVE_INTERVAL`` (cadence seconds), ``REPRO_LIVE_PORT``
    (Prometheus endpoint port).
    """
    if not env_flag("REPRO_LIVE"):
        return False
    events_path = os.environ.get("REPRO_LIVE_EVENTS", "").strip() or None
    ticker = env_flag("REPRO_LIVE_TICKER")
    port_raw = os.environ.get("REPRO_LIVE_PORT", "").strip()
    port = None
    if port_raw:
        try:
            port = int(port_raw)
        except ValueError:
            port = None
    enable(events_path=events_path, ticker=ticker, serve_port=port)
    return True


def _span_hook(span, status: str) -> None:
    """Top-level span lifecycle -> ``phase`` events + resource summary.

    Installed into :mod:`repro.obs.spans` while the runtime is on; on
    close, the sampler's window summary (peak RSS, CPU consumed) is
    attached to the span so the recorded tree carries the resource
    context of each phase.
    """
    _bus.emit("phase", name=str(span.name), status=status)
    if status == "end" and _sampler is not None:
        # A fresh sample on close keeps the series aligned with phase
        # boundaries and guarantees the window is never empty, even for
        # spans shorter than the sampling interval.
        _sampler.sample_once()
        window_s = span.duration_ns / 1e9
        summary = _sampler.summary(since_ts=time.time() - window_s - 0.001)
        if summary:
            span.annotate(resources=summary)
