"""Typed JSONL lines: the event bus, the one appender, reader and validator.

Every line :mod:`repro.obs` writes is a *typed event*: a JSON object
stamped with ``type``, ``ts`` (unix seconds) and ``pid``.
:data:`EVENT_SCHEMA` names the fields each type requires. The three
sinks hold different types of the same line:

* ``runs.jsonl`` -- ``run.end`` lines, one per :class:`RunRecord
  <repro.obs.records.RunRecord>`;
* ``audit.jsonl`` -- ``planner.decision`` lines, one per audited
  planner pick (:mod:`repro.obs.audit`);
* the live stream (``REPRO_LIVE_EVENTS``) -- everything published on
  the bus while it runs.

All of them go through this module: :func:`append_jsonl_line` writes a
line, :func:`read_jsonl` reads lines back (whole files for the loaders,
from an offset for the ``repro top`` follower), and
:func:`validate_file` schema-checks a file (``repro validate``).

The bus answers "what is happening *now*": producers -- the resource
sampler, the progress/ETA layer, the worker-heartbeat watchdog, the
span phase hook, the planner audit -- publish events through
:func:`emit` (or :func:`publish` for an event stamped already), and
pluggable sinks fan them out:

* :class:`MemorySink` -- in-process list, for tests and ``repro top``;
* :class:`JsonlSink` -- appends each event to the stream file
  ``repro top`` follows;
* :class:`TickerSink` -- a throttled single-line stderr progress
  ticker.

Like the rest of :mod:`repro.obs`, the bus is disabled by default and
the disabled path is one module-global check: :func:`emit` returns
immediately, so instrumented hot paths (the engine chunk loop, the
pool scheduler) pay nothing unless live telemetry is on.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib
import reprlib
import sys
import threading
import time

from repro.obs import metrics as _metrics
from repro.obs.env import env_flag
from repro.obs.logging import get_logger, log_event

__all__ = [
    "EVENT_SCHEMA",
    "EventBus",
    "JsonlSink",
    "MemorySink",
    "TickerSink",
    "add_sink",
    "append_jsonl_line",
    "bus",
    "disable",
    "emit",
    "enable",
    "is_enabled",
    "json_default",
    "publish",
    "read_jsonl",
    "remove_sink",
    "reset",
    "validate_event",
    "validate_events",
    "validate_file",
]

_enabled = False

#: Required fields per event type (beyond the stamped ``type`` /
#: ``ts`` / ``pid``). A tuple lists the accepted types of a value, a
#: dict is a nested object with its own fields, and a one-dict list
#: is a non-empty list of such objects.
EVENT_SCHEMA: dict[str, dict] = {
    # background sampler: one process-resource snapshot
    "resource.sample": {
        "rss_bytes": (int,),
        "cpu_user_s": (int, float),
        "cpu_system_s": (int, float),
        "gc_collections": (int,),
        "gc_objects": (int,),
        "threads": (int,),
    },
    # progress/ETA layer: one unit of a tracked workload finished
    "progress": {
        "scope": (str,),       # "sweep" | "cell" | "chunk" | ...
        "label": (str,),
        "done": (int, float),
        "total": (int, float),
        "frac": (int, float),
    },
    # pool worker liveness (relayed by the parent watchdog)
    "heartbeat": {
        "worker_pid": (int,),
        "task": (str,),
    },
    # watchdog verdict: a worker missed too many intervals
    "worker.stalled": {
        "worker_pid": (int,),
        "silent_s": (int, float),
        "missed": (int,),
        "last_task": (str,),
    },
    # top-level span lifecycle (the "phase" line of ``repro top``)
    "phase": {
        "name": (str,),
        "status": (str,),      # "start" | "end"
    },
    # run bracketing, for multi-run event streams
    "run.start": {"name": (str,)},
    # one run record (repro.obs.records), the lines of runs.jsonl
    "run.end": {
        "name": (str,),
        "config": (dict,),
        "spans": (list,),      # span trees, see repro.obs.spans
        "metrics": (dict,),
        "meta": (dict,),
    },
    # audit layer (repro.obs.audit): one planner pick with its ranked
    # table, the lines of audit.jsonl
    "planner.decision": {
        "schema": (int,),
        "route": (str,),       # "list_triangles" | "run_pipeline" | ...
        "source": (str,),
        "speed_ratio": (int, float),
        "graph_class": (str,),
        "confidence": (int, float),
        "picked": {
            "method": (str,),
            "ordering": (str,),
            "family": (str,),
            "predicted_cost": (int, float),
            "predicted_time": (int, float),
        },
        "entries": [{          # the ranked candidate table
            "method": (str,),
            "ordering": (str,),
            "cost": (int, float),
            "time": (int, float),
            "rank": (int,),
        }],
        "diagnosis": {"kind": (str,)},
    },
    # audit layer: a pick whose realized regret crossed the threshold
    "planner.misplan": {
        "route": (str,),
        "picked": (str,),      # "METHOD+ordering"
        "oracle": (str,),
        "regret": (int, float),
        "kind": (str,),        # diagnosis taxonomy, see audit.diagnose
    },
    # audit layer: assumed speed ratio far from the calibrated one
    "planner.drift": {
        "assumed": (int, float),
        "calibrated": (int, float),
        "factor": (int, float),
    },
    # memory watchdog (repro.obs.memory): one pressure reading per
    # resource sample while REPRO_MEM_BUDGET is armed
    "mem.pressure": {
        "rss_bytes": (int,),
        "budget_bytes": (int,),
        "frac": (int, float),
    },
    # memory watchdog: RSS crossed the budget (once per excursion)
    "mem.breach": {
        "rss_bytes": (int,),
        "budget_bytes": (int,),
        "overshoot_bytes": (int,),
        "action": (str,),      # "warn" | "abort"
    },
}

#: Optional fields per event type, checked when present and not null.
#: Keeping ``rss_peak_bytes`` optional (it postdates the first
#: recorded streams) lets old event files keep validating; a decision
#: has no ``actual`` on pure-pricing routes and no ``realized`` when
#: the pick could not be re-priced.
_OPTIONAL_FIELDS: dict[str, dict] = {
    "progress": {
        "ops_done": (int, float),
        "ops_predicted": (int, float),
        "eta_s": (int, float),
        "phase": (str,),
    },
    "resource.sample": {"rss_peak_bytes": (int,)},
    "mem.pressure": {"attributed_bytes": (int,)},
    "planner.decision": {
        "actual": {"ops": (int,), "triangles": (int,)},
        "realized": {
            "regret": (int, float),
            "oracle_time": (int, float),
            "picked_time": (int, float),
            "oracle": (str,),
        },
    },
}


# ------------------------------------------------------------ JSONL I/O

def json_default(obj):
    """``json.dumps`` fallback handling numpy scalars/arrays and more."""
    if hasattr(obj, "item") and not isinstance(obj, dict):
        try:
            return obj.item()  # numpy scalar
        except (TypeError, ValueError):
            pass
    if hasattr(obj, "tolist"):
        return obj.tolist()  # numpy array
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, pathlib.Path):
        return str(obj)
    return str(obj)


def append_jsonl_line(path, obj, fsync: bool | None = None) -> pathlib.Path:
    """Append ``obj`` to ``path`` as one JSON line, atomically.

    The one writer of every JSONL sink. The line is serialized in full
    (numpy-aware, :func:`json_default`) *before* the file is touched,
    then goes out through one ``O_APPEND`` descriptor, so a crashed or
    concurrent writer can tear at most its own line -- it can never
    interleave bytes into another one. Parent directories are created
    on demand.

    ``fsync=None`` (the default) reads ``REPRO_FSYNC`` (on unless set
    falsy): benchmarks turn per-append flushes off so a tight emit loop
    is not dominated by disk syncs, and the live event sink never
    flushes. Either way the append stays atomic; only durability
    on power loss is relaxed.
    """
    if fsync is None:
        fsync = env_flag("REPRO_FSYNC", default=True)
    sink = pathlib.Path(path)
    sink.parent.mkdir(parents=True, exist_ok=True)
    payload = (json.dumps(obj, default=json_default) + "\n").encode("utf-8")
    fd = os.open(str(sink), os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                 0o644)
    try:
        # One write per line: O_APPEND makes each call an atomic
        # append, so the loop only continues on a short write (ENOSPC
        # territory) rather than splitting a healthy line.
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view):]
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    return sink


def read_jsonl(path, offset: int = 0, *, follow: bool = False,
               counter: str | None = None,
               what: str = "event") -> tuple[list[tuple[int, object]], int]:
    """Parse the lines of a JSONL file from byte ``offset``.

    The one line reader. Returns ``(lines, next_offset)``: one
    ``(lineno, value)`` pair per non-blank line, numbered from 1 at
    ``offset``. ``value`` is the parsed object, or a one-line reason
    string for a line that is not a JSON object (torn by a crashed
    writer, not JSON at all, or JSON of another kind): loaders skip
    those, :func:`validate_file` reports them.

    ``follow=True`` is the tail mode of ``repro top``: a last line
    without its newline is a producer mid-write and is left for the
    next call. In any mode a file shorter than ``offset`` (recreated
    by a new run) is read again from the start.

    With ``counter``, skipped lines bump that metric and log one
    WARNING naming the first of them (``what`` names the kind of line
    in the message).
    """
    with open(path, "rb") as fh:
        if offset > os.fstat(fh.fileno()).st_size:
            offset = 0
        fh.seek(offset)
        data = fh.read()
    end = data.rfind(b"\n") + 1 if follow else len(data)
    lines: list[tuple[int, object]] = []
    for lineno, raw in enumerate(data[:end].splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            value = json.loads(raw)
        except ValueError as exc:
            value = f"not JSON ({exc})"
        else:
            if not isinstance(value, dict):
                value = f"not a JSON object: {reprlib.repr(value)}"
        lines.append((lineno, value))
    bad = [(lineno, value) for lineno, value in lines
           if isinstance(value, str)]
    if bad and counter is not None:
        _metrics.inc(counter, len(bad))
        log_event(get_logger(__name__), logging.WARNING,
                  f"skipped corrupted {what} lines", path=str(path),
                  skipped=len(bad), first_bad_line=bad[0][0],
                  detail=bad[0][1])
    return lines, offset + end


# ---------------------------------------------------------------- sinks

class MemorySink:
    """Keeps every event in a list -- tests and in-process readers."""

    def __init__(self):
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        """Append ``event`` to the in-memory list."""
        self.events.append(event)

    def of_type(self, type_: str) -> list[dict]:
        """Events filtered to one ``type``."""
        return [e for e in self.events if e.get("type") == type_]

    def close(self) -> None:
        """Nothing to release."""


class JsonlSink:
    """Appends one line per event to a stream file, never fsynced.

    Each event goes out through :func:`append_jsonl_line` as soon as it
    is published, so a concurrent ``repro top --events`` follower sees
    it at once.
    """

    def __init__(self, path):
        self.path = path

    def write(self, event: dict) -> None:
        """Append ``event`` to the stream file."""
        append_jsonl_line(self.path, event, fsync=False)

    def close(self) -> None:
        """Nothing to release: every append opens and closes the file."""


class TickerSink:
    """Single-line stderr progress ticker, time-throttled.

    Only ``progress`` and ``worker.stalled`` events render (samples and
    heartbeats would just flicker); re-renders are capped at one per
    ``min_interval_s`` except for terminal events (``frac >= 1``).
    """

    def __init__(self, stream=None, min_interval_s: float = 0.2):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._last_render = 0.0

    def write(self, event: dict) -> None:
        """Render progress / stall events to the ticker stream."""
        type_ = event.get("type")
        if type_ == "worker.stalled":
            self.stream.write(
                f"\nWARNING worker {event.get('worker_pid')} stalled: "
                f"silent {event.get('silent_s', 0):.1f}s on "
                f"{event.get('last_task')!r}\n")
            return
        if type_ != "progress":
            return
        now = time.monotonic()
        frac = float(event.get("frac", 0.0))
        if frac < 1.0 and now - self._last_render < self.min_interval_s:
            return
        self._last_render = now
        eta = event.get("eta_s")
        eta_txt = f"  eta {eta:.1f}s" if isinstance(eta, (int, float)) \
            else ""
        bar_n = int(round(20 * min(max(frac, 0.0), 1.0)))
        self.stream.write(
            f"\r[{'#' * bar_n}{'.' * (20 - bar_n)}] {100 * frac:5.1f}% "
            f"{event.get('label', '')}{eta_txt}   ")
        if frac >= 1.0:
            self.stream.write("\n")

    def close(self) -> None:
        """Nothing to release (the stream is borrowed)."""


class EventBus:
    """Thread-safe fan-out of stamped events to registered sinks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sinks: list = []

    def add_sink(self, sink) -> None:
        """Register ``sink`` (any object with ``write``/``close``)."""
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Unregister ``sink`` if present (it is not closed)."""
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def sinks(self) -> list:
        """Snapshot of the registered sinks."""
        with self._lock:
            return list(self._sinks)

    def emit(self, type_: str, **fields) -> dict:
        """Stamp and publish one event; returns the event dict."""
        return self.publish({"type": type_, "ts": time.time(),
                             "pid": os.getpid(), **fields})

    def publish(self, event: dict) -> dict:
        """Fan an already stamped event out to every sink; returns it."""
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink.write(event)
            except Exception:  # pragma: no cover - sink must not kill run
                pass
        return event

    def close(self) -> None:
        """Close and drop every sink."""
        with self._lock:
            sinks, self._sinks = self._sinks, []
        for sink in sinks:
            sink.close()


_bus = EventBus()


def bus() -> EventBus:
    """The process-wide bus instance."""
    return _bus


def enable() -> None:
    """Turn event publication on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn event publication off (sinks stay registered)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether :func:`emit` publishes."""
    return _enabled


def emit(type_: str, **fields) -> dict | None:
    """Publish an event -- no-op (returns ``None``) while disabled."""
    if not _enabled:
        return None
    return _bus.emit(type_, **fields)


def publish(event: dict) -> dict | None:
    """Publish a stamped event as is -- no-op while disabled.

    The audit layer builds its ``planner.decision`` line first and
    publishes that same dict, so the live stream and ``audit.jsonl``
    carry one record.
    """
    if not _enabled:
        return None
    return _bus.publish(event)


def add_sink(sink) -> None:
    """Register a sink on the process-wide bus."""
    _bus.add_sink(sink)


def remove_sink(sink) -> None:
    """Unregister a sink from the process-wide bus."""
    _bus.remove_sink(sink)


def reset() -> None:
    """Disable publication and close/drop every sink."""
    disable()
    _bus.close()


# ------------------------------------------------------------ validation

def _check(value, spec, path: str, errors: list[str]) -> None:
    """Append the errors of ``value`` against one field spec."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            errors.append(f"field {path!r} should be an object, "
                          f"got {reprlib.repr(value)}")
            return
        for field, sub in spec.items():
            _check(value.get(field), sub, f"{path}.{field}", errors)
    elif isinstance(spec, list):
        if not isinstance(value, list) or not value:
            errors.append(f"field {path!r} should be a non-empty list "
                          f"of objects, got {reprlib.repr(value)}")
            return
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]", errors)
    elif not isinstance(value, spec) or isinstance(value, bool):
        errors.append(f"field {path!r} should be "
                      f"{'/'.join(k.__name__ for k in spec)}, "
                      f"got {reprlib.repr(value)}")


def validate_event(event) -> list[str]:
    """Schema errors of one event dict (empty list = valid)."""
    if not isinstance(event, dict):
        return [f"event is not an object: {reprlib.repr(event)}"]
    type_ = event.get("type")
    if not isinstance(type_, str):
        return [f"missing/invalid 'type': {type_!r}"]
    if type_ not in EVENT_SCHEMA:
        return [f"unknown event type {type_!r}"]
    errors: list[str] = []
    _check(event.get("ts"), (int, float), "ts", errors)
    _check(event.get("pid"), (int,), "pid", errors)
    for field, spec in EVENT_SCHEMA[type_].items():
        _check(event.get(field), spec, field, errors)
    for field, spec in _OPTIONAL_FIELDS.get(type_, {}).items():
        if event.get(field) is not None:
            _check(event[field], spec, field, errors)
    return [f"{type_}: {e}" for e in errors]


def validate_events(events) -> tuple[int, list[str]]:
    """Validate an iterable of event dicts; ``(count, errors)``."""
    count = 0
    errors: list[str] = []
    for i, event in enumerate(events):
        count += 1
        errors.extend(f"event {i}: {e}" for e in validate_event(event))
    return count, errors


def validate_file(path) -> tuple[int, list[str]]:
    """Schema-check every line of a JSONL file; ``(lines, errors)``.

    One validator for all three sinks (run records, audit records,
    live events): a line that is not a JSON object and every schema
    error come back as ``line N: ...`` messages. A missing or
    unreadable file raises :class:`OSError`.
    """
    lines, __ = read_jsonl(path)
    errors: list[str] = []
    for lineno, value in lines:
        problems = ([value] if isinstance(value, str)
                    else validate_event(value))
        errors.extend(f"line {lineno}: {p}" for p in problems)
    return len(lines), errors
