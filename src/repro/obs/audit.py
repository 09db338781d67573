"""Model-conformance audit layer: predicted vs. actual, per decision.

The planner (PR 8) routes ``method="auto"`` calls through the paper's
cost model, but nothing checked whether the model's predictions *hold*
on real runs -- a drifting speed ratio or a graph outside the Pareto
regimes silently degrades every pick. This module closes the loop:

* every auto-routed :func:`repro.listing.api.list_triangles` /
  :func:`repro.pipeline.run_pipeline` call (and every regret-harness
  case) appends one **audit record** -- a ``planner.decision`` event,
  the same dict the live bus publishes -- to a JSONL log alongside
  ``runs.jsonl``: the full ranked candidate table with predicted
  ops/time, the chosen entry and confidence, then the post-run actual
  ops / wall time and the **realized regret** of the pick against the
  cheapest candidate that could be re-priced exactly (same definition
  as :mod:`repro.planner.regret`: ``exact_time(pick) /
  exact_time(best) - 1``);
* a **conformance analyzer** aggregates the log into per-(method,
  ordering, graph-class) calibration error and prediction-ratio
  distributions, plus a misplan list with structured diagnoses
  (:func:`diagnose`: model divergence vs. speed-ratio drift vs.
  tie margin too thin);
* misplans and calibration drift publish ``planner.misplan`` /
  ``planner.drift`` events on the live bus so ``repro top`` surfaces
  bad picks while a run is still going.

Auditing is **off by default** and the disabled path is one
module-global check (:func:`is_enabled`): auto-routed runs are
bit-identical with ``REPRO_AUDIT=0`` and perform no audit I/O. Turn it
on with ``REPRO_AUDIT=1`` (the log lands at ``REPRO_AUDIT_FILE`` or
``benchmarks/results/audit.jsonl``) or programmatically via
:func:`enable`. Read it back with ``repro audit
summary|misplans|calibration`` or the dashboard's audit panel.
"""

from __future__ import annotations

import logging
import math
import os
import pathlib
import time

from repro.obs import bus as _bus
from repro.obs import metrics as _metrics
from repro.obs.env import env_flag

__all__ = [
    "AUDIT_ENV",
    "AUDIT_FILE_ENV",
    "AUDIT_SCHEMA_VERSION",
    "DEFAULT_AUDIT_PATH",
    "DRIFT_FACTOR",
    "MISPLAN_REGRET",
    "MODEL_RTOL",
    "THIN_MARGIN",
    "audit_path",
    "audit_summary",
    "conformance_rows",
    "diagnose",
    "disable",
    "enable",
    "format_conformance",
    "format_misplans",
    "format_summary",
    "graph_class",
    "is_enabled",
    "load_audit",
    "misplan_rows",
    "open_record",
    "finish_record",
    "prediction_ratio",
    "realized_regret",
    "record_auto_route",
    "write_audit_record",
]

#: Bumped when the record layout changes incompatibly.
AUDIT_SCHEMA_VERSION = 1

#: Environment switch: truthy values turn auditing on process-wide.
AUDIT_ENV = "REPRO_AUDIT"

#: Environment override for the audit JSONL sink.
AUDIT_FILE_ENV = "REPRO_AUDIT_FILE"

#: Default sink, next to ``runs.jsonl``.
DEFAULT_AUDIT_PATH = pathlib.Path("benchmarks") / "results" / "audit.jsonl"

#: Realized regret above which a pick is classified as a misplan.
MISPLAN_REGRET = 0.10

#: Winner confidence below which a misplan is diagnosed as a thin tie.
THIN_MARGIN = 0.05

#: Predicted/exact ops ratio outside ``[1/r, r]`` flags model divergence.
MODEL_RTOL = 1.25

#: Assumed-vs-calibrated speed-ratio factor beyond which drift is flagged.
DRIFT_FACTOR = 2.0

#: ``None`` = not yet resolved from the environment (first
#: :func:`is_enabled` call reads ``REPRO_AUDIT`` exactly once).
_enabled: bool | None = None


def enable() -> None:
    """Turn auditing on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn auditing off (the default)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether auto-routed calls append audit records.

    Resolves ``REPRO_AUDIT`` lazily on first call so any entry point
    (CLI, benchmarks, plain library use in a subprocess) honors the
    environment without explicit wiring; after that it is one global
    check -- the zero-overhead-off guarantee of the rest of
    :mod:`repro.obs`.
    """
    global _enabled
    if _enabled is None:
        _enabled = env_flag(AUDIT_ENV)
    return _enabled


def audit_path(path=None) -> pathlib.Path:
    """Resolve the audit sink: explicit arg > env > default."""
    if path is not None:
        return pathlib.Path(path)
    env = os.environ.get(AUDIT_FILE_ENV, "").strip()
    return pathlib.Path(env) if env else DEFAULT_AUDIT_PATH


# ------------------------------------------------------------ record build

def graph_class(n, m, max_degree=None) -> str:
    """Coarse deterministic graph-class label for aggregation.

    ``sparse``/``dense`` splits at average degree ``sqrt(n)`` (the
    paper's dense regime where E-family costs explode); a ``-heavy`` /
    ``-light`` suffix marks whether the maximum degree exceeds 8x the
    average (the heavy-tail territory the Pareto regimes live in).
    Unknown inputs degrade gracefully to ``"unknown"``/``"empty"``.
    """
    if n is None or m is None:
        return "unknown"
    n, m = int(n), int(m)
    if n <= 0 or m <= 0:
        return "empty"
    avg = 2.0 * m / n
    density = "dense" if avg > math.sqrt(n) else "sparse"
    if max_degree is None:
        return density
    tail = "heavy" if float(max_degree) > 8.0 * max(avg, 1.0) else "light"
    return f"{density}-{tail}"


def open_record(plan, route: str, *, n=None, m=None, max_degree=None,
                label: str | None = None) -> dict:
    """Start an audit record from a routing plan (pre-run fields).

    ``plan`` is the :class:`~repro.planner.plan.Plan` the router used;
    the record -- a stamped ``planner.decision`` event -- captures its
    full ranked table, the pick, and the confidence. Post-run fields
    are folded in by :func:`finish_record`.
    """
    if n is None:
        n = plan.n
    if m is None:
        meta_m = plan.meta.get("m")
        m = int(meta_m) if isinstance(meta_m, (int, float)) else None
    best = plan.best
    record = {
        "type": "planner.decision",
        "schema": AUDIT_SCHEMA_VERSION,
        "ts": time.time(),
        "pid": os.getpid(),
        "route": route,
        "source": plan.source,
        "speed_ratio": float(plan.speed_ratio),
        "n": int(n) if n is not None else None,
        "m": int(m) if m is not None else None,
        "graph_class": graph_class(n, m, max_degree),
        "picked": {
            "method": best.method,
            "ordering": best.ordering,
            "family": best.family,
            "predicted_cost": float(best.predicted_cost),
            "predicted_time": float(best.predicted_time),
        },
        "confidence": float(plan.confidence),
        "entries": plan.to_rows(),
    }
    if label is not None:
        record["label"] = label
    return record


def realized_regret(picked: dict, exact_plan) -> dict | None:
    """Re-price the pick on an exactly-priced plan; harness semantics.

    ``exact_plan`` is the cheapest table whose candidates could be
    re-priced exactly (for auto routes, the routing plan itself; for
    the regret harness, the :func:`~repro.planner.plan.plan_for_graph`
    oracle). Returns ``None`` when the pick is not in the table;
    otherwise the same ``actual / best - 1`` definition as
    :func:`repro.planner.regret` -- including the zero-cost guards.
    """
    try:
        entry = exact_plan.entry(picked["method"], picked["ordering"])
    except KeyError:
        return None
    actual = float(entry.predicted_time)
    best = float(exact_plan.best.predicted_time)
    if best > 0.0:
        regret = actual / best - 1.0
    else:
        regret = 0.0 if actual <= 0.0 else math.inf
    return {
        "oracle": exact_plan.best.key,
        "oracle_time": best,
        "picked_time": actual,
        "regret": float(regret),
    }


def _rerank_winner(entries: list[dict], speed_ratio: float) -> str | None:
    """Re-rank recorded plan rows under a different speed ratio.

    Rows carry the raw modeled cost and the family, so the §2.4
    weighting can be replayed with any ratio; returns the winner's
    ``METHOD+ordering`` key (canonical tie-break, like the planner).
    """
    weighted = []
    for row in entries:
        if not isinstance(row, dict):
            continue
        cost = row.get("cost")
        if not isinstance(cost, (int, float)):
            continue
        t = (cost / speed_ratio if row.get("family") == "sei"
             else float(cost))
        weighted.append((t, str(row.get("method")),
                         str(row.get("ordering"))))
    if not weighted:
        return None
    t, method, ordering = min(weighted)
    return f"{method}+{ordering}"


def diagnose(record: dict, stored_ratio: float | None = None) -> dict:
    """Structured misplan diagnosis for one finished audit record.

    ``{"kind": ..., "detail": ...}`` with kinds:

    * ``ok`` -- no realized regret, or regret within
      :data:`MISPLAN_REGRET`;
    * ``model_divergence`` -- the model's predicted ops for the pick
      are off by more than :data:`MODEL_RTOL` against the exact
      re-pricing (the cost model, not the ranking, is wrong);
    * ``speed_ratio_drift`` -- re-ranking the recorded table under the
      calibration store's measured ratio changes the winner and the
      stored ratio differs from the assumed one by more than
      :data:`DRIFT_FACTOR`;
    * ``tie_margin`` -- the winner's confidence was below
      :data:`THIN_MARGIN` (a coin-flip pick lost the toss);
    * ``unexplained`` -- none of the above pattern-matched.
    """
    realized = record.get("realized") or {}
    regret = realized.get("regret")
    if regret is None or (isinstance(regret, (int, float))
                          and regret <= MISPLAN_REGRET):
        return {"kind": "ok", "detail": ""}
    ratios = record.get("ratios") or {}
    model_ratio = ratios.get("model_ops")
    if isinstance(model_ratio, (int, float)) and model_ratio > 0 and \
            not (1.0 / MODEL_RTOL <= model_ratio <= MODEL_RTOL):
        return {"kind": "model_divergence",
                "detail": f"predicted/exact ops ratio "
                          f"{model_ratio:.3g} outside "
                          f"[{1 / MODEL_RTOL:.2f}, {MODEL_RTOL:.2f}]"}
    assumed = record.get("speed_ratio")
    if stored_ratio is not None and isinstance(assumed, (int, float)) \
            and assumed > 0 and stored_ratio > 0:
        factor = max(assumed / stored_ratio, stored_ratio / assumed)
        if factor > DRIFT_FACTOR:
            rewinner = _rerank_winner(record.get("entries") or [],
                                      stored_ratio)
            picked = record.get("picked") or {}
            picked_key = (f"{picked.get('method')}+"
                          f"{picked.get('ordering')}")
            if rewinner is not None and rewinner != picked_key:
                return {"kind": "speed_ratio_drift",
                        "detail": f"assumed {assumed:.3g}x vs "
                                  f"calibrated {stored_ratio:.3g}x "
                                  f"({factor:.1f}x apart) re-ranks "
                                  f"winner to {rewinner}"}
    confidence = record.get("confidence")
    if isinstance(confidence, (int, float)) and confidence < THIN_MARGIN:
        return {"kind": "tie_margin",
                "detail": f"winner confidence {confidence:.3g} below "
                          f"{THIN_MARGIN}"}
    return {"kind": "unexplained",
            "detail": "regret above threshold but no single cause "
                      "pattern-matched"}


def finish_record(record: dict, *, result=None, wall_s=None,
                  exact_plan=None,
                  stored_ratio: float | None = None) -> dict:
    """Fold post-run observations into an open audit record.

    ``result`` is the :class:`~repro.listing.base.ListingResult` of
    the executed pick (``None`` for pure-pricing routes like the
    regret harness); ``exact_plan`` is the table the realized regret
    is re-priced on. Prediction ratios:

    * ``ops``        -- predicted per-node cost / measured per-node
      cost (model vs. the engine's actual operation count);
    * ``model_ops``  -- predicted per-node cost / exactly re-priced
      per-node cost of the same candidate (model vs. formula -- the
      pure model-divergence signal, available without running);
    * ``time_unit_ns`` -- measured wall nanoseconds per predicted time
      unit (the empirical scale that turns the model's hash-op units
      into seconds on this host).
    """
    picked = record["picked"]
    actual = None
    ratios: dict[str, float] = {}
    if result is not None:
        n = record.get("n") or getattr(result, "n", 0) or 0
        ops = int(result.ops)
        per_node = ops / n if n else 0.0
        actual = {
            "ops": ops,
            "triangles": int(result.count),
            "per_node_cost": per_node,
            "wall_s": float(wall_s) if wall_s is not None else None,
            "engine": result.extra.get("engine"),
        }
        if per_node > 0 and picked["predicted_cost"] >= 0:
            ratios["ops"] = picked["predicted_cost"] / per_node
        if wall_s is not None and wall_s > 0 and \
                picked["predicted_time"] > 0 and \
                math.isfinite(picked["predicted_time"]):
            ratios["time_unit_ns"] = \
                wall_s * 1e9 / (picked["predicted_time"] * max(n, 1))
    record["actual"] = actual
    realized = None
    if exact_plan is not None:
        realized = realized_regret(picked, exact_plan)
        if realized is not None:
            try:
                entry = exact_plan.entry(picked["method"],
                                         picked["ordering"])
                if entry.predicted_cost > 0 and \
                        picked["predicted_cost"] >= 0:
                    ratios["model_ops"] = (picked["predicted_cost"]
                                           / entry.predicted_cost)
            except KeyError:  # pragma: no cover - guarded above
                pass
    record["realized"] = realized
    record["ratios"] = ratios
    if stored_ratio is None:
        stored_ratio = _stored_ratio_or_none()
    if stored_ratio is not None:
        assumed = record.get("speed_ratio") or 0.0
        if assumed > 0 and stored_ratio > 0:
            factor = max(assumed / stored_ratio, stored_ratio / assumed)
            record["drift"] = {"assumed": float(assumed),
                               "calibrated": float(stored_ratio),
                               "factor": float(factor)}
    record["diagnosis"] = diagnose(record, stored_ratio)
    return record


def _stored_ratio_or_none() -> float | None:
    """The calibration store's ratio for this host, if any (cheap)."""
    try:
        from repro.engine.benchmark import stored_speed_ratio
        return stored_speed_ratio()
    except Exception:  # pragma: no cover - never break an audited run
        return None


def write_audit_record(record: dict, path=None,
                       fsync: bool | None = None) -> pathlib.Path:
    """Append one record to the audit JSONL sink (atomic line append)."""
    return _bus.append_jsonl_line(audit_path(path), record, fsync=fsync)


def _publish(record: dict) -> None:
    """Metrics + live-bus events for one finished record.

    The record itself is the ``planner.decision`` event; misplans and
    drift add their own short events.
    """
    _metrics.inc("audit.records")
    _bus.publish(record)
    picked = record.get("picked") or {}
    picked_key = f"{picked.get('method')}+{picked.get('ordering')}"
    realized = record.get("realized") or {}
    regret = realized.get("regret")
    drift = record.get("drift")
    if drift and drift.get("factor", 0.0) > DRIFT_FACTOR:
        _metrics.inc("planner.drift")
        _bus.emit("planner.drift", assumed=drift["assumed"],
                  calibrated=drift["calibrated"],
                  factor=drift["factor"])
    kind = (record.get("diagnosis") or {}).get("kind", "ok")
    if kind != "ok":
        _metrics.inc("planner.misplans")
        _bus.emit("planner.misplan", route=record.get("route", "?"),
                  picked=picked_key,
                  oracle=str(realized.get("oracle", "?")),
                  regret=float(regret) if isinstance(
                      regret, (int, float)) else math.inf,
                  kind=kind)


def record_auto_route(plan, route: str, *, result=None, wall_s=None,
                      exact_plan=None, n=None, m=None, max_degree=None,
                      label: str | None = None, path=None) -> dict | None:
    """One-call audit of an auto-routed decision (the hook surface).

    Assembles, finishes, persists, and publishes one audit record;
    returns it, or ``None`` when auditing is disabled. Failures are
    contained: an audit-layer bug logs one structured WARNING and
    increments ``audit.errors`` instead of killing the routed run.
    """
    if not is_enabled():
        return None
    try:
        record = open_record(plan, route, n=n, m=m,
                             max_degree=max_degree, label=label)
        finish_record(record, result=result, wall_s=wall_s,
                      exact_plan=exact_plan)
        write_audit_record(record, path)
        _publish(record)
        return record
    except Exception as exc:  # pragma: no cover - defensive guard
        _metrics.inc("audit.errors")
        from repro.obs.logging import get_logger, log_event
        log_event(get_logger(__name__), logging.WARNING,
                  "audit record failed", route=route, error=str(exc))
        return None


# -------------------------------------------------- conformance analyzer

def load_audit(path=None) -> list[dict]:
    """Parse every audit record (missing file = empty list).

    Mirrors :func:`repro.obs.records.load_records`: corrupted lines
    are skipped and counted, one structured WARNING summarizes them.
    """
    sink = audit_path(path)
    if not sink.exists():
        return []
    lines, __ = _bus.read_jsonl(sink, counter="audit.corrupted",
                                what="audit")
    return [value for __, value in lines if isinstance(value, dict)]


def prediction_ratio(record: dict) -> float | None:
    """The record's headline predicted/actual ops ratio.

    Prefers the measured ``ops`` ratio (model vs. the engine's real
    operation count); falls back to ``model_ops`` (model vs. exact
    re-pricing) for pure-pricing routes that never ran.
    """
    ratios = record.get("ratios") or {}
    for key in ("ops", "model_ops"):
        value = ratios.get(key)
        if isinstance(value, (int, float)) and value > 0 and \
                math.isfinite(value):
            return float(value)
    return None


def _percentile_or_none(values, q) -> float | None:
    if not values:
        return None
    return _metrics.percentile(sorted(values), q)


def conformance_rows(records) -> list[dict]:
    """Aggregate audit records per (method, ordering, graph class).

    Each row carries the sample count, the prediction-ratio
    distribution (median / p95 of predicted-over-actual ops), the
    calibration error (median ``|ratio - 1|`` -- 0 means the model
    prices this group perfectly), the time-unit scale, realized-regret
    stats, and the misplan count.
    """
    groups: dict[tuple, dict] = {}
    for rec in records:
        picked = rec.get("picked") or {}
        key = (str(picked.get("method")), str(picked.get("ordering")),
               str(rec.get("graph_class", "unknown")))
        g = groups.setdefault(key, {"count": 0, "misplans": 0,
                                    "ratios": [], "units": [],
                                    "regrets": []})
        g["count"] += 1
        ratio = prediction_ratio(rec)
        if ratio is not None:
            g["ratios"].append(ratio)
        unit = (rec.get("ratios") or {}).get("time_unit_ns")
        if isinstance(unit, (int, float)) and math.isfinite(unit):
            g["units"].append(float(unit))
        regret = (rec.get("realized") or {}).get("regret")
        if isinstance(regret, (int, float)) and math.isfinite(regret):
            g["regrets"].append(float(regret))
        if (rec.get("diagnosis") or {}).get("kind", "ok") != "ok":
            g["misplans"] += 1
    rows = []
    for (method, ordering, cls), g in groups.items():
        ratios = g["ratios"]
        rows.append({
            "method": method,
            "ordering": ordering,
            "graph_class": cls,
            "count": g["count"],
            "misplans": g["misplans"],
            "ratio_median": _percentile_or_none(ratios, 50),
            "ratio_p95": _percentile_or_none(ratios, 95),
            "calibration_error": _percentile_or_none(
                [abs(r - 1.0) for r in ratios], 50),
            "time_unit_ns": _percentile_or_none(g["units"], 50),
            "regret_median": _percentile_or_none(g["regrets"], 50),
            "regret_max": max(g["regrets"]) if g["regrets"] else None,
        })
    rows.sort(key=lambda r: (-r["count"], r["method"], r["ordering"],
                             r["graph_class"]))
    return rows


def misplan_rows(records,
                 threshold: float = MISPLAN_REGRET) -> list[dict]:
    """Every record whose pick misplanned, with its diagnosis.

    A record counts when its stored diagnosis is not ``ok`` or its
    realized regret exceeds ``threshold`` (callers can tighten or
    loosen the committed :data:`MISPLAN_REGRET` per query).
    """
    out = []
    for rec in records:
        realized = rec.get("realized") or {}
        regret = realized.get("regret")
        diagnosis = rec.get("diagnosis") or {}
        over = (isinstance(regret, (int, float))
                and regret > threshold)
        if diagnosis.get("kind", "ok") == "ok" and not over:
            continue
        picked = rec.get("picked") or {}
        out.append({
            "ts": rec.get("ts"),
            "route": rec.get("route"),
            "label": rec.get("label"),
            "graph_class": rec.get("graph_class"),
            "picked": f"{picked.get('method')}+{picked.get('ordering')}",
            "oracle": realized.get("oracle"),
            "regret": regret,
            "confidence": rec.get("confidence"),
            "kind": diagnosis.get("kind", "over_threshold"),
            "detail": diagnosis.get("detail", ""),
        })
    out.sort(key=lambda r: -(r["regret"]
                             if isinstance(r["regret"], (int, float))
                             and math.isfinite(r["regret"])
                             else math.inf if r["regret"] else 0.0))
    return out


def audit_summary(records) -> dict:
    """Headline numbers over an audit history."""
    regrets = [r.get("realized", {}).get("regret") for r in records
               if isinstance(r.get("realized"), dict)]
    finite = [float(r) for r in regrets
              if isinstance(r, (int, float)) and math.isfinite(r)]
    has_inf = any(isinstance(r, (int, float)) and math.isinf(r)
                  for r in regrets)
    ratios = [prediction_ratio(r) for r in records]
    ratios = [r for r in ratios if r is not None]
    misplans = sum(1 for r in records
                   if (r.get("diagnosis") or {}).get("kind", "ok")
                   != "ok")
    routes: dict[str, int] = {}
    for rec in records:
        route = str(rec.get("route", "?"))
        routes[route] = routes.get(route, 0) + 1
    return {
        "records": len(records),
        "routes": routes,
        "misplans": misplans,
        "median_regret": _percentile_or_none(finite, 50),
        "worst_regret": (math.inf if has_inf
                         else max(finite) if finite else None),
        "median_ratio": _percentile_or_none(ratios, 50),
        "calibration_error": _percentile_or_none(
            [abs(r - 1.0) for r in ratios], 50),
    }


# -------------------------------------------------------------- rendering

def _pct(value) -> str:
    if not isinstance(value, (int, float)):
        return "--"
    if math.isinf(value):
        return "inf"
    return f"{100 * value:.2f}%"


def _num(value, fmt="{:.3g}") -> str:
    if not isinstance(value, (int, float)):
        return "--"
    return fmt.format(value)


def format_summary(records) -> str:
    """Render :func:`audit_summary` + :func:`conformance_rows`."""
    summary = audit_summary(records)
    routes = ", ".join(f"{k}={v}"
                       for k, v in sorted(summary["routes"].items()))
    lines = [
        f"audit: {summary['records']} record(s) ({routes or 'none'}), "
        f"{summary['misplans']} misplan(s)",
        f"  realized regret: median {_pct(summary['median_regret'])}  "
        f"worst {_pct(summary['worst_regret'])}",
        f"  prediction ratio (predicted/actual ops): median "
        f"{_num(summary['median_ratio'])}  calibration error "
        f"{_pct(summary['calibration_error'])}",
        "",
        f"{'method':>7} {'ordering':>11} {'class':>12} {'n':>5} "
        f"{'ratio med':>10} {'ratio p95':>10} {'cal err':>8} "
        f"{'regret med':>11} {'misplans':>9}",
    ]
    for row in format_rows_limit(conformance_rows(records)):
        lines.append(
            f"{row['method']:>7} {row['ordering']:>11} "
            f"{row['graph_class']:>12} {row['count']:>5} "
            f"{_num(row['ratio_median']):>10} "
            f"{_num(row['ratio_p95']):>10} "
            f"{_pct(row['calibration_error']):>8} "
            f"{_pct(row['regret_median']):>11} {row['misplans']:>9}")
    return "\n".join(lines)


def format_rows_limit(rows, top: int = 40) -> list[dict]:
    """The top-``top`` conformance rows (summary table cap)."""
    return rows[:top]


def format_conformance(rows) -> str:
    """Render conformance rows alone (the ``--json``-less table)."""
    if not rows:
        return "no audit records"
    lines = [f"{'method':>7} {'ordering':>11} {'class':>12} {'n':>5} "
             f"{'ratio med':>10} {'cal err':>8} {'regret med':>11} "
             f"{'misplans':>9}"]
    for row in rows:
        lines.append(
            f"{row['method']:>7} {row['ordering']:>11} "
            f"{row['graph_class']:>12} {row['count']:>5} "
            f"{_num(row['ratio_median']):>10} "
            f"{_pct(row['calibration_error']):>8} "
            f"{_pct(row['regret_median']):>11} {row['misplans']:>9}")
    return "\n".join(lines)


def format_misplans(rows) -> str:
    """Render :func:`misplan_rows` as the aligned misplan table."""
    if not rows:
        return "no misplans recorded"
    lines = [f"{'route':>13} {'label':>12} {'picked':>16} "
             f"{'oracle':>16} {'regret':>8} {'conf':>6} "
             f"{'diagnosis':<18} detail"]
    for row in rows:
        lines.append(
            f"{str(row['route']):>13} {str(row['label'] or '--'):>12} "
            f"{row['picked']:>16} {str(row['oracle'] or '--'):>16} "
            f"{_pct(row['regret']):>8} "
            f"{_num(row['confidence'], '{:.2f}'):>6} "
            f"{row['kind']:<18} {row['detail']}")
    return "\n".join(lines)
