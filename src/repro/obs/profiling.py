"""Per-span CPU profiling attribution (the ``REPRO_PROFILE`` knob).

The span layer answers *which phase* the wall clock went to; this
module answers *which functions inside the phase*. When profiling is
on, every top-level span runs under its own :mod:`cProfile.Profile`
and closes with the top-K functions by cumulative time attached as
``span.profile`` -- a list of JSON-ready dicts that ride the span tree
into run records, the Chrome trace export, and the collapsed-stack
flame export (:mod:`repro.obs.export`).

Opt-in and overhead
-------------------
Profiling shares the span enable path: it only ever runs when spans
are enabled *and* ``REPRO_PROFILE`` is set (or an explicit
``spans.enable(profile=K)`` was made), so the disabled fast path --
the shared no-op span -- is untouched and the instrumented library
costs nothing extra. ``REPRO_PROFILE=1`` attaches the default top
:data:`DEFAULT_TOP_K` functions; ``REPRO_PROFILE=40`` raises the
cutoff to 40; ``0`` / unset disables (parsed by
:func:`repro.obs.env.env_top_k`).

cProfile cannot nest, so only the *root* of each span tree profiles;
descendants are covered by the root's run and the span hierarchy
itself attributes their share of the wall clock.
"""

from __future__ import annotations

import pstats

__all__ = [
    "DEFAULT_TOP_K",
    "format_profile",
    "top_functions",
]

#: Functions kept per profiled span when ``REPRO_PROFILE=1``.
DEFAULT_TOP_K = 20

def top_functions(profiler, top_k: int = DEFAULT_TOP_K) -> list[dict]:
    """Top-K functions of a finished profiler, by cumulative time.

    Each entry is JSON-ready::

        {"func": "list_triangles", "file": ".../api.py", "line": 88,
         "ncalls": 12, "tottime": 0.031, "cumtime": 0.87}

    ``tottime`` (time inside the function itself) is additive across
    entries; ``cumtime`` includes callees and therefore overlaps.
    Profiler bookkeeping frames are dropped.
    """
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, line, func), (cc, nc, tt, ct, callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        if func in ("<built-in method builtins.exec>",) or \
                "cProfile" in filename:
            continue
        rows.append({
            "func": func,
            "file": filename,
            "line": int(line),
            "ncalls": int(nc),
            "tottime": float(tt),
            "cumtime": float(ct),
        })
    rows.sort(key=lambda r: (-r["cumtime"], -r["tottime"], r["func"]))
    return rows[:max(0, int(top_k))]


def format_profile(entries, limit: int | None = None) -> str:
    """Render attached profile entries as an aligned text block."""
    if not entries:
        return "no profile data (set REPRO_PROFILE=1 and enable spans)"
    lines = [f"{'cumtime s':>10} {'tottime s':>10} {'ncalls':>8}  "
             f"function"]
    for entry in entries[:limit]:
        where = f"{entry.get('file', '?')}:{entry.get('line', 0)}"
        lines.append(f"{entry.get('cumtime', 0.0):>10.4f} "
                     f"{entry.get('tottime', 0.0):>10.4f} "
                     f"{entry.get('ncalls', 0):>8}  "
                     f"{entry.get('func', '?')} ({where})")
    return "\n".join(lines)
