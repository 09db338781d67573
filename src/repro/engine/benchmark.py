"""Side-by-side engine comparison: python vs. pure NumPy vs. native.

One measurement routine shared by ``benchmarks/bench_lister_throughput``
and ``repro bench --native-compare``: for each method it times the
count-only workload on all three engines of
:func:`repro.listing.list_triangles` -- the instrumented Python
reference, the pure NumPy kernels (:func:`run_numpy`), and the
compiled kernels (:func:`run_native`) -- plus one full native
*listing* run (the operation the paper's cost model prices). Results
come back as a rendered table and a JSON-ready dict whose
``"methods"`` mapping feeds :func:`repro.obs.report.record_cells`:
``*_ns_per_edge`` entries compare as wall-clock (skipped by
``--no-time``), ``ops``/``triangles`` as deterministic values, and
``speedup_*`` ratios are excluded from baseline comparison by name.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from functools import lru_cache

from repro.engine import native
from repro.engine.kernels import run_native, run_numpy
from repro.listing.api import list_triangles
from repro.obs.env import env_flag

#: Default comparison set: the paper's four fundamental methods plus
#: one lookup iterator per probe direction.
DEFAULT_METHODS = ("T1", "T2", "E1", "E4", "L1", "L3")

#: Environment override for the rolling calibration store path.
CALIBRATION_FILE_ENV = "REPRO_CALIBRATION_FILE"

#: Default store, versioned alongside the perf baselines.
DEFAULT_CALIBRATION_PATH = (pathlib.Path("benchmarks") / "baselines"
                            / "speed_ratio.json")

#: Stored measurements older than this are stale (override via
#: ``REPRO_CALIBRATION_MAX_AGE_S``).
DEFAULT_CALIBRATION_MAX_AGE_S = 30 * 24 * 3600.0

#: Rolling-window cap per engine; oldest entries are trimmed.
MAX_STORE_ENTRIES = 32


def _timed(fn, repeats: int = 1):
    """Best-of-``repeats`` wall-clock (single-shot timings at small
    ``n`` are dominated by scheduler noise, which would make the
    bench's speedup gates flaky)."""
    result, best = None, float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def measure_speed_ratio(oriented=None, *, n: int = 4000, seed: int = 0,
                        hash_method: str = "T1", sei_method: str = "E1",
                        engine: str = "numpy", repeats: int = 3) -> float:
    """Measure the section-2.4 ``speed_ratio`` on *this* host.

    Table 3's 94.8x is the per-operation advantage of sequential
    scanning (SEI) over hash-based lookups on the authors' SIMD
    hardware. This micro-calibration measures the same quantity for the
    selected engine of this library: per-op wall time of the best
    hash-family method divided by per-op wall time of the best SEI
    method, each timed best-of-``repeats`` on one oriented graph.

    ``oriented`` defaults to a synthetic heavy-tailed graph
    (``Pareto(1.7)``, descending orientation) so callers can calibrate
    without supplying one. The result feeds
    :func:`repro.core.decision.resolve_speed_ratio` (and through it the
    planner) via ``speed_ratio="calibrated"``.

    Note the honest outcome on interpreted runtimes: the pure-Python
    reference engine has no SIMD scanning advantage, so it measures a
    ratio near 1 -- flipping the decision rule toward hash methods on
    graphs where the paper's hardware favored SEI.
    """
    if oriented is None:
        import numpy as np

        from repro.distributions.pareto import DiscretePareto
        from repro.distributions.sampling import sample_degree_sequence
        from repro.distributions.truncation import root_truncation
        from repro.graphs.generators import generate_graph
        from repro.orientations.permutations import DescendingDegree
        from repro.orientations.relabel import orient

        rng = np.random.default_rng(seed)
        dist = DiscretePareto(1.7, 21.0).truncate(root_truncation(n))
        degrees = sample_degree_sequence(dist, n, rng)
        oriented = orient(generate_graph(degrees, rng),
                          DescendingDegree())
    if engine == "python":
        oriented.edge_key_set()  # warm the membership set
    per_op = {}
    for method in (hash_method, sei_method):
        # one warm-up pass per method (cache builds, allocator churn)
        list_triangles(oriented, method, collect=False, engine=engine)
        result, elapsed = _timed(
            lambda m=method: list_triangles(oriented, m, collect=False,
                                            engine=engine),
            repeats)
        per_op[method] = elapsed / max(result.ops, 1)
    ratio = per_op[hash_method] / max(per_op[sei_method], 1e-12)
    return max(ratio, 1e-6)


def calibration_path(path=None) -> pathlib.Path:
    """Resolve the store: explicit arg > env > versioned default."""
    if path is not None:
        return pathlib.Path(path)
    env = os.environ.get(CALIBRATION_FILE_ENV, "").strip()
    return pathlib.Path(env) if env else DEFAULT_CALIBRATION_PATH


def host_fingerprint() -> str:
    """Coarse host identity guarding stored ratios against reuse on a
    different machine class (a ratio measured on an AVX-512 box must
    not price picks on an ARM runner)."""
    import platform
    return (f"{os.cpu_count()}-{platform.machine()}-"
            f"py{'.'.join(platform.python_version_tuple()[:2])}")


def load_calibration_store(path=None) -> dict:
    """Parse the store; missing or corrupt files degrade to empty.

    Shape: ``{"version": 1, "entries": [{engine, ratio, ts, host,
    host_meta, n, seed}, ...]}`` -- newest entries last.
    """
    store_path = calibration_path(path)
    empty = {"version": 1, "entries": []}
    if not store_path.exists():
        return empty
    try:
        data = json.loads(store_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return empty
    if not isinstance(data, dict) or \
            not isinstance(data.get("entries"), list):
        return empty
    data.setdefault("version", 1)
    return data


def store_calibration(ratio: float, engine: str = "numpy", path=None,
                      *, n: int = 4000, seed: int = 0,
                      now: float | None = None) -> pathlib.Path:
    """Append one measured ratio to the rolling store (atomic write).

    Keeps the newest :data:`MAX_STORE_ENTRIES` per engine, stamps the
    host fingerprint + full host metadata, and replaces the file via a
    same-directory temp rename so a concurrent reader never sees a
    torn store.
    """
    from repro.obs.records import host_meta
    store_path = calibration_path(path)
    store = load_calibration_store(store_path)
    store["entries"].append({
        "engine": str(engine),
        "ratio": float(ratio),
        "ts": float(now if now is not None else time.time()),
        "host": host_fingerprint(),
        "host_meta": host_meta(),
        "n": int(n),
        "seed": int(seed),
    })
    # rolling window: newest MAX_STORE_ENTRIES per engine survive
    by_engine: dict[str, list] = {}
    for entry in store["entries"]:
        by_engine.setdefault(str(entry.get("engine")), []).append(entry)
    kept = []
    for entries in by_engine.values():
        entries.sort(key=lambda e: e.get("ts", 0.0))
        kept.extend(entries[-MAX_STORE_ENTRIES:])
    kept.sort(key=lambda e: e.get("ts", 0.0))
    store["entries"] = kept
    store_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = store_path.with_suffix(store_path.suffix + ".tmp")
    tmp.write_text(json.dumps(store, indent=2) + "\n",
                   encoding="utf-8")
    os.replace(tmp, store_path)
    return store_path


def stored_speed_ratio(engine: str = "numpy", path=None,
                       max_age_s: float | None = None,
                       now: float | None = None) -> float | None:
    """The store's answer for this host, or ``None``.

    Median of the fresh, host-matching entries for ``engine`` --
    median because the rolling window absorbs one noisy CI
    measurement without jerking every subsequent plan. Entries from
    other hosts are ignored outright; when matching entries exist but
    all exceed ``max_age_s`` (default
    :data:`DEFAULT_CALIBRATION_MAX_AGE_S`, override via
    ``REPRO_CALIBRATION_MAX_AGE_S``), the store reports stale: a
    ``planner.calibration_stale`` counter ticks and ``None`` is
    returned so the caller falls back to a fresh measurement.
    """
    if max_age_s is None:
        env = os.environ.get("REPRO_CALIBRATION_MAX_AGE_S", "").strip()
        try:
            max_age_s = float(env) if env else \
                DEFAULT_CALIBRATION_MAX_AGE_S
        except ValueError:
            max_age_s = DEFAULT_CALIBRATION_MAX_AGE_S
    if now is None:
        now = time.time()
    host = host_fingerprint()
    matching = [e for e in load_calibration_store(path)["entries"]
                if e.get("engine") == engine and e.get("host") == host
                and isinstance(e.get("ratio"), (int, float))
                and e["ratio"] > 0]
    if not matching:
        return None
    fresh = [e for e in matching
             if now - float(e.get("ts", 0.0)) <= max_age_s]
    if not fresh:
        from repro.obs import metrics as _metrics
        _metrics.inc("planner.calibration_stale")
        return None
    ratios = sorted(float(e["ratio"]) for e in fresh)
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return 0.5 * (ratios[mid - 1] + ratios[mid])


@lru_cache(maxsize=8)
def calibrated_speed_ratio(engine: str = "numpy", n: int = 4000,
                           seed: int = 0) -> float:
    """The ``speed_ratio="calibrated"`` backend, store-first.

    Consults the rolling calibration store before burning wall time on
    a fresh micro-benchmark: a fresh host-matching measurement history
    answers immediately (``planner.calibrations_from_store``); a cold
    or stale store falls through to :func:`measure_speed_ratio` on the
    default synthetic graph (``planner.calibrations``), and the new
    measurement is persisted back when ``REPRO_CALIBRATION_WRITE`` is
    truthy -- the audit layer's feedback loop. Per-process cached
    either way.
    """
    from repro.obs import metrics as _metrics

    stored = stored_speed_ratio(engine)
    if stored is not None:
        _metrics.inc("planner.calibrations_from_store")
        return stored
    _metrics.inc("planner.calibrations")
    ratio = measure_speed_ratio(n=n, seed=seed, engine=engine)
    if env_flag("REPRO_CALIBRATION_WRITE"):
        store_calibration(ratio, engine=engine, n=n, seed=seed)
    return ratio


def native_compare(oriented, methods=DEFAULT_METHODS,
                   threads: int | None = None, repeats: int = 3):
    """Measure every (method, engine) pair on one oriented graph.

    Returns ``(text, data)``: a rendered side-by-side table and the
    machine-readable dict described in the module docstring. Each
    timing is the best of ``repeats`` runs. The native columns are
    ``None``-valued (and rendered as ``--``) when the compiled kernels
    are unavailable; the comparison itself never requires them.
    """
    m = oriented.m or 1
    have_native = native.available()
    # warm the pure-NumPy caches (Bloom table + uint32 mirrors) so the
    # first timed method doesn't pay the one-off build
    run_numpy(oriented, methods[0] if methods else "T1", collect=False)
    data = {
        "n": int(oriented.n),
        "m": int(oriented.m),
        "native": have_native,
        "native_status": native.status(),
        "methods": {},
    }

    native_list_ns = None
    if have_native:
        # warm the block decomposition outside the timed region, then
        # time one full listing emission (method-independent)
        native.count_triangles(oriented, threads=threads)
        arr, elapsed = _timed(
            lambda: native.list_triangles_array(oriented,
                                                threads=threads),
            repeats)
        if arr is not None:
            native_list_ns = elapsed / m * 1e9
            stats = native.last_stats()
            data["native_kernel"] = stats["kind"]
            data["native_threads"] = stats["threads"]
    data["native_list_ns_per_edge"] = native_list_ns

    rows = []
    for method in methods:
        py, t_py = _timed(lambda: list_triangles(
            oriented, method, collect=False, engine="python"))
        pure, t_np = _timed(lambda: run_numpy(
            oriented, method, collect=False), repeats)
        assert py.count == pure.count, method
        t_nat = None
        if have_native:
            nat, t_nat = _timed(lambda: run_native(
                oriented, method, collect=False), repeats)
            assert nat.count == py.count, method
        rows.append((method, py.ops, py.count, t_py, t_np, t_nat))

    header = (f"Engine throughput (n={oriented.n}, m={oriented.m}, "
              f"count-only; native={have_native}"
              + (f", kernel={data.get('native_kernel')}"
                 f", threads={data.get('native_threads')}"
                 if have_native else "") + ")")
    lines = [header,
             f"{'method':>7} {'ops':>12} {'py ns/edge':>11} "
             f"{'np ns/edge':>11} {'nat ns/edge':>12} "
             f"{'py/np':>7} {'np/nat':>7}"]
    for method, ops, count, t_py, t_np, t_nat in rows:
        py_ns = t_py / m * 1e9
        np_ns = t_np / m * 1e9
        speedup_np = t_py / t_np if t_np else float("inf")
        cell = {
            "ops": int(ops), "triangles": int(count),
            "python_ns_per_edge": py_ns,
            "numpy_ns_per_edge": np_ns,
            "speedup_numpy": speedup_np,
            "native_ns_per_edge": None,
            "speedup_native": None,
        }
        if t_nat is not None:
            cell["native_ns_per_edge"] = t_nat / m * 1e9
            cell["speedup_native"] = (t_np / t_nat if t_nat
                                      else float("inf"))
            nat_col = f"{cell['native_ns_per_edge']:>12.1f}"
            nat_speed = f"{cell['speedup_native']:>6.1f}x"
        else:
            nat_col = f"{'--':>12}"
            nat_speed = f"{'--':>7}"
        lines.append(f"{method:>7} {ops:>12} {py_ns:>11.1f} "
                     f"{np_ns:>11.1f} {nat_col} "
                     f"{speedup_np:>6.1f}x {nat_speed}")
        data["methods"][method] = cell
    if native_list_ns is not None:
        lines.append(f"{'(list)':>7} {'-':>12} {'-':>11} {'-':>11} "
                     f"{native_list_ns:>12.1f} {'-':>7} {'-':>7}")
    return "\n".join(lines), data
