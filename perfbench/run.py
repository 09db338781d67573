"""End-to-end benchmark of the triangle-listing reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_cell --seed 1 --seconds 15 --trace 0

One process, one client, closed loop: after a few untimed warm-up ops,
the next op starts when the last one ends, until ``--seconds`` of op
time has been measured. Every op's output, the warm-up ops' too, is
checked outside the timed region. The last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it records the run's settings.

Times are reported at a reference host speed. The shared host this
was tuned on ran the same code up to 1.5x slower in bursts of seconds
and up to 1.7x slower for ten minutes at a time, and at times took
the CPU away from the guest for a tenth of the run, so raw wall times
of the same code drift further apart than any useful bound. An op is
therefore timed in the process's CPU time, which leaves out the time
the hypervisor took the CPU away; the op runs on one thread and does
no I/O, so that is its wall time on an undisturbed CPU. Right
before each timed interval the benchmark times a fixed kernel of its
own (:func:`_calibrate`, garbage collector off; for a
set-up probe, the mean of one timing before and one after) and
scales the interval by ``REFERENCE_S`` over that kernel time: the
interval as it would read on a host that runs the kernel in
``REFERENCE_S`` seconds. The kernel calls no program code, so a
change to the program moves only the scaled interval. The raw times
are in the settings line.

``setup_s`` is the median, over a few fresh child processes, of the
scaled wall time from spawning the child to it being ready for its
first op (import, native kernel build and the workload's set-up
inputs). ``op_s_p50`` is the median scaled op time and ``ops_per_s``
the ops completed over the sum of their scaled times.

The traced run (``--trace 1``) pairs every op with an untraced run of
the same op on the same inputs, alternating which goes first; the
ratio of the two gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes whose set-up time gives ``setup_s``.
SETUP_PROBES = 5
#: Ops run and checked before the timed loop starts.
WARMUP_OPS = 2
#: Seconds the calibration kernel takes at the reference host speed,
#: about its time on the 2-vCPU Sapphire Rapids guest it was tuned on.
REFERENCE_S = 0.018


def _prepare_process() -> str:
    """Fix the program's environment and keep its files in the checkout.

    Clears every ``REPRO_*`` knob, runs the native kernels on one
    thread (one client, no more threads than the cores of a shared
    host), and points temporary files (the native
    kernel build among them) at a private directory under
    ``.bench_build``. Returns that directory.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src'} "
                 f"holds no repro package")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_NATIVE_THREADS"] = "1"
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=base)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    sys.path.insert(0, str(ROOT / "src"))
    return scratch


def _load_program():
    """Import the program and build its kernels; time both."""
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start
    from repro.engine import native
    start = time.perf_counter()
    native.available()
    native_s = time.perf_counter() - start
    if not Path(workloads.pipeline.__file__).is_relative_to(ROOT):
        sys.exit("perfbench: imported repro from outside the checkout")
    return workloads, import_s, native_s


def _calibration_kernel() -> int:
    """The kinds of work the ops spend their time on, in small: an
    interpreted loop over tuples and a dict, a sort, and turning an
    integer array into Python tuples."""
    import numpy as np
    rows = [(i, i * 7 % 13, i ^ 5) for i in range(10_000)]
    index = {}
    for a, b, c in rows:
        index[b] = index.get(b, 0) + a - c
    rows.sort(key=lambda row: row[2])
    array = np.arange(60_000, dtype=np.int64).reshape(-1, 3) % 9973
    triples = list(map(tuple, array.tolist()))
    return len(index) + len(set(triples))


def _calibrate() -> float:
    """``REFERENCE_S`` over the kernel's best CPU time of three, now.

    The collector is off so the program's heap does not slow the kernel.
    """
    gc.disable()
    try:
        best = float("inf")
        for __ in range(3):
            start = time.process_time()
            _calibration_kernel()
            best = min(best, time.process_time() - start)
    finally:
        gc.enable()
    return REFERENCE_S / best


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Raw and scaled seconds from spawning a fresh process to it
    being ready."""
    before = _calibrate()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, "
                           f"exit {proc.returncode}")
    return elapsed, elapsed * (before + _calibrate()) / 2


def _plain_loop(workload, rng, seconds: float) -> tuple[list, list, int]:
    """Raw and scaled CPU times of the timed ops, and the wrong ops.

    The ``WARMUP_OPS`` ops before the timed ones are checked, not timed.
    Every timed op starts after a full garbage collection, outside its
    time, so no op pays for the cyclic garbage of the ops before it.
    """
    failed = sum(not workload.check(workload.run(i, rng))
                 for i in range(WARMUP_OPS))
    times, scaled = [], []
    while sum(times) < seconds:
        scale = _calibrate()
        gc.collect()
        start = time.process_time()
        out = workload.run(WARMUP_OPS + len(times), rng)
        times.append(time.process_time() - start)
        scaled.append(times[-1] * scale)
        failed += not workload.check(out)
        del out
    return times, scaled, failed


def _traced_loop(workload, rng, seconds: float, tracer) -> int:
    """Run each op untraced and traced on the same inputs.

    Returns the number of wrong ops; the op count is ``tracer.ops``.
    """
    failed = 0
    while tracer.plain_seconds + tracer.op_seconds < seconds:
        i = tracer.ops
        values, ok = {}, True
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            op_rng = copy.deepcopy(rng)
            gc.collect()
            if traced:
                with tracer.installed(tracer.loop):
                    start = time.perf_counter()
                    out = workload.run(i, op_rng)
                    tracer.op_seconds += time.perf_counter() - start
                tracer.time_builds(tracer.loop, out.graphs)
            else:
                start = time.perf_counter()
                out = workload.run(i, op_rng)
                tracer.plain_seconds += time.perf_counter() - start
            ok = ok and workload.check(out)
            values[traced] = out.value
            # free each output before the other run, so neither runs
            # with more live objects than the other
            del out
        rng.bit_generator.state = op_rng.bit_generator.state
        tracer.ops += 1
        failed += not (ok and values[True] == values[False])
    return failed


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    scratch = _prepare_process()
    try:
        return _run(args, bench)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, bench: dict) -> int:
    workloads, import_s, native_s = _load_program()
    import numpy as np
    from repro.engine import native

    rng = np.random.default_rng(args.seed)
    cls = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        with tracer.installed(tracer.setup):
            workload = cls(rng)
        tracer.time_builds(tracer.setup, workload.generated)
    else:
        workload = cls(rng)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if tracer is None:
        times, scaled, failed = _plain_loop(workload, rng, args.seconds)
        attempted = WARMUP_OPS + len(times)
    else:
        failed = _traced_loop(workload, rng, args.seconds, tracer)
        attempted = tracer.ops
    run_ok = workload.check_run()

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "native": native.status()["state"],
            "native_threads": int(os.environ["REPRO_NATIVE_THREADS"]),
            "run_check": run_ok}
    if tracer is None:
        probes = [_setup_probe(args.workload, args.seed)
                  for __ in range(SETUP_PROBES)]
        info["setup_probes_s"] = [raw for raw, __ in probes]
        info["op_times_s"] = times
        info["raw_op_s_p50"] = statistics.median(times)
        values = {
            "setup_s": statistics.median(s for __, s in probes),
            "ops_per_s": len(scaled) / sum(scaled),
            "op_s_p50": statistics.median(scaled),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - failed / attempted,
        }
        listed = bench["end_to_end"]
    else:
        info["shares"] = tracer.shares()
        values = tracer.report(import_s, native_s)
        listed = bench["per_layer"]
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": run_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
