"""Steadiness check: repeat workloads and print each metric's spread.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --seed0 100
    python3 perfbench/steady.py --runs 5 --workload sim_cell --out a.json
    python3 perfbench/steady.py --runs 10 --against a.json

Each run is one ``run.py --trace 0`` invocation with its own seed
(``seed0``, ``seed0 + 1``, ...) and the ``run_seconds`` of
BENCHMARK.json. For every end-to-end metric it prints the median and
the spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median --
beside the metric's bound. A spread above a third of its bound is
flagged ``wide``, above the bound ``OVER`` (``setup_s`` has no spread
limit). ``--against`` also compares each median with an earlier
``--out`` file and flags one that is worse by more than the bound.
Exits 1 if any run fails its checks or any flag is ``OVER``/``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path,
                        help="write every run's values here as JSON")
    parser.add_argument("--against", type=Path,
                        help="compare medians with an earlier --out file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    values: dict = {}
    bad = False
    for workload in args.workload or names:
        values[workload] = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(args.runs):
            result = run_once(workload, args.seed0 + k,
                              bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.seed0 + k}: checks failed")
                bad = True
            for name, series in values[workload].items():
                series.append(result["metrics"][name]["value"])
    earlier = json.loads(args.against.read_text()) if args.against else {}

    print(f"{'workload':13} {'metric':12} {'median':>12} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload, series in values.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med = statistics.median(series[name])
            s = spread(series[name])
            verdict = "ok"
            if name != "setup_s" and s > bound:
                verdict, bad = "OVER", True
            elif name != "setup_s" and s > bound / 3:
                verdict = "wide"
            old = earlier.get(workload, {}).get(name)
            if old:
                change = worse_by(metric, med, statistics.median(old))
                verdict += f", {change:+.3f} vs earlier"
                if change > bound:
                    verdict, bad = verdict + " WORSE", True
            print(f"{workload:13} {name:12} {med:12.6g} {s:7.3f} "
                  f"{bound:6.3f}  {verdict}")
    if args.out:
        args.out.write_text(json.dumps(values, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
