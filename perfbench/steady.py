"""Steadiness check: two sets of runs of the same code must agree.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--seconds S]

Runs ``run.py --trace 0`` ten times on every workload of
BENCHMARK.json with seeds 0-9, then a second set the same way with
seeds 10-19.  For every end-to-end metric it prints both set medians,
their relative change, each set's spread (quartile distance over
median) and the bound.  It exits 1 when a spread (``setup_s``
excepted) or the change between the sets, in either direction,
exceeds the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(
            f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
            f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}"
        )
    return result["metrics"]


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def judge(metric: dict, first: list[float], second: list[float]) -> tuple[float, list[str], list[str]]:
    """``(change, failures, notes)`` for one metric's two sets of values.

    ``change`` is the second median over the first, minus one.  A
    change beyond the bound fails in either direction: a set that came
    out much faster is as unsteady as one that came out slower.  The
    spread of ``setup_s`` is not gated, only its change.
    """
    bound = metric["bound"]
    change = statistics.median(second) / statistics.median(first) - 1
    worse = change > 0 if metric["better"] == "lower" else change < 0
    failures, notes = [], []
    if abs(change) > bound:
        failures.append(f"CHANGE>BOUND ({'worse' if worse else 'better'})")
    if metric["name"] != "setup_s":
        widest = max(spread(first), spread(second))
        if widest > bound:
            failures.append("SPREAD>BOUND")
        elif widest > bound / 3:
            notes.append("spread>bound/3")
    return change, failures, notes


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)
    names = [w["name"] for w in config["workloads"]]
    values: dict[tuple[str, str, int], list[float]] = {}
    for set_index in range(SETS):
        for workload in names:
            for run_index in range(RUNS):
                seed = set_index * RUNS + run_index
                started = time.perf_counter()
                metrics = one_run(workload, seed, args.seconds)
                elapsed = time.perf_counter() - started
                for name, metric in metrics.items():
                    values.setdefault((workload, name, set_index), []).append(metric["value"])
                summary = ", ".join(f"{n} {m['value']:.4f}" for n, m in metrics.items())
                print(
                    f"set {set_index + 1} {workload} seed {seed} ({elapsed:.1f} s): {summary}",
                    flush=True,
                )
    steady = True
    print(f"\n{'workload':9s} {'metric':12s} {'bound':>6s} {'median1':>10s} {'spread1':>8s} "
          f"{'median2':>10s} {'spread2':>8s} {'change':>8s}")
    for workload in names:
        for metric in config["end_to_end"]:
            name = metric["name"]
            first, second = (values[(workload, name, i)] for i in range(SETS))
            change, failures, notes = judge(metric, first, second)
            steady = steady and not failures
            print(f"{workload:9s} {name:12s} {metric['bound']:6.2f} "
                  f"{statistics.median(first):10.4f} {spread(first):8.3f} "
                  f"{statistics.median(second):10.4f} {spread(second):8.3f} "
                  f"{change:+8.3f} {' '.join(failures + notes)}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
