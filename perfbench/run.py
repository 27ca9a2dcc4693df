"""Campaign benchmark: fresh-process ``repro campaign --jobs 1`` runs, normalized.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|attack|codegen --seed N \
        --seconds S --trace 0|1

``--trace 0`` runs full campaigns one after another until
``--seconds`` are used, checks every document, and reports the
end-to-end metrics ``wall_s``, ``setup_s`` (each campaign's time to
its first unit) and ``peak_rss_mb``.  ``--trace 1`` runs pairs of one
traced and one untraced campaign on the same hash seed and reports the
per-layer metrics (see spans.py), including ``trace.overhead_s``, the
median traced-minus-untraced difference of the pairs.  Times are normalized
to the reference clock (refclock.py); raw seconds are printed beside
them.  The last line of stdout is the JSON result.  The exit code is
0 when every check passed, 1 when a check failed and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import refclock
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: Reference slices the parent times right before each spawn and right
#: after each exit; they pin the speed of short spans such as setup.
BESIDE_SLICES = 5
MIN_CAMPAIGNS = 3
#: A traced run needs two traced campaigns to compare their counts.
MIN_PAIRS = 2
#: A child that outlives this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Layer time metrics: name -> span names whose self times it sums.
LAYER_TIMES = {
    "sim.trials_s": ("sim.trials",),
    "sim.build_s": ("sim.build",),
    "frontend.compile_s": ("frontend.compile",),
    "opt.optimize_s": ("opt.optimize",),
    "hls.synthesize_s": ("hls.synthesize",),
    "tao.obfuscate_s": (
        "tao.obfuscate", "tao.stage.constants", "tao.stage.branches", "tao.stage.roms",
    ),
    "tao.dfg_s": ("tao.stage.dfg",),
    "tao.validate_s": ("tao.validate",),
    "sim.golden_s": ("sim.golden",),
    "attack.oracle-guided_s": ("attack.oracle-guided",),
    "attack.resistance-curve_s": ("attack.resistance-curve",),
    "attack.hill-climb_s": ("attack.hill-climb",),
    "runtime.import_s": ("runtime.import",),
    "runtime.plan_s": ("runtime.plan",),
    "runtime.execute_s": ("runtime.execute", "runtime.unit"),
    "runtime.write_s": ("runtime.write",),
}
LAYER_COUNTS = (
    "sim.trials", "sim.batches", "sim.cycles", "sim.capped_lanes", "sim.builds",
    "sim.codegen_source_chars", "hls.states", "sim.golden_runs",
    "attack.simulated_trials", "attack.oracle_queries", "runtime.json_bytes",
    "runtime.retries",
)
STRIPPED_ENV_PREFIXES = ("PYTHON", "REPRO_")


def child_env(hash_seed: int) -> dict[str, str]:
    """The campaign's environment: no PYTHON*/REPRO_* settings leak in."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(STRIPPED_ENV_PREFIXES)
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


class Spawned:
    """One finished child process and what it reported."""

    def __init__(self, raw_wall, rss_mb, stats, t_spawn, before, after):
        self.raw_wall = raw_wall
        self.rss_mb = rss_mb
        self.stats = stats
        self.t_spawn = t_spawn
        #: Reference periods the parent timed right before the spawn
        #: and right after the exit.
        self.before = before
        self.after = after

    @property
    def inside(self) -> list[float]:
        """Reference periods the sampler took inside the process."""
        return [period for _start, period in self.stats["samples"]]

    @property
    def periods(self) -> list[float]:
        return self.before + self.inside + self.after

    def wall(self) -> float:
        """Spawn-to-exit seconds, less sampler time, at nominal speed."""
        return refclock.normalize(self.raw_wall, sum(self.inside), self.periods)

    def raw_setup(self) -> float:
        return self.stats["first_unit"] - self.t_spawn

    def setup(self) -> float:
        """Spawn-to-first-unit seconds, at the speed measured around them."""
        early = [p for start, p in self.stats["samples"] if start < self.stats["first_unit"]]
        return refclock.normalize(self.raw_setup(), sum(early), self.before + early)

    def inside_ratio(self) -> float:
        """Mean reference period inside the process over the parent's."""
        beside = self.before + self.after
        return statistics.fmean(self.inside) / statistics.fmean(beside)


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.digests = workloads.load_digests()
        self.spawned = 0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode: str, hash_seed: int = 0) -> tuple[Spawned, Path]:
        self.spawned += 1
        stats_path = self.workdir / f"stats-{self.spawned}.json"
        document = self.workdir / f"campaign-{self.spawned}.json"
        stderr_path = self.workdir / f"stderr-{self.spawned}.txt"
        argv = [
            sys.executable, str(HERE / "child.py"), str(stats_path), mode, "--",
            *workloads.campaign_argv(self.workload, self.seed, document),
        ]
        err_fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                (os.POSIX_SPAWN_DUP2, err_fd, 2),
            ]
            env = child_env(hash_seed)
            before = refclock.time_slices(BESIDE_SLICES)
            t_spawn = time.perf_counter()
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
            killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
            killer.start()
            try:
                _pid, status, usage = os.wait4(pid, 0)
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): never leave the child behind.
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                raise
            finally:
                killer.cancel()
            raw_wall = time.perf_counter() - t_spawn
            after = refclock.time_slices(BESIDE_SLICES)
        finally:
            os.close(err_fd)
        exit_code = os.waitstatus_to_exitcode(status)
        stats = json.loads(stats_path.read_text()) if stats_path.exists() else None
        if stats is None or exit_code != 0:
            tail = stderr_path.read_text()[-2000:]
            raise ChildFailed(f"{mode} child exited {exit_code}:\n{tail}")
        if stats["first_unit"] is None:
            raise ChildFailed(f"{mode} child never started a unit")
        run = Spawned(raw_wall, usage.ru_maxrss / 1024, stats, t_spawn, before, after)
        return run, document

    def campaign(self, mode: str, hash_seed: int = 0) -> Spawned | None:
        """One full campaign run with its document checked."""
        try:
            run, document = self.spawn(mode, hash_seed)
            problems = workloads.document_problems(
                self.workload, self.seed, document.read_bytes(), self.digests
            )
            units = len(json.loads(document.read_bytes())["units"])
        except (ChildFailed, OSError, ValueError, KeyError) as error:
            self.problems.append(str(error))
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += units
        if problems:
            self.problems.extend(problems)
            self.failed += units
            return None
        return run


class ChildFailed(Exception):
    pass


def timed(bench: Bench, seconds: float) -> dict:
    started = time.perf_counter()
    campaigns: list[Spawned] = []
    cycles: list[float] = []
    while True:
        cycle_started = time.perf_counter()
        run = bench.campaign("timed")
        if run is not None:
            campaigns.append(run)
        now = time.perf_counter()
        cycles.append(now - cycle_started)
        attempts = len(cycles)
        if attempts >= MIN_CAMPAIGNS and now - started + max(cycles) > seconds:
            break
        if not campaigns and attempts >= MIN_CAMPAIGNS:
            break
    if not campaigns:
        return {}
    walls = [run.wall() for run in campaigns]
    setups = [run.setup() for run in campaigns]
    raw_walls = [run.raw_wall for run in campaigns]
    raw_setups = [run.raw_setup() for run in campaigns]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(run.rss_mb for run in campaigns), "MB"),
    }
    print(f"{len(campaigns)} campaign runs")
    print(f"  wall_s       {metrics['wall_s'][0]:.4f} s   raw median {statistics.median(raw_walls):.4f} s")
    print(f"  setup_s      {metrics['setup_s'][0]:.4f} s   raw median {statistics.median(raw_setups):.4f} s")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB")
    print("  per campaign: " + ", ".join(f"{w:.3f}/{r:.3f}" for w, r in zip(walls, raw_walls)) + " (normalized/raw s)")
    return metrics


def layer_metrics(run: Spawned) -> dict[str, float]:
    stats = run.stats
    factor = refclock.scale(run.periods)
    own = spans.self_times(stats["spans"], stats["samples"])
    values = {
        name: factor * sum(own.get(span, 0.0) for span in span_names)
        for name, span_names in LAYER_TIMES.items()
    }
    counts = stats["counts"]
    cycles = counts.get("sim.cycles", 0)
    values["sim.ns_per_cycle"] = values["sim.trials_s"] * 1e9 / cycles if cycles else 0.0
    golden = stats["cache"]["golden"]
    lookups = golden["hits"] + golden["l2_hits"] + golden["misses"]
    values["runtime.golden_hit_ratio"] = golden["hits"] / lookups if lookups else 0.0
    values["wall"] = run.wall()
    return values


def traced(bench: Bench, seconds: float) -> dict:
    """Pairs of one traced and one untraced campaign on the same hash seed.

    Pair ``k`` runs on ``PYTHONHASHSEED`` ``k``, so the traced runs'
    counts are compared across hash seeds while each overhead
    difference compares like with like.  The arm that goes first
    alternates, so drift within a pair cancels over the pairs.
    """
    started = time.perf_counter()
    pairs: list[tuple[Spawned, Spawned]] = []
    longest = 0.0
    for hash_seed in itertools.count(1):
        pair_started = time.perf_counter()
        order = ("traced", "timed") if hash_seed % 2 else ("timed", "traced")
        arms = {mode: bench.campaign(mode, hash_seed) for mode in order}
        if None not in arms.values():
            pairs.append((arms["traced"], arms["timed"]))
        now = time.perf_counter()
        longest = max(longest, now - pair_started)
        if hash_seed >= MIN_PAIRS and now - started + longest > seconds:
            break
    if len(pairs) < MIN_PAIRS:
        bench.problems.append(f"need {MIN_PAIRS} pairs of traced and untraced runs")
        return {}
    traced_runs = [traced_run for traced_run, _timed in pairs]
    counts = [run.stats["counts"] for run in traced_runs]
    differing = sorted(
        name for name in LAYER_COUNTS if len({c.get(name, 0) for c in counts}) > 1
    )
    if differing:
        bench.problems.append("counts differ between traced runs: " + ", ".join(differing))
    layers = [layer_metrics(run) for run in traced_runs]
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_TIMES:
        metrics[name] = (statistics.median(layer[name] for layer in layers), "s")
    metrics["sim.ns_per_cycle"] = (
        statistics.median(layer["sim.ns_per_cycle"] for layer in layers), "ns",
    )
    metrics["runtime.golden_hit_ratio"] = (layers[0]["runtime.golden_hit_ratio"], "ratio")
    for name in LAYER_COUNTS:
        metrics[name] = (counts[0].get(name, 0), "bytes" if name.endswith("bytes") else "count")
    overhead = statistics.median(t.wall() - u.wall() for t, u in pairs)
    raw_overhead = statistics.median(t.raw_wall - u.raw_wall for t, u in pairs)
    metrics["trace.overhead_s"] = (overhead, "s")
    traced_wall = statistics.median(layer["wall"] for layer in layers)
    print(f"{len(pairs)} pairs of traced and untraced campaign runs")
    print(
        f"  trace overhead {overhead:+.4f} s normalized, {raw_overhead:+.4f} s raw "
        f"(median traced minus untraced of the pairs)"
    )
    for mode, arm in (("traced", 0), ("untraced", 1)):
        ratios = [pair[arm].inside_ratio() for pair in pairs]
        print(
            f"  {mode:8s} reference period inside / beside the process: median "
            f"{statistics.median(ratios):.4f} ({', '.join(f'{r:.3f}' for r in ratios)})"
        )
    print(f"  traced wall {traced_wall:.4f} s (normalized)")
    for name in LAYER_TIMES:
        share = 100 * metrics[name][0] / traced_wall
        print(f"  {name:28s} {metrics[name][0]:9.4f} s  {share:5.1f} %")
    for name in LAYER_COUNTS:
        print(f"  {name:28s} {metrics[name][0]:>12}")
    return metrics


def compile_bytecode() -> bool:
    """Write .pyc files up front so no timed process pays for them."""
    return all(
        compileall.compile_dir(str(path), quiet=1, workers=1) for path in (SRC, HERE)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    if not compile_bytecode():
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(
        f"workload {workload.name}, seed {args.seed} "
        f"(campaign seed {workloads.campaign_seed(workload, args.seed)}), trace {args.trace}"
    )
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        bench = Bench(workload, args.seed, workdir)
        measure = traced if args.trace else timed
        metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    correct = not bench.problems and bool(metrics)
    print(f"units attempted {bench.attempted}, failed {bench.failed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, bench.attempted),
                "failed": bench.failed if correct else max(1, bench.failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
