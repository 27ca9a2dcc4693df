"""Fault-tolerant campaign executor: ``execute_plan`` + ``ExecutionOptions``.

This is the service half of the plan/execute split
(:func:`repro.runtime.campaign.plan_campaign` is the pure half): it
takes a :class:`~repro.runtime.campaign.CampaignPlan` and runs every
unit to an explicit terminal state — ``ok`` (checkpointed, reusable)
or ``failed`` (recorded with its error, never aborting the rest of
the campaign).

Execution model
---------------

* **Inline** (``jobs <= 1`` and no ``unit_timeout``): units run in
  this process, with the same retry/backoff policy as the pool path.
  This is the reference semantics the parallel paths must match
  byte-for-byte.
* **Worker pool** (otherwise): a set of persistent worker processes,
  one duplex :class:`multiprocessing.Pipe` each.  Workers are
  long-lived (their in-process caches warm across units, exactly
  like the old ``ProcessPoolExecutor`` fan-out), but — unlike a
  ``ProcessPoolExecutor`` — each worker is individually killable: a
  unit that exceeds ``unit_timeout`` gets its worker's whole process
  group SIGKILLed (taking any nested key-level pool down with it) and
  a replacement worker is spawned.  A worker that dies mid-unit
  (crash, OOM-kill) is detected as EOF on its pipe and handled the
  same way.

Failure policy: a unit attempt that raises, times out or loses its
worker is retried up to ``max_retries`` times with exponential
backoff (``retry_backoff * 2**(attempt-1)`` seconds).  A unit that
exhausts its attempts degrades to a ``status: "failed"`` record
(attempt count + error, no report) — the campaign completes and
reports it, because in a long sweep one poisoned cell must not cost
the other thousand.

Determinism: unit payloads are produced by :func:`_execute_unit` from
derived seeds alone, so scheduling, retries, worker replacement and
checkpoint-resume can never change result bytes — ``status``/
``attempts`` are part of the unit record, and a unit that succeeds
first try always records ``attempts: 1`` regardless of how the runs
around it were interrupted.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, get_context
from pathlib import Path
from typing import Any, Callable, Optional

from repro.runtime.campaign import (
    CampaignPlan,
    PIPELINE_FROM_PARAMS,
    PlannedUnit,
    budget_constraints,
    derive_seed,
    resolve_jobs,
)
from repro.runtime.checkpoint import STATUS_FAILED, STATUS_OK, CheckpointStore

#: Progress-event names delivered to ``ExecutionOptions.progress``.
#: Each event carries a small info dict (unit labels, attempt count,
#: error text where applicable).  Telemetry only — never serialized.
EVENT_UNIT_OK = "unit-ok"
EVENT_UNIT_RETRY = "unit-retry"
EVENT_UNIT_FAILED = "unit-failed"
EVENT_UNIT_RESUMED = "unit-resumed"


@dataclass(frozen=True)
class ExecutionOptions:
    """Every execution knob of a campaign in one immutable bundle.

    These are *how* knobs, not *what* knobs: none of them may change
    result bytes (except that a unit which genuinely fails records its
    ``failed`` status).  They are therefore deliberately separate from
    :class:`~repro.runtime.campaign.CampaignSpec` and excluded from
    the checkpoint fingerprint — a campaign interrupted under
    ``jobs=8`` resumes fine under ``jobs=1``.

    ``jobs=0`` means auto (``$REPRO_JOBS``, then cpu count ≤ 8).
    ``unit_timeout`` is wall seconds per unit *attempt*; ``None``
    disables the watchdog.  ``max_retries`` bounds re-attempts after a
    failure (crash, timeout, exception), so a unit executes at most
    ``1 + max_retries`` times.  ``checkpoint_dir`` enables per-unit
    checkpointing; ``resume`` additionally loads completed units from
    it instead of re-executing them.  ``key_batch_lanes`` caps the
    lanes of one batched simulate call (``None`` = auto:
    ``$REPRO_KEY_BATCH_LANES``, then the module default — see
    :func:`repro.tao.metrics.resolve_key_batch_lanes`); like ``jobs``
    it can never change result bytes.  ``progress`` is an optional
    ``callback(event, info)`` for structured progress telemetry.
    """

    jobs: int = 1
    engine: Optional[str] = None
    collect_cache_stats: bool = False
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    unit_timeout: Optional[float] = None
    max_retries: int = 1
    retry_backoff: float = 0.5
    key_batch_lanes: Optional[int] = None
    progress: Optional[Callable[[str, dict[str, Any]], None]] = None

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs={self.jobs}: worker count cannot be negative")
        if self.key_batch_lanes is not None and self.key_batch_lanes < 1:
            raise ValueError(
                f"key_batch_lanes={self.key_batch_lanes}: need at least one "
                "lane per batch"
            )
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError(
                f"unit_timeout={self.unit_timeout}: must be positive seconds "
                "(or None to disable the per-unit watchdog)"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries={self.max_retries}: cannot be negative")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff={self.retry_backoff}: cannot be negative"
            )
        if self.resume and not self.checkpoint_dir:
            raise ValueError("resume=True requires a checkpoint_dir")

    def emit(self, event: str, info: dict[str, Any]) -> None:
        if self.progress is not None:
            self.progress(event, info)


# ----------------------------------------------------------------------
# Worker body (also the inline execution body)
# ----------------------------------------------------------------------
def _execute_unit(shared: Any, task: tuple) -> dict[str, Any]:
    """Build one unit's component and run its validation campaign.

    Rebuilds everything from the planned unit's derived seeds rather
    than pickling designs across the process boundary; each worker's
    front-end and golden caches absorb the redundancy.  Returns the
    unit as a schema dict (plus this unit's cache-counter delta, kept
    out of the deterministic ``unit`` payload).  Stage telemetry is
    serialized timing-free (``StageReport.to_dict`` default), keeping
    the unit payload byte-deterministic.
    """
    spec_dict, key_parallel_jobs, engine, key_batch_lanes = shared
    (
        _index,
        benchmark_name,
        config,
        key_scheme,
        budget,
        pipeline,
        seed,
        workload_seed,
    ) = task
    from repro.benchsuite import get_benchmark
    from repro.runtime.cache import cache_stats, stats_delta
    from repro.runtime.campaign import _spec_from_dict
    from repro.runtime.results import report_to_dict
    from repro.tao.flow import TaoFlow
    from repro.tao.key import ObfuscationParameters
    from repro.tao.metrics import validate_component
    from repro.tao.pipeline import FlowSpec, resolve_pipeline

    stats_before = cache_stats()
    spec = _spec_from_dict(spec_dict)
    overrides = spec.config_overrides(config)
    bench = get_benchmark(benchmark_name)
    params = ObfuscationParameters(**overrides)
    flow_spec = (
        FlowSpec.from_parameters(params)
        if pipeline == PIPELINE_FROM_PARAMS
        else resolve_pipeline(pipeline)
    )
    flow = TaoFlow(
        params=params,
        constraints=budget_constraints(budget),
        key_scheme=key_scheme,
        pipeline=flow_spec,
    )
    component = flow.obfuscate(bench.source, bench.top)
    workloads = bench.make_testbenches(
        seed=workload_seed, count=spec.n_workloads
    )
    report = validate_component(
        component,
        workloads,
        n_keys=spec.n_keys,
        seed=seed,
        jobs=key_parallel_jobs,
        engine=engine,
        key_batch_lanes=key_batch_lanes,
    )
    unit: dict[str, Any] = {
        "benchmark": benchmark_name,
        "config": config,
        "key_scheme": key_scheme,
        "budget": budget,
        "pipeline": pipeline,
        "params": overrides,
        "seed": seed,
        "workload_seed": workload_seed,
        "stages": [r.to_dict() for r in component.stage_reports],
        "report": report_to_dict(report),
    }
    if spec.attacks:
        from repro.attack import run_attack

        # Each attack draws from its own name-scoped stream: the unit
        # seed and every other attack are unaffected by its presence.
        unit["attacks"] = {
            attack: run_attack(
                attack,
                component,
                workloads,
                seed=derive_seed(
                    spec.seed,
                    "attack",
                    attack,
                    benchmark_name,
                    config,
                    key_scheme,
                    budget,
                    pipeline,
                ),
                engine=engine,
            )
            for attack in spec.attacks
        }
    return {
        "unit": unit,
        "cache_delta": stats_delta(stats_before, cache_stats()),
    }


def _worker_main(conn: connection.Connection, shared: Any) -> None:
    """Persistent worker loop: recv task tuple, send outcome, repeat.

    Each worker detaches into its own process group so the parent's
    timeout watchdog can SIGKILL the worker *and* any nested key-level
    pool it spawned in one ``killpg``.  A ``None`` task (or a closed
    pipe) shuts the worker down cleanly.
    """
    try:
        os.setpgid(0, 0)
    except OSError:  # pragma: no cover - already a group leader
        pass
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            try:
                outcome = _execute_unit(shared, task)
                message = ("done", task[0], outcome)
            except Exception:
                message = ("error", task[0], traceback.format_exc(limit=30))
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Scheduler internals
# ----------------------------------------------------------------------
@dataclass
class _PendingUnit:
    """One plan unit's place in the retry queue."""

    unit: PlannedUnit
    failures: int = 0  # attempts that have already failed
    eligible_at: float = 0.0  # monotonic time the next attempt may start

    @property
    def attempt(self) -> int:
        """1-based number of the attempt about to run / just run."""
        return self.failures + 1


class _WorkerHandle:
    """A killable persistent worker process plus its parent-side pipe."""

    def __init__(self, ctx, shared: Any) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        # Not a daemon: workers spawn nested key-level pools, and
        # daemonic processes may not have children.
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, shared), daemon=False
        )
        self.process.start()
        child_conn.close()
        self.item: Optional[_PendingUnit] = None
        self.started_at = 0.0

    def assign(self, item: _PendingUnit) -> None:
        self.item = item
        self.started_at = time.monotonic()
        self.conn.send(item.unit.as_task())

    def kill(self) -> None:
        """SIGKILL the worker's whole process group (nested pools too)."""
        pid = self.process.pid
        if pid is not None:
            try:
                os.killpg(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                try:
                    self.process.kill()
                except (OSError, ValueError):  # pragma: no cover
                    pass
        self.process.join(timeout=5.0)
        self.conn.close()

    def shutdown(self) -> None:
        """Polite stop: sentinel, short join, then force-kill stragglers."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


def _mp_context():
    """Fork where available: workers inherit the parent's registry,
    plugins and (in tests) monkeypatched module state."""
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return get_context()


def _failure_reason(detail: str) -> str:
    """Compact one-line error for the serialized unit record.

    Full tracebacks are surfaced through progress telemetry; the JSON
    document keeps the terse final line so failure records stay small
    and mostly machine-stable.
    """
    lines = [line.strip() for line in detail.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "unit execution failed"


def _failed_unit_dict(
    plan: CampaignPlan, unit: PlannedUnit, attempts: int, reason: str
) -> dict[str, Any]:
    """Serialized record of a unit that exhausted its attempts."""
    try:
        params = plan.spec.config_overrides(unit.config)
    except Exception:
        # Config resolution itself may be the failure; record what we know.
        params = {}
    return {
        "benchmark": unit.benchmark,
        "config": unit.config,
        "key_scheme": unit.key_scheme,
        "budget": unit.budget,
        "pipeline": unit.pipeline,
        "params": params,
        "seed": unit.seed,
        "workload_seed": unit.workload_seed,
        "stages": [],
        "status": STATUS_FAILED,
        "attempts": attempts,
        "error": reason,
    }


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class _Execution:
    """One ``execute_plan`` run: queue, telemetry, checkpoint wiring."""

    def __init__(
        self,
        plan: CampaignPlan,
        options: ExecutionOptions,
        store: Optional[CheckpointStore],
    ) -> None:
        self.plan = plan
        self.options = options
        self.store = store
        self.results: dict[int, dict[str, Any]] = {}  # index -> unit dict
        self.cache_deltas: list[dict[str, Any]] = []
        self.resumed = 0
        self.retries = 0
        self.failed = 0

    # -- outcome recording ---------------------------------------------
    def record_ok(self, item: _PendingUnit, outcome: dict[str, Any]) -> None:
        unit_dict = dict(outcome["unit"])
        unit_dict["status"] = STATUS_OK
        unit_dict["attempts"] = item.attempt
        self.results[item.unit.index] = unit_dict
        self.cache_deltas.append(outcome.get("cache_delta", {}))
        if self.store is not None:
            self.store.store(item.unit.unit_id, unit_dict)
        self.options.emit(
            EVENT_UNIT_OK,
            {"unit": item.unit.labels(), "attempts": item.attempt},
        )

    def record_resumed(self, unit: PlannedUnit, payload: dict[str, Any]) -> None:
        self.results[unit.index] = payload
        self.resumed += 1
        self.options.emit(EVENT_UNIT_RESUMED, {"unit": unit.labels()})

    def retry_or_fail(
        self, item: _PendingUnit, detail: str
    ) -> Optional[_PendingUnit]:
        """After a failed attempt: requeue with backoff, or seal as failed.

        Returns the item when it should be requeued, ``None`` when it
        has been recorded as permanently failed.
        """
        item.failures += 1
        reason = _failure_reason(detail)
        if item.failures <= self.options.max_retries:
            self.retries += 1
            delay = self.options.retry_backoff * (2 ** (item.failures - 1))
            item.eligible_at = time.monotonic() + delay
            self.options.emit(
                EVENT_UNIT_RETRY,
                {
                    "unit": item.unit.labels(),
                    "attempt": item.failures,
                    "next_attempt": item.attempt,
                    "backoff_seconds": delay,
                    "error": reason,
                    "detail": detail,
                },
            )
            return item
        self.failed += 1
        self.results[item.unit.index] = _failed_unit_dict(
            self.plan, item.unit, item.failures, reason
        )
        self.options.emit(
            EVENT_UNIT_FAILED,
            {
                "unit": item.unit.labels(),
                "attempts": item.failures,
                "error": reason,
                "detail": detail,
            },
        )
        return None

    # -- execution strategies ------------------------------------------
    def run_inline(self, pending: list[_PendingUnit], shared: Any) -> None:
        for item in pending:
            while True:
                delay = item.eligible_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    outcome = _execute_unit(shared, item.unit.as_task())
                except Exception:
                    if self.retry_or_fail(item, traceback.format_exc(limit=30)):
                        continue
                    break
                self.record_ok(item, outcome)
                break

    def run_pool(
        self, pending: list[_PendingUnit], shared: Any, n_workers: int
    ) -> None:
        ctx = _mp_context()
        queue: deque[_PendingUnit] = deque(pending)
        workers = [_WorkerHandle(ctx, shared) for _ in range(n_workers)]
        try:
            while queue or any(w.item is not None for w in workers):
                now = time.monotonic()
                self._assign_ready(workers, queue, ctx, shared, now)
                busy = [w for w in workers if w.item is not None]
                if not busy:
                    # Everything pending is backing off; sleep to the
                    # earliest eligibility.
                    wake = min(item.eligible_at for item in queue)
                    time.sleep(max(0.0, min(wake - now, 0.5)))
                    continue
                timeout = self._wait_timeout(busy, queue, now)
                ready = connection.wait([w.conn for w in busy], timeout)
                for conn in ready:
                    worker = next(w for w in busy if w.conn is conn)
                    self._drain_worker(worker, workers, ctx, shared, queue)
                self._expire_timeouts(workers, ctx, shared, queue)
        finally:
            for worker in workers:
                worker.shutdown()

    # -- pool plumbing --------------------------------------------------
    def _assign_ready(self, workers, queue, ctx, shared, now) -> None:
        for i, worker in enumerate(workers):
            if worker.item is not None or not queue:
                continue
            item = self._pop_eligible(queue, now)
            if item is None:
                return
            try:
                worker.assign(item)
            except (BrokenPipeError, OSError):
                # Worker died while idle: replace it and requeue the
                # unit with no attempt charged (it never started).
                worker.kill()
                workers[i] = _WorkerHandle(ctx, shared)
                item.eligible_at = 0.0
                queue.appendleft(item)

    @staticmethod
    def _pop_eligible(
        queue: deque[_PendingUnit], now: float
    ) -> Optional[_PendingUnit]:
        """First queued item whose backoff has elapsed (stable order)."""
        for _ in range(len(queue)):
            item = queue.popleft()
            if item.eligible_at <= now:
                return item
            queue.append(item)
        return None

    def _wait_timeout(self, busy, queue, now) -> float:
        deadline = 0.5  # idle tick: re-check assignments and timeouts
        if self.options.unit_timeout is not None:
            soonest = min(w.started_at for w in busy)
            deadline = min(
                deadline, max(0.0, soonest + self.options.unit_timeout - now)
            )
        for item in queue:
            if item.eligible_at > now:
                deadline = min(deadline, item.eligible_at - now)
        return max(0.05, deadline)

    def _drain_worker(self, worker, workers, ctx, shared, queue) -> None:
        item = worker.item
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # Worker process died mid-unit (crash, external SIGKILL,
            # OOM): charge the attempt and spawn a replacement.
            worker.kill()
            workers[workers.index(worker)] = _WorkerHandle(ctx, shared)
            if item is not None:
                requeued = self.retry_or_fail(
                    item, "worker process died mid-unit (crash or kill)"
                )
                if requeued is not None:
                    queue.append(requeued)
            return
        worker.item = None
        kind, _index, payload = message
        if item is None:  # pragma: no cover - protocol safety net
            return
        if kind == "done":
            self.record_ok(item, payload)
        else:
            requeued = self.retry_or_fail(item, payload)
            if requeued is not None:
                queue.append(requeued)

    def _expire_timeouts(self, workers, ctx, shared, queue) -> None:
        if self.options.unit_timeout is None:
            return
        now = time.monotonic()
        for i, worker in enumerate(workers):
            item = worker.item
            if item is None:
                continue
            elapsed = now - worker.started_at
            if elapsed <= self.options.unit_timeout:
                continue
            worker.kill()
            workers[i] = _WorkerHandle(ctx, shared)
            requeued = self.retry_or_fail(
                item,
                f"unit attempt exceeded --unit-timeout "
                f"({self.options.unit_timeout:g}s; ran {elapsed:.1f}s)",
            )
            if requeued is not None:
                queue.append(requeued)


def execute_plan(plan: CampaignPlan, options: Optional[ExecutionOptions] = None):
    """Run every unit of ``plan`` to a terminal state; return the result.

    The service core of the campaign engine: checkpointing, resume,
    per-unit timeout, bounded retry with exponential backoff, and
    structured progress telemetry, layered over the same deterministic
    unit bodies the one-shot engine ran.  See the module docstring for
    the execution model; see
    :class:`~repro.runtime.campaign.CampaignSpec` for what, versus
    :class:`ExecutionOptions` for how.

    Fan-out strategy: parallelism applies across units, and any worker
    budget beyond the unit count is handed down as key-level
    parallelism using ceil division — a single-unit campaign fans its key trials over every
    core, and ``jobs=8`` over 2 units gives each unit 4 key workers.

    The returned :class:`~repro.runtime.results.CampaignResult` carries
    an ``execution`` telemetry dict (units total/completed/resumed/
    failed, retries, wall seconds) that — like ``elapsed_seconds`` —
    is never serialized into the JSON document.
    """
    from repro.runtime.results import SCHEMA, CampaignResult, CampaignUnit
    from repro.sim.compiled import resolve_engine
    from repro.tao.metrics import resolve_key_batch_lanes

    if options is None:
        options = ExecutionOptions()
    started = time.monotonic()
    jobs = options.jobs if options.jobs > 0 else resolve_jobs(0)
    total = len(plan.units)
    key_jobs = max(1, -(-jobs // total)) if jobs > total else 1
    # The engine and lane cap are resolved here (not in the workers) so
    # spawned processes honour the parent's $REPRO_SIM_ENGINE /
    # $REPRO_KEY_BATCH_LANES regardless of their inherited environment.
    engine = resolve_engine(options.engine)
    lanes = resolve_key_batch_lanes(options.key_batch_lanes)
    shared = (plan.spec_dict(), key_jobs, engine, lanes)

    store: Optional[CheckpointStore] = None
    if options.checkpoint_dir is not None:
        store = CheckpointStore(Path(options.checkpoint_dir), plan.fingerprint)
        store.write_manifest(plan.spec_dict())

    run = _Execution(plan, options, store)
    pending: list[_PendingUnit] = []
    for unit in plan.units:
        if options.resume and store is not None:
            payload = store.load(unit.unit_id)
            if payload is not None:
                run.record_resumed(unit, payload)
                continue
        pending.append(_PendingUnit(unit))

    # A single pending unit runs inline with the whole worker budget as
    # key_jobs (matching the legacy engine) — unless a timeout watchdog
    # is requested, which needs a killable child process.
    n_workers = min(jobs, len(pending))
    if pending:
        if n_workers <= 1 and options.unit_timeout is None:
            run.run_inline(pending, shared)
        else:
            run.run_pool(pending, shared, max(1, n_workers))

    elapsed = time.monotonic() - started
    result = CampaignResult(
        spec=plan.spec_dict(),
        units=[
            CampaignUnit.from_dict(run.results[index])
            for index in sorted(run.results)
        ],
        elapsed_seconds=elapsed,
    )
    result.execution = {
        "schema": SCHEMA,
        "units_total": total,
        "units_completed": total - run.failed,
        "units_resumed": run.resumed,
        "units_failed": run.failed,
        "retries": run.retries,
        "wall_seconds": elapsed,
    }
    if options.collect_cache_stats:
        totals: dict[str, Any] = {}
        for delta in run.cache_deltas:
            for cache, counters in delta.items():
                bucket = totals.setdefault(cache, {})
                for counter, value in counters.items():
                    bucket[counter] = bucket.get(counter, 0) + value
        result.cache = totals
    return result


__all__ = [
    "ExecutionOptions",
    "execute_plan",
    "EVENT_UNIT_OK",
    "EVENT_UNIT_RETRY",
    "EVENT_UNIT_FAILED",
    "EVENT_UNIT_RESUMED",
]
