"""Parallel validation-campaign engine (paper §4.3 at scale).

The §4.3 security validation simulates each obfuscated design under
~100 random locking keys, and Figure-6-style sweeps repeat that over
benchmark × parameter configurations.  This module turns that shape
into an explicit multi-axis engine:

* :class:`CampaignSpec` declares the sweep — benchmarks, named
  parameter configs, key-management schemes (paper §3.4), named
  resource budgets, obfuscation pipelines (``pipelines``: FlowSpec
  preset names or comma-separated stage lists, see
  :mod:`repro.tao.pipeline`; the default sentinel
  :data:`PIPELINE_FROM_PARAMS` derives the stage set from each
  config's ``ObfuscationParameters`` booleans), key count and
  workloads.  Every named axis value is a capability in
  :data:`repro.registry.REGISTRY` (kinds ``config``, ``key-scheme``,
  ``budget``, ``pipeline-preset``; ``repro list`` enumerates them);
* :func:`plan_campaign` turns a spec into a :class:`CampaignPlan` — a
  pure, deterministic enumeration of :class:`PlannedUnit` entries
  (benchmark × config × key scheme × budget × pipeline), each with
  derived seeds and a content-addressed ``unit_id``
  (:func:`repro.runtime.checkpoint.unit_identity`) a checkpoint store
  or fleet scheduler can address it by;
* :func:`repro.runtime.executor.execute_plan` runs the plan under an
  :class:`~repro.runtime.executor.ExecutionOptions` bundle
  (workers, engine, checkpointing/resume, per-unit timeout, bounded
  retry) and returns a :class:`repro.runtime.results.CampaignResult`
  holding the unified ``repro.campaign/5`` JSON document (per-unit
  pipeline label, per-stage ``StageReport`` blocks, and per-unit
  ``status``/``attempts``);
* :func:`run_campaign` is the one-shot plan-then-execute shorthand;
* :func:`parallel_map` is the shared fan-out primitive (also used by
  ``repro.tao.metrics.validate_component`` for key-level parallelism)
  and :func:`key_batches` the shared batching contract: workers are
  handed contiguous *batches* of keys (not single keys), so the
  codegen engine can bind and sweep each batch in one pass while
  batch boundaries stay deterministic.

Determinism contract: every unit's seed is *derived* (SHA-256 of the
base seed and the unit's axis labels), each worker rebuilds its
component from that seed, and no result depends on scheduling order —
so serial (``jobs=1``) and parallel runs of the same spec produce
byte-identical JSON.  The tests assert this.

Workload seeds are derived from the *benchmark alone* (not the other
axes): every config/scheme/budget cell of one benchmark validates
against the same testbenches.  That is what makes cells comparable —
and, with the content-addressed golden cache, what lets all cells of
one benchmark share a single golden interpreter run per workload.

Workers inherit nothing mutable from the parent: each process warms
its own :mod:`repro.runtime.cache` singletons (golden interpreter
results, front-end modules).  Key-level pools nested inside
a unit report their cache-counter deltas back up (see
:func:`repro.runtime.cache.absorb_stats`), so campaign telemetry
counts every trial regardless of process layout.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, TypeVar

from repro.registry import REGISTRY

_T = TypeVar("_T")

#: Named parameter configurations for sweeps (mirrors the Figure 6
#: ablation axes: each obfuscation in isolation plus the full flow),
#: registered under the ``"config"`` kind.
for _name, _overrides, _desc in (
    ("default", {}, "full flow: all obfuscations at their defaults"),
    (
        "branches-only",
        {"obfuscate_constants": False, "obfuscate_dfg": False},
        "branch masking in isolation",
    ),
    (
        "constants-only",
        {"obfuscate_branches": False, "obfuscate_dfg": False},
        "constant extraction in isolation",
    ),
    (
        "dfg-only",
        {"obfuscate_branches": False, "obfuscate_constants": False},
        "DFG variants in isolation",
    ),
):
    REGISTRY.register("config", _name, _overrides, description=_desc)
del _name, _overrides, _desc

#: Pipeline-axis sentinel: derive the stage set from the unit's
#: ``ObfuscationParameters`` booleans (the legacy behaviour every
#: pre-pipeline campaign ran).  Any other pipeline label is resolved
#: by :func:`repro.tao.pipeline.resolve_pipeline` (preset name or
#: comma-separated stage list) and *overrides* the config's stage
#: booleans — the config then only contributes numeric parameters.
PIPELINE_FROM_PARAMS = "params"

#: The FlowSpec preset equivalent of each builtin ``"config"``
#: entry: running a config through its pipeline preset produces a
#: byte-identical design (asserted in tests/test_tao_pipeline.py).
CONFIG_PIPELINES: dict[str, str] = {
    "default": "full",
    "branches-only": "branches",
    "constants-only": "constants",
    "dfg-only": "dfg",
}

#: Named resource-constraint presets for the budget axis, registered
#: under the ``"budget"`` kind.  Each preset is ``None`` (the
#: scheduler's default ``ResourceConstraints``) or a dict whose
#: ``"limits"`` entry holds per-FU-kind instance caps (keys are
#: ``FUKind`` values) and whose other entries set
#: ``ResourceConstraints`` fields by name (e.g. ``memory_ports``,
#: ``shared_memory_port``) — validated against the dataclass, so a
#: typo fails loudly at preset resolution.  ``tight``/``loose`` mirror
#: the A3 ablation's adder/logic budgets; ``mul-tight`` starves the
#: multiply/divide datapath and ``mem-tight`` banks every array behind
#: one shared memory port.
for _name, _limits, _desc in (
    ("default", None, "the scheduler's default ResourceConstraints"),
    ("tight", {"limits": {"addsub": 1, "logic": 1}}, "one adder, one logic unit (A3)"),
    ("loose", {"limits": {"addsub": 4, "logic": 4}}, "four adders, four logic units"),
    ("mul-tight", {"limits": {"mul": 1, "div": 1}}, "starved multiply/divide datapath"),
    (
        "mem-tight",
        {"memory_ports": 1, "shared_memory_port": True},
        "every array banked behind one shared memory port",
    ),
):
    REGISTRY.register("budget", _name, _limits, description=_desc)
del _name, _limits, _desc


def budget_constraints(budget: str):
    """``ResourceConstraints`` for a registered ``"budget"`` name.

    Returns ``None`` for the default budget (the scheduler applies its
    own defaults).  Unknown budget names raise the registry's uniform
    :class:`~repro.registry.UnknownCapabilityError` (a ``KeyError``)
    listing the registered budgets; preset entries that name no
    ``ResourceConstraints`` field raise ``KeyError`` too.
    """
    import dataclasses

    REGISTRY.load_plugins()
    preset = REGISTRY.get("budget", budget)
    if preset is None:
        return None
    from repro.hls.resources import FUKind, ResourceConstraints

    field_names = {f.name for f in dataclasses.fields(ResourceConstraints)}
    constraints = ResourceConstraints()
    for key, value in preset.items():
        if key == "limits":
            for kind_name, limit in value.items():
                constraints.limits[FUKind(kind_name)] = limit
        elif key in field_names:
            setattr(constraints, key, value)
        else:
            raise KeyError(
                f"budget preset {budget!r}: {key!r} is neither 'limits' "
                f"nor a ResourceConstraints field"
            )
    return constraints


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` env > cpu count (≤8).

    ``None`` and ``0`` both mean "auto" (environment, then cpu count);
    negative values are a caller error, and so is a ``REPRO_JOBS`` that
    is not a non-negative integer (a ``ValueError`` naming the
    variable; ``REPRO_JOBS=0`` means auto, like ``--jobs 0``).
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs={jobs}: worker count cannot be negative")
    if jobs is not None and jobs > 0:
        return jobs
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value < 0:
            raise ValueError(
                f"REPRO_JOBS={env!r}: not a non-negative integer (0 = auto)"
            )
        if value > 0:
            return value
    return max(1, min(8, os.cpu_count() or 1))


def derive_seed(base_seed: int, *scope: object) -> int:
    """Stable per-unit seed: SHA-256 over the base seed and scope labels.

    Independent of execution order and process layout, so serial and
    parallel campaigns generate identical keys and workloads.
    """
    text = ":".join(str(part) for part in (base_seed, *scope))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# Generic process fan-out
# ----------------------------------------------------------------------
_WORKER_FN: Optional[Callable[[Any, Any], Any]] = None
_WORKER_SHARED: Any = None


def _init_worker(fn: Callable[[Any, Any], Any], shared: Any) -> None:
    global _WORKER_FN, _WORKER_SHARED
    _WORKER_FN = fn
    _WORKER_SHARED = shared


def _invoke_worker(item: Any) -> Any:
    assert _WORKER_FN is not None, "worker pool not initialized"
    return _WORKER_FN(_WORKER_SHARED, item)


def key_batches(
    items: Iterable[_T], jobs: int, max_lanes: int = 64
) -> list[list[_T]]:
    """Split ``items`` into deterministic contiguous batches.

    The batching contract of the key-trial fan-out: at least ``jobs``
    batches (so every worker gets work), no batch larger than
    ``max_lanes`` (bounding per-batch lane storage), and batch
    boundaries that depend only on ``(len(items), jobs, max_lanes)`` —
    never on scheduling — so a batched campaign's results and order
    are identical to a scalar one's.  Concatenating the batches always
    reproduces ``items`` exactly.
    """
    items = list(items)
    if not items:
        return []
    n_batches = min(len(items), max(jobs, -(-len(items) // max_lanes)))
    size = -(-len(items) // n_batches)
    return [items[i : i + size] for i in range(0, len(items), size)]


def parallel_map(
    fn: Callable[[Any, _T], Any],
    items: Iterable[_T],
    *,
    shared: Any = None,
    jobs: int = 1,
    chunksize: int = 1,
) -> list[Any]:
    """Order-preserving map of ``fn(shared, item)`` over worker processes.

    ``fn`` must be a module-level (picklable) function; ``shared`` is
    pickled once per worker via the pool initializer rather than once
    per task, which keeps large payloads (an obfuscated component, a
    testbench list) off the per-task hot path.  With ``jobs <= 1`` or
    a single item the map runs inline — the semantics are identical
    either way, which is what makes serial-vs-parallel determinism
    testable.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(shared, item) for item in items]
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn, shared)
    ) as executor:
        return list(executor.map(_invoke_worker, items, chunksize=chunksize))


# ----------------------------------------------------------------------
# Campaign spec + engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one validation campaign.

    Five sweep axes multiply into units: ``benchmarks`` ×
    ``configs`` × ``key_schemes`` × ``resource_budgets`` ×
    ``pipelines``.  ``configs`` names registered ``"config"``
    capabilities (or keys of ``extra_configs`` for ad-hoc parameter
    overrides), ``key_schemes`` registered ``"key-scheme"`` names,
    ``resource_budgets`` registered ``"budget"`` names, and
    ``pipelines`` holds FlowSpec labels — preset names,
    comma-separated stage lists, or the :data:`PIPELINE_FROM_PARAMS`
    sentinel (default) meaning "stages from the config's parameter
    booleans".  The spec says *what* runs; *how* it runs (workers,
    simulation engine, checkpointing, cache telemetry) is an
    :class:`~repro.runtime.executor.ExecutionOptions` bundle, which
    never enters the serialized spec, so parallel-vs-serial and
    cross-engine runs emit identical JSON.

    ``extra_configs`` is normalized on construction (entries and their
    override items are sorted), so a spec rebuilt from ``to_dict()``
    compares equal to the original regardless of insertion order.
    """

    benchmarks: tuple[str, ...]
    configs: tuple[str, ...] = ("default",)
    key_schemes: tuple[str, ...] = ("replication",)
    resource_budgets: tuple[str, ...] = ("default",)
    pipelines: tuple[str, ...] = (PIPELINE_FROM_PARAMS,)
    n_keys: int = 20
    n_workloads: int = 1
    seed: int = 7
    extra_configs: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...] = ()
    #: Registered attack names to run against every unit's component
    #: (after key validation).  Not a multiplicative axis: each attack
    #: analyzes the unit in place, and its seed is derived from the
    #: attack name plus the unit labels — adding or removing an attack
    #: never perturbs unit seeds, keys or any other attack's stream.
    #: Empty (the default) serializes to nothing, so pre-attack
    #: campaign JSON stays byte-identical.
    attacks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "key_schemes", tuple(self.key_schemes))
        object.__setattr__(
            self, "resource_budgets", tuple(self.resource_budgets)
        )
        object.__setattr__(self, "pipelines", tuple(self.pipelines))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        object.__setattr__(
            self,
            "extra_configs",
            tuple(
                sorted(
                    (name, tuple(sorted(tuple(item) for item in overrides)))
                    for name, overrides in self.extra_configs
                )
            ),
        )

    def config_overrides(self, config: str) -> dict[str, Any]:
        for name, overrides in self.extra_configs:
            if name == config:
                return dict(overrides)
        REGISTRY.load_plugins()
        return dict(REGISTRY.get("config", config))

    def units(self) -> list[tuple[str, str, str, str, str]]:
        """Deterministic (benchmark, config, scheme, budget, pipeline)
        enumeration."""
        return [
            (b, c, s, r, p)
            for b in self.benchmarks
            for c in self.configs
            for s in self.key_schemes
            for r in self.resource_budgets
            for p in self.pipelines
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmarks": list(self.benchmarks),
            "configs": list(self.configs),
            "key_schemes": list(self.key_schemes),
            "resource_budgets": list(self.resource_budgets),
            "pipelines": list(self.pipelines),
            "n_keys": self.n_keys,
            "n_workloads": self.n_workloads,
            "seed": self.seed,
            "extra_configs": {
                name: dict(overrides) for name, overrides in self.extra_configs
            },
            # Omitted when empty so attack-free campaign JSON is
            # byte-identical to pre-attack-axis output.
            **({"attacks": list(self.attacks)} if self.attacks else {}),
        }


@dataclass(frozen=True)
class PlannedUnit:
    """One fully-resolved unit of a campaign plan.

    Everything a worker needs to execute the unit — axis labels plus
    the derived seeds — and the stable, content-addressed ``unit_id``
    (:func:`repro.runtime.checkpoint.unit_identity`) that names its
    checkpoint record.  ``index`` is the unit's position in the plan's
    deterministic enumeration order (the order units appear in the
    final document).
    """

    index: int
    benchmark: str
    config: str
    key_scheme: str
    budget: str
    pipeline: str
    seed: int
    workload_seed: int
    unit_id: str

    def labels(self) -> tuple[str, str, str, str, str]:
        return (
            self.benchmark,
            self.config,
            self.key_scheme,
            self.budget,
            self.pipeline,
        )

    def as_task(self) -> tuple:
        """The picklable task tuple sent to a worker process."""
        return (
            self.index,
            self.benchmark,
            self.config,
            self.key_scheme,
            self.budget,
            self.pipeline,
            self.seed,
            self.workload_seed,
        )


@dataclass(frozen=True)
class CampaignPlan:
    """Pure product of :func:`plan_campaign`: spec + planned units.

    ``fingerprint`` namespaces the plan's checkpoint records
    (:func:`repro.runtime.checkpoint.spec_fingerprint` over the
    serialized spec and the results schema): two plans share a
    fingerprint iff they serialize to the same spec under the same
    schema, so resume can never mix units from different campaigns.
    """

    spec: CampaignSpec
    units: tuple[PlannedUnit, ...]
    fingerprint: str

    def spec_dict(self) -> dict[str, Any]:
        return self.spec.to_dict()

    def __len__(self) -> int:
        return len(self.units)


def plan_campaign(spec: CampaignSpec) -> CampaignPlan:
    """Enumerate ``spec`` into a deterministic :class:`CampaignPlan`.

    Pure: no I/O, no execution, no dependence on execution options.
    Unit order is the spec's axis-product order (stable across
    processes and machines), each unit's seed is derived from the base
    seed plus its axis labels, and each workload seed from the
    benchmark alone — see the module docstring for why that sharing
    matters.  The plan is what :func:`execute_plan` executes, what a
    checkpoint store indexes, and what a future fleet scheduler would
    shard.

    Spec errors fail fast here — unknown benchmark or pipeline names
    raise ``ValueError`` before any worker spawns, instead of burning
    the executor's retry budget and sealing every unit as failed.
    """
    from repro.runtime.checkpoint import spec_fingerprint, unit_identity
    from repro.runtime.results import SCHEMA

    tasks = spec.units()
    if not tasks:
        raise ValueError(
            "campaign spec has no units: benchmarks, configs, key_schemes, "
            "resource_budgets and pipelines must all be non-empty"
        )
    from repro.benchsuite import all_benchmarks
    from repro.tao.pipeline import resolve_pipeline

    known_benchmarks = all_benchmarks()
    for bench in spec.benchmarks:
        if bench not in known_benchmarks:
            raise ValueError(
                f"unknown benchmark {bench!r}; available: "
                + ", ".join(sorted(known_benchmarks))
            )
    for pipeline in spec.pipelines:
        if pipeline != PIPELINE_FROM_PARAMS:
            resolve_pipeline(pipeline)  # raises ValueError on unknown stages
    spec_dict = spec.to_dict()
    planned = []
    for index, (bench, config, scheme, budget, pipeline) in enumerate(tasks):
        seed = derive_seed(spec.seed, bench, config, scheme, budget, pipeline)
        planned.append(
            PlannedUnit(
                index=index,
                benchmark=bench,
                config=config,
                key_scheme=scheme,
                budget=budget,
                pipeline=pipeline,
                seed=seed,
                workload_seed=derive_seed(spec.seed, "workloads", bench),
                unit_id=unit_identity(
                    bench, config, scheme, budget, pipeline, seed
                ),
            )
        )
    return CampaignPlan(
        spec=spec,
        units=tuple(planned),
        fingerprint=spec_fingerprint(spec_dict, SCHEMA),
    )


def _spec_from_dict(data: dict[str, Any]) -> CampaignSpec:
    return CampaignSpec(
        benchmarks=tuple(data["benchmarks"]),
        configs=tuple(data["configs"]),
        key_schemes=tuple(data.get("key_schemes", ("replication",))),
        resource_budgets=tuple(data.get("resource_budgets", ("default",))),
        pipelines=tuple(data.get("pipelines", (PIPELINE_FROM_PARAMS,))),
        n_keys=data["n_keys"],
        n_workloads=data["n_workloads"],
        seed=data["seed"],
        extra_configs=tuple(
            (name, tuple(overrides.items()))
            for name, overrides in data.get("extra_configs", {}).items()
        ),
        attacks=tuple(data.get("attacks", ())),
    )


def run_campaign(spec: CampaignSpec, options: Optional[Any] = None):
    """Plan ``spec``, execute it, return the
    :class:`~repro.runtime.results.CampaignResult`.

    Shorthand for ``execute_plan(plan_campaign(spec), options)``, where
    ``options`` is an :class:`~repro.runtime.executor.ExecutionOptions`
    (``None`` means its defaults).
    """
    from repro.runtime.executor import execute_plan

    return execute_plan(plan_campaign(spec), options)
