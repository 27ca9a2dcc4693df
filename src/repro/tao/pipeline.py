"""Composable obfuscation-pass pipeline: the stage API of the TAO flow.

The paper presents TAO as a *sequence of orthogonal techniques* —
constant extraction (§3.3.2), branch masking (§3.3.3), DFG variants
(§3.3.4, Algorithm 1) and this repository's ROM extension — so the
pipeline itself is data here, not control flow baked into
``TaoFlow.obfuscate``:

* a :class:`Stage` is a named pass with a ``phase`` — ``"frontend"``
  stages transform the optimized IR before scheduling, and
  ``"post-schedule"`` stages transform the bound FSMD design — and an
  ``apply(ctx, options)`` that returns a :class:`StageReport`;
* stages self-register through :func:`register_stage`; the four paper
  passes are thin adapters over the existing pass functions
  (:mod:`repro.tao.constants_pass`, :mod:`repro.tao.branch_pass`,
  :mod:`repro.tao.dfg_variants`, :mod:`repro.tao.rom_pass`), and any
  future pass plugs into the same seam;
* a :class:`FlowSpec` declares one pipeline: ordered stage names plus
  per-stage options, dict/JSON round-trippable, fully validated at
  construction (unknown stage, duplicate stage and phase-order
  violations raise ``ValueError`` at parse time, not mid-flow);
* a :class:`FlowContext` is the state the driver threads through the
  stages: module/function, key apportionment, working key and the
  base seed from which every stage derives its *own* random stream
  (:meth:`FlowContext.stage_seed`, SHA-256 over the stage name like
  campaign unit seeds) — inserting or removing a stage never perturbs
  another stage's randomness.

Stage selection drives key apportionment: the flow rewrites the
``ObfuscationParameters`` stage booleans from the resolved spec
(:meth:`FlowSpec.apply_to_parameters`) before calling
:func:`repro.tao.key.apportion_keys`, so a pipeline that omits a pass
allocates no key bits for it and Eq. 1 stays exact.

Telemetry: every executed stage yields a :class:`StageReport` (ops
touched, key bits consumed, wall seconds).  The wall time is
in-memory-only diagnostics — ``StageReport.to_dict`` omits it by
default so the campaign JSON stays deterministic (byte-identical
across serial/parallel runs, the contract
``repro.runtime.results`` documents).

Caching note: the resolved pipeline deliberately does *not* enter the
golden or front-end cache keys.  The front-end cache stores the
pre-obfuscation module (all pipelines of one source share it), and the
golden fingerprint canonicalizes obfuscated constants back to their
plaintext while every other stage mutates the FSMD design, never the
IR — so all pipelines of one benchmark share a single golden run per
workload.  ``tests/test_tao_pipeline.py`` asserts that adding a
pipeline axis cell causes no extra misses.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Mapping,
    Optional,
    Protocol,
    Union,
)

from repro.registry import REGISTRY, UnknownCapabilityError
from repro.tao.branch_pass import mask_branches
from repro.tao.constants_pass import obfuscate_constants
from repro.tao.dfg_variants import obfuscate_dfgs
from repro.tao.key import KeyApportionment, LockingKey, ObfuscationParameters
from repro.tao.rom_pass import obfuscate_roms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hls.design import FsmdDesign
    from repro.ir.function import Function, Module
    from repro.ir.values import ObfuscatedConstant

#: Pipeline phases in execution order.  ``frontend`` stages see the
#: optimized IR before scheduling; ``post-schedule`` stages see the
#: bound FSMD design.  A FlowSpec must list frontend stages first.
FRONTEND = "frontend"
POST_SCHEDULE = "post-schedule"
PHASE_ORDER: tuple[str, ...] = (FRONTEND, POST_SCHEDULE)


def stream_seed(base_seed: int, *scope: object) -> int:
    """An independent seed stream named by ``scope`` (SHA-256 derived).

    The same construction as campaign unit seeds
    (:func:`repro.runtime.campaign.derive_seed`, imported lazily —
    ``runtime.campaign`` sits above the ``tao`` layer, so a module-
    scope import here would arm a future cycle; see the deliberate
    deferral in ``tao.metrics`` for the same reason): streams are a
    pure function of the base seed and their name, so consumers of
    one stream are unaffected by how much randomness any other stream
    drew — the property that makes stage insertion non-perturbing.
    """
    from repro.runtime.campaign import derive_seed

    return derive_seed(base_seed, *scope)


def stream_rng(base_seed: int, *scope: object) -> random.Random:
    """A fresh RNG on the :func:`stream_seed` stream named ``scope``."""
    return random.Random(stream_seed(base_seed, *scope))


# ----------------------------------------------------------------------
# Stage telemetry
# ----------------------------------------------------------------------
@dataclass
class StageReport:
    """Telemetry of one executed stage.

    ``ops_touched`` counts the design objects the stage transformed
    (constants encoded, branches masked, blocks varianted, ROMs
    encrypted); ``key_bits_consumed`` is the working-key width the
    stage's technique claims under Eq. 1.  ``wall_seconds`` is local
    diagnostics only: :meth:`to_dict` omits it unless asked, keeping
    campaign JSON timing-free and byte-deterministic.
    """

    stage: str
    phase: str
    ops_touched: int = 0
    key_bits_consumed: int = 0
    wall_seconds: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict[str, Any]:
        data: dict[str, Any] = {
            "stage": self.stage,
            "phase": self.phase,
            "ops_touched": self.ops_touched,
            "key_bits_consumed": self.key_bits_consumed,
        }
        if include_timing:
            data["wall_seconds"] = self.wall_seconds
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StageReport":
        return cls(
            stage=data["stage"],
            phase=data["phase"],
            ops_touched=int(data.get("ops_touched", 0)),
            key_bits_consumed=int(data.get("key_bits_consumed", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )


# ----------------------------------------------------------------------
# Flow context
# ----------------------------------------------------------------------
@dataclass
class FlowContext:
    """Mutable state the pipeline threads through its stages.

    Frontend stages mutate ``func`` (in a private copy from the
    front-end cache); the driver then schedules/binds the module and
    publishes the result as ``design`` for post-schedule stages.
    ``base_seed`` feeds :meth:`stage_seed`/:meth:`stage_rng` so each
    stage owns an independent random stream.
    """

    module: "Module"
    func: "Function"
    params: ObfuscationParameters
    apportionment: KeyApportionment
    working_key: int
    locking_key: LockingKey
    base_seed: int
    design: Optional["FsmdDesign"] = None
    obfuscated_constants: list["ObfuscatedConstant"] = field(default_factory=list)

    def stage_seed(self, stage_name: str) -> int:
        """This stage's derived seed (stable, name-scoped stream)."""
        return stream_seed(self.base_seed, "stage", stage_name)

    def stage_rng(self, stage_name: str) -> random.Random:
        """A fresh RNG on this stage's stream."""
        return random.Random(self.stage_seed(stage_name))

    def scheduled_design(self) -> "FsmdDesign":
        """The FSMD design; raises if a post-schedule stage ran early."""
        if self.design is None:
            raise RuntimeError(
                "post-schedule stage ran before scheduling: the design "
                "is not available in the frontend phase"
            )
        return self.design


# ----------------------------------------------------------------------
# Stage protocol + registry
# ----------------------------------------------------------------------
class Stage(Protocol):
    """A named obfuscation pass pluggable into the TAO pipeline."""

    name: str
    phase: str

    def apply(
        self, ctx: FlowContext, options: Mapping[str, Any]
    ) -> StageReport:  # pragma: no cover - protocol signature
        ...


#: A stage body: transforms ``ctx`` and returns
#: ``(ops_touched, key_bits_consumed)``; the wrapper stamps the name,
#: phase and wall time into the StageReport.
StageFn = Callable[[FlowContext, Mapping[str, Any]], tuple[int, int]]


@dataclass(frozen=True)
class FunctionStage:
    """Adapter turning a plain function into a :class:`Stage`."""

    name: str
    phase: str
    fn: StageFn

    def apply(self, ctx: FlowContext, options: Mapping[str, Any]) -> StageReport:
        started = time.perf_counter()
        ops_touched, key_bits = self.fn(ctx, options)
        return StageReport(
            stage=self.name,
            phase=self.phase,
            ops_touched=ops_touched,
            key_bits_consumed=key_bits,
            wall_seconds=time.perf_counter() - started,
        )


def register_stage(name: str, phase: str) -> Callable[[StageFn], StageFn]:
    """Decorator registering a stage body under ``name``/``phase``.

    The decorated function keeps its identity (it stays directly
    callable and testable); the registry holds a :class:`FunctionStage`
    wrapper.  Registering a taken name or an unknown phase raises.
    """
    if phase not in PHASE_ORDER:
        raise ValueError(
            f"unknown stage phase {phase!r}; phases: {', '.join(PHASE_ORDER)}"
        )

    def decorator(fn: StageFn) -> StageFn:
        stage = FunctionStage(name=name, phase=phase, fn=fn)
        REGISTRY.register(
            "stage",
            name,
            stage,
            description=(fn.__doc__ or "").strip().splitlines()[0].strip()
            if fn.__doc__
            else f"{phase} stage",
        )
        return fn

    return decorator


def get_stage(name: str) -> Stage:
    """The registered stage called ``name`` (the error names the options)."""
    return REGISTRY.get("stage", name)


def available_stages() -> tuple[str, ...]:
    """Registered stage names, in registration order."""
    return REGISTRY.names("stage")


# ----------------------------------------------------------------------
# The four TAO passes as registered stages (thin adapters: the pass
# implementations stay in their own modules)
# ----------------------------------------------------------------------
@register_stage("constants", phase=FRONTEND)
def _constants_stage(ctx: FlowContext, options: Mapping[str, Any]) -> tuple[int, int]:
    """Constant extraction (§3.3.2): IR literals become key-decoded."""
    created = obfuscate_constants(ctx.func, ctx.apportionment, ctx.working_key)
    ctx.obfuscated_constants = created
    return len(created), len(created) * ctx.params.constant_width


@register_stage("branches", phase=POST_SCHEDULE)
def _branches_stage(ctx: FlowContext, options: Mapping[str, Any]) -> tuple[int, int]:
    """Branch masking (§3.3.3): one key bit per conditional transition."""
    design = ctx.scheduled_design()
    design.masked_branches = mask_branches(design, ctx.apportionment, ctx.working_key)
    return (
        len(design.masked_branches),
        len(design.masked_branches) * ctx.params.branch_bits,
    )


@register_stage("dfg", phase=POST_SCHEDULE)
def _dfg_stage(ctx: FlowContext, options: Mapping[str, Any]) -> tuple[int, int]:
    """DFG variants (§3.3.4, Algorithm 1) on the stage's own seed stream.

    Option ``diversity`` overrides ``params.variant_diversity`` for
    this pipeline (``"distance"`` or ``"selector"``).
    """
    design = ctx.scheduled_design()
    diversity = options.get("diversity", ctx.params.variant_diversity)
    created = obfuscate_dfgs(
        design,
        ctx.apportionment,
        ctx.working_key,
        ctx.stage_seed("dfg"),
        diversity=diversity,
    )
    key_bits = sum(
        ctx.apportionment.block_slice_of[name][1] for name in created
    )
    return len(created), key_bits


@register_stage("roms", phase=POST_SCHEDULE)
def _roms_stage(ctx: FlowContext, options: Mapping[str, Any]) -> tuple[int, int]:
    """ROM-image encryption (repository extension, see tao.rom_pass)."""
    slices = ctx.apportionment.rom_slice_of
    if not slices:
        return 0, 0
    created = obfuscate_roms(ctx.scheduled_design(), slices, ctx.working_key)
    return len(created), sum(width for _offset, width in slices.values())


# ----------------------------------------------------------------------
# FlowSpec: a declarative, validated pipeline
# ----------------------------------------------------------------------
#: (stage name, ObfuscationParameters boolean) pairs in canonical
#: pipeline order — the bridge between the legacy boolean toggles and
#: stage lists (both directions).
_BOOLEAN_STAGES: tuple[tuple[str, str], ...] = (
    ("constants", "obfuscate_constants"),
    ("branches", "obfuscate_branches"),
    ("dfg", "obfuscate_dfg"),
    ("roms", "obfuscate_roms"),
)

_Options = Union[
    Mapping[str, Mapping[str, Any]],
    tuple[tuple[str, tuple[tuple[str, Any], ...]], ...],
]


@dataclass(frozen=True)
class FlowSpec:
    """One obfuscation pipeline: ordered stage names + per-stage options.

    Fully validated at construction — unknown stages, duplicates,
    phase-order violations (a frontend stage listed after a
    post-schedule stage) and options naming unlisted stages all raise
    ``ValueError`` at parse time.  ``options`` accepts a plain
    ``{stage: {option: value}}`` dict and is normalized to sorted
    tuples, so specs are hashable and dict/JSON round-trips compare
    equal (:meth:`to_dict` / :meth:`from_dict`).
    """

    stages: tuple[str, ...] = ()
    options: _Options = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        raw = self.options
        items = raw.items() if isinstance(raw, Mapping) else raw
        object.__setattr__(
            self,
            "options",
            tuple(
                sorted(
                    (
                        name,
                        tuple(
                            sorted(
                                opts.items()
                                if isinstance(opts, Mapping)
                                else (tuple(item) for item in opts)
                            )
                        ),
                    )
                    for name, opts in items
                )
            ),
        )
        self._validate()

    def _validate(self) -> None:
        seen: set[str] = set()
        highest_phase = -1
        for name in self.stages:
            if name in seen:
                raise ValueError(f"duplicate stage {name!r} in pipeline")
            seen.add(name)
            try:
                stage = get_stage(name)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
            phase_index = PHASE_ORDER.index(stage.phase)
            if phase_index < highest_phase:
                raise ValueError(
                    f"stage {name!r} ({stage.phase}) cannot run after a "
                    f"{PHASE_ORDER[highest_phase]} stage: list frontend "
                    "stages before post-schedule stages"
                )
            highest_phase = max(highest_phase, phase_index)
        for name, _opts in self.options:
            if name not in seen:
                raise ValueError(
                    f"options given for stage {name!r} which is not in the "
                    f"pipeline {list(self.stages)}"
                )

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Canonical comma-separated form (what the CLI accepts)."""
        return ",".join(self.stages)

    def options_for(self, stage_name: str) -> dict[str, Any]:
        for name, opts in self.options:
            if name == stage_name:
                return dict(opts)
        return {}

    def resolved_stages(self) -> list[Stage]:
        """Registry lookups for every listed stage, in order."""
        return [get_stage(name) for name in self.stages]

    def apply_to_parameters(
        self, params: ObfuscationParameters
    ) -> ObfuscationParameters:
        """``params`` with the stage booleans rewritten from this spec.

        Key apportionment (Eq. 1) consults the booleans, so the flow
        derives them from the resolved pipeline: stages not listed
        claim no key bits, and the legacy boolean path round-trips to
        identical parameters.
        """
        toggles = {
            attr: name in self.stages for name, attr in _BOOLEAN_STAGES
        }
        return replace(params, **toggles)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "stages": list(self.stages),
            "options": {name: dict(opts) for name, opts in self.options},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowSpec":
        return cls(
            stages=tuple(data.get("stages", ())),
            options=dict(data.get("options", {})),
        )

    @classmethod
    def from_parameters(cls, params: ObfuscationParameters) -> "FlowSpec":
        """The pipeline the ``ObfuscationParameters`` stage booleans
        describe.

        ``obfuscate_constants`` / ``obfuscate_branches`` /
        ``obfuscate_dfg`` / ``obfuscate_roms`` select their stages in
        canonical order.  This is the stage set ``TaoFlow`` runs when
        no pipeline is given, and the one the campaign's ``params``
        pipeline label names.
        """
        return cls(
            stages=tuple(
                name
                for name, attr in _BOOLEAN_STAGES
                if getattr(params, attr)
            )
        )


#: Named pipeline presets, registered under the ``"pipeline-preset"``
#: kind (the FlowSpec re-expression of the campaign's builtin configs,
#: plus the ROM-extended full flow).  ``repro campaign --pipeline``
#: accepts these names or ad-hoc comma-separated stage lists.
for _name, _spec, _desc in (
    ("full", FlowSpec(("constants", "branches", "dfg")), "all three paper passes"),
    ("constants", FlowSpec(("constants",)), "constant extraction only"),
    ("branches", FlowSpec(("branches",)), "branch masking only"),
    ("dfg", FlowSpec(("dfg",)), "DFG variants only"),
    (
        "full-rom",
        FlowSpec(("constants", "branches", "dfg", "roms")),
        "paper passes plus ROM-image encryption",
    ),
):
    REGISTRY.register("pipeline-preset", _name, _spec, description=_desc)
del _name, _spec, _desc


def resolve_pipeline(value: Union[FlowSpec, str]) -> FlowSpec:
    """A :class:`FlowSpec` from a preset name or comma-separated stages.

    ``"full"`` → the preset; ``"constants,branches"`` → an ad-hoc
    two-stage spec.  Plugin-registered presets and stages resolve too.
    Validation errors (unknown stage, phase order, duplicates, empty
    list) surface as ``ValueError`` naming the available presets and
    stages.
    """
    if isinstance(value, FlowSpec):
        return value
    REGISTRY.load_plugins()
    if REGISTRY.has("pipeline-preset", value):
        return REGISTRY.get("pipeline-preset", value)
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if not names:
        raise UnknownCapabilityError(
            f"empty pipeline {value!r}; presets: "
            f"{', '.join(REGISTRY.names('pipeline-preset'))}; stages: "
            f"{', '.join(available_stages())}"
        )
    return FlowSpec(stages=names)
