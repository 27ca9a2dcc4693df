"""The end-to-end TAO flow (paper Fig. 2): C source in, obfuscated
FSMD design + key material out.

Pipeline:

1. front-end: parse / analyze / lower the C subset, run the compiler
   optimization pipeline and inline the call hierarchy (§3.3.1);
2. key apportionment: Eq. 1 decides W and lays out the working key —
   driven by the *resolved pipeline*, so only stages that actually run
   claim key bits;
3. locking key: the designer's 256-bit secret; the key-management
   scheme (replication or AES, §3.4) fixes the correct working key;
4. the obfuscation pipeline (:mod:`repro.tao.pipeline`): frontend
   stages (constant extraction, §3.3.2) transform the IR, the
   mid-level HLS engine schedules/binds/synthesizes the controller,
   then post-schedule stages (branch masking §3.3.3, DFG variants
   §3.3.4, the ROM extension) transform the FSMD design — all sharing
   one :class:`~repro.tao.pipeline.FlowContext` and emitting per-stage
   :class:`~repro.tao.pipeline.StageReport` telemetry;
5. back-end: the FsmdDesign is ready for Verilog emission, area/timing
   estimation and key-aware simulation.

Which stages run is declared by a
:class:`~repro.tao.pipeline.FlowSpec` (``TaoFlow(pipeline=...)``
accepts a spec, a preset name such as ``"full"``, or a comma-separated
stage list).  When no pipeline is given, the
``ObfuscationParameters`` stage booleans select the stages through
:meth:`FlowSpec.from_parameters`.

Design-time randomness is stream-split: the locking key, the
key-management scheme and every stage draw from independent SHA-256
streams of ``params.seed`` (see
:func:`repro.tao.pipeline.stream_rng`), so adding, removing or
reordering a stage never perturbs the randomness any other consumer
sees.

``synthesize_pair`` additionally builds the unobfuscated baseline from
the same source for overhead comparisons (Figure 6 normalizes against
it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.frontend.lowering import compile_c
from repro.hls.design import FsmdDesign, KeyConfiguration
from repro.hls.engine import synthesize_function
from repro.hls.resources import ResourceConstraints
from repro.ir.function import Module
from repro.opt.pass_manager import optimize_module
from repro.runtime.cache import FRONTEND_CACHE
from repro.tao.key import (
    KeyApportionment,
    LockingKey,
    ObfuscationParameters,
    apportion_keys,
)
from repro.tao.keymgmt import (
    AesKeyManager,
    ReplicationKeyManager,
    choose_working_key,
)
from repro.tao.pipeline import (
    FRONTEND,
    FlowContext,
    FlowSpec,
    StageReport,
    resolve_pipeline,
    stream_rng,
)

KeyManager = Union[ReplicationKeyManager, AesKeyManager]


@dataclass
class ObfuscatedComponent:
    """The complete output of the TAO flow for one top function."""

    design: FsmdDesign
    apportionment: KeyApportionment
    locking_key: LockingKey
    key_manager: KeyManager
    correct_working_key: int
    params: ObfuscationParameters
    flow_spec: FlowSpec = field(default_factory=FlowSpec)
    stage_reports: list[StageReport] = field(default_factory=list)

    def working_key_for(self, locking_key: LockingKey) -> int:
        """Working key the chip derives from a delivered locking key."""
        return self.key_manager.derive_working_key(locking_key)

    @property
    def working_key_bits(self) -> int:
        return self.apportionment.working_key_bits

    def stage_report(self, stage_name: str) -> StageReport:
        """Telemetry of one executed stage (KeyError when it didn't run)."""
        for report in self.stage_reports:
            if report.stage == stage_name:
                return report
        raise KeyError(
            f"stage {stage_name!r} did not run; pipeline was "
            f"{list(self.flow_spec.stages)}"
        )


class TaoFlow:
    """TAO-enhanced HLS flow driver.

    ``pipeline`` selects the obfuscation stages: a
    :class:`~repro.tao.pipeline.FlowSpec`, a preset name (``"full"``,
    ``"constants"``, ...) or a comma-separated stage list
    (``"constants,branches"``).  ``None`` means the stages the
    ``ObfuscationParameters`` booleans select
    (:meth:`FlowSpec.from_parameters`); the numeric parameters —
    widths, block bits, seed, diversity — apply either way.
    """

    def __init__(
        self,
        params: Optional[ObfuscationParameters] = None,
        constraints: Optional[ResourceConstraints] = None,
        key_scheme: str = "replication",
        pipeline: Optional[Union[FlowSpec, str]] = None,
    ) -> None:
        self.params = params or ObfuscationParameters()
        self.constraints = constraints
        self.key_scheme = key_scheme
        self.pipeline = None if pipeline is None else resolve_pipeline(pipeline)

    # ------------------------------------------------------------------
    def resolved_pipeline(self) -> FlowSpec:
        """The FlowSpec this flow runs: explicit, or the parameters'
        stage booleans."""
        if self.pipeline is not None:
            return self.pipeline
        return FlowSpec.from_parameters(self.params)

    def compile_front_end(self, source: str, name: str = "design") -> Module:
        """Front end + compiler steps: source to optimized, inlined IR.

        Memoized in :data:`repro.runtime.cache.FRONTEND_CACHE` keyed on
        the source hash: ``synthesize_pair`` (and repeated sweeps over
        the same kernel) compile and optimize each source exactly once
        per process.  The returned module is a private copy, unpickled
        from the cached master, safe for the in-place obfuscation
        passes to mutate.
        """
        return FRONTEND_CACHE.get_or_compile(source, name, _compile_and_optimize)

    def analyze(self, module: Module, top: str) -> KeyApportionment:
        """Key apportionment on the optimized top function (Eq. 1),
        under the resolved pipeline's stage selection."""
        params = self.resolved_pipeline().apply_to_parameters(self.params)
        return apportion_keys(module.function(top), params)

    # ------------------------------------------------------------------
    def obfuscate(
        self,
        source: str,
        top: str,
        locking_key: Optional[LockingKey] = None,
        name: str = "design",
    ) -> ObfuscatedComponent:
        """Run the TAO flow on C source: the resolved pipeline's
        frontend stages, HLS, then its post-schedule stages."""
        spec = self.resolved_pipeline()
        stages = spec.resolved_stages()
        params = spec.apply_to_parameters(self.params)

        if locking_key is None:
            locking_key = LockingKey.random(
                stream_rng(params.seed, "locking-key"), params.locking_key_bits
            )

        module = self.compile_front_end(source, name)
        func = module.function(top)
        apportionment = apportion_keys(func, params)

        key_manager, working_key = choose_working_key(
            apportionment.working_key_bits,
            locking_key,
            scheme=self.key_scheme,
            rng=stream_rng(params.seed, "keymgmt"),
        )

        ctx = FlowContext(
            module=module,
            func=func,
            params=params,
            apportionment=apportionment,
            working_key=working_key,
            locking_key=locking_key,
            base_seed=params.seed,
        )
        reports: list[StageReport] = []
        for stage in (s for s in stages if s.phase == FRONTEND):
            reports.append(stage.apply(ctx))

        # Mid-level HLS: schedule, bind, synthesize the controller.
        design = synthesize_function(module, top, self.constraints)
        ctx.design = design
        for stage in (s for s in stages if s.phase != FRONTEND):
            reports.append(stage.apply(ctx))

        design.obfuscated_constants = ctx.obfuscated_constants
        design.key_config = KeyConfiguration(
            working_key_bits=apportionment.working_key_bits,
            correct_working_key=working_key,
            constant_slices=[
                (apportionment.constant_offset_of[i], params.constant_width)
                for i in range(apportionment.num_constants)
            ],
            branch_bits=dict(apportionment.branch_bit_of),
            block_slices=dict(apportionment.block_slice_of),
            locking_key_bits=locking_key.width,
        )
        return ObfuscatedComponent(
            design=design,
            apportionment=apportionment,
            locking_key=locking_key,
            key_manager=key_manager,
            correct_working_key=working_key,
            params=params,
            flow_spec=spec,
            stage_reports=reports,
        )

    # ------------------------------------------------------------------
    def synthesize_baseline(
        self, source: str, top: str, name: str = "baseline"
    ) -> FsmdDesign:
        """Unobfuscated reference design from the same source."""
        module = self.compile_front_end(source, name)
        return synthesize_function(module, top, self.constraints)

    def synthesize_pair(
        self, source: str, top: str, locking_key: Optional[LockingKey] = None
    ) -> tuple[FsmdDesign, ObfuscatedComponent]:
        """Baseline + obfuscated designs for overhead comparisons."""
        baseline = self.synthesize_baseline(source, top)
        component = self.obfuscate(source, top, locking_key)
        return baseline, component


def _compile_and_optimize(source: str, name: str) -> Module:
    module = compile_c(source, name)
    optimize_module(module, inline=True)
    return module


def obfuscate_source(
    source: str,
    top: str,
    params: Optional[ObfuscationParameters] = None,
    key_scheme: str = "replication",
    pipeline: Optional[Union[FlowSpec, str]] = None,
) -> ObfuscatedComponent:
    """One-call convenience API over :class:`TaoFlow`."""
    return TaoFlow(
        params=params, key_scheme=key_scheme, pipeline=pipeline
    ).obfuscate(source, top)
