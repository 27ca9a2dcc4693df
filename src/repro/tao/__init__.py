"""TAO: the paper's contribution — algorithm-level obfuscation passes,
key apportionment/management and security metrics.

The passes compose through the stage API in :mod:`repro.tao.pipeline`:
a :class:`FlowSpec` (ordered stage names + per-stage options) resolved
against the stage registry drives :class:`TaoFlow`, and every executed
stage reports :class:`StageReport` telemetry."""

from repro.attack import (
    KeySensitivityResult,
    RandomKeyAttackResult,
    ReplicationLeakResult,
    SliceBruteForceResult,
    attack_names,
    brute_force_slice_with_oracle,
    key_sensitivity_analysis,
    random_key_attack,
    replication_leak_analysis,
    run_attack,
)
from repro.tao.branch_pass import mask_branches
from repro.tao.constants_pass import obfuscate_constants
from repro.tao.dfg_variants import (
    create_dfg_variants,
    hamming_distance,
    obfuscate_dfgs,
    variant_divergence,
)
from repro.tao.flow import ObfuscatedComponent, TaoFlow, obfuscate_source
from repro.tao.key import (
    KeyApportionment,
    LockingKey,
    ObfuscationParameters,
    apportion_keys,
    extractable_constants,
)
from repro.tao.keymgmt import (
    AesKeyManager,
    KeyManagementOverhead,
    ReplicationKeyManager,
    choose_working_key,
)
from repro.tao.pipeline import (
    FlowContext,
    FlowSpec,
    Stage,
    StageReport,
    available_stages,
    get_stage,
    register_stage,
    resolve_pipeline,
)
from repro.tao.rom_pass import RomObfuscation, eligible_roms, obfuscate_roms as obfuscate_rom_contents
from repro.tao.metrics import (
    KeyTrialResult,
    ValidationReport,
    build_report,
    generate_wrong_keys,
    output_corruptibility,
    run_key_trial,
    run_key_trials,
    validate_component,
)

__all__ = [
    "AesKeyManager",
    "FlowContext",
    "FlowSpec",
    "KeyApportionment",
    "Stage",
    "StageReport",
    "KeySensitivityResult",
    "KeyManagementOverhead",
    "KeyTrialResult",
    "LockingKey",
    "ObfuscatedComponent",
    "ObfuscationParameters",
    "RandomKeyAttackResult",
    "ReplicationLeakResult",
    "SliceBruteForceResult",
    "ReplicationKeyManager",
    "RomObfuscation",
    "TaoFlow",
    "ValidationReport",
    "apportion_keys",
    "attack_names",
    "available_stages",
    "brute_force_slice_with_oracle",
    "build_report",
    "generate_wrong_keys",
    "run_key_trial",
    "run_key_trials",
    "choose_working_key",
    "create_dfg_variants",
    "eligible_roms",
    "extractable_constants",
    "get_stage",
    "hamming_distance",
    "key_sensitivity_analysis",
    "mask_branches",
    "obfuscate_constants",
    "obfuscate_dfgs",
    "obfuscate_rom_contents",
    "obfuscate_source",
    "output_corruptibility",
    "random_key_attack",
    "register_stage",
    "replication_leak_analysis",
    "resolve_pipeline",
    "run_attack",
    "validate_component",
    "variant_divergence",
]
