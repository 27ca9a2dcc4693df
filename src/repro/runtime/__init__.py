"""Campaign-execution runtime: caches, process fan-out and the unified
results schema.

* :mod:`repro.runtime.cache` — per-process, content-addressed
  memoization of golden interpreter runs and front-end compilations;
* :mod:`repro.runtime.campaign` — the multi-axis campaign model
  (``CampaignSpec`` / ``plan_campaign`` → ``CampaignPlan``;
  axes: benchmark × config × key scheme × resource budget ×
  obfuscation pipeline) plus the nested key pool's fan-out
  (``parallel_map`` over ``key_batches``) and the ``run_campaign``
  plan-then-execute shorthand;
* :mod:`repro.runtime.executor` — the fault-tolerant campaign service
  (``execute_plan`` under an ``ExecutionOptions`` bundle: persistent
  killable workers, per-unit timeout, bounded retry, checkpointing);
* :mod:`repro.runtime.checkpoint` — content-addressed unit identity
  and the atomic per-unit ``CheckpointStore`` behind ``--resume``;
* :mod:`repro.runtime.results` — the ``repro.campaign/5`` JSON schema.

Only the cache layer is imported eagerly; campaign and results symbols
are re-exported lazily because they sit above the ``tao`` layer in the
import graph.
"""

from __future__ import annotations

from repro.runtime.cache import (
    FRONTEND_CACHE,
    GOLDEN_CACHE,
    CacheStats,
    FrontEndCache,
    GoldenCache,
    absorb_stats,
    cache_stats,
    golden_fingerprint,
    reset_caches,
    stats_delta,
)

_LAZY = {
    "CampaignPlan": "repro.runtime.campaign",
    "CampaignSpec": "repro.runtime.campaign",
    "CONFIG_PIPELINES": "repro.runtime.campaign",
    "PIPELINE_FROM_PARAMS": "repro.runtime.campaign",
    "PlannedUnit": "repro.runtime.campaign",
    "budget_constraints": "repro.runtime.campaign",
    "derive_seed": "repro.runtime.campaign",
    "parallel_map": "repro.runtime.campaign",
    "plan_campaign": "repro.runtime.campaign",
    "resolve_jobs": "repro.runtime.campaign",
    "run_campaign": "repro.runtime.campaign",
    "CheckpointStore": "repro.runtime.checkpoint",
    "spec_fingerprint": "repro.runtime.checkpoint",
    "unit_identity": "repro.runtime.checkpoint",
    "ExecutionOptions": "repro.runtime.executor",
    "execute_plan": "repro.runtime.executor",
    "AXIS_LABELS": "repro.runtime.results",
    "CampaignResult": "repro.runtime.results",
    "CampaignUnit": "repro.runtime.results",
    "report_from_dict": "repro.runtime.results",
    "report_to_dict": "repro.runtime.results",
}

__all__ = [
    "CacheStats",
    "FrontEndCache",
    "FRONTEND_CACHE",
    "GoldenCache",
    "GOLDEN_CACHE",
    "absorb_stats",
    "cache_stats",
    "golden_fingerprint",
    "reset_caches",
    "stats_delta",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
