"""Stable public API facade for out-of-tree plugins and scripts.

Deep submodule paths (``repro.runtime.campaign``,
``repro.runtime.executor``, ``repro.tao.pipeline``,
``repro.sim.compiled``) are internal layout and may move between
releases; this module is the supported import surface:

.. code-block:: python

    from repro.api import (
        CampaignSpec, ExecutionOptions, plan_campaign, execute_plan,
    )

    plan = plan_campaign(CampaignSpec(benchmarks=("sobel",), n_keys=20))
    result = execute_plan(
        plan,
        ExecutionOptions(jobs=4, checkpoint_dir=".checkpoints", resume=True),
    )

The split mirrors the service architecture: :func:`plan_campaign` is
pure (spec → deterministic unit enumeration with content-addressed
unit ids), :func:`execute_plan` is the fault-tolerant service core
(checkpointing, resume, per-unit timeout, bounded retry), and
:func:`run_campaign` is shorthand for
``execute_plan(plan_campaign(spec), options)``.  A spec says *what*
runs; every execution knob (workers, engine, checkpointing, cache
telemetry) lives only in :class:`ExecutionOptions`.
:func:`resolve_pipeline` and :func:`resolve_engine` resolve the two
label-valued axes (obfuscation pipeline, simulation engine) exactly
the way the CLI does.  :func:`run_attack` / :func:`attack_names` are
the attack-subsystem entry points (:mod:`repro.attack`): every
registered attack — builtin or plugin — funnels through
:func:`run_attack`, which validates the structured result contract
(``name`` / ``applicable`` / ``cost`` / ``outcome``) before the block
reaches a campaign document.

Everything here is a re-export; the lazy ``__getattr__`` keeps
``import repro.api`` free of the heavyweight tao/sim import chain
until a symbol is actually touched.
"""

from __future__ import annotations

_EXPORTS = {
    "CampaignPlan": "repro.runtime.campaign",
    "CampaignSpec": "repro.runtime.campaign",
    "plan_campaign": "repro.runtime.campaign",
    "run_campaign": "repro.runtime.campaign",
    "ExecutionOptions": "repro.runtime.executor",
    "execute_plan": "repro.runtime.executor",
    "resolve_pipeline": "repro.tao.pipeline",
    "resolve_engine": "repro.sim.compiled",
    "attack_names": "repro.attack",
    "run_attack": "repro.attack",
    "validate_attack_result": "repro.attack",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return __all__
