"""Codegen FSMD engine: the key-batched generated tier.

Covers what the three-way differential suite in test_sim_compiled.py
does not: batch semantics.  Mixed-fate lane batches (correct /
wrong-corrupting / timeout keys retiring at different cycles in one
run_batch call), batch-vs-scalar identity, the bind_keys lifecycle
(memoization, out-of-table selector KeyError parity with the compiled
tier, no poisoned memo after a failed bind), the codegen plan cache,
generated-source introspection (source determinism, linear emission),
and the key_batches chunking contract the campaign runtime feeds the
batched trial path with.
"""

import functools
import re
import warnings
from collections import Counter

import pytest

from repro.benchsuite import benchmark_names, get_benchmark
from repro.frontend import compile_c
from repro.hls import hls_flow
from repro.runtime.campaign import key_batches
from repro.sim import codegen_for, compiled_for, simulate_batch
from repro.sim.codegen import _CODEGEN_CACHE, CodegenDesign, _Emitter
from repro.sim.fsmd_sim import FsmdSimulator
from repro.tao.flow import TaoFlow
from repro.tao.key import LockingKey
from repro.tao.metrics import (
    KEY_BATCH_LANES,
    resolve_key_batch_lanes,
    run_key_trial,
    run_key_trials,
)


def result_fields(result):
    """Every SimulationResult field, as one comparable tuple."""
    return (
        result.return_value,
        result.arrays,
        result.cycles,
        result.completed,
        result.state_trace,
    )


@functools.lru_cache(maxsize=None)
def _obfuscated(benchmark: str, preset: str):
    bench = get_benchmark(benchmark)
    component = TaoFlow(pipeline=preset).obfuscate(bench.source, bench.top)
    workload = bench.make_testbenches(seed=11, count=1)[0]
    return component, workload


@functools.lru_cache(maxsize=None)
def _mixed_fate_setup():
    """A (correct, corrupting, timeout) working-key triple + budget.

    The budget is the correct key's exact latency, so the correct lane
    completes right at the budget while a wrong key either retires
    earlier (corrupting the outputs) or is still running when the
    budget expires (timeout).  The wrong keys are found by a small
    deterministic scan with the reference interpreter.
    """
    component, workload = _obfuscated("gsm", "full")
    design = component.design
    correct = component.correct_working_key
    width = max(1, component.working_key_bits)
    base = FsmdSimulator(design, max_cycles=200_000).run(
        workload.args, dict(workload.arrays), correct
    )
    assert base.completed
    budget = base.cycles
    corrupting = timeout = None
    for flip in (1, *(1 << bit for bit in range(1, min(width, 12)))):
        key = correct ^ flip
        res = FsmdSimulator(design, max_cycles=budget).run(
            workload.args, dict(workload.arrays), key
        )
        if res.completed and corrupting is None and (
            res.return_value != base.return_value or res.arrays != base.arrays
        ):
            corrupting = key
        if not res.completed and timeout is None:
            timeout = key
        if corrupting is not None and timeout is not None:
            break
    assert corrupting is not None, "no corrupting wrong key in scan range"
    assert timeout is not None, "no timeout wrong key in scan range"
    return component, workload, correct, corrupting, timeout, budget


class TestMixedFateBatch:
    """One batch, three lane fates — the satellite contract: every lane
    is field-identical to a scalar run of the same key."""

    def test_lanes_retire_independently(self):
        component, workload, correct, corrupting, timeout, budget = (
            _mixed_fate_setup()
        )
        design = component.design
        keys = [correct, corrupting, timeout, correct]  # duplicate lane too
        batch = codegen_for(design).run_batch(
            workload.args,
            dict(workload.arrays),
            working_keys=keys,
            max_cycles=budget,
        )
        assert len(batch) == len(keys)
        scalars = [
            FsmdSimulator(design, max_cycles=budget).run(
                workload.args, dict(workload.arrays), key
            )
            for key in keys
        ]
        for lane_result, scalar in zip(batch, scalars):
            assert result_fields(lane_result) == result_fields(scalar)
        # The fates really are mixed: completed-at-budget, retired
        # early with corrupted state, and cut off by the budget.
        assert batch[0].completed and batch[0].cycles == budget
        assert batch[1].completed and batch[1].cycles < budget
        assert not batch[2].completed and batch[2].cycles == budget
        assert result_fields(batch[3]) == result_fields(batch[0])

    def test_simulate_batch_seam_matches_scalar_engines(self):
        component, workload, correct, corrupting, timeout, budget = (
            _mixed_fate_setup()
        )
        design = component.design
        keys = [corrupting, correct, timeout]
        by_engine = {
            engine: [
                result_fields(r)
                for r in simulate_batch(
                    design,
                    workload.args,
                    dict(workload.arrays),
                    working_keys=keys,
                    max_cycles=budget,
                    engine=engine,
                )
            ]
            for engine in ("interp", "compiled", "codegen")
        }
        assert by_engine["interp"] == by_engine["compiled"]
        assert by_engine["interp"] == by_engine["codegen"]

    def test_empty_batch(self):
        component, workload = _obfuscated("gsm", "full")
        assert codegen_for(component.design).run_batch(
            workload.args, dict(workload.arrays), working_keys=[]
        ) == []


class TestRunKeyTrialsBatch:
    def test_batched_trials_match_scalar_trials(self):
        component, workload = _obfuscated("gsm", "full")
        width = component.locking_key.width
        keys = [
            component.locking_key,
            LockingKey(bits=component.locking_key.bits ^ 0b101, width=width),
            LockingKey(bits=component.locking_key.bits ^ (1 << 7), width=width),
        ]
        cap = 40_000
        batched = run_key_trials(component, [workload], keys, cap)
        assert len(batched) == len(keys)
        for key, trial in zip(keys, batched):
            scalar = run_key_trial(component, [workload], key, cap)
            assert trial == scalar


class TestBindKeysLifecycle:
    def test_bind_keys_memoizes_last_batch(self):
        component, _ = _obfuscated("gsm", "full")
        plan = codegen_for(component.design)
        keys = [component.correct_working_key, component.correct_working_key ^ 1]
        plan.bind_keys(keys)
        assert plan._bound_keys == tuple(keys)
        plan.bind_keys(list(keys))  # same batch, different sequence object
        assert plan._bound_keys == tuple(keys)
        plan.bind_keys(keys[:1])
        assert plan._bound_keys == (keys[0],)

    def _component_with_missing_selector(self):
        """A fresh full-preset component whose first variant block has
        one wrong-selector arm removed, plus a key steering into the
        hole.  Fresh (not the lru-cached fixture) because the variants
        table is mutated in place."""
        bench = get_benchmark("gsm")
        component = TaoFlow(pipeline="full").obfuscate(bench.source, bench.top)
        design = component.design
        assert design.block_variants, "full preset should variant-obfuscate"
        variants = next(iter(design.block_variants.values()))
        missing = next(
            selector
            for selector in sorted(variants.variants)
            if selector != variants.correct_value
        )
        del variants.variants[missing]
        correct = component.correct_working_key
        slice_mask = ((1 << variants.key_bits) - 1) << variants.key_offset
        bad_key = (correct & ~slice_mask) | (missing << variants.key_offset)
        assert variants.selector(bad_key) == missing
        return component, bad_key

    def test_out_of_table_selector_keyerror_parity(self):
        component, bad_key = self._component_with_missing_selector()
        design = component.design
        with pytest.raises(KeyError):
            compiled_for(design).bind_key(bad_key)
        with pytest.raises(KeyError):
            codegen_for(design).bind_keys([bad_key])
        # One bad lane fails the whole bind, matching per-key behaviour.
        with pytest.raises(KeyError):
            codegen_for(design).bind_keys(
                [component.correct_working_key, bad_key]
            )

    def test_failed_bind_does_not_poison_memoization(self):
        component, bad_key = self._component_with_missing_selector()
        _, workload = _obfuscated("gsm", "full")
        plan = codegen_for(component.design)
        batch = [component.correct_working_key, bad_key]
        with pytest.raises(KeyError):
            plan.bind_keys(batch)
        assert plan._bound_keys != tuple(batch)
        # A valid batch still binds and runs after the failure.
        good = plan.run(
            workload.args,
            dict(workload.arrays),
            working_key=component.correct_working_key,
            max_cycles=200_000,
        )
        assert good.completed


class TestCodegenPlanCache:
    def test_generated_plan_is_reused(self):
        design = hls_flow(compile_c("int f(int a) { return a * 3; }"), "f")
        assert codegen_for(design) is codegen_for(design)
        assert id(design) in _CODEGEN_CACHE

    def test_obfuscation_metadata_rotation_regenerates(self):
        design = hls_flow(compile_c("int f(int a) { return a * 3; }"), "f")
        first = codegen_for(design)
        design.masked_branches[999] = 0
        assert codegen_for(design) is not first


class TestGeneratedSource:
    def test_state_source_is_inspectable(self):
        component, _ = _obfuscated("gsm", "full")
        plan = CodegenDesign(component.design)
        # The sweep module is all a plan generates.
        assert "def _sweep(" in plan.source
        assert not re.search(r"^def _s\d+\(", plan.source, re.MULTILINE)

    def test_source_independent_of_process_history(self):
        """One design's source is the same bytes whatever was built
        before it (an inliner naming bug once depended on that)."""
        gsm, _ = _obfuscated("gsm", "full")
        sobel, _ = _obfuscated("sobel", "full")
        first = CodegenDesign(gsm.design).source
        CodegenDesign(sobel.design)
        assert CodegenDesign(gsm.design).source == first


class TestLinearEmission:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_each_state_arm_renders_once(self, name, monkeypatch):
        """Building a plan renders each (state, variant arm) op list
        exactly once, however often the sweep inlines the state."""
        component, _ = _obfuscated(name, "full")
        renders: Counter = Counter()
        render = _Emitter.body

        def counted(emitter, ops):
            # Op lists live in the plan's layout for the whole build, so
            # their ids name (state, arm) pairs.
            renders[id(ops)] += 1
            return render(emitter, ops)

        monkeypatch.setattr(_Emitter, "body", counted)
        plan = CodegenDesign(component.design)
        layout = plan.layout
        arms = sum(
            len(per_selector)
            for _, tables in layout.variant_tables
            for _, per_selector in tables
        )
        plain = sum(ops is not None for ops in layout.state_op_lists)
        assert max(renders.values()) == 1
        assert len(renders) == plain + arms


class TestKeyBatches:
    """The chunking contract the campaign runtime feeds workers with."""

    def test_empty(self):
        assert key_batches([], 4) == []

    def test_fewer_items_than_jobs(self):
        assert key_batches([1, 2, 3], 8) == [[1], [2], [3]]

    def test_flatten_preserves_order(self):
        items = list(range(137))
        batches = key_batches(items, 4, max_lanes=KEY_BATCH_LANES)
        assert [x for batch in batches for x in batch] == items

    def test_max_lanes_cap(self):
        batches = key_batches(list(range(200)), 1, max_lanes=64)
        assert all(len(batch) <= 64 for batch in batches)
        assert len(batches) >= 4

    def test_serial_batches_match_jobs_batches_flattened(self):
        items = list(range(50))
        serial = key_batches(items, 1, max_lanes=16)
        fanned = key_batches(items, 4, max_lanes=16)
        assert [x for b in serial for x in b] == [x for b in fanned for x in b]


class TestKeyBatchLanes:
    """The lane cap as a tunable: resolution precedence and the
    determinism contract (lane layout never changes results)."""

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KEY_BATCH_LANES", raising=False)
        assert resolve_key_batch_lanes() == KEY_BATCH_LANES

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", "7")
        assert resolve_key_batch_lanes(3) == 3

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", "7")
        assert resolve_key_batch_lanes() == 7

    def test_explicit_non_positive_raises(self):
        with pytest.raises(ValueError, match="at least one lane"):
            resolve_key_batch_lanes(0)

    @pytest.mark.parametrize("env", [""])
    def test_malformed_env_warns_and_falls_back(self, monkeypatch, env):
        """Only the empty value still falls back: it counts as unset,
        silently.  Every other malformed value raises (below)."""
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", env)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_key_batch_lanes() == KEY_BATCH_LANES

    @pytest.mark.parametrize("env", ["zero", "-4", "0"])
    def test_malformed_env_raises(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", env)
        with pytest.raises(ValueError, match="REPRO_KEY_BATCH_LANES"):
            resolve_key_batch_lanes()

    def test_execution_options_validate_lanes(self):
        from repro.api import ExecutionOptions

        with pytest.raises(ValueError, match="at least one lane"):
            ExecutionOptions(key_batch_lanes=0)
        assert ExecutionOptions(key_batch_lanes=5).key_batch_lanes == 5
        assert ExecutionOptions().key_batch_lanes is None

    def test_validate_component_lane_invariant(self):
        """Identical report bytes for one-lane, default and
        wider-than-keyset batches (the JSON parity half of the
        contract; the CLI/env path is covered in the campaign test)."""
        from dataclasses import asdict

        from repro.tao.metrics import validate_component

        component, workload = _obfuscated("gsm", "full")
        reports = [
            asdict(
                validate_component(
                    component, [workload], n_keys=5, key_batch_lanes=lanes
                )
            )
            for lanes in (1, None, 512)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_campaign_json_lane_invariant(self, monkeypatch):
        """Full campaign documents are byte-identical across lane
        settings, whether set per-option or via the environment."""
        from repro.api import CampaignSpec, ExecutionOptions, execute_plan
        from repro.runtime.campaign import plan_campaign

        spec = CampaignSpec(benchmarks=("gsm",), n_keys=4, seed=13)

        def run(**kwargs):
            return execute_plan(
                plan_campaign(spec), ExecutionOptions(jobs=1, **kwargs)
            ).to_json()

        monkeypatch.delenv("REPRO_KEY_BATCH_LANES", raising=False)
        baseline = run()
        assert run(key_batch_lanes=1) == baseline
        assert run(key_batch_lanes=3) == baseline
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", "2")
        assert run() == baseline
