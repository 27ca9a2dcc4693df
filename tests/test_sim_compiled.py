"""Fast FSMD engines: differential bit-identity of the compiled and
codegen tiers against the reference interpreter, the engine seam, the
compile-once cache, the compiled tier's bind lifecycle (arms compiled
on first bind, no poisoned memo after a failed bind), and the
zero-size-memory regression (all three engines)."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite import benchmark_names, get_benchmark
from repro.frontend import compile_c
from repro.hls import hls_flow
from repro.registry import REGISTRY
from repro.runtime.campaign import CampaignSpec, plan_campaign
from repro.runtime.executor import ExecutionOptions, execute_plan
from repro.sim import (
    SimulationError,
    codegen_for,
    compiled_for,
    resolve_engine,
    run_testbench,
    simulate,
)
from repro.sim.compiled import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    _COMPILE_CACHE,
    CompiledDesign,
)
from repro.sim.fsmd_sim import FsmdSimulator
from repro.tao.flow import TaoFlow


def result_fields(result):
    """Every SimulationResult field, as one comparable tuple."""
    return (
        result.return_value,
        result.arrays,
        result.cycles,
        result.completed,
        result.state_trace,
    )


def assert_identical(design, args, arrays, working_key, max_cycles, trace=False):
    """Run all three engines on one trial; assert field-identical results.

    ``trace`` compares state sequences on the tiers that record one
    (the interpreter and the compiled plan); codegen records none.
    """
    interp = FsmdSimulator(design, max_cycles=max_cycles, trace=trace).run(
        args, dict(arrays) if arrays else None, working_key
    )
    compiled = compiled_for(design).run(
        args,
        dict(arrays) if arrays else None,
        working_key=working_key,
        max_cycles=max_cycles,
        trace=trace,
    )
    assert result_fields(interp) == result_fields(compiled)
    codegen = codegen_for(design).run(
        args,
        dict(arrays) if arrays else None,
        working_key=working_key,
        max_cycles=max_cycles,
    )
    assert result_fields(interp)[:-1] == result_fields(codegen)[:-1]
    assert codegen.state_trace == []
    return interp


@functools.lru_cache(maxsize=None)
def _obfuscated(benchmark: str, preset: str):
    bench = get_benchmark(benchmark)
    component = TaoFlow(pipeline=preset).obfuscate(bench.source, bench.top)
    workload = bench.make_testbenches(seed=11, count=1)[0]
    return component, workload


class TestDifferentialAcrossSuite:
    """The determinism contract: compiled == interpreted, field by
    field, on every benchmark x preset pipeline x key class."""

    @pytest.mark.parametrize("bench_name", benchmark_names())
    @pytest.mark.parametrize("preset", sorted(REGISTRY.names("pipeline-preset")))
    def test_benchmark_pipeline_key_classes(self, bench_name, preset):
        component, workload = _obfuscated(bench_name, preset)
        design = component.design
        correct = component.correct_working_key
        width = max(1, component.working_key_bits)

        # Correct key, traced: outputs, cycle count and state sequence.
        baseline = assert_identical(
            design, workload.args, workload.arrays, correct, 200_000, trace=True
        )
        assert baseline.completed
        cap = max(8 * baseline.cycles, 4000)
        # Wrong keys from distinct corruption patterns (bit flips in
        # different slices), capped like the validation campaign.  The
        # 0 flip rebinds the correct key between two wrong ones (keys
        # A, B, A, C on one cached plan), so a variant arm compiled by
        # an earlier bind is reused and a new key still compiles its own.
        for flip in (1, 0, (1 << (width // 2)) | 1, (1 << (width - 1)) | 3):
            assert_identical(
                design, workload.args, workload.arrays, correct ^ flip, cap
            )
        # Timeout class: a budget far below the baseline latency must
        # report completed=False identically (cycles == budget).
        timed_out = assert_identical(
            design, workload.args, workload.arrays, correct, 7
        )
        assert not timed_out.completed
        assert timed_out.cycles == 7

    @pytest.mark.parametrize("bench_name", benchmark_names())
    def test_run_testbench_outcome_parity(self, bench_name):
        component, workload = _obfuscated(bench_name, "full")
        wrong = component.correct_working_key ^ 0b11
        outcomes = {}
        for engine in ("interp", "compiled", "codegen"):
            good = run_testbench(
                component.design,
                workload,
                working_key=component.correct_working_key,
                engine=engine,
            )
            bad = run_testbench(
                component.design,
                workload,
                working_key=wrong,
                max_cycles=max(8 * good.cycles, 4000),
                engine=engine,
            )
            outcomes[engine] = (
                good.matches,
                good.simulated_bits,
                good.cycles,
                bad.matches,
                bad.simulated_bits,
                bad.cycles,
            )
        assert outcomes["interp"] == outcomes["compiled"] == outcomes["codegen"]
        assert outcomes["interp"][0] is True


class TestDifferentialRandomKeys:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.booleans())
    def test_random_working_keys_small_design(self, key_bits, timeout):
        component, workload = _obfuscated("gsm", "full")
        baseline = FsmdSimulator(component.design, max_cycles=100_000).run(
            workload.args, dict(workload.arrays), component.correct_working_key
        )
        budget = 23 if timeout else max(8 * baseline.cycles, 4000)
        width = component.working_key_bits
        working_key = key_bits & ((1 << width) - 1)
        assert_identical(
            component.design, workload.args, workload.arrays, working_key, budget
        )


class TestEngineSeam:
    def test_resolve_engine_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "interp")
        assert resolve_engine("compiled") == "compiled"
        assert resolve_engine(None) == "interp"
        assert resolve_engine() == "interp"

    def test_resolve_engine_default(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine() == DEFAULT_ENGINE == "compiled"
        monkeypatch.setenv(ENGINE_ENV, "")
        assert resolve_engine() == "compiled"

    def test_resolve_engine_rejects_unknown(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown simulation engine"):
            resolve_engine("verilator")
        monkeypatch.setenv(ENGINE_ENV, "typo")
        with pytest.raises(ValueError, match="typo"):
            resolve_engine()

    def test_simulate_dispatches_env_engine(self, monkeypatch):
        design = hls_flow(compile_c("int f(int a) { return a + 1; }"), "f")
        calls = []
        original = FsmdSimulator.run

        def spy(self, *args, **kwargs):
            calls.append("interp")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FsmdSimulator, "run", spy)
        monkeypatch.setenv(ENGINE_ENV, "interp")
        assert simulate(design, [1]).return_value == 2
        assert calls == ["interp"]
        monkeypatch.setenv(ENGINE_ENV, "compiled")
        assert simulate(design, [1]).return_value == 2
        assert calls == ["interp"]  # compiled engine took the other path

    def test_argument_count_error_parity(self):
        design = hls_flow(compile_c("int f(int a) { return a + 1; }"), "f")
        with pytest.raises(SimulationError, match="expects 1 scalar args"):
            simulate(design, [1, 2], engine="compiled")
        with pytest.raises(SimulationError, match="expects 1 scalar args"):
            simulate(design, [1, 2], engine="interp")


class TestCompileOnceCache:
    def test_compiled_plan_is_reused(self):
        design = hls_flow(compile_c("int f(int a) { return a * 5; }"), "f")
        assert compiled_for(design) is compiled_for(design)
        assert id(design) in _COMPILE_CACHE

    def test_obfuscation_metadata_rotation_recompiles(self):
        design = hls_flow(compile_c("int f(int a) { return a * 5; }"), "f")
        first = compiled_for(design)
        # Any TAO pass grows one of the fingerprinted collections; the
        # bookkeeping dict stands in for a full re-obfuscation here.
        design.masked_branches[999] = 0
        assert compiled_for(design) is not first

    def test_cache_is_bounded_lru(self):
        from repro.sim.compiled import _COMPILE_CACHE_LIMIT

        designs = [
            hls_flow(compile_c(f"int f(int a) {{ return a + {i}; }}"), "f")
            for i in range(_COMPILE_CACHE_LIMIT + 3)
        ]
        plans = [compiled_for(d) for d in designs]
        # A cached plan pins its design, so the cache must stay bounded
        # in processes that churn through many designs.
        assert len(_COMPILE_CACHE) <= _COMPILE_CACHE_LIMIT
        assert compiled_for(designs[-1]) is plans[-1]  # still hot
        assert compiled_for(designs[0]) is not plans[0]  # evicted

    def test_bind_key_memoizes_last_key(self):
        component, workload = _obfuscated("gsm", "full")
        plan = compiled_for(component.design)
        plan.bind_key(component.correct_working_key)
        bound = plan._bound_key
        plan.bind_key(component.correct_working_key)
        assert plan._bound_key == bound == component.correct_working_key

    def test_failed_bind_does_not_poison_memoization(self):
        """A bind that raises forgets the memoized key: the next run of
        the previously bound key rebinds instead of running on the
        failed key's cells and arms."""
        bench = get_benchmark("gsm")
        component = TaoFlow(pipeline="full").obfuscate(bench.source, bench.top)
        design = component.design
        # Fresh (not the lru-cached fixture): the last variant table
        # loses one wrong-selector arm, and the bad key steers into
        # that hole with every other key bit flipped.
        variants = list(design.block_variants.values())[-1]
        missing = next(
            selector
            for selector in sorted(variants.variants)
            if selector != variants.correct_value
        )
        del variants.variants[missing]
        correct = component.correct_working_key
        slice_mask = ((1 << variants.key_bits) - 1) << variants.key_offset
        flipped = correct ^ ((1 << component.working_key_bits) - 1)
        bad_key = (flipped & ~slice_mask) | (missing << variants.key_offset)
        _, workload = _obfuscated("gsm", "full")
        plan = compiled_for(design)

        def run_correct():
            return plan.run(
                workload.args,
                dict(workload.arrays),
                working_key=correct,
                max_cycles=200_000,
            )

        run_correct()
        with pytest.raises(KeyError):
            plan.bind_key(bad_key)
        assert plan._bound_key is None
        oracle = FsmdSimulator(design, max_cycles=200_000).run(
            workload.args, dict(workload.arrays), correct
        )
        assert result_fields(run_correct()) == result_fields(oracle)


class TestLazyArms:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_two_binds_compile_at_most_two_arms(self, name, monkeypatch):
        """Binding the correct key and one wrong key compiles only the
        two selected arms of each variant state table, not all of them."""
        component, _ = _obfuscated(name, "full")
        compiled: list[int] = []
        compile_ops = CompiledDesign._compile_ops

        def counted(plan, ops):
            # Op lists live in the plan's layout, so their ids name
            # (state, arm) pairs.
            compiled.append(id(ops))
            return compile_ops(plan, ops)

        monkeypatch.setattr(CompiledDesign, "_compile_ops", counted)
        plan = CompiledDesign(component.design)
        correct = component.correct_working_key
        wrong = correct ^ ((1 << component.working_key_bits) - 1)
        plan.bind_key(correct)
        plan.bind_key(wrong)
        tables = [
            (variants, per_selector)
            for variants, state_tables in plan.layout.variant_tables
            for _, per_selector in state_tables
        ]
        assert tables, "full preset should variant-obfuscate"
        for variants, per_selector in tables:
            arms = [id(ops) for ops in per_selector.values()]
            selected = {
                id(per_selector[variants.selector(key)]) for key in (correct, wrong)
            }
            compiled_arms = [i for i in compiled if i in arms]
            assert len(compiled_arms) <= 2
            assert set(compiled_arms) == selected


class TestInterpreterOpsMemoization:
    def test_state_ops_computed_once_per_state(self):
        component, workload = _obfuscated("gsm", "full")
        sim = FsmdSimulator(component.design)
        sim.run(
            workload.args,
            dict(workload.arrays),
            component.correct_working_key,
        )
        state = component.design.controller.entry_state
        key = component.correct_working_key
        assert sim._state_ops(state, key) is sim._state_ops(state, key)


ROM_SOURCE = """
int f(int x) {
  int rom[4] = {2, 4, 8, 16};
  int s = 0;
  for (int i = 0; i < 4; i++) s += rom[i] * x;
  return s;
}
"""


class TestZeroSizeMemory:
    @pytest.mark.parametrize("engine", ("interp", "compiled", "codegen"))
    def test_load_from_zero_size_memory_raises(self, engine):
        component = TaoFlow(pipeline="full-rom").obfuscate(ROM_SOURCE, "f")
        design = component.design
        assert "rom" in design.obfuscated_roms
        # A fabricated image with no words: every read must fail loudly
        # instead of crashing with ZeroDivisionError on `index % 0`.
        design.obfuscated_roms["rom"].encrypted_image = []
        with pytest.raises(SimulationError, match="zero size"):
            simulate(
                design,
                [3],
                working_key=component.correct_working_key,
                engine=engine,
            )


class TestCampaignEngineParity:
    def test_campaign_json_byte_identical_across_engines(self):
        plan = plan_campaign(
            CampaignSpec(benchmarks=("gsm",), n_keys=3, n_workloads=1, seed=13)
        )
        documents = {
            engine: execute_plan(
                plan, ExecutionOptions(jobs=1, engine=engine)
            ).to_json()
            for engine in ("interp", "compiled", "codegen")
        }
        assert documents["interp"] == documents["compiled"]
        assert documents["interp"] == documents["codegen"]
        # The engine is an execution knob: it must not leak into the
        # serialized spec (that is what keeps the JSON comparable).
        assert '"engine"' not in documents["compiled"]
