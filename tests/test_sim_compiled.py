"""Fast FSMD engines: differential bit-identity of the compiled and
codegen tiers against the reference interpreter (budgets ending inside
a chain, and every DFG arm that keeps the two-phase commit), the engine
seam, the compile-once cache, the compiled tier's bind lifecycle (arms
compiled on first bind, one per distinct content of a state, so shared
by equal-distance selectors and by lists that hold the same ops, no
poisoned memo after a failed bind), the zero-size-memory errors of
LOAD and STORE (all three engines), and the compiled tier's fused
chains (a second plan that fuses every chain at once in the
differential, and the two-phase and zero-size tests rerun that way;
hot entries fused at the default threshold; fused closures dropped
only with the arms they inline), its loop closures (a third plan that
builds them at once in the differential; budgets across a repeat's
period; two-phase arms, rebinds and traced runs; no dead register
writes; the CI parity cell's exact and counter jumps), its counter
jumps (each guard against the interpreter: budgets across a period,
loop bounds inside the budget, wraps of int, char and short counters,
indexes and shift amounts, equality exits, several counters, a
two-phase state, steps that change, watched registers that change,
and the reads that keep a loop exact: stores, nonlinear ops and
products of counters, unless dead, a self-cancelling difference, a
register left out of the snapshot at an early exit and reads by dead
ops that keep a chain live; viterbi's loops that jump only past dead
values; traced runs take no jump), its memo of fused
chains and loop closures (a rebind to earlier arms reuses their loop,
a rebound hot chain heats early, uncapped runs build a loop only once
they have run the cycles to repay it, and one fused closure per entry
and arm combination, all dying with the plan), its key cells and static
memory lengths."""

import collections
import functools
import gc
import random
import re
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite import benchmark_names, get_benchmark
from repro.frontend import compile_c
from repro.hls import hls_flow
from repro.ir.instructions import Opcode
from repro.ir.types import IntType
from repro.ir.values import Constant, ObfuscatedConstant, Variable
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
import repro.sim.compiled as compiled_module
from repro.sim.compiled import (
    _CHAIN,
    DEFAULT_ENGINE,
    _COMPILE_CACHE,
    CompiledDesign,
)
from repro.sim.fsmd_sim import DEFAULT_MAX_CYCLES, FsmdSimulator
from repro.sim.layout import COND, op_fields
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


#: Module constants that make a compiled plan run each chain entry's
#: whole strongly connected set of chain entries as a loop closure from
#: its first dispatch.
LOOP_AT_ONCE = {"_FUSE_AFTER": 1, "_WARM_AFTER": 0, "_LOOP_REPAY": 0}


def assert_identical(
    design, args, arrays, working_key, max_cycles, trace=False, fused=None, looped=None
):
    """Run all three engines on one trial; assert field-identical results.

    ``trace`` compares state sequences on the tiers that record one
    (the interpreter and the compiled plan); codegen records none.
    ``fused`` is one more compiled plan, run with every chain fused on
    its first dispatch and held to the same interpreter result.
    ``looped`` is one more, run untraced (a traced run takes no loop)
    with :data:`LOOP_AT_ONCE`.
    """
    interp = FsmdSimulator(design, max_cycles=max_cycles, trace=trace).run(
        args, dict(arrays) if arrays else None, working_key
    )

    def run(plan):
        return plan.run(
            args,
            dict(arrays) if arrays else None,
            working_key=working_key,
            max_cycles=max_cycles,
            trace=trace,
        )

    assert result_fields(interp) == result_fields(run(compiled_for(design)))
    if fused is not None:
        with mock.patch.object(compiled_module, "_FUSE_AFTER", 1):
            assert result_fields(interp) == result_fields(run(fused))
    if looped is not None:
        with mock.patch.multiple(compiled_module, **LOOP_AT_ONCE):
            untraced = looped.run(
                args,
                dict(arrays) if arrays else None,
                working_key=working_key,
                max_cycles=max_cycles,
            )
        assert result_fields(interp)[:-1] == result_fields(untraced)[:-1]
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
        # A second plan fuses every chain on its first dispatch: traced
        # and untraced runs then call one fused closure per dispatch, and
        # a budget that ends inside a chain runs the per-state closures
        # that fit.  A third runs every cycle of chain entries as a loop
        # closure from its first dispatch.
        fused = CompiledDesign(design)
        looped = CompiledDesign(design)

        # Correct key, traced: outputs, cycle count and state sequence.
        baseline = assert_identical(
            design, workload.args, workload.arrays, correct, 200_000, True, fused, looped
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
                design,
                workload.args,
                workload.arrays,
                correct ^ flip,
                cap,
                fused=fused,
                looped=looped,
            )
        # Timeout class: a budget below the baseline latency must report
        # completed=False identically (cycles == budget), with the
        # traced prefix.  The budgets end inside the first state, early
        # in the run, and one cycle before the end, so most end inside
        # a chain of the compiled plan.
        for budget in (1, 7, baseline.cycles - 1):
            timed_out = assert_identical(
                design, workload.args, workload.arrays, correct, budget, True, fused, looped
            )
            assert not timed_out.completed
            assert timed_out.cycles == budget
        assert any(step is not None for step in fused._fused)
        assert looped.loop_cycles > 0

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
    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.booleans(),
        st.integers(min_value=1, max_value=200),
    )
    def test_random_working_keys_small_design(self, key_bits, timeout, short_budget):
        component, workload = _obfuscated("gsm", "full")
        baseline = FsmdSimulator(component.design, max_cycles=100_000).run(
            workload.args, dict(workload.arrays), component.correct_working_key
        )
        budget = short_budget if timeout else max(8 * baseline.cycles, 4000)
        width = component.working_key_bits
        working_key = key_bits & ((1 << width) - 1)
        assert_identical(
            component.design, workload.args, workload.arrays, working_key, budget
        )


class TestEngineSeam:
    def test_resolve_engine_default(self):
        assert resolve_engine() == DEFAULT_ENGINE == "compiled"
        assert resolve_engine("") == "compiled"
        assert resolve_engine("interp") == "interp"

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(
            ValueError,
            match=r"unknown simulation engine 'verilator' \(from engine argument\)",
        ):
            resolve_engine("verilator")

    def test_simulate_dispatches_engine(self, monkeypatch):
        design = hls_flow(compile_c("int f(int a) { return a + 1; }"), "f")
        calls = []
        original = FsmdSimulator.run

        def spy(self, *args, **kwargs):
            calls.append("interp")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FsmdSimulator, "run", spy)
        assert simulate(design, [1], engine="interp").return_value == 2
        assert calls == ["interp"]
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
        failed key's cells and arms.  It also leaves the bound arms as
        they were, so a key that selects the failed key's other arms
        still rebuilds the chains that run them."""
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
        # The correct key with the failed key's arms in every block but
        # the last: the same arms the failed bind reached before the
        # hole, so only a plan the failed bind left untouched rebinds them.
        near_key = correct
        for other in list(design.block_variants.values())[:-1]:
            other_mask = ((1 << other.key_bits) - 1) << other.key_offset
            near_key = (near_key & ~other_mask) | (flipped & other_mask)
        with pytest.raises(KeyError):
            plan.bind_key(bad_key)
        assert_identical(design, workload.args, workload.arrays, near_key, 200_000)


class TestKeyCells:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_constant_cells_equal_decode_over_random_keys(self, name):
        """``bind_key`` decodes every obfuscated-constant cell from numbers
        taken once per cell; over random keys each equals
        :meth:`ObfuscatedConstant.decode`, for the kernel's constants
        and for constants of every signedness, type width and storage
        width."""
        component, _ = _obfuscated(name, "full")
        plan = CompiledDesign(component.design)
        rng = random.Random(7)
        for _ in range(40):
            type_ = IntType(rng.choice([1, 8, 16, 32, 64]), rng.random() < 0.5)
            width = rng.choice([8, 16, 32, 40])
            plan._kconst_cell(
                ObfuscatedConstant(
                    rng.getrandbits(width), rng.randrange(64), width, Constant(0, type_)
                )
            )
        keys = [component.correct_working_key] + [rng.getrandbits(128) for _ in range(50)]
        for key in keys:
            plan.bind_key(key)
            assert all(cell[0] == oc.decode(key) for oc, cell in plan._kconst_cells.items())
        assert len(plan._kconst_cells) > 40


def _arm_content(ops) -> tuple:
    """What a compiled arm runs: the op fields of a cycle's ops.  The plan
    keeps one arm per distinct content of a variant state."""
    return tuple(
        (opcode, result, tuple(operands), array_name)
        for opcode, result, operands, array_name in CompiledDesign._fields(ops)
    )


def _content_moves(tables, current: int) -> list[int]:
    """The selectors of a variant block (its layout ``tables``) whose op
    list differs in content from ``current``'s in every state of the
    block, fewest flipped bits first: binding one changes the arm of every
    state of the block."""
    base = [_arm_content(per_selector[current]) for _, per_selector in tables]
    return sorted(
        (
            selector
            for selector in tables[0][1]
            if all(
                _arm_content(per_selector[selector]) != content
                for (_, per_selector), content in zip(tables, base)
            )
        ),
        key=lambda selector: (bin(selector ^ current).count("1"), selector),
    )


def _content_moving_key(layout, key: int) -> int:
    """``key`` with each variant block's selector moved to the first of
    its :func:`_content_moves`, for the blocks that have one; the other
    blocks keep ``key``'s selector, and so its op lists."""
    for variants, tables in layout.variant_tables:
        current = variants.selector(key)
        moves = _content_moves(tables, current)
        if moves:
            key ^= (moves[0] ^ current) << variants.key_offset
    return key


class TestLazyArms:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_two_binds_compile_at_most_two_arms(self, name, monkeypatch):
        """Binding the correct key and one wrong key compiles only the
        two selected arms of each variant state table, not all of them.
        Where the wrong key selects another op list, the list differs in
        content in every state of its block, so it is another arm."""
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
        wrong = _content_moving_key(plan.layout, correct)
        assert wrong != correct
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


class TestContentKeyedArms:
    def test_binds_compile_one_arm_per_distinct_content(self, monkeypatch):
        """On viterbi under ``full``, eight binds compile exactly one arm
        per distinct content among the op lists they select in each
        variant state: lists at different Hamming distances that hold the
        same ops in a state share one arm."""
        component, _ = _obfuscated("viterbi", "full")
        compiled: list[int] = []
        compile_ops = CompiledDesign._compile_ops

        def counted(plan, ops):
            compiled.append(id(ops))
            return compile_ops(plan, ops)

        monkeypatch.setattr(CompiledDesign, "_compile_ops", counted)
        plan = CompiledDesign(component.design)
        rng = random.Random(8)
        keys = [component.correct_working_key] + [
            rng.getrandbits(component.working_key_bits) for _ in range(7)
        ]
        for key in keys:
            plan.bind_key(key)
        arms_of = {
            idx: arms for _, tables in plan._variant_binds for idx, _, arms in tables
        }
        shared = 0
        for variants, tables in plan.layout.variant_tables:
            for idx, per_selector in tables:
                selected = {
                    id(ops): ops
                    for ops in (per_selector[variants.selector(key)] for key in keys)
                }
                built = [selected[i] for i in compiled if i in selected]
                contents = {_arm_content(ops) for ops in selected.values()}
                assert len(built) == len(contents)
                assert {_arm_content(ops) for ops in built} == contents
                arms = arms_of[idx]
                by_content: dict[tuple, list] = {}
                for list_id, ops in selected.items():
                    arm = by_content.setdefault(_arm_content(ops), arms[list_id])
                    assert arms[list_id] is arm
                shared += len(selected) - len(contents)
        assert shared > 0


class TestSharedArms:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_rebind_within_distance_classes_rebuilds_nothing(self, name, monkeypatch):
        """Selectors at one Hamming distance share one compiled arm: a
        second key that moves every block's selector to another one at
        the same distance compiles no arm, rebuilds no chain and keeps
        every fused chain, and still runs as the interpreter does."""
        monkeypatch.setattr(compiled_module, "_FUSE_AFTER", 1)
        component, workload = _obfuscated(name, "full")
        design = component.design
        correct = component.correct_working_key
        blocks = list(design.block_variants.values())
        assert blocks, "full preset should variant-obfuscate"
        # Distance 1 in every block: flip the slice's lowest bit, then
        # its second bit instead.
        first = second = correct
        for variants in blocks:
            assert variants.key_bits >= 2
            first ^= 1 << variants.key_offset
            second ^= 2 << variants.key_offset
        assert all(
            v.selector(first) != v.selector(second) for v in blocks
        )
        calls = {"_compile_ops": 0, "_chain_units": 0, "_fuse_chain": 0}
        fused_heads: list[int] = []
        for method in calls:
            original = getattr(CompiledDesign, method)

            def counted(plan, *args, _method=method, _original=original):
                calls[_method] += 1
                if _method == "_fuse_chain":
                    fused_heads.append(args[0])
                return _original(plan, *args)

            monkeypatch.setattr(CompiledDesign, method, counted)
        baseline = FsmdSimulator(design, max_cycles=200_000).run(
            workload.args, dict(workload.arrays), correct
        )
        cap = max(8 * baseline.cycles, 4000)
        plan = CompiledDesign(design)
        plan.bind_key(first)
        assert calls["_compile_ops"] > 0
        # Fuse every chain the first key dispatches.
        plan.run(workload.args, dict(workload.arrays), working_key=first, max_cycles=cap)
        fused = list(plan._fused)
        assert calls["_fuse_chain"] > 0
        calls.update(dict.fromkeys(calls, 0))
        fused_heads.clear()
        plan.bind_key(second)
        assert calls == {"_compile_ops": 0, "_chain_units": 0, "_fuse_chain": 0}
        assert plan._fused == fused
        interp = FsmdSimulator(design, max_cycles=cap, trace=True).run(
            workload.args, dict(workload.arrays), second
        )
        compiled = plan.run(
            workload.args,
            dict(workload.arrays),
            working_key=second,
            max_cycles=cap,
            trace=True,
        )
        assert result_fields(compiled) == result_fields(interp)
        # Only chains the first key never dispatched fuse now.
        assert not any(fused[head] is not None for head in fused_heads)
        assert all(
            plan._fused[head] is step for head, step in enumerate(fused) if step
        )


def _reads_own_writes(design, ops) -> bool:
    """True when an op of one cycle reads a register, or LOADs from a
    memory, that an earlier op of the same cycle writes."""
    register_of = design.binding.register_of
    written, stored = set(), set()
    for opcode, result, operands, array in map(op_fields, ops):
        if opcode in (Opcode.JUMP, Opcode.BRANCH):
            continue
        if any(register_of.get(v) in written for v in operands):
            return True
        if opcode is Opcode.LOAD and array in stored:
            return True
        if opcode is Opcode.STORE:
            stored.add(array)
        elif opcode is not Opcode.RET and result in register_of:
            written.add(register_of[result])
    return False


class TestTwoPhaseArms:
    def test_every_two_phase_arm_matches_interp(self):
        """No baseline state needs the two-phase commit, only some DFG
        decoy arms, which random wrong keys rarely select.  Steer a key
        into each such arm of sobel under ``full`` (the correct key with
        the block's selector slice replaced), check the plan committed
        that arm in two phases, and compare a capped, traced run."""
        component, workload = _obfuscated("sobel", "full")
        design = component.design
        correct = component.correct_working_key
        baseline = FsmdSimulator(design, max_cycles=200_000).run(
            workload.args, dict(workload.arrays), correct
        )
        cap = max(8 * baseline.cycles, 4000)
        plan = compiled_for(design)
        assert not any(
            _reads_own_writes(design, ops)
            for ops in plan.layout.state_op_lists
            if ops is not None
        )
        checked = 0
        for variants, tables in plan.layout.variant_tables:
            slice_mask = ((1 << variants.key_bits) - 1) << variants.key_offset
            for selector in sorted(variants.variants):
                arms = [
                    (idx, per_selector[selector])
                    for idx, per_selector in tables
                    if _reads_own_writes(design, per_selector[selector])
                ]
                if not arms:
                    continue
                key = (correct & ~slice_mask) | (selector << variants.key_offset)
                assert variants.selector(key) == selector
                plan.bind_key(key)
                for idx, _ in arms:
                    units = plan._state_units[idx]
                    assert [unit.__name__ for unit in units] == ["two_phase_cycle"]
                    checked += 1
                assert_identical(
                    design, workload.args, workload.arrays, key, cap, trace=True
                )
        assert checked == 19


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

    @pytest.mark.parametrize("engine", ("interp", "compiled", "codegen"))
    @pytest.mark.parametrize(
        "source, args, failing",
        [
            (
                "int f(int x) { int t[2] = {1, 2}; t[x & 1] = x; "
                "return t[0] + t[1]; }",
                [3],
                "t",
            ),
            # The STORE to `a` and the LOAD from `b` share the first
            # cycle, the STORE first: under the two-phase clock edge the
            # LOAD raises before the STORE commits.
            (
                "int f(int x, int i) { int a[2] = {1, 2}; int b[2] = {3, 4}; "
                "a[i] = x; return b[i] + x; }",
                [3, 1],
                "b",
            ),
            # A STORE in a loop: on the compiled plan it runs in a chain.
            (
                "int f(int n) { int t[2] = {1, 2}; "
                "for (int i = 0; i < n; i++) t[i & 1] = i; return t[0] + t[1]; }",
                [3],
                "t",
            ),
        ],
    )
    def test_store_to_zero_size_memory_raises(self, engine, source, args, failing):
        """A STORE commits in place on the compiled plan, so it raises
        where it runs; the error must still be the interpreter's."""
        design = hls_flow(compile_c(source), "f")
        for array in design.func.arrays.values():
            array.initializer = []
        with pytest.raises(SimulationError, match=f"memory '{failing}' has zero size"):
            simulate(design, args, engine=engine)


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


@pytest.fixture
def fuse_at_once(monkeypatch):
    """Fuse each chain entry of the compiled plan on its first dispatch."""
    monkeypatch.setattr(compiled_module, "_FUSE_AFTER", 1)


@pytest.mark.usefixtures("fuse_at_once")
class TestFusedTwoPhaseArms(TestTwoPhaseArms):
    """Each two-phase arm runs as one call inside its chain's closure."""


@pytest.mark.usefixtures("fuse_at_once")
class TestFusedZeroSizeMemory(TestZeroSizeMemory):
    """The zero-size errors raised from inside fused chains."""


@pytest.fixture
def loop_at_once(monkeypatch):
    """Run each chain entry's whole strongly connected set of chain
    entries as a loop closure from the entry's first dispatch."""
    for name, value in LOOP_AT_ONCE.items():
        monkeypatch.setattr(compiled_module, name, value)


@pytest.mark.usefixtures("loop_at_once")
class TestLoopedZeroSizeMemory(TestZeroSizeMemory):
    """The zero-size errors raised from inside loop closures."""


def _dispatch_starts(plan, state_trace) -> list[tuple[int, int]]:
    """``(position, entry)`` of each dispatch of a traced compiled run."""
    idx_of = {name: idx for idx, name in enumerate(plan.layout.state_names)}
    assert len(idx_of) == len(plan.layout.state_names)
    starts, position = [], 0
    while position < len(state_trace):
        head = idx_of[state_trace[position]]
        starts.append((position, head))
        position += plan._lengths[head]
    return starts


class TestFusionAtDefaultThreshold:
    def test_capped_viterbi_runs_in_fused_chains(self):
        """A capped wrong-key trial on viterbi under ``full`` runs more
        than 90 % of its cap in a loop closure built within that trial,
        and the hot entries a traced run dispatches are fused or in that
        loop; untraced and traced runs equal the interpreter's, and so
        do budgets that end inside a chain of the loop."""
        component, workload = _obfuscated("viterbi", "full")
        design = component.design
        correct = component.correct_working_key
        baseline = FsmdSimulator(design, max_cycles=200_000).run(
            workload.args, dict(workload.arrays), correct
        )
        cap = max(8 * baseline.cycles, 4000)
        wrong = correct ^ ((1 << component.working_key_bits) - 1)
        plan = CompiledDesign(design)

        def check(budget, trace):
            interp = FsmdSimulator(design, max_cycles=budget, trace=trace).run(
                workload.args, dict(workload.arrays), wrong
            )
            compiled = plan.run(
                workload.args,
                dict(workload.arrays),
                working_key=wrong,
                max_cycles=budget,
                trace=trace,
            )
            assert result_fields(compiled) == result_fields(interp)
            return interp

        assert not check(cap, trace=False).completed
        assert plan.loops_built > 0
        assert plan.loop_cycles + plan.skipped_cycles > 0.9 * cap
        starts = _dispatch_starts(plan, check(cap, trace=True).state_trace)
        fast = [
            step is not None or loop is not None
            for step, loop in zip(plan._fused, plan._loops)
        ]
        counts = collections.Counter(head for _, head in starts)
        hot = [
            head
            for head, count in counts.items()
            if plan._entries[head][0] == _CHAIN and count >= compiled_module._FUSE_AFTER
        ]
        assert hot and all(fast[head] for head in hot)
        in_fast = sum(plan._lengths[head] for _, head in starts if fast[head])
        assert in_fast > 0.9 * cap
        # The last dispatch of a chain of several states that runs fused
        # or in the loop, cut after its first state.
        position = max(
            position
            for position, head in starts
            if fast[head] and plan._lengths[head] > 1
        )
        for trace in (False, True):
            timed_out = check(position + 1, trace)
            assert timed_out.cycles == position + 1 and not timed_out.completed


class TestFusionLifecycle:
    def test_each_entry_holds_one_fused_closure_per_arm_set(self, fuse_at_once, monkeypatch):
        """Twenty keys on one plan: a rebind drops the fused closures of
        the chains whose arms changed, but the plan keeps each one, so an
        entry is fused once per combination of arms its keys select, a
        rebind to arms fused before reuses the closure, and every closure
        dies with the plan."""
        component, workload = _obfuscated("gsm", "full")
        made = []
        fuse_chain = CompiledDesign._fuse_chain

        def tracked(plan, head):
            step = fuse_chain(plan, head)
            made.append((head, plan._arms((head,)), weakref.ref(step)))
            return step

        monkeypatch.setattr(CompiledDesign, "_fuse_chain", tracked)
        plan = CompiledDesign(component.design)
        rng = random.Random(20)
        for _ in range(20):
            key = rng.getrandbits(component.working_key_bits)
            plan.run(
                workload.args, dict(workload.arrays), working_key=key, max_cycles=4000
            )
            for head, step in enumerate(plan._fused):
                assert step is None or plan._fusions[head, plan._arms((head,))] is step
        gc.collect()
        combinations = [(head, arms) for head, arms, _ in made]
        assert len(set(combinations)) == len(combinations)
        assert len({head for head, _ in combinations}) < len(combinations)
        assert plan.fusions_reused > 0
        assert all(ref() is not None for _, _, ref in made)
        del plan
        gc.collect()
        assert all(ref() is None for _, _, ref in made)

    def test_fused_factories_die_with_their_plan(self, fuse_at_once):
        """A fused chain's body names one design's slots and constants,
        so its factory stays on the plan, out of the process-wide shape
        cache, and dies with the plan."""
        component, workload = _obfuscated("gsm", "full")
        plan = CompiledDesign(component.design)
        plan.run(
            workload.args,
            dict(workload.arrays),
            working_key=component.correct_working_key,
            max_cycles=200_000,
        )
        factories = list(plan._chain_factories.values())
        shared = {id(factory) for factory in compiled_module._OP_FACTORIES.values()}
        assert factories and not shared.intersection(map(id, factories))
        refs = [weakref.ref(factory) for factory in factories]
        del plan, factories
        gc.collect()
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_arm_change_drops_only_chains_through_its_block(self, name, fuse_at_once):
        """Binding a key that changes one block's arm drops the fused
        closure and the dispatch count of exactly the chains that run a
        state of that block; the plan then still equals the interpreter."""
        component, workload = _obfuscated(name, "full")
        design = component.design
        correct = component.correct_working_key
        plan = CompiledDesign(design)
        baseline = plan.run(
            workload.args, dict(workload.arrays), working_key=correct, max_cycles=200_000
        )
        fused, counts = list(plan._fused), list(plan._dispatches)

        def through(block_name):
            states = {
                idx
                for idx, state in enumerate(plan.layout.states)
                if state.block == block_name
            }
            return {
                head
                for head, entry in enumerate(plan._entries)
                if entry is not None and states.intersection(entry[5])
            }

        # A block with a fused chain through it and one around it, and a
        # selector whose op list differs from the correct one's in every
        # state of the block.
        variants, moves, dropped = next(
            (v, moves, heads)
            for v, tables in plan.layout.variant_tables
            for moves in [_content_moves(tables, v.selector(correct))]
            for heads in [through(v.block_name)]
            if moves
            and any(fused[head] for head in heads)
            and any(step for head, step in enumerate(fused) if head not in heads)
        )
        key = correct ^ ((moves[0] ^ variants.selector(correct)) << variants.key_offset)
        plan.bind_key(key)
        for head, step in enumerate(fused):
            if head in dropped:
                assert plan._fused[head] is None and plan._dispatches[head] == 0
            else:
                assert plan._fused[head] is step
                assert plan._dispatches[head] == counts[head]
        cap = max(8 * baseline.cycles, 4000)
        interp = FsmdSimulator(design, max_cycles=cap, trace=True).run(
            workload.args, dict(workload.arrays), key
        )
        compiled = plan.run(
            workload.args,
            dict(workload.arrays),
            working_key=key,
            max_cycles=cap,
            trace=True,
        )
        assert result_fields(compiled) == result_fields(interp)


def _repeating_wrong_key():
    """viterbi under ``full``, a wrong key whose capped trial revisits an
    exact machine state (period 18 cycles), and the cap."""
    component, workload = _obfuscated("viterbi", "full")
    baseline = FsmdSimulator(component.design, max_cycles=200_000).run(
        workload.args, dict(workload.arrays), component.correct_working_key
    )
    rng = random.Random(0)
    keys = [rng.getrandbits(component.working_key_bits) for _ in range(5)]
    return component, workload, keys[-1], max(8 * baseline.cycles, 4000)


#: A body line that assigns a register (``regs[(3)] = ...`` in a fused
#: chain, ``r3 = ...`` in a loop), reads one, calls a two-phase op list
#: (which reads them all) or starts a loop rung (a chain of its own).
_WRITE = re.compile(r"^\s*(?:regs\[\((\d+)\)\]|r(\d+)) = (.*)$")
_READ = re.compile(r"regs\[\((\d+)\)\]|\br(\d+)\b")
_CALL = re.compile(r"^\s*_\d+\(regs, mems\)$")
_RUNG = re.compile(r"^\s*(?:el)?if state == ")


def _dead_writes(body: str) -> list[str]:
    """The lines of a fused or loop body whose register write a later
    line of the same chain overwrites before any read."""
    dead, pending = [], {}
    for line in body.split("\n"):
        if _CALL.match(line) or _RUNG.match(line):
            pending.clear()
            continue
        write = _WRITE.match(line)
        for groups in _READ.findall(write.group(3) if write else line):
            pending.pop(groups[0] or groups[1], None)
        if write:
            slot = write.group(1) or write.group(2)
            if slot in pending:
                dead.append(pending[slot])
            pending[slot] = line
    return dead


class TestLoopClosures:
    def test_budgets_across_one_period_after_a_skip(self):
        """On a wrong key that repeats, every budget over more than one
        period equals the interpreter's; the skipped cycles grow by one
        period exactly at the budgets the jump lands on."""
        component, workload, key, cap = _repeating_wrong_key()
        design = component.design
        plan = CompiledDesign(design)
        plan.run(workload.args, dict(workload.arrays), working_key=key, max_cycles=cap)
        assert plan.loops_built and plan.repeat_skips == 1
        skipped = {}
        for budget in range(600, 540, -1):
            before = plan.skipped_cycles
            compiled = plan.run(
                workload.args, dict(workload.arrays), working_key=key, max_cycles=budget
            )
            skipped[budget] = plan.skipped_cycles - before
            interp = FsmdSimulator(design, max_cycles=budget).run(
                workload.args, dict(workload.arrays), key
            )
            assert result_fields(compiled) == result_fields(interp)
        # Skipped cycles at budget B are (B - c) // P * P for the cycle c
        # the repeat is found at: they step up by P where B - c is a
        # multiple of P, the budgets the jump lands on exactly.
        landings = sorted(b for b in skipped if b - 1 in skipped and skipped[b] > skipped[b - 1])
        period = landings[1] - landings[0]
        assert period == 18 and len(landings) >= 3
        assert all(skipped[b] - skipped[b - 1] == period for b in landings)
        assert all(later - earlier == period for earlier, later in zip(landings, landings[1:]))

    def test_loop_runs_a_two_phase_arm(self, loop_at_once):
        """sobel under ``full`` with each key that selects a two-phase
        arm: loop closures that call that arm's closure (writing their
        registers back first and reloading its writes after) run as the
        interpreter does."""
        component, workload = _obfuscated("sobel", "full")
        design = component.design
        correct = component.correct_working_key
        baseline = FsmdSimulator(design, max_cycles=200_000).run(
            workload.args, dict(workload.arrays), correct
        )
        cap = max(8 * baseline.cycles, 4000)
        plan = CompiledDesign(design)
        for variants, tables in plan.layout.variant_tables:
            slice_mask = ((1 << variants.key_bits) - 1) << variants.key_offset
            for selector in sorted(variants.variants):
                if not any(
                    _reads_own_writes(design, per_selector[selector])
                    for _, per_selector in tables
                ):
                    continue
                key = (correct & ~slice_mask) | (selector << variants.key_offset)
                interp = FsmdSimulator(design, max_cycles=cap).run(
                    workload.args, dict(workload.arrays), key
                )
                compiled = plan.run(
                    workload.args, dict(workload.arrays), working_key=key, max_cycles=cap
                )
                assert result_fields(compiled) == result_fields(interp)
        loops = [body for body in plan._chain_factories if "while True" in body]
        assert any(map(_CALL.search, "\n".join(loops).split("\n")))

    @pytest.mark.parametrize("name", ["gsm", "viterbi"])
    def test_rebind_drops_only_loops_through_the_changed_arm(self, name, loop_at_once):
        """Binding a key that changes one block's arm drops the loop
        closures whose region runs a state of that block, from every
        entry of their region, and keeps every other loop."""
        component, workload = _obfuscated(name, "full")
        design = component.design
        correct = component.correct_working_key
        plan = CompiledDesign(design)
        baseline = plan.run(
            workload.args, dict(workload.arrays), working_key=correct, max_cycles=200_000
        )
        loops = list(plan._loops)

        def through(block_name):
            return {
                head
                for head, loop in enumerate(loops)
                if loop
                and any(
                    plan.layout.states[idx].block == block_name
                    for member in loop.region
                    for idx in plan._entries[member][5]
                )
            }

        # A block with a loop through it and one around it, and a selector
        # whose op list differs from the correct one's in every state of
        # the block.
        variants, moves, dropped = next(
            (v, moves, heads)
            for v, tables in plan.layout.variant_tables
            for moves in [_content_moves(tables, v.selector(correct))]
            for heads in [through(v.block_name)]
            if moves
            and heads
            and any(loop and head not in heads for head, loop in enumerate(loops))
        )
        key = correct ^ ((moves[0] ^ variants.selector(correct)) << variants.key_offset)
        plan.bind_key(key)
        for head, loop in enumerate(loops):
            assert plan._loops[head] is (None if head in dropped else loop)
        cap = max(8 * baseline.cycles, 4000)
        interp = FsmdSimulator(design, max_cycles=cap).run(
            workload.args, dict(workload.arrays), key
        )
        compiled = plan.run(
            workload.args, dict(workload.arrays), working_key=key, max_cycles=cap
        )
        assert result_fields(compiled) == result_fields(interp)

    def test_traced_run_takes_no_loop(self):
        """A traced run dispatches chains one by one even where a loop
        closure exists, so it keeps its state trace."""
        component, workload, key, cap = _repeating_wrong_key()
        plan = CompiledDesign(component.design)
        plan.run(workload.args, dict(workload.arrays), working_key=key, max_cycles=cap)
        counters = (plan.loop_cycles, plan.repeat_skips, plan.counter_skips, plan.skipped_cycles)
        assert plan.loops_built and counters[0] > 0
        interp = FsmdSimulator(component.design, max_cycles=cap, trace=True).run(
            workload.args, dict(workload.arrays), key
        )
        compiled = plan.run(
            workload.args,
            dict(workload.arrays),
            working_key=key,
            max_cycles=cap,
            trace=True,
        )
        assert result_fields(compiled) == result_fields(interp)
        assert (
            plan.loop_cycles, plan.repeat_skips, plan.counter_skips, plan.skipped_cycles
        ) == counters

    @pytest.mark.parametrize("checked", [False, True])
    @pytest.mark.parametrize("fixture", ["fuse_at_once", "loop_at_once"])
    def test_bodies_hold_no_dead_register_write(self, fixture, checked, request):
        """A fused chain or loop body writes no register that a later op
        of the same chain overwrites before reading it, except by a LOAD
        from a memory that keeps the empty check, which can raise."""
        request.getfixturevalue(fixture)
        bench = get_benchmark("viterbi")
        # A fresh design: the checked case edits it.
        component = TaoFlow(pipeline="full").obfuscate(bench.source, bench.top)
        workload = bench.make_testbenches(seed=11, count=1)[0]
        design = component.design
        if checked:
            # An initializer shorter than the array: a run that does not
            # provide it builds a one-word image.
            design.func.arrays["observations"].initializer = [0]
        plan = CompiledDesign(design)
        assert ("observations" in plan._mem_lengths) is not checked
        rng = random.Random(0)
        keys = [rng.getrandbits(component.working_key_bits) for _ in range(5)]
        for key in [component.correct_working_key, *keys]:
            compiled = plan.run(
                workload.args, dict(workload.arrays), working_key=key, max_cycles=4000
            )
            interp = FsmdSimulator(design, max_cycles=4000).run(
                workload.args, dict(workload.arrays), key
            )
            assert result_fields(compiled) == result_fields(interp)
        looped = fixture == "loop_at_once"
        bodies = [b for b in plan._chain_factories if ("while True" in b) == looped]
        assert bodies
        dead = [line for body in bodies for line in _dead_writes(body)]
        if checked:
            assert dead and all(" = m[" in line for line in dead)
        else:
            assert dead == []

    def test_parity_cell_takes_a_repeat_skip(self, monkeypatch):
        """CI's compiled-vs-interp cell (the five kernels, 16 keys) runs
        its capped wrong keys in loop closures and jumps both exact
        repeats and counter repeats, so its byte gate covers all three."""
        plans = []
        init = CompiledDesign.__init__

        def tracked(plan, design):
            init(plan, design)
            plans.append(plan)

        monkeypatch.setattr(CompiledDesign, "__init__", tracked)
        spec = CampaignSpec(
            benchmarks=("gsm", "viterbi", "backprop", "adpcm", "sobel"), n_keys=16
        )
        execute_plan(plan_campaign(spec), ExecutionOptions(jobs=1, engine="compiled"))
        assert len(plans) == 5
        assert all(plan.loop_cycles > 0 for plan in plans)
        assert sum(plan.repeat_skips for plan in plans) >= 1
        assert sum(plan.counter_skips for plan in plans) >= 1


def _loop_calls(monkeypatch) -> list:
    """``(loop, cycles)`` of every call of a loop closure that a plan
    builds from now on, with the cycle count it is called at."""
    calls = []
    build = CompiledDesign._loop

    def tracked(plan, region):
        loop = build(plan, region)
        run = loop.run

        def recorded(regs, mems, state, cycles, *rest):
            calls.append((loop, cycles))
            return run(regs, mems, state, cycles, *rest)

        loop.run = recorded
        return loop

    monkeypatch.setattr(CompiledDesign, "_loop", tracked)
    return calls


def _capped_viterbi():
    """viterbi under ``full``, its workload, a wrong key whose capped
    trial runs in one loop closure, and the cap."""
    component, workload = _obfuscated("viterbi", "full")
    baseline = FsmdSimulator(component.design, max_cycles=200_000).run(
        workload.args, dict(workload.arrays), component.correct_working_key
    )
    wrong = component.correct_working_key ^ ((1 << component.working_key_bits) - 1)
    return component, workload, wrong, max(8 * baseline.cycles, 4000)


def _arm_changing_key(plan, key, loop):
    """``key`` with one bit flipped in the slice of a variant block whose
    state ``loop`` runs, the first flip whose op list differs in content
    from the bound one in such a state, so a bind selects another arm for
    that state."""
    states = {idx for member in loop.region for idx in plan._entries[member][5]}
    for variants, tables in plan.layout.variant_tables:
        current = variants.selector(key)
        for bit in range(variants.key_bits):
            if any(
                _arm_content(per_selector[current ^ (1 << bit)])
                != _arm_content(per_selector[current])
                for idx, per_selector in tables
                if idx in states
            ):
                return key ^ (1 << (variants.key_offset + bit))
    raise AssertionError("no one-bit flip changes an arm the loop runs")


class TestClosureMemo:
    """A plan keeps every fused chain and loop closure it builds, by the
    entries it runs and their arms, so a key that selects arms an earlier
    key selected finds them built; an entry that heated under an earlier
    key heats again after :data:`_REHEAT_AFTER` dispatches; and under the
    uncapped default budget a loop must repay within the cycles a run has
    already run.  Every result equals the interpreter's."""

    def _trial(self, plan, workload, key, budget, calls):
        """Run ``key`` at ``budget`` on ``plan`` and on the interpreter,
        field-identical; return the loops it called and the cycle count
        of its first loop call (None: no call)."""
        before = len(calls)
        compiled = plan.run(
            workload.args, dict(workload.arrays), working_key=key, max_cycles=budget
        )
        interp = FsmdSimulator(plan.design, max_cycles=budget).run(
            workload.args, dict(workload.arrays), key
        )
        assert result_fields(compiled) == result_fields(interp)
        called = calls[before:]
        return {loop for loop, _ in called}, called[0][1] if called else None

    def test_rebind_to_earlier_arms_reuses_their_loop(self, monkeypatch):
        """Keys A, B, A and A' on one plan, each at its cap, where B
        changes an arm of A's loop and A' selects A's arms with other
        constants and branch bits: the second run of A reuses A's loop
        instead of building it, and A' runs it under its own key cells."""
        calls = _loop_calls(monkeypatch)
        component, workload, key_a, cap = _capped_viterbi()
        plan = CompiledDesign(component.design)
        called, _ = self._trial(plan, workload, key_a, cap, calls)
        assert plan.loops_built == 1 and len(called) == 1
        (loop_a,) = called
        key_b = _arm_changing_key(plan, key_a, loop_a)
        plan.bind_key(key_b)
        assert loop_a not in plan._loops
        called, _ = self._trial(plan, workload, key_b, cap, calls)
        assert plan.loops_built == 2 and loop_a not in called
        called, _ = self._trial(plan, workload, key_a, cap, calls)
        assert called == {loop_a}
        assert (plan.loops_built, plan.loops_reused) == (2, 1)
        # A': A with the low bit of each constant its loop reads and every
        # branch key bit but the loop's own exit bit flipped.
        exits = set()
        constants = set()
        for member in loop_a.region:
            chain = plan._entries[member][5]
            spec = plan.layout.transition_specs[chain[-1]]
            if spec[0] == COND:
                exits.add(spec[2])
            for idx in chain:
                for op in plan._state_ops[idx]:
                    constants.update(
                        value.key_offset
                        for value in op_fields(op)[2]
                        if isinstance(value, ObfuscatedConstant)
                    )
        flips = constants | (set(plan._kb_cells) - exits)
        assert constants and flips - constants
        key_a2 = key_a ^ sum(1 << bit for bit in flips)
        called, _ = self._trial(plan, workload, key_a2, cap, calls)
        assert loop_a in called and plan.loops_built == 2

    @pytest.mark.parametrize("reheat", [True, False])
    def test_rebind_heats_the_hot_chain_early(self, reheat, monkeypatch):
        """On the capped viterbi trial, a second key whose bind changes an
        arm of the first key's loop calls its own first loop before cycle
        1,000: the loop's head heated under the first key, so it heats
        again after :data:`_REHEAT_AFTER` dispatches.  With that threshold
        at :data:`_FUSE_AFTER`, as for an entry that never heated, the
        first call comes after cycle 2,000, as under the first key."""
        if not reheat:
            monkeypatch.setattr(
                compiled_module, "_REHEAT_AFTER", compiled_module._FUSE_AFTER
            )
        calls = _loop_calls(monkeypatch)
        component, workload, key, cap = _capped_viterbi()
        plan = CompiledDesign(component.design)
        (loop,), first = self._trial(plan, workload, key, cap, calls)
        assert first > 2000
        rebound = _arm_changing_key(plan, key, loop)
        called, first = self._trial(plan, workload, rebound, cap, calls)
        assert loop not in called
        assert first < 1000 if reheat else first > 2000

    def test_correct_key_run_builds_no_loop(self, monkeypatch):
        """viterbi's correct key under the uncapped default budget ends
        long before its hot loop could repay a build by the cycles it has
        run, so it builds none and fuses its hot chains alone; a capped
        wrong key on the same plan builds its loop."""
        calls = _loop_calls(monkeypatch)
        component, workload, wrong, cap = _capped_viterbi()
        plan = CompiledDesign(component.design)
        called, _ = self._trial(
            plan, workload, component.correct_working_key, DEFAULT_MAX_CYCLES, calls
        )
        assert not called and plan.loops_built == 0
        assert plan._deferred and all(plan._fused[head] for head in plan._deferred)
        called, _ = self._trial(plan, workload, wrong, cap, calls)
        assert called and plan.loops_built == 1

    def test_long_uncapped_run_builds_its_loop(self, monkeypatch):
        """Under the uncapped default budget, a short run fuses its hot
        chain alone, and a long run on the same plan judges it again:
        it builds the loop once it has run the cycles the build needs
        (:data:`_LOOP_REPAY` per op), and at most twice that many, since
        it judges the entries it fused alone again each time its cycle
        count doubles."""
        calls = _loop_calls(monkeypatch)
        design = hls_flow(compile_c(LONG_LOOP), "f")
        plan = CompiledDesign(design)
        for n in (300, 4000):
            compiled = plan.run([n])
            interp = FsmdSimulator(design).run([n])
            assert result_fields(compiled) == result_fields(interp)
            assert compiled.completed
            if n == 300:
                assert plan.loops_built == 0 and plan._deferred
        assert plan.loops_built == 1
        (loop, first), *_ = calls
        need = compiled_module._LOOP_REPAY * sum(
            len(plan._entries[member][1]) for member in loop.region
        )
        assert need <= first <= 2 * need < compiled.cycles

    def test_parity_cell_reuses_a_loop(self, monkeypatch):
        """CI's viterbi resistance-curve cell (4 keys) reuses loop
        closures across its attack's keys, so the memo rides its byte
        gate."""
        plans = []
        init = CompiledDesign.__init__

        def tracked(plan, design):
            init(plan, design)
            plans.append(plan)

        monkeypatch.setattr(CompiledDesign, "__init__", tracked)
        spec = CampaignSpec(
            benchmarks=("viterbi",), n_keys=4, attacks=("resistance-curve",)
        )
        execute_plan(plan_campaign(spec), ExecutionOptions(jobs=1, engine="compiled"))
        assert len(plans) == 1
        assert plans[0].loops_reused >= 1


#: A loop whose counter is read through xor, so it never jumps: 5 cycles
#: an iteration.
LONG_LOOP = """
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + (i ^ 5); }
  return s;
}
"""


def _counter_runs(source, args, budgets, arrays=None, traced=False):
    """Build ``source``'s ``f`` (or take a built design) and run it on
    one compiled plan that builds its loops at once, at each budget,
    field-identical to the interpreter (``traced`` runs both with a
    state trace).  Returns the plan and the results."""
    design = hls_flow(compile_c(source), "f") if isinstance(source, str) else source
    plan = CompiledDesign(design)
    results = []
    with mock.patch.multiple(compiled_module, **LOOP_AT_ONCE):
        for budget in budgets:
            compiled = plan.run(
                args, dict(arrays) if arrays else None, max_cycles=budget, trace=traced
            )
            interp = FsmdSimulator(design, max_cycles=budget, trace=traced).run(
                args, dict(arrays) if arrays else None
            )
            assert result_fields(compiled) == result_fields(interp), budget
            results.append(compiled)
    return plan, results


#: A counted loop that indexes a memory with its counter: the counter
#: moves by 1 and the sum by the words read each period (8 iterations,
#: the memory's length).
SUM_SOURCE = """
int f(int n, int a[8]) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return s;
}
"""
SUM_ARRAYS = {"a": [3, -1, 4, 1, -5, 9, 2, -6]}
THREE_COUNTERS = """
int f(int n) {
  int j = 7; int s = 0;
  for (int i = 0; i < n; i++) { j = j + 5; s = s - 3; }
  return j + s;
}
"""
NEVER = 1 << 30


class TestCounterJumps:
    """A loop whose counters move by a fixed step each period jumps
    whole periods, bounded so that every result equals the
    interpreter's: by the budget, before a value would wrap, before a
    comparison would change its outcome, and only over periods that
    bring every index and shift amount back to its residue."""

    def test_budgets_at_every_offset_of_a_period(self):
        """Every budget over more than two periods after the jump equals
        the interpreter's; the skipped cycles grow by one period exactly
        at the budgets the jump lands on."""
        budgets = range(3000, 2880, -1)
        plan, _ = _counter_runs(SUM_SOURCE, [NEVER], budgets, SUM_ARRAYS)
        assert plan.counter_skips == len(budgets) and plan.repeat_skips == 0
        skipped, before = {}, 0
        for budget in budgets:
            plan.skipped_cycles = 0
            plan.run([NEVER], dict(SUM_ARRAYS), max_cycles=budget)
            skipped[budget] = plan.skipped_cycles
        landings = sorted(b for b in skipped if b - 1 in skipped and skipped[b] > skipped[b - 1])
        period = landings[1] - landings[0]
        assert len(landings) >= 3 and period > 1
        assert all(skipped[b] - skipped[b - 1] == period for b in landings)
        assert all(later - earlier == period for earlier, later in zip(landings, landings[1:]))

    def test_loop_bound_inside_the_budget(self):
        """A bound the budget reaches: the jump stops before the exit
        test would change, and the run completes on the interpreter's
        cycle."""
        plan, results = _counter_runs(SUM_SOURCE, [5000], [100_000], SUM_ARRAYS)
        assert results[0].completed and plan.counter_skips == 1
        assert plan.skipped_cycles > 0.9 * results[0].cycles

    def test_decoded_loop_bound_inside_the_budget(self):
        """The ``constants`` stage obfuscates a literal loop bound: under
        the correct key and wrong keys whose decoded bound the budget
        reaches, the jumped runs complete as the interpreter's do, and
        one that decodes it far away runs to the cap."""
        source = SUM_SOURCE.replace("int n, ", "").replace("i < n", "i < 3000")
        component = TaoFlow(pipeline="constants").obfuscate(source, "f")
        design = component.design
        plan = CompiledDesign(design)
        correct = component.correct_working_key
        (bound,) = [c for c in design.obfuscated_constants if c.decode(correct) == 3000]
        flips = [1, 6, 1 << 12, 1 << 20]
        keys = [correct] + [correct ^ (flip << bound.key_offset) for flip in flips]
        completed_jumps = 0
        with mock.patch.multiple(compiled_module, **LOOP_AT_ONCE):
            for key in keys:
                before = plan.counter_skips
                compiled = plan.run([], dict(SUM_ARRAYS), working_key=key, max_cycles=60_000)
                interp = FsmdSimulator(design, max_cycles=60_000).run(
                    [], dict(SUM_ARRAYS), key
                )
                assert result_fields(compiled) == result_fields(interp), key
                completed_jumps += compiled.completed and plan.counter_skips > before
        assert completed_jumps == 4 and not compiled.completed

    @pytest.mark.parametrize("test, completes", [("i > 0", True), ("i != 0", False)])
    def test_int_counter_that_would_wrap(self, test, completes):
        """An ``int`` counter that passes 2^31 - 1 within the budget: the
        jump stops before the wrap, after which the loop exits or runs
        on to the cap."""
        source = f"""
        int f(int start) {{
          int i = start; int c = 0;
          while ({test}) {{ i = i + 7; c = c + 1; }}
          return c;
        }}
        """
        plan, results = _counter_runs(source, [(1 << 31) - 7 * 4000], [100_000])
        assert plan.counter_skips >= 1 + (not completes)
        assert results[0].completed == completes

    @pytest.mark.parametrize("narrow, step", [("char", 1), ("short", 100)])
    def test_narrow_counter_that_would_wrap(self, narrow, step):
        """A ``char`` or ``short`` counter wraps several times within the
        budget: each jump stops before a wrap, and later probes jump the
        next stretch."""
        source = f"""
        int f(int n) {{
          {narrow} i = 0; int s = 0;
          for (int c = 0; c < n; c++) {{ i = i + {step}; s = s + 2; }}
          return s + i;
        }}
        """
        plan, results = _counter_runs(source, [3000], [400_000])
        assert results[0].completed and plan.counter_skips >= 3

    @pytest.mark.parametrize("step", [3, 8])
    def test_counter_index_whose_step_the_length_does_not_divide(self, step):
        """A counter stepping by 3 indexes (and stores to) memories of 8
        and 6 words: a jump period brings the index back to its residue
        modulo both, so a period spans 24 iterations, or 24 by a step
        of 8."""
        source = f"""
        int f(int n, int a[8], int b[6]) {{
          int s = 0;
          for (int i = 0; i < n; i += {step}) {{ s = s + a[i]; b[i] = 5; }}
          return s + b[1];
        }}
        """
        plan, _ = _counter_runs(source, [NEVER], [30_000, 29_991], SUM_ARRAYS)
        plan2, results = _counter_runs(source, [25_000], [200_000], SUM_ARRAYS)
        assert results[0].completed
        assert plan.counter_skips == 2 and plan2.counter_skips == 1

    def test_counter_index_reaches_a_word_a_shorter_period_skips(self):
        """Every word but one of the memory is 0, so the loop's state
        repeats each iteration apart from its counters; a jump period
        must still bring the index back to its residue (64 iterations),
        so the loop reads the one large word and leaves as the
        interpreter's does."""
        source = """
        int f(int n, int a[64]) {
          int s = 0;
          for (int i = 0; i < n; i++) { s = s + 2; if (a[i] > 100) break; }
          return s;
        }
        """
        arrays = {"a": [0] * 60 + [500, 0, 0, 0]}
        plan, results = _counter_runs(source, [NEVER], [50_000], arrays)
        assert results[0].completed and results[0].return_value == 2 * 61

    def test_counter_as_shift_amount(self):
        """A counter read as a shift amount (modulo the width) and shifted
        by a fixed amount: a period brings the amount back to its
        residue, 32 iterations."""
        source = """
        int f(int n) {
          int s = 0; int t = 0; int u = 0;
          for (int i = 0; i < n; i++) { s = s + (1000 >> i); t = i << 3; u = 1 << i; }
          return s + t + u;
        }
        """
        plan, results = _counter_runs(source, [NEVER], [50_000])
        plan2, results2 = _counter_runs(source, [9_000], [100_000])
        assert plan.counter_skips and plan2.counter_skips and results2[0].completed

    @pytest.mark.parametrize("reach", [True, False])
    def test_equality_exits_a_jump_could_cross(self, reach):
        """``!=`` and ``==`` exits: a jump stops before the counter meets
        its bound when it will, and jumps over it when it steps past."""
        bound = 6000 if reach else 6001
        not_equal = """
        int f(int n) {
          int s = 0;
          for (int i = 0; i != n; i += 2) { s = s + 1; }
          return s;
        }
        """
        equal = """
        int f(int n) {
          int i = 0; int s = 0;
          while (1) { i = i + 2; s = s + 3; if (i == n) break; }
          return s;
        }
        """
        for source in (not_equal, equal):
            plan, results = _counter_runs(source, [bound], [50_000])
            assert results[0].completed == reach and plan.counter_skips

    def test_two_counters_with_different_steps(self):
        """Three counters that move by 1, 5 and -3 each iteration."""
        plan, results = _counter_runs(THREE_COUNTERS, [NEVER], [40_000])
        plan2, results2 = _counter_runs(THREE_COUNTERS, [7_000], [100_000])
        assert plan.counter_skips == plan2.counter_skips == 1
        assert results2[0].completed and results2[0].return_value == 7 + 5 * 7000 - 3 * 7000

    def test_loop_runs_a_two_phase_state(self):
        """A state that reads its own write (here ``j = mov t`` moved into
        the step that computes ``t = j + 5``) keeps the two-phase commit
        as one call inside the loop body, and the counters it moves,
        read before they commit, still jump."""
        design = hls_flow(compile_c(THREE_COUNTERS), "f")
        (block,) = [
            block
            for block in design.schedule.blocks.values()
            for inst in block.block.instructions
            if inst.opcode is Opcode.MOV and inst.result.name == "j" and block.n_steps > 1
        ]
        (move,) = [i for i in block.block.instructions if i.result is not None and i.result.name == "j"]
        block.cstep_of[move.uid] = 0
        plan, results = _counter_runs(design, [NEVER], [40_000, 39_999])
        plan2, results2 = _counter_runs(design, [7_000], [100_000])
        loops = [body for body in plan._chain_factories if "while True" in body]
        assert any(map(_CALL.search, "\n".join(loops).split("\n")))
        assert plan.counter_skips == 2 and plan2.counter_skips == 1 and results2[0].completed

    def test_doubling_counter_is_not_jumped(self, monkeypatch):
        """``x = x * 3`` is linear but moves by a different step each
        period.  A probe that reports every repeat of the watched state,
        however the counters moved, hands such periods to the
        confirmation, which refuses them all: two periods move ``x`` by
        different steps."""

        def eager(history, snap, cycles, counts, shortest):
            seen = history.setdefault(snap, {})
            for at, then in seen.items():
                if then != counts and cycles - at > shortest:
                    return cycles - at
            seen[cycles] = counts
            return 0

        refused = []
        counter_jump = CompiledDesign._counter_jump

        def tracked(plan, *args):
            result = counter_jump(plan, *args)
            refused.append(result[2] == 0)
            return result

        monkeypatch.setitem(compiled_module._OP_GLOBALS, "_repeat", eager)
        monkeypatch.setattr(CompiledDesign, "_counter_jump", tracked)
        source = """
        int f(int n) {
          int x = 1; int s = 0;
          for (int i = 0; i < n; i++) { x = x * 3; s = s + 1; }
          return x + s;
        }
        """
        plan, _ = _counter_runs(source, [NEVER], [20_000, 1_000])
        assert refused and all(refused) and plan.counter_skips == 0

    def test_changed_watched_register_is_not_jumped(self, monkeypatch):
        """A register outside the counters (``y`` toggles by xor) must
        repeat at each period start.  A probe that reports every visit
        to the loop's entry as a period, whatever it holds, hands the
        confirmation a one-iteration period, which it refuses, and then a
        two-iteration one, which it jumps."""

        def blind(history, snap, cycles, counts, shortest):
            first = history.setdefault("first", cycles)
            return cycles - first if cycles - first > shortest else 0

        refused = []
        counter_jump = CompiledDesign._counter_jump

        def tracked(plan, *args):
            result = counter_jump(plan, *args)
            refused.append(result[2] == 0)
            return result

        monkeypatch.setitem(compiled_module._OP_GLOBALS, "_repeat", blind)
        monkeypatch.setattr(CompiledDesign, "_counter_jump", tracked)
        source = """
        int f(int n) {
          int y = 0; int s = 0;
          for (int i = 0; i < n; i++) { y = y ^ 1; s = s + 2; }
          return y + s;
        }
        """
        plan, _ = _counter_runs(source, [NEVER], [20_001, 20_000])
        assert refused[0] and not all(refused) and plan.counter_skips

    @pytest.mark.parametrize("read", ["i / 1000", "i % 1000", "i & 1023", "i | 1024", "i ^ 1024", "i >> 10"])
    def test_nonlinear_read_keeps_the_counter_exact(self, read):
        """A counter read by division, remainder, and, or, xor or a right
        shift, where the read reaches a register the loop carries (``s =
        s + t``), is no counter: it must repeat exactly, so the loop takes
        no jump, and crossing the read's next step (a multiple of 1024)
        stays the interpreter's."""
        source = f"""
        int f(int n) {{
          int s = 0; int t = 0;
          for (int i = 0; i < n; i++) {{ t = {read}; s = s + t; }}
          return s + t;
        }}
        """
        plan, _ = _counter_runs(source, [NEVER], [30_000])
        assert plan.counter_skips == plan.repeat_skips == 0

    @pytest.mark.parametrize("read", ["i / 1000", "i >> 10", "i * i", "i - i"])
    def test_dead_nonlinear_read_jumps(self, read):
        """A nonlinear read whose value no op of the loop reads before the
        next period rewrites it (``t``, read only by the ``return`` after
        the exit) is dead: it costs the counter nothing, every run jumps,
        and a run that leaves the loop inside the budget returns the
        interpreter's ``t``."""
        source = f"""
        int f(int n) {{
          int s = 0; int t = 0;
          for (int i = 0; i < n; i++) {{ t = {read}; s = s + 2; }}
          return s + t;
        }}
        """
        budgets = [NEVER, 20_000, 40_000, 60_001]
        completed = 0
        for n in (3000, 4096, 5001, 12345):
            plan, results = _counter_runs(source, [n], budgets)
            assert plan.counter_skips == len(budgets), n
            completed += sum(result.completed for result in results)
        assert completed >= len(budgets)

    def test_register_left_out_of_the_snapshot_is_exact_at_an_early_exit(self):
        """A two-entry loop whose first entry may exit (``i == m``) before
        the second rewrites ``u``, which derives from a dead read and is
        returned after the exit: the loop leaves ``u`` out of its snapshot,
        so a jump bounded by the exit lands a period early and a whole
        period rewrites ``u`` before the exit the interpreter takes."""
        source = """
        int f(int n, int m) {
          int s = 0; int t = 0; int u = 0;
          for (int i = 0; i < n; i++) {
            if (i == m) break;
            t = i / 1000; u = t + 1;
            s = s + 2;
          }
          return s + u;
        }
        """
        budgets = [NEVER, 20_000, 40_000, 60_001]
        for args in ([NEVER, 3000], [NEVER, 4096], [5001, NEVER], [NEVER, 12345]):
            plan, results = _counter_runs(source, args, budgets)
            (loop,) = {id(loop): loop for loop in plan._loops if loop is not None}.values()
            assert len(loop.region) == 2 and loop.left_out
            assert plan.counter_skips == len(budgets), args
            assert results[0].completed

    def test_reads_by_dead_ops_keep_their_registers_live(self):
        """``u`` is dead in the loop, but the value it is computed from
        passes through ``r`` and ``q``, each written in another entry of
        the region, and ``s`` is read only by its own update.  Liveness
        counts every op's reads, so those registers stay in the snapshot
        and the read of ``i / 1000`` keeps its nonlinear taint: a
        landing one period short could not refresh a chain of stale
        values, and every result stays the interpreter's."""
        source = """
        int f(int n, int m, int k) {
          int s = 0; int q = 0; int r = 0; int u = 0;
          for (int i = 0; i < n; i++) {
            u = r + 1;
            if (i == m) break;
            r = q + 1;
            if (k > 0) { s = s + 2; }
            q = i / 1000;
          }
          return s + u;
        }
        """
        budgets = [NEVER, 20_000, 40_000, 60_001]
        for args in ([NEVER, 3000, 1], [NEVER, 4096, 1], [5001, NEVER, 1]):
            plan, results = _counter_runs(source, args, budgets)
            (loop,) = {id(loop): loop for loop in plan._loops if loop is not None}.values()
            assert len(loop.region) >= 3 and results[0].completed

    def test_store_of_a_self_cancelling_difference_keeps_the_counter(self):
        """``b[1] = i - i`` stores 0 whatever ``i`` holds, also when the two
        reads are distinct values bound to one register (left-edge
        sharing binds several values to one): the store costs the loop
        its counter no more than a constant store does, and it jumps."""
        source = """
        int f(int n, int k, int b[4]) {
          int s = 0;
          for (int i = 0; i < n; i++) { b[1] = i - k; s = s + 2; }
          return s + b[1];
        }
        """
        design = hls_flow(compile_c(source), "f")
        (sub,) = [
            inst
            for block in design.schedule.blocks.values()
            for inst in block.block.instructions
            if inst.opcode is Opcode.SUB
        ]
        counter, other = sub.operands
        twin = Variable(counter.type, "i.twin")
        design.binding.register_of[twin] = design.binding.register_of[counter]
        sub.replace_operand(other, twin)
        arrays = {"b": [7, 7, 7, 7]}
        plan, _ = _counter_runs(design, [NEVER, 0], [20_000, 19_999], arrays)
        plan2, results = _counter_runs(design, [5001, 0], [100_000], arrays)
        loops = [loop for loop in plan._loops if loop is not None]
        assert loops and all(loop.counters for loop in loops)
        assert plan.counter_skips == 2 and plan2.counter_skips == 1
        assert results[0].completed and results[0].arrays["b"] == [7, 0, 7, 7]

    def test_viterbi_loops_jump_past_dead_and_self_cancelling_values(self, monkeypatch):
        """On the memo parity cell's keys (viterbi ``default``, 4 keys,
        resistance-curve), two loop families take counter jumps on every
        try: the one-entry loop at state 93 (``for.body30``), whose arms
        store ``r44 - r44`` or compute a wrapping product that the next
        period reloads before reading, and the region (55, 68)
        (``for.body10``, ``for.end16``), whose wrapping shift the next
        period rewrites before reading."""
        tries: collections.Counter = collections.Counter()
        jumps: collections.Counter = collections.Counter()
        cancelling: set = set()
        counter_jump = CompiledDesign._counter_jump

        def tracked(plan, loop, *args):
            result = counter_jump(plan, loop, *args)
            tries[loop.region] += 1
            jumps[loop.region] += result[2] > 0
            if any(
                plan._cancels(op)
                for _, chain_steps in loop.steps
                for _, ops in chain_steps
                for _, op, _ in ops or ()
            ):
                cancelling.add(loop.region)
            return result

        monkeypatch.setattr(CompiledDesign, "_counter_jump", tracked)
        spec = CampaignSpec(
            benchmarks=("viterbi",), n_keys=4, attacks=("resistance-curve",)
        )
        execute_plan(plan_campaign(spec), ExecutionOptions(jobs=1, engine="compiled"))
        for region in ((93,), (55, 68)):
            assert tries[region] and jumps[region] == tries[region], region
        assert (93,) in cancelling

    def test_product_of_two_counters_keeps_the_loop_exact(self):
        """``i * i`` grows by a different step each period, so an exit
        that compares it must not be extrapolated: the loop takes no
        jump and leaves on the interpreter's cycle."""
        source = """
        int f(int n) {
          int s = 0;
          for (int i = 0; i < n; i++) { s = s + 2; if (i * i > 40000) break; }
          return s;
        }
        """
        plan, results = _counter_runs(source, [NEVER], [100_000])
        assert results[0].completed and plan.counter_skips == 0

    def test_stored_counter_keeps_the_loop_exact(self):
        """A loop that stores a counter value never repeats its memories:
        the counter rule leaves it exact-only and it takes no jump."""
        source = """
        int f(int n, int b[4]) {
          for (int i = 0; i < n; i++) { b[0] = i; }
          return b[0];
        }
        """
        plan, _ = _counter_runs(source, [NEVER], [20_000])
        loops = [loop for loop in plan._loops if loop is not None]
        assert loops and all(loop.counters == () for loop in loops)
        assert plan.counter_skips == plan.repeat_skips == 0

    def test_traced_run_takes_no_jump(self):
        """A traced run keeps its state trace: it takes no loop, so no
        jump, where the untraced run jumps."""
        plan, _ = _counter_runs(SUM_SOURCE, [NEVER], [20_000], SUM_ARRAYS)
        counters = (plan.loop_cycles, plan.counter_skips, plan.skipped_cycles)
        assert counters[1] == 1
        with mock.patch.multiple(compiled_module, **LOOP_AT_ONCE):
            design = plan.design
            compiled = plan.run([NEVER], dict(SUM_ARRAYS), max_cycles=20_000, trace=True)
            interp = FsmdSimulator(design, max_cycles=20_000, trace=True).run(
                [NEVER], dict(SUM_ARRAYS)
            )
        assert result_fields(compiled) == result_fields(interp)
        assert (plan.loop_cycles, plan.counter_skips, plan.skipped_cycles) == counters


SHORTENED_SOURCE = """
int f(int n) {
  int t[4] = {1, 2, 3, 4};
  int u[4] = {5, 6, 7, 8};
  int s = 0;
  for (int i = 0; i < n; i++) { t[i] = t[i] + u[i]; s += t[i + 1]; }
  return s;
}
"""


class TestStaticMemoryLengths:
    @pytest.mark.parametrize("provided", [None, {"t": [3, 1]}])
    @pytest.mark.parametrize("fuse_after", [1, compiled_module._FUSE_AFTER])
    def test_shortened_initializer_keeps_checked_access(
        self, provided, fuse_after, monkeypatch
    ):
        """An initializer shortened after HLS makes the image length
        depend on whether the run provides the array, so that memory
        keeps the checked access; a full-length one indexes with the
        array's size."""
        monkeypatch.setattr(compiled_module, "_FUSE_AFTER", fuse_after)
        design = hls_flow(compile_c(SHORTENED_SOURCE), "f")
        design.func.arrays["t"].initializer = [9]
        plan = CompiledDesign(design)
        assert plan._mem_lengths == {"u": 4}
        interp = FsmdSimulator(design, trace=True).run(
            [6], dict(provided) if provided else None
        )
        compiled = plan.run([6], dict(provided) if provided else None, trace=True)
        assert result_fields(compiled) == result_fields(interp)
        assert len(compiled.arrays["t"]) == (4 if provided else 1)

    def test_initializer_resized_after_lowering_fails_loudly(self):
        """A plan indexes a static memory modulo the length it had when
        it was lowered, so a run whose image of that memory has another
        length raises instead of indexing it wrong; a provided array is
        cut or padded to the array's size and still runs."""
        design = hls_flow(compile_c(SHORTENED_SOURCE), "f")
        plan = CompiledDesign(design)
        assert plan._mem_lengths == {"t": 4, "u": 4}
        design.func.arrays["u"].initializer = [5, 6]
        with pytest.raises(SimulationError, match="memory 'u' holds 2 words"):
            plan.run([3])
        provided = {"u": [1, 2, 3, 4, 5]}
        compiled = plan.run([3], dict(provided))
        interp = FsmdSimulator(design).run([3], dict(provided))
        assert result_fields(compiled) == result_fields(interp)
