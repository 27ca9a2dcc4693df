"""Unit tests for scheduling: ASAP, ALAP, list scheduling invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from fuzz_programs import ProgramGenerator
from repro.benchsuite import benchmark_names, get_benchmark
from repro.frontend import compile_c
from repro.hls.resources import FUKind, ResourceConstraints, fu_kind_for
from repro.hls.scheduling import (
    alap_schedule,
    asap_schedule,
    list_schedule_block,
    schedule_function,
    validate_schedule,
)
from repro.ir.dfg import DataFlowGraph
from repro.ir.instructions import Opcode
from repro.runtime.campaign import budget_constraints
from repro.tao import TaoFlow


def function_of(source, name=None):
    module = compile_c(source)
    if name is None:
        name = next(iter(module.functions))
    return module.function(name)


CHAIN = """
int f(int a) {
  int b = a + 1;
  int c = b * 2;
  int d = c - 3;
  return d;
}
"""

WIDE = """
int f(int a, int b, int c, int d) {
  int p = a * b;
  int q = c * d;
  int r = a * c;
  int s = b * d;
  return p + q + r + s;
}
"""


class TestAsapAlap:
    def test_asap_chain_is_sequential(self):
        func = function_of(CHAIN)
        block = func.entry
        dfg = DataFlowGraph(block)
        steps = asap_schedule(dfg)
        values = sorted(steps.values())
        assert values == list(range(len(values)))

    def test_alap_within_horizon(self):
        func = function_of(WIDE)
        dfg = DataFlowGraph(func.entry)
        asap = asap_schedule(dfg)
        horizon = max(asap.values()) + 1
        alap = alap_schedule(dfg, horizon)
        for node in dfg.nodes:
            assert asap[node] <= alap[node] < horizon

    def test_alap_respects_dependences(self):
        func = function_of(WIDE)
        dfg = DataFlowGraph(func.entry)
        alap = alap_schedule(dfg)
        for src, dst in dfg.edges():
            assert alap[src] < alap[dst]


class TestListScheduling:
    def test_dependences_strictly_ordered(self):
        func = function_of(WIDE)
        block_schedule = list_schedule_block(func.entry, ResourceConstraints())
        dfg = DataFlowGraph(func.entry)
        for src, dst in dfg.edges():
            assert (
                block_schedule.cstep_of[src.inst.uid]
                < block_schedule.cstep_of[dst.inst.uid]
            )

    def test_resource_limit_respected(self):
        constraints = ResourceConstraints()
        constraints.limits[FUKind.MUL] = 1
        func = function_of(WIDE)
        block_schedule = list_schedule_block(func.entry, constraints)
        for step in range(block_schedule.n_steps):
            muls = [
                i
                for i in block_schedule.instructions_at(step)
                if fu_kind_for(i.opcode) is FUKind.MUL
            ]
            assert len(muls) <= 1

    def test_more_resources_not_slower(self):
        tight = ResourceConstraints()
        tight.limits[FUKind.MUL] = 1
        loose = ResourceConstraints()
        loose.limits[FUKind.MUL] = 4
        func_a = function_of(WIDE)
        func_b = function_of(WIDE)
        tight_steps = list_schedule_block(func_a.entry, tight).n_steps
        loose_steps = list_schedule_block(func_b.entry, loose).n_steps
        assert loose_steps <= tight_steps

    def test_memory_port_constraint(self):
        source = """
        int f(int a[8]) {
          return a[0] + a[1] + a[2] + a[3];
        }
        """
        func = function_of(source)
        block_schedule = list_schedule_block(func.entry, ResourceConstraints())
        from repro.ir.instructions import Opcode

        for step in range(block_schedule.n_steps):
            loads = [
                i
                for i in block_schedule.instructions_at(step)
                if i.opcode is Opcode.LOAD
            ]
            assert len(loads) <= 1  # single-ported memory

    def test_shared_memory_port_serializes_across_arrays(self):
        source = """
        int f(int a[4], int b[4]) {
          return a[0] + b[0];
        }
        """
        func = function_of(source)
        from repro.ir.instructions import Opcode

        def max_loads_per_step(constraints):
            block_schedule = list_schedule_block(func.entry, constraints)
            return max(
                sum(
                    1
                    for i in block_schedule.instructions_at(step)
                    if i.opcode is Opcode.LOAD
                )
                for step in range(block_schedule.n_steps)
            )

        # Per-array ports: one load from each array may overlap.
        assert max_loads_per_step(ResourceConstraints()) == 2
        # One shared memory subsystem: all array traffic serializes.
        shared = ResourceConstraints(shared_memory_port=True)
        assert max_loads_per_step(shared) == 1
        schedule = schedule_function(func, shared)
        validate_schedule(schedule)

    def test_terminator_in_final_step(self):
        func = function_of(CHAIN)
        block_schedule = list_schedule_block(func.entry, ResourceConstraints())
        term = func.entry.terminator
        assert block_schedule.cstep_of[term.uid] == block_schedule.n_steps - 1

    def test_empty_block_single_state(self):
        source = "void f() { }"
        func = function_of(source)
        block_schedule = list_schedule_block(func.entry, ResourceConstraints())
        assert block_schedule.n_steps == 1


class TestFunctionSchedule:
    def test_all_blocks_scheduled(self):
        source = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
        func = function_of(source)
        schedule = schedule_function(func)
        assert set(schedule.blocks) == set(func.blocks)
        validate_schedule(schedule)

    def test_total_steps_positive(self):
        func = function_of(CHAIN)
        schedule = schedule_function(func)
        assert schedule.total_steps >= 4

    def test_validate_rejects_corrupt_schedule(self):
        func = function_of(CHAIN)
        schedule = schedule_function(func)
        block_schedule = schedule.blocks[func.entry.name]
        first = func.entry.instructions[0]
        second = func.entry.instructions[1]
        block_schedule.cstep_of[second.uid] = block_schedule.cstep_of[first.uid]
        with pytest.raises(ValueError):
            validate_schedule(schedule)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_property_schedule_valid_under_any_constraints(mul_limit, add_limit):
    """Property: list scheduling is correct for any resource budget."""
    constraints = ResourceConstraints()
    constraints.limits[FUKind.MUL] = mul_limit
    constraints.limits[FUKind.ADDSUB] = add_limit
    func = function_of(WIDE)
    schedule = schedule_function(func, constraints)
    validate_schedule(schedule)


def rescan_list_schedule(block, constraints):
    """The list scheduler as it was before ready counts: every cstep
    rescans each unscheduled node and all of its predecessors.  Kept as
    the reference the ready-count scheduler must match exactly."""
    dfg = DataFlowGraph(block)
    if not dfg.nodes:
        return {}, 1
    alap = alap_schedule(dfg)
    unscheduled = set(dfg.nodes)
    scheduled_step = {}
    step = 0
    terminator = block.terminator
    while unscheduled:
        fu_used = {}
        ports_used = {}
        ready = sorted(
            (
                node
                for node in unscheduled
                if all(
                    p in scheduled_step and scheduled_step[p] < step
                    for p in node.preds
                )
            ),
            key=lambda n: (alap[n], n.index),
        )
        for node in ready:
            inst = node.inst
            if terminator is not None and inst is terminator and len(unscheduled) > 1:
                continue
            kind = fu_kind_for(inst.opcode) if inst.is_datapath_op else None
            if kind is not None:
                limit = constraints.limit(kind)
                if limit is not None and fu_used.get(kind, 0) >= limit:
                    continue
            if inst.opcode in (Opcode.LOAD, Opcode.STORE):
                port = "" if constraints.shared_memory_port else inst.array.name
                if ports_used.get(port, 0) >= constraints.memory_ports:
                    continue
                ports_used[port] = ports_used.get(port, 0) + 1
            if kind is not None:
                fu_used[kind] = fu_used.get(kind, 0) + 1
            scheduled_step[node] = step
            unscheduled.discard(node)
        step += 1
    n_steps = max(scheduled_step.values()) + 1
    if terminator is not None:
        term_node = next(n for n in dfg.nodes if n.inst is terminator)
        scheduled_step[term_node] = n_steps - 1
    return {node.inst.uid: s for node, s in scheduled_step.items()}, n_steps


#: The budgets the equivalence runs under: the campaign's ``default``,
#: ``tight`` and ``mem-tight`` presets, and a shared memory port with
#: the default limits.
BUDGETS = {
    "default": lambda: budget_constraints("default"),
    "tight": lambda: budget_constraints("tight"),
    "mem-tight": lambda: budget_constraints("mem-tight"),
    "shared-port": lambda: ResourceConstraints(shared_memory_port=True),
}


def assert_matches_rescan(func, constraints):
    constraints = constraints or ResourceConstraints()
    for block in func.blocks.values():
        block_schedule = list_schedule_block(block, constraints)
        cstep_of, n_steps = rescan_list_schedule(block, constraints)
        assert block_schedule.cstep_of == cstep_of, block.name
        assert block_schedule.n_steps == n_steps, block.name


class TestReadyCountsMatchRescan:
    """The ready-count scheduler places every node where the per-cstep
    rescan does, on the HLS inputs the campaigns build."""

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("kernel", benchmark_names())
    def test_kernels(self, kernel, budget):
        bench = get_benchmark(kernel)
        flow = TaoFlow(constraints=BUDGETS[budget]())
        baseline = flow.compile_front_end(bench.source)
        assert_matches_rescan(baseline.function(bench.top), flow.constraints)
        # The obfuscated front end (constants, branches) schedules too.
        component = flow.obfuscate(bench.source, bench.top)
        assert_matches_rescan(component.design.func, flow.constraints)

    @pytest.mark.parametrize("seed", range(52))
    def test_fuzz_programs(self, seed):
        generator = ProgramGenerator(seed)
        source = generator.counted_program() if seed % 4 == 3 else generator.program()
        module = TaoFlow().compile_front_end(source)
        for budget in ("default", "tight", "mem-tight"):
            assert_matches_rescan(module.function("fuzz"), BUDGETS[budget]())
