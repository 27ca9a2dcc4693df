"""Unit tests for module, register and memory binding."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.frontend import compile_c
from repro.hls.binding import bind_function
from repro.hls.resources import FUKind, ResourceConstraints
from repro.hls.scheduling import schedule_function
from repro.ir.instructions import Opcode


def bind(source, name=None, constraints=None):
    module = compile_c(source)
    if name is None:
        name = next(iter(module.functions))
    func = module.function(name)
    schedule = schedule_function(func, constraints)
    return func, schedule, bind_function(func, schedule)


WIDE = """
int f(int a, int b, int c, int d) {
  int p = a * b;
  int q = c * d;
  return p + q;
}
"""


#: Prints the register sharing of the last benchmark named in argv,
#: each built under ``full`` in order, with every temp given as the
#: (block, instruction index) that defines it.
SHARING_PROBE = """
import json, sys
from repro.benchsuite import get_benchmark
from repro.ir.values import Temp
from repro.tao.flow import TaoFlow

for name in sys.argv[1:]:
    bench = get_benchmark(name)
    design = TaoFlow(pipeline="full").obfuscate(bench.source, bench.top).design
site = {}
for block_name, block in design.func.blocks.items():
    for index, inst in enumerate(block.instructions):
        if isinstance(inst.result, Temp):
            site.setdefault(inst.result, [block_name, index])
print(json.dumps(sorted(
    sorted(site.get(value, [value.name]) for value in register.values)
    for register in design.binding.registers
)))
"""


class TestModuleBinding:
    def test_every_datapath_op_bound(self):
        func, schedule, binding = bind(WIDE)
        for inst in func.instructions():
            if inst.is_datapath_op:
                assert binding.fu_for(inst) is not None

    def test_same_cstep_ops_use_distinct_fus(self):
        func, schedule, binding = bind(WIDE)
        for block_schedule in schedule.blocks.values():
            for step in range(block_schedule.n_steps):
                used = []
                for inst in block_schedule.instructions_at(step):
                    fu = binding.fu_for(inst)
                    if fu is not None:
                        assert fu not in used
                        used.append(fu)

    def test_fus_shared_across_steps(self):
        constraints = ResourceConstraints()
        constraints.limits[FUKind.MUL] = 1
        func, schedule, binding = bind(WIDE, constraints=constraints)
        muls = [fu for fu in binding.fus if fu.kind is FUKind.MUL]
        assert len(muls) == 1  # both multiplies share one unit

    def test_optypes_recorded(self):
        func, schedule, binding = bind("int f(int a, int b) { return a - b; }")
        sub_fus = [fu for fu in binding.fus if Opcode.SUB in fu.optypes]
        assert sub_fus

    def test_moves_not_bound(self):
        func, schedule, binding = bind("int f(int a) { int b = a; return b; }")
        for inst in func.instructions():
            if inst.opcode is Opcode.MOV:
                assert binding.fu_for(inst) is None


class TestRegisterBinding:
    def test_every_defined_value_has_register(self):
        func, schedule, binding = bind(WIDE)
        for inst in func.instructions():
            if inst.result is not None:
                assert inst.result in binding.register_of

    def test_params_have_registers(self):
        func, schedule, binding = bind(WIDE)
        for param in func.scalar_params():
            assert param in binding.register_of

    def test_register_width_matches_value(self):
        func, schedule, binding = bind(WIDE)
        for value, register in binding.register_of.items():
            assert register.width == value.type.width

    def test_block_local_temps_can_share(self):
        # Two temps with disjoint lifetimes should share one register.
        source = """
        int f(int a) {
          int x = (a + 1) * 2;
          int y = (a + 5) * 3;
          return x + y;
        }
        """
        func, schedule, binding = bind(source)
        registers = set(binding.register_of.values())
        values = set(binding.register_of.keys())
        assert len(registers) <= len(values)

    def test_no_lifetime_overlap_within_shared_register(self):
        func, schedule, binding = bind(WIDE)
        for block_schedule in schedule.blocks.values():
            # For each register, collect [def, last-use] intervals of its
            # block-local values and assert pairwise disjointness.
            intervals = {}
            for inst in block_schedule.block.instructions:
                step = block_schedule.cstep_of[inst.uid]
                if inst.result is not None:
                    register = binding.register_of[inst.result]
                    intervals.setdefault(register.name, {}).setdefault(
                        inst.result, [step, step]
                    )
                for operand in inst.operands:
                    if operand in binding.register_of:
                        register = binding.register_of[operand]
                        entry = intervals.get(register.name, {}).get(operand)
                        if entry is not None:
                            entry[1] = max(entry[1], step)
            for register_name, per_value in intervals.items():
                spans = sorted(per_value.values())
                for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                    assert e1 <= s2 or e2 <= s1 or (s1, e1) == (s2, e2)


class TestHistoryIndependence:
    def test_sharing_does_not_depend_on_earlier_builds(self):
        """Temp names come from a process-wide counter, so left-edge
        ties must not break on them: sobel under ``full`` shares the
        same values per register whether it is the first design its
        process builds or follows gsm."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def sharing(*benchmarks):
            return subprocess.run(
                [sys.executable, "-c", SHARING_PROBE, *benchmarks],
                env=env, check=True, capture_output=True, text=True,
            ).stdout

        first = sharing("sobel")
        assert first.startswith("[[")
        assert first == sharing("gsm", "sobel")


class TestMemoryBinding:
    def test_param_arrays_external(self):
        func, schedule, binding = bind(
            "int f(int a[4]) { return a[0]; }"
        )
        assert binding.memories["a"].is_external

    def test_local_array_internal(self):
        func, schedule, binding = bind(
            "int f() { int buf[4]; buf[0] = 1; return buf[0]; }"
        )
        memory = next(m for n, m in binding.memories.items() if n.startswith("buf"))
        assert not memory.is_external
        assert not memory.is_rom

    def test_const_initialized_unwritten_is_rom(self):
        func, schedule, binding = bind(
            """
            int f(int i) {
              int rom[4] = {1, 2, 3, 4};
              return rom[i];
            }
            """
        )
        memory = next(m for n, m in binding.memories.items() if n.startswith("rom"))
        assert memory.is_rom

    def test_bits_accounting(self):
        func, schedule, binding = bind("int f(int a[8]) { return a[0]; }")
        assert binding.memories["a"].bits == 8 * 32
