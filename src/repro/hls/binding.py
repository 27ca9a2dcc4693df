"""Module, register and memory binding.

*Module binding* maps each scheduled datapath operation to a functional
unit instance; operations of the same FU kind in different csteps share
an instance (left-edge over csteps, per block, with instances shared
globally across blocks since only one block executes at a time).

*Register binding* maps every value to a physical register.  Named
variables and cross-block temps get dedicated registers; block-local
temps share registers via the left-edge algorithm on their cstep
lifetime intervals [Stok 1994], mirroring the paper's HLS model.

*Memory binding* gives each array a single-port RAM/ROM (or an external
interface for parameter arrays).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.hls.resources import FUKind, fu_kind_for
from repro.hls.scheduling import FunctionSchedule
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import IntType
from repro.ir.values import ArrayValue, Constant, ObfuscatedConstant, Temp, Value, Variable


@dataclass
class FUInstance:
    """A physical functional unit in the datapath.

    ``optypes`` starts as the set of opcodes the baseline executes on
    the unit; TAO's DFG-variant merging widens it.
    """

    kind: FUKind
    width: int
    index: int
    optypes: set[Opcode] = field(default_factory=set)

    @property
    def name(self) -> str:
        return f"{self.kind}_{self.width}_{self.index}"

    def __hash__(self) -> int:
        return hash((self.kind, self.width, self.index))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FUInstance)
            and other.kind is self.kind
            and other.width == self.width
            and other.index == self.index
        )


@dataclass
class Register:
    """A physical register holding one or more values over time."""

    name: str
    width: int
    values: set[Value] = field(default_factory=set)

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class MemoryBinding:
    """A bound memory: local RAM/ROM or external (parameter) interface."""

    array: ArrayValue
    is_external: bool
    is_rom: bool

    @property
    def bits(self) -> int:
        return self.array.size * self.array.element_type.width


@dataclass
class BindingResult:
    """Complete binding of a scheduled function."""

    fu_of: dict[int, FUInstance] = field(default_factory=dict)  # inst uid -> FU
    fus: list[FUInstance] = field(default_factory=list)
    register_of: dict[Value, Register] = field(default_factory=dict)
    registers: list[Register] = field(default_factory=list)
    memories: dict[str, MemoryBinding] = field(default_factory=dict)

    def fu_for(self, inst: Instruction) -> Optional[FUInstance]:
        return self.fu_of.get(inst.uid)


def bind_function(func: Function, schedule: FunctionSchedule) -> BindingResult:
    """Run module, register and memory binding on a scheduled function."""
    result = BindingResult()
    _bind_modules(func, schedule, result)
    _bind_registers(func, schedule, result)
    _bind_memories(func, result)
    return result


# ----------------------------------------------------------------------
# Module binding
# ----------------------------------------------------------------------
def _bind_modules(func: Function, schedule: FunctionSchedule, result: BindingResult) -> None:
    # Pool of instances per (kind, width); blocks execute one at a time,
    # so instances are shared across blocks freely.
    pools: dict[tuple[FUKind, int], list[FUInstance]] = {}
    for name, block_schedule in schedule.blocks.items():
        # Within a block, ops in the same cstep need distinct instances.
        for step_instructions in block_schedule.step_table():
            used_this_step: set[FUInstance] = set()
            for inst in step_instructions:
                if not inst.is_datapath_op:
                    continue
                kind = fu_kind_for(inst.opcode)
                assert kind is not None
                width = _op_width(inst)
                pool = pools.setdefault((kind, width), [])
                instance = next(
                    (fu for fu in pool if fu not in used_this_step), None
                )
                if instance is None:
                    instance = FUInstance(kind=kind, width=width, index=len(pool))
                    pool.append(instance)
                used_this_step.add(instance)
                instance.optypes.add(inst.opcode)
                result.fu_of[inst.uid] = instance
    result.fus = [fu for pool in pools.values() for fu in pool]


def _op_width(inst: Instruction) -> int:
    widths = [op.type.width for op in inst.operands if isinstance(op.type, IntType)]
    if inst.result is not None and isinstance(inst.result.type, IntType):
        widths.append(inst.result.type.width)
    return max(widths, default=32)


# ----------------------------------------------------------------------
# Register binding
# ----------------------------------------------------------------------
def _bind_registers(func: Function, schedule: FunctionSchedule, result: BindingResult) -> None:
    counter = itertools.count()
    # Classify temps: block-local (def and all uses in one block) vs global.
    def_block: dict[Value, set[str]] = {}
    use_block: dict[Value, set[str]] = {}
    for name, block_schedule in schedule.blocks.items():
        for inst in block_schedule.block.instructions:
            if inst.result is not None:
                def_block.setdefault(inst.result, set()).add(name)
            for operand in inst.operands:
                if isinstance(operand, (Temp, Variable)):
                    use_block.setdefault(operand, set()).add(name)

    dedicated: set[Value] = set()
    for value in set(def_block) | set(use_block):
        if isinstance(value, Variable):
            dedicated.add(value)
        else:
            blocks = def_block.get(value, set()) | use_block.get(value, set())
            if len(blocks) > 1:
                dedicated.add(value)
    for param in func.scalar_params():
        dedicated.add(param)

    for value in sorted(dedicated, key=lambda v: v.name):
        assert isinstance(value.type, IntType)
        register = Register(name=f"r_{value.name}", width=value.type.width)
        register.values.add(value)
        result.register_of[value] = register
        result.registers.append(register)

    # Left-edge sharing for block-local temps, per width class.
    for name, block_schedule in schedule.blocks.items():
        intervals: list[tuple[int, int, Value]] = []
        last_use: dict[Value, int] = {}
        def_step: dict[Value, int] = {}
        for inst in block_schedule.block.instructions:
            step = block_schedule.cstep_of[inst.uid]
            for operand in inst.operands:
                if isinstance(operand, Temp) and operand not in dedicated:
                    last_use[operand] = max(last_use.get(operand, 0), step)
            if (
                inst.result is not None
                and isinstance(inst.result, Temp)
                and inst.result not in dedicated
                and inst.result not in def_step
            ):
                def_step[inst.result] = step
        for value, start in def_step.items():
            end = max(last_use.get(value, start), start)
            intervals.append((start, end, value))
        # Ties keep definition order (the sort is stable): temp names
        # come from a process-wide counter, so ordering by name would
        # make the sharing depend on what the process built before.
        intervals.sort(key=lambda t: (t[0], t[1]))
        # Free registers per width, keyed by the cstep they free up after.
        active: list[tuple[int, Register]] = []  # (end, register)
        for start, end, value in intervals:
            assert isinstance(value.type, IntType)
            width = value.type.width
            register = None
            for i, (busy_until, candidate) in enumerate(active):
                if busy_until < start and candidate.width == width:
                    register = candidate
                    active.pop(i)
                    break
            if register is None:
                register = Register(name=f"s{next(counter)}_{width}", width=width)
                result.registers.append(register)
            register.values.add(value)
            result.register_of[value] = register
            active.append((end, register))


# ----------------------------------------------------------------------
# Memory binding
# ----------------------------------------------------------------------
def _bind_memories(func: Function, result: BindingResult) -> None:
    written: set[str] = set()
    for inst in func.instructions():
        if inst.opcode is Opcode.STORE and inst.array is not None:
            written.add(inst.array.name)
    for array in func.arrays.values():
        result.memories[array.name] = MemoryBinding(
            array=array,
            is_external=array.is_param,
            is_rom=(
                not array.is_param
                and array.name not in written
                and array.initializer is not None
            ),
        )
