"""IR interpreter: the golden software execution model.

Executes a module's IR directly, producing reference outputs against
which the FSMD RTL simulation is checked (the paper compares RTL
simulations "against the respective executions of the input
specification in software", §4.1).

Execution semantics match the hardware: all arithmetic wraps at the
result type's width, division by zero yields 0, and out-of-range array
indices wrap modulo the array size (hardware address truncation).

Each :meth:`Interpreter.run` decodes a block the first time it enters
it, so no instruction is dispatched on its opcode, or operand on its
kind, more than once per run:

* every operand reads as ``env.get(key, default)``: a value is its own
  key with default 0 (an uninitialized register reads 0); a constant,
  or an obfuscated constant's design-time plaintext, is the default of
  a key that is never bound;
* LOAD and STORE carry their memory's name and element wrap;
* a datapath op carries its operation from
  :data:`repro.opt.constant_folding.OPERATIONS`, its operand types and
  its result type.  That table, behind ``evaluate_op``, is the only
  definition of the IR's arithmetic; the golden reference never runs
  the engines' lowering (``repro.sim.layout``), so it stays independent
  of the engines it checks.

A decoded block is a list of runs, each a step count, its ops and an
optional tail instruction (a CALL, or an op the table cannot evaluate,
which raises).  The step budget is charged a run at a time, which
raises exactly where charging each instruction would.  Decoded blocks
live only as long as their run: a module changed between two runs is
decoded afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import IntType
from repro.ir.values import Constant, ObfuscatedConstant, Value
from repro.opt.constant_folding import OPERATIONS


class InterpreterError(Exception):
    """Raised on malformed IR or runtime limits."""


@dataclass
class ExecutionResult:
    """Outcome of interpreting one function call.

    Attributes:
        return_value: The function's return value (None for void).
        arrays: Final contents of every array, by name.
        instructions_executed: Dynamic instruction count.
        block_trace: Sequence of basic-block names executed.
    """

    return_value: Optional[int]
    arrays: dict[str, list[int]]
    instructions_executed: int
    block_trace: list[str] = field(default_factory=list)


class Interpreter:
    """Interprets IR functions with bounded step counts."""

    def __init__(self, module: Module, max_steps: int = 5_000_000) -> None:
        self.module = module
        self.max_steps = max_steps
        self._steps = 0

    def run(
        self,
        func_name: str,
        args: Sequence[int] = (),
        arrays: Optional[dict[str, list[int]]] = None,
        trace_blocks: bool = False,
    ) -> ExecutionResult:
        """Execute ``func_name`` with scalar ``args`` and array contents."""
        self._steps = 0
        func = self.module.get(func_name)
        if func is None:
            raise InterpreterError(f"no function {func_name!r}")
        memories = self._initial_memories(func, arrays)
        trace: list[str] = []
        value = self._call(
            func, list(args), memories, trace if trace_blocks else None, {}
        )
        return ExecutionResult(
            return_value=value,
            arrays=memories,
            instructions_executed=self._steps,
            block_trace=trace,
        )

    # ------------------------------------------------------------------
    def _initial_memories(
        self, func: Function, arrays: Optional[dict[str, list[int]]]
    ) -> dict[str, list[int]]:
        memories: dict[str, list[int]] = {}
        for array in func.arrays.values():
            if arrays is not None and array.name in arrays:
                provided = list(arrays[array.name])
                if len(provided) < array.size:
                    provided += [0] * (array.size - len(provided))
                memories[array.name] = [
                    array.element_type.wrap(v) for v in provided[: array.size]
                ]
            elif array.initializer is not None:
                memories[array.name] = [
                    array.element_type.wrap(v) for v in array.initializer
                ]
            else:
                memories[array.name] = [0] * array.size
        return memories

    def _call(
        self,
        func: Function,
        args: list[int],
        memories: dict[str, list[int]],
        trace: Optional[list[str]],
        decoded: dict[str, dict[str, tuple]],
    ) -> Optional[int]:
        env: dict[Value, int] = {}
        scalar_params = func.scalar_params()
        if len(args) != len(scalar_params):
            raise InterpreterError(
                f"{func.name} expects {len(scalar_params)} scalar args, "
                f"got {len(args)}"
            )
        for param, arg in zip(scalar_params, args):
            assert isinstance(param.type, IntType)
            env[param] = param.type.wrap(arg)
        blocks = decoded.setdefault(func.name, {})
        entry = func.entry
        block = blocks.get(entry.name)
        if block is None:
            block = blocks[entry.name] = _decode_block(entry)
        max_steps = self.max_steps
        while True:
            name, runs, exit_kind, exit_operand, then_name, else_name = block
            if trace is not None:
                trace.append(name)
            for count, ops, tail in runs:
                self._steps += count
                if self._steps > max_steps:
                    raise InterpreterError(
                        f"exceeded {max_steps} steps in {func.name} "
                        "(runaway loop from obfuscated bounds?)"
                    )
                for op in ops:
                    op(env, memories)
                if tail is not None:
                    self._execute_tail(tail, env, memories, trace, decoded)
            if exit_kind is Opcode.JUMP:
                target = then_name
            elif exit_kind is Opcode.BRANCH:
                target = then_name if env.get(*exit_operand) else else_name
            elif exit_kind is Opcode.RET:
                return None if exit_operand is None else env.get(*exit_operand)
            else:
                raise InterpreterError(f"block {name} fell through")
            block = blocks.get(target)
            if block is None:
                block = blocks[target] = _decode_block(func.blocks[target])

    def _execute_tail(
        self,
        inst: Instruction,
        env: dict[Value, int],
        memories: dict[str, list[int]],
        trace: Optional[list[str]],
        decoded: dict[str, dict[str, tuple]],
    ) -> None:
        if inst.opcode is not Opcode.CALL:
            raise InterpreterError(f"cannot evaluate {inst}")
        callee = self.module.get(inst.callee or "")
        if callee is None:
            raise InterpreterError(f"call to unknown function {inst.callee!r}")
        args = [env.get(*_operand(v)) for v in inst.operands]
        # Build callee memory view: bound arrays alias the caller's.
        callee_memories: dict[str, list[int]] = {}
        for array in callee.arrays.values():
            if array.is_param:
                bound = inst.array_args.get(array.name)
                if bound is None:
                    raise InterpreterError(
                        f"call to {callee.name!r}: array {array.name!r} unbound"
                    )
                callee_memories[array.name] = memories[bound.name]
            elif array.initializer is not None:
                callee_memories[array.name] = [
                    array.element_type.wrap(v) for v in array.initializer
                ]
            else:
                callee_memories[array.name] = [0] * array.size
        value = self._call(callee, args, callee_memories, trace, decoded)
        if inst.result is not None:
            assert isinstance(inst.result.type, IntType)
            env[inst.result] = inst.result.type.wrap(value or 0)


#: The key of every operand that reads as its default: never bound.
_UNBOUND = object()


def _operand(value: Value) -> tuple[object, int]:
    """``(key, default)`` such that ``env.get(key, default)`` reads it."""
    if isinstance(value, ObfuscatedConstant):
        # Golden semantics: the design-time plaintext constant.
        return _UNBOUND, value.original.value
    if isinstance(value, Constant):
        return _UNBOUND, value.value
    return value, 0


def _decode_block(block: BasicBlock) -> tuple:
    """Decode ``block`` for one run.

    The result is ``(name, runs, exit_kind, exit_operand, then_name,
    else_name)``: ``exit_kind`` is the terminator's opcode (None when
    the block falls through), ``exit_operand`` the BRANCH condition or
    the RET value, if any, as ``(key, default)``.  Instructions after
    the first terminator never run and are not decoded.
    """
    runs: list[tuple[int, list, Optional[Instruction]]] = []
    ops: list = []
    count = 0
    exit_kind: Optional[Opcode] = None
    exit_operand: Optional[tuple[object, int]] = None
    then_name = else_name = None
    for inst in block.instructions:
        count += 1
        opcode = inst.opcode
        if opcode is Opcode.JUMP:
            exit_kind, then_name = opcode, inst.targets[0]
            break
        if opcode is Opcode.BRANCH:
            exit_kind, exit_operand = opcode, _operand(inst.operands[0])
            then_name, else_name = inst.targets
            break
        if opcode is Opcode.RET:
            exit_kind = opcode
            if inst.operands:
                exit_operand = _operand(inst.operands[0])
            break
        op = _decode_op(inst)
        if op is None:
            runs.append((count, ops, inst))
            ops, count = [], 0
        else:
            ops.append(op)
    runs.append((count, ops, None))
    return (block.name, runs, exit_kind, exit_operand, then_name, else_name)


def _decode_op(inst: Instruction):
    """A closure ``op(env, memories)`` running ``inst``, or None when the
    interpreter must run it itself: a CALL, or an op it cannot evaluate
    (an opcode without an operation, or neither one nor two operands)."""
    opcode = inst.opcode
    if opcode is Opcode.LOAD:
        assert inst.array is not None and inst.result is not None
        name, result = inst.array.name, inst.result
        index_key, index_default = _operand(inst.operands[0])

        def load(env: dict, memories: dict) -> None:
            memory = memories[name]
            env[result] = memory[env.get(index_key, index_default) % len(memory)]

        return load
    if opcode is Opcode.STORE:
        assert inst.array is not None
        name, wrap = inst.array.name, inst.array.element_type.wrap
        index_key, index_default = _operand(inst.operands[0])
        value_key, value_default = _operand(inst.operands[1])

        def store(env: dict, memories: dict) -> None:
            memory = memories[name]
            memory[env.get(index_key, index_default) % len(memory)] = wrap(
                env.get(value_key, value_default)
            )

        return store
    operation = OPERATIONS.get(opcode)
    if operation is None:
        return None
    assert inst.result is not None
    result, result_type = inst.result, inst.result.type
    assert isinstance(result_type, IntType)
    wrap = result_type.wrap
    types = [v.type for v in inst.operands]
    operands = [_operand(v) for v in inst.operands]
    if len(operands) == 1:
        ((a_key, a_default),) = operands

        def unary(env: dict, memories: dict) -> None:
            env[result] = wrap(
                operation([env.get(a_key, a_default)], types, result_type)
            )

        return unary
    if len(operands) != 2:
        return None
    (a_key, a_default), (b_key, b_default) = operands

    def binary(env: dict, memories: dict) -> None:
        env[result] = wrap(
            operation(
                [env.get(a_key, a_default), env.get(b_key, b_default)],
                types,
                result_type,
            )
        )

    return binary


def run_function(
    module: Module,
    func_name: str,
    args: Sequence[int] = (),
    arrays: Optional[dict[str, list[int]]] = None,
) -> ExecutionResult:
    """Convenience wrapper: interpret ``func_name`` in ``module``."""
    return Interpreter(module).run(func_name, args, arrays)
