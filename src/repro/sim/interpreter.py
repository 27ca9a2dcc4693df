"""IR interpreter: the golden software execution model.

Executes a module's IR directly, producing reference outputs against
which the FSMD RTL simulation is checked (the paper compares RTL
simulations "against the respective executions of the input
specification in software", §4.1).

Execution semantics match the hardware: all arithmetic wraps at the
result type's width, division by zero yields 0, and out-of-range array
indices wrap modulo the array size (hardware address truncation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import IntType
from repro.ir.values import ArrayValue, Constant, ObfuscatedConstant, Value
from repro.opt.constant_folding import evaluate_op


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
        value = self._call(func, list(args), memories, trace if trace_blocks else None)
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
        block = func.entry
        while True:
            if trace is not None:
                trace.append(block.name)
            next_block: Optional[str] = None
            for inst in block.instructions:
                self._steps += 1
                if self._steps > self.max_steps:
                    raise InterpreterError(
                        f"exceeded {self.max_steps} steps in {func.name} "
                        "(runaway loop from obfuscated bounds?)"
                    )
                outcome = self._execute(func, inst, env, memories, trace)
                if outcome is _RETURN:
                    return env.get(_RETURN_SLOT)
                if isinstance(outcome, str):
                    next_block = outcome
                    break
            if next_block is None:
                raise InterpreterError(f"block {block.name} fell through")
            block = func.blocks[next_block]

    def _execute(
        self,
        func: Function,
        inst: Instruction,
        env: dict[Value, int],
        memories: dict[str, list[int]],
        trace: Optional[list[str]],
    ):
        op = inst.opcode
        if op is Opcode.JUMP:
            return inst.targets[0]
        if op is Opcode.BRANCH:
            cond = self._read(inst.operands[0], env)
            return inst.targets[0] if cond else inst.targets[1]
        if op is Opcode.RET:
            if inst.operands:
                env[_RETURN_SLOT] = self._read(inst.operands[0], env)
            else:
                env.pop(_RETURN_SLOT, None)
            return _RETURN
        if op is Opcode.LOAD:
            assert inst.array is not None and inst.result is not None
            memory = memories[inst.array.name]
            index = self._read(inst.operands[0], env) % len(memory)
            env[inst.result] = memory[index]
            return None
        if op is Opcode.STORE:
            assert inst.array is not None
            memory = memories[inst.array.name]
            index = self._read(inst.operands[0], env) % len(memory)
            value = self._read(inst.operands[1], env)
            memory[index] = inst.array.element_type.wrap(value)
            return None
        if op is Opcode.CALL:
            return self._execute_call(inst, env, memories, trace)
        # Datapath operation.
        assert inst.result is not None
        result_type = inst.result.type
        assert isinstance(result_type, IntType)
        operand_values = [self._read(v, env) for v in inst.operands]
        operand_types = [v.type for v in inst.operands]
        value = evaluate_op(op, operand_values, operand_types, result_type)  # type: ignore[arg-type]
        if value is None:
            raise InterpreterError(f"cannot evaluate {inst}")
        env[inst.result] = value
        return None

    def _execute_call(
        self,
        inst: Instruction,
        env: dict[Value, int],
        memories: dict[str, list[int]],
        trace: Optional[list[str]],
    ):
        callee = self.module.get(inst.callee or "")
        if callee is None:
            raise InterpreterError(f"call to unknown function {inst.callee!r}")
        args = [self._read(v, env) for v in inst.operands]
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
        value = self._call(callee, args, callee_memories, trace)
        if inst.result is not None:
            assert isinstance(inst.result.type, IntType)
            env[inst.result] = inst.result.type.wrap(value or 0)
        return None

    @staticmethod
    def _read(value: Value, env: dict[Value, int]) -> int:
        if isinstance(value, ObfuscatedConstant):
            # Golden semantics: the design-time plaintext constant.
            return value.original.value
        if isinstance(value, Constant):
            return value.value
        if value not in env:
            # Uninitialized read: hardware registers power up to 0.
            return 0
        return env[value]


class _ReturnMarker:
    pass


_RETURN = _ReturnMarker()
_RETURN_SLOT = Constant(0, IntType(1, signed=False))  # unique dict key


def run_function(
    module: Module,
    func_name: str,
    args: Sequence[int] = (),
    arrays: Optional[dict[str, list[int]]] = None,
) -> ExecutionResult:
    """Convenience wrapper: interpret ``func_name`` in ``module``."""
    return Interpreter(module).run(func_name, args, arrays)
