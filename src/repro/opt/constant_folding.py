"""Constant folding and copy/constant propagation.

Operates block-locally (the IR is not SSA): within a block, a variable
or temp holding a known constant is substituted forward until a
redefinition.  Fully-constant datapath operations are folded into MOVs
of the computed constant; branches on constant conditions become jumps.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import IntType
from repro.ir.values import Constant, Temp, Value, Variable


def _div(values: list[int], types: list[IntType], result_type: IntType) -> int:
    if values[1] == 0:
        return 0
    quotient = abs(values[0]) // abs(values[1])
    return -quotient if (values[0] < 0) != (values[1] < 0) else quotient


def _rem(values: list[int], types: list[IntType], result_type: IntType) -> int:
    if values[1] == 0:
        return 0
    magnitude = abs(values[0]) % abs(values[1])
    return -magnitude if values[0] < 0 else magnitude


def _shr(values: list[int], types: list[IntType], result_type: IntType) -> int:
    shift = values[1] % max(1, result_type.width)
    if types[0].signed:
        return values[0] >> shift
    return _to_bits(values[0], types[0]) >> shift


#: The IR's arithmetic, one entry per evaluable opcode: a function of
#: (operand values, operand types, result type) giving the raw result,
#: which the caller wraps to the result type.  :func:`evaluate_op` and
#: the golden interpreter (``repro.sim.interpreter``) both run it.
OPERATIONS: dict[Opcode, Callable[[list[int], list[IntType], IntType], int]] = {
    Opcode.ADD: lambda v, t, r: v[0] + v[1],
    Opcode.SUB: lambda v, t, r: v[0] - v[1],
    Opcode.MUL: lambda v, t, r: v[0] * v[1],
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    Opcode.NEG: lambda v, t, r: -v[0],
    Opcode.AND: lambda v, t, r: _to_bits(v[0], t[0]) & _to_bits(v[1], t[1]),
    Opcode.OR: lambda v, t, r: _to_bits(v[0], t[0]) | _to_bits(v[1], t[1]),
    Opcode.XOR: lambda v, t, r: _to_bits(v[0], t[0]) ^ _to_bits(v[1], t[1]),
    Opcode.NOT: lambda v, t, r: ~v[0],
    Opcode.SHL: lambda v, t, r: v[0] << (v[1] % max(1, r.width)),
    Opcode.SHR: _shr,
    Opcode.EQ: lambda v, t, r: int(v[0] == v[1]),
    Opcode.NE: lambda v, t, r: int(v[0] != v[1]),
    Opcode.LT: lambda v, t, r: int(v[0] < v[1]),
    Opcode.LE: lambda v, t, r: int(v[0] <= v[1]),
    Opcode.GT: lambda v, t, r: int(v[0] > v[1]),
    Opcode.GE: lambda v, t, r: int(v[0] >= v[1]),
    Opcode.MOV: lambda v, t, r: v[0],
}


def evaluate_op(
    opcode: Opcode, operands: list[int], operand_types: list[IntType], result_type: IntType
) -> Optional[int]:
    """Evaluate an opcode over Python ints; returns the wrapped result,
    or None for an opcode :data:`OPERATIONS` does not define.

    Division/remainder by zero returns 0 (total hardware semantics).
    Shift amounts are taken modulo the result width to stay total.
    """
    operation = OPERATIONS.get(opcode)
    if operation is None:
        return None
    return result_type.wrap(operation(operands, operand_types, result_type))


def _to_bits(value: int, type_: IntType) -> int:
    """Two's-complement bit pattern of ``value`` in its own width."""
    return value & ((1 << type_.width) - 1)


def fold_constants(func: Function, module: Module) -> bool:
    """Propagate constants within blocks and fold constant operations."""
    changed = False
    for block in func.blocks.values():
        known: dict[Value, Constant] = {}
        for inst in block.instructions:
            # Substitute known-constant operands.
            for i, operand in enumerate(inst.operands):
                if operand in known and not isinstance(operand, Constant):
                    inst.operands[i] = known[operand]
                    changed = True
            # Fold fully-constant operations into constants.
            if (
                inst.opcode not in (Opcode.LOAD, Opcode.STORE, Opcode.CALL)
                and not inst.is_terminator
                and inst.result is not None
                and all(isinstance(op, Constant) for op in inst.operands)
                and isinstance(inst.result.type, IntType)
            ):
                values = [op.value for op in inst.operands]  # type: ignore[union-attr]
                types = [op.type for op in inst.operands]  # type: ignore[union-attr]
                folded = evaluate_op(inst.opcode, values, types, inst.result.type)
                if folded is not None:
                    constant = Constant(folded, inst.result.type)
                    if inst.opcode is not Opcode.MOV or inst.operands[0] != constant:
                        inst.opcode = Opcode.MOV
                        inst.operands = [constant]
                        inst.array = None
                        changed = True
                    known[inst.result] = constant
                    continue
            # Track constant assignments; kill on redefinition.
            if inst.result is not None:
                if (
                    inst.opcode is Opcode.MOV
                    and isinstance(inst.operands[0], Constant)
                    and isinstance(inst.result.type, IntType)
                ):
                    known[inst.result] = Constant(
                        inst.result.type.wrap(inst.operands[0].value),
                        inst.result.type,
                    )
                else:
                    known.pop(inst.result, None)
        # Constant branch condition -> unconditional jump.
        term = block.terminator
        if (
            term is not None
            and term.opcode is Opcode.BRANCH
            and isinstance(term.operands[0], Constant)
        ):
            target = term.targets[0] if term.operands[0].value else term.targets[1]
            block.instructions[-1] = Instruction(Opcode.JUMP, targets=[target])
            changed = True
    return changed


def propagate_copies(func: Function, module: Module) -> bool:
    """Forward-substitute ``x = mov y`` within blocks (copy propagation)."""
    changed = False
    for block in func.blocks.values():
        copies: dict[Value, Value] = {}
        for inst in block.instructions:
            for i, operand in enumerate(inst.operands):
                root = operand
                seen = set()
                while root in copies and root not in seen:
                    seen.add(root)
                    root = copies[root]
                if root is not operand:
                    inst.operands[i] = root
                    changed = True
            if inst.result is not None:
                # Any definition invalidates copies routed through it.
                copies = {
                    dst: src
                    for dst, src in copies.items()
                    if dst is not inst.result and src is not inst.result
                }
                if inst.opcode is Opcode.MOV and isinstance(
                    inst.operands[0], (Temp, Variable)
                ):
                    src = inst.operands[0]
                    same_width = (
                        isinstance(src.type, IntType)
                        and isinstance(inst.result.type, IntType)
                        and src.type == inst.result.type
                    )
                    if same_width and isinstance(inst.result, Temp):
                        copies[inst.result] = src
    return changed
