"""Shared lowering analysis for the fast FSMD execution tiers.

Both non-reference engines — the closure-compiled plan
(:mod:`repro.sim.compiled`) and the exec()-generated codegen tier
(:mod:`repro.sim.codegen`) — need the same design analysis before they
can specialize execution: a flat slot assignment for registers and
memories, the set of types written into each register slot (for
read-side wrap elision), scalar-parameter latch points, a dense state
index with pre-resolved transitions, per-state op lists filtered by
cstep, and per-block DFG variant tables.  :class:`DesignLayout`
computes all of that **once** per design; the tiers consume it to build
their own execution artifacts: per-op closures, and one closure per hot
state chain, in the compiled tier; one generated sweep function in the
codegen tier.

Both tiers also render datapath arithmetic through the same
:func:`arith_expr` (with :func:`wrap_expr` for the two's-complement
wraps), so an opcode's semantics are written down once for the fast
tiers.

Keeping the analysis in one place is what keeps the tiers honest: both
engines agree on slot numbering, wrap elision and transition targets by
construction, so the differential contract against the reference
interpreter only has to catch *execution* divergences, never layout
ones.

:class:`PlanCache` is the shared compile-once memoization: a small LRU
keyed on design identity and guarded by an obfuscation-metadata
fingerprint, so re-obfuscating a design in place recompiles rather than
running stale plans.  Each tier owns one instance (plans hold closures
or generated code objects and never pickle — worker processes build
their own).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Optional

from repro.hls.controller import StateId
from repro.hls.design import FsmdDesign, VariantOp
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import IntType
from repro.ir.values import Value
from repro.sim.fsmd_sim import SimulationError


def wrap_fn(type_: IntType) -> Callable[[int], int]:
    """A closure computing ``type_.wrap`` without attribute lookups."""
    mask = (1 << type_.width) - 1
    if not type_.signed:
        return lambda v: v & mask
    sign = 1 << (type_.width - 1)
    return lambda v: ((v + sign) & mask) - sign


def op_fields(op) -> tuple:
    """``(opcode, result, operands, array_name)`` of a scheduled op or
    a DFG :class:`VariantOp` — the two shapes the fast tiers execute."""
    if isinstance(op, Instruction):
        return (
            op.opcode,
            op.result,
            op.operands,
            op.array.name if op.array is not None else None,
        )
    assert isinstance(op, VariantOp)
    return op.opcode, op.result, op.operands, op.array_name


# ----------------------------------------------------------------------
# Arithmetic as Python source (shared by the compiled and codegen tiers)
# ----------------------------------------------------------------------
def trunc_div(a: int, b: int) -> int:
    """C division, truncating toward zero; total (``a / 0`` is 0)."""
    if b == 0:
        return 0
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def trunc_rem(a: int, b: int) -> int:
    """C remainder, with the dividend's sign; total (``a % 0`` is 0)."""
    if b == 0:
        return 0
    magnitude = abs(a) % abs(b)
    return -magnitude if a < 0 else magnitude


#: Names :func:`arith_expr` calls; the namespace running the rendered
#: source must bind them.
EXPR_HELPERS = {"_div": trunc_div, "_rem": trunc_rem}

_CMP_SYMBOLS = {
    Opcode.EQ: "==",
    Opcode.NE: "!=",
    Opcode.LT: "<",
    Opcode.LE: "<=",
    Opcode.GT: ">",
    Opcode.GE: ">=",
}
_BITWISE_SYMBOLS = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}


def wrap_expr(expr: str, type_: IntType, lit: Callable[[int], str] = str) -> str:
    """``type_.wrap`` of ``expr`` as a source expression.

    ``lit`` renders each number the expression needs: the default
    writes literals, and the compiled tier passes one that turns them
    into factory arguments.
    """
    mask = lit((1 << type_.width) - 1)
    if not type_.signed:
        return f"(({expr}) & {mask})"
    sign = lit(1 << (type_.width - 1))
    return f"(((({expr}) + {sign}) & {mask}) - {sign})"


def arith_expr(
    opcode: Opcode,
    operands: list[str],
    operand_types: list[IntType],
    result_type: IntType,
    lit: Callable[[int], str] = str,
) -> str:
    """One datapath op over the rendered ``operands``, wrap folded in.

    Mirrors :func:`repro.opt.constant_folding.evaluate_op` exactly —
    division totality, shift amounts modulo the result width, operand
    masks on the bitwise ops — which is what the bit-identity contract
    with the interpreter rests on.  ``lit`` is as in :func:`wrap_expr`;
    division and remainder call the :data:`EXPR_HELPERS`.
    """
    a = operands[0]
    b = operands[1] if len(operands) > 1 else None

    def wrap(expression: str) -> str:
        return wrap_expr(expression, result_type, lit)

    if opcode is Opcode.ADD:
        return wrap(f"{a} + {b}")
    if opcode is Opcode.SUB:
        return wrap(f"{a} - {b}")
    if opcode is Opcode.MUL:
        return wrap(f"{a} * {b}")
    if opcode is Opcode.DIV:
        return wrap(f"_div({a}, {b})")
    if opcode is Opcode.REM:
        return wrap(f"_rem({a}, {b})")
    if opcode is Opcode.NEG:
        return wrap(f"-({a})")
    if opcode is Opcode.NOT:
        return wrap(f"~({a})")
    if opcode in _BITWISE_SYMBOLS:
        mask0 = lit((1 << operand_types[0].width) - 1)
        mask1 = lit((1 << operand_types[1].width) - 1)
        symbol = _BITWISE_SYMBOLS[opcode]
        return wrap(f"(({a}) & {mask0}) {symbol} (({b}) & {mask1})")
    if opcode in (Opcode.SHL, Opcode.SHR):
        modulus = lit(max(1, result_type.width))
        if opcode is Opcode.SHL:
            return wrap(f"({a}) << (({b}) % {modulus})")
        if operand_types[0].signed:
            return wrap(f"({a}) >> (({b}) % {modulus})")
        mask0 = lit((1 << operand_types[0].width) - 1)
        return wrap(f"(({a}) & {mask0}) >> (({b}) % {modulus})")
    if opcode in _CMP_SYMBOLS:
        true_value = lit(result_type.wrap(1))
        false_value = lit(result_type.wrap(0))
        symbol = _CMP_SYMBOLS[opcode]
        return f"({true_value} if ({a}) {symbol} ({b}) else {false_value})"
    if opcode is Opcode.MOV:
        return wrap(a)
    raise SimulationError(f"cannot evaluate opcode {opcode}")


#: Transition record kinds (first tuple element of a transition spec).
SEQ = 0
COND = 1


class DesignLayout:
    """Slot-indexed view of one FSMD design, shared by the fast tiers.

    Attributes (all read-only by convention):

    * ``reg_slots`` / ``n_regs`` — register name → flat slot index;
    * ``mem_slots`` / ``mem_names`` / ``memory_specs`` — memory name →
      slot, and per-slot ``(name, array, rom, element_wrap)`` build
      specs for initial images;
    * ``slot_write_types`` — every :class:`IntType` stored into each
      register slot on any path (baseline schedule, parameters and all
      DFG variants), used for read-side wrap elision;
    * ``param_latches`` — per scalar parameter, ``(slot, wrap)`` or
      ``None`` when the parameter never landed in a register;
    * ``states`` / ``idx_of`` / ``state_names`` / ``entry_idx`` /
      ``done`` — the dense state numbering;
    * ``transition_specs`` — per state, ``(COND, condition_value,
      key_bit_or_None, true_idx_or_None, false_idx_or_None)`` or
      ``(SEQ, next_idx_or_None)``;
    * ``state_op_lists`` — per state, the cstep-filtered baseline op
      list, or ``None`` for states of variant-obfuscated blocks;
    * ``variant_tables`` — per obfuscated block, ``(BlockVariants,
      [(state_idx, {selector: cstep-filtered op list})])``.  Each
      distinct variant op list is filtered once per state, so
      selectors that share a list (see
      :class:`~repro.hls.design.BlockVariants`) share one filtered
      list object — one arm — in every state of the block.
    """

    def __init__(self, design: FsmdDesign) -> None:
        self.design = design
        binding = design.binding
        # --- flat register file ------------------------------------
        self.reg_slots: dict[str, int] = {
            r.name: i for i, r in enumerate(binding.registers)
        }
        self.n_regs = len(binding.registers)
        # --- flat memories -----------------------------------------
        self.mem_slots: dict[str, int] = {}
        self.mem_names: list[str] = []
        self.memory_specs: list[tuple] = []
        for name, memory_binding in binding.memories.items():
            self.mem_slots[name] = len(self.mem_names)
            self.mem_names.append(name)
            array = memory_binding.array
            rom = design.obfuscated_roms.get(name)
            self.memory_specs.append((name, array, rom, wrap_fn(array.element_type)))
        # --- wrap elision: registers written by exactly one type can
        # be read back without re-wrapping (values are stored wrapped).
        self.slot_write_types = self._collect_write_types()
        # --- scalar-argument latches -------------------------------
        scalar_params = design.func.scalar_params()
        self.n_scalar_params = len(scalar_params)
        self.param_latches: list[Optional[tuple[int, Callable]]] = []
        for param in scalar_params:
            register = binding.register_of.get(param)
            if register is None:
                self.param_latches.append(None)
            else:
                assert isinstance(param.type, IntType)
                self.param_latches.append(
                    (self.reg_slots[register.name], param.type.wrap)
                )
        # --- states, ops and transitions ---------------------------
        self.states: list[StateId] = list(design.controller.states)
        self.idx_of: dict[StateId, int] = {s: i for i, s in enumerate(self.states)}
        self.state_names = [str(s) for s in self.states]
        self.done: list[bool] = []
        self.transition_specs: list[tuple] = []
        self.state_op_lists: list[Optional[list]] = [None] * len(self.states)
        # Each block's ops are bucketed by cstep once, in instruction
        # order within a cstep.
        step_tables: dict[str, list[list]] = {}
        states_of: dict[str, list[tuple[StateId, int]]] = {}
        for idx, state in enumerate(self.states):
            if state.block in design.block_variants:
                states_of.setdefault(state.block, []).append((state, idx))
            else:
                table = step_tables.get(state.block)
                if table is None:
                    table = design.schedule.blocks[state.block].step_table()
                    step_tables[state.block] = table
                self.state_op_lists[idx] = table[state.step]
            self._lower_transition(state)
        self.variant_tables: list[tuple] = []
        for block_name, variants in design.block_variants.items():
            buckets: dict[int, dict[int, list]] = {}
            for key, ops in variants.distinct_lists().items():
                by_step: dict[int, list] = {}
                for op in ops:
                    by_step.setdefault(op.cstep, []).append(op)
                buckets[key] = by_step
            tables: list[tuple[int, dict[int, list]]] = []
            for state, idx in states_of.get(block_name, ()):
                arms = {
                    key: by_step.get(state.step, [])
                    for key, by_step in buckets.items()
                }
                per_selector = {
                    selector: arms[id(ops)]
                    for selector, ops in variants.variants.items()
                }
                tables.append((idx, per_selector))
            self.variant_tables.append((variants, tables))
        entry = design.controller.entry_state
        assert entry is not None
        self.entry_idx = self.idx_of[entry]

    # ------------------------------------------------------------------
    def _collect_write_types(self) -> dict[int, set[IntType]]:
        """Every IntType stored into each register slot (any path)."""
        design = self.design
        written: dict[int, set[IntType]] = {}

        def note(result: Optional[Value]) -> None:
            if result is None:
                return
            register = design.binding.register_of.get(result)
            if register is None:
                return
            if isinstance(result.type, IntType):
                written.setdefault(self.reg_slots[register.name], set()).add(
                    result.type
                )

        for param in design.func.scalar_params():
            note(param)
        for block_schedule in design.schedule.blocks.values():
            for inst in block_schedule.block.instructions:
                note(inst.result)
        for variants in design.block_variants.values():
            for ops in variants.distinct_lists().values():
                for op in ops:
                    note(op.result)
        return written

    def _lower_transition(self, state: StateId) -> None:
        transition = self.design.controller.transitions[state]
        self.done.append(transition.is_done)
        if transition.condition is not None:
            true_idx = (
                self.idx_of[transition.true_state]
                if transition.true_state is not None
                else None
            )
            false_idx = (
                self.idx_of[transition.false_state]
                if transition.false_state is not None
                else None
            )
            self.transition_specs.append(
                (COND, transition.condition, transition.key_bit, true_idx, false_idx)
            )
        else:
            next_idx = (
                self.idx_of[transition.next_state]
                if transition.next_state is not None
                else None
            )
            self.transition_specs.append((SEQ, next_idx))

    # ------------------------------------------------------------------
    def elidable_read(self, slot: int, type_: IntType) -> bool:
        """True when a read of ``slot`` at ``type_`` needs no re-wrap.

        Registers only ever hold values wrapped at write time; when
        every writer shares the reader's type the stored value is
        already in range and the read-side wrap is the identity.
        """
        return self.slot_write_types.get(slot) == {type_}

    def initial_memories(
        self, arrays: Optional[dict[str, list[int]]]
    ) -> tuple[list[list[int]], dict[str, list[int]]]:
        """Slot-indexed memory images plus the name-keyed view of them.

        Both structures share the same lists, so the dict (returned in
        ``SimulationResult.arrays``) reflects every committed store.
        """
        mems: list[list[int]] = []
        by_name: dict[str, list[int]] = {}
        for name, array, rom, element_wrap in self.memory_specs:
            if rom is not None:
                memory = list(rom.encrypted_image)
            elif arrays is not None and array.name in arrays:
                provided = list(arrays[array.name])
                if len(provided) < array.size:
                    provided += [0] * (array.size - len(provided))
                memory = [element_wrap(v) for v in provided[: array.size]]
            elif array.initializer is not None:
                memory = [element_wrap(v) for v in array.initializer]
            else:
                memory = [0] * array.size
            mems.append(memory)
            by_name[name] = memory
        return mems, by_name


# ----------------------------------------------------------------------
# Compile-once cache (shared by the compiled and codegen tiers)
# ----------------------------------------------------------------------
def design_fingerprint(design: FsmdDesign) -> tuple:
    """Cheap invalidation key over the mutable obfuscation metadata.

    Every TAO pass grows one of these collections (or the key config),
    so obfuscating a design in place after a baseline simulation
    rotates the fingerprint and forces a recompile.  Mutating the
    schedule or binding of an already-simulated design in place is not
    detected — build a fresh design (as every repo flow does) instead.
    """
    return (
        len(design.obfuscated_constants),
        len(design.masked_branches),
        len(design.block_variants),
        len(design.obfuscated_roms),
        len(design.controller.transitions),
        design.key_config.working_key_bits,
        design.key_config.correct_working_key,
    )


class PlanCache:
    """Bounded LRU of lowered execution plans, one instance per tier.

    Keyed on design object identity and validated against
    :func:`design_fingerprint`.  A cached plan keeps its design alive
    (plans reference design values), so the cache is a small LRU rather
    than unbounded: campaigns touch one design per unit and attack
    sweeps a handful, so a few slots cover the access pattern while
    bounding memory in long-lived processes that churn through many
    designs.  Entries for designs that die early are evicted by the
    weakref callback, so a recycled ``id()`` can never resurrect a
    stale plan.
    """

    def __init__(self, factory: Callable[[FsmdDesign], object], limit: int = 8):
        self._factory = factory
        self._limit = limit
        self._entries: OrderedDict[int, tuple[weakref.ref, tuple, object]] = (
            OrderedDict()
        )

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def plan_for(self, design: FsmdDesign):
        key = id(design)
        entry = self._entries.get(key)
        if entry is not None:
            ref, fingerprint, plan = entry
            if ref() is design and fingerprint == design_fingerprint(design):
                self._entries.move_to_end(key)
                return plan
        plan = self._factory(design)

        # The entry dict is captured as a default so the callback still
        # works during interpreter shutdown, when module globals are None.
        def _evict(
            _ref: weakref.ref, _key: int = key, _cache: dict = self._entries
        ) -> None:
            _cache.pop(_key, None)

        self._entries[key] = (
            weakref.ref(design, _evict),
            design_fingerprint(design),
            plan,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self._limit:
            self._entries.popitem(last=False)
        return plan
