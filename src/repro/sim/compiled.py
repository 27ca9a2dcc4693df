"""Compiled FSMD execution engine: lower a design once, run many keys.

The reference interpreter (:class:`repro.sim.fsmd_sim.FsmdSimulator`)
re-resolves everything per cycle: ``isinstance`` dispatch on operand
kinds, ``register_of`` dictionary lookups, cstep-filtering of each
state's operation list and per-cycle variant selection.  A §4.3
validation campaign pays that cost once per cycle per key — thousands
of times over for work whose answer never changes.

:class:`CompiledDesign` lowers a bound :class:`~repro.hls.design.
FsmdDesign` **once** into a flat execution plan (the design analysis —
slot assignment, wrap elision, state indexing, transitions, variant
tables — lives in the shared :class:`repro.sim.layout.DesignLayout`,
which the codegen tier consumes too):

* registers become a ``list[int]`` with slot indices precomputed per
  value, and memories a ``list[list[int]]`` with slot indices
  precomputed per array;
* each state's operations are pre-filtered by cstep and compiled into
  straight-line step closures whose operand readers (constant /
  obfuscated-constant decode / register slot) and opcode arithmetic
  are resolved at compile time — no per-cycle dispatch;
* controller transitions are pre-resolved into ``(condition reader,
  key-bit cell, true index, false index)`` records;
* a DFG variant arm is compiled the first time a bound key selects
  it and kept on the plan, so a sweep cell that binds two keys
  compiles at most two of each variant state's arms.

Key-dependent pieces — obfuscated-constant decodes, ROM decode masks,
variant selections and branch key bits — live in small mutable cells
that :meth:`CompiledDesign.bind_key` fills per working key, so one
compilation serves every key of a campaign.

This is the middle tier of the three-tier engine architecture:
``interp`` (the reference oracle) < ``compiled`` (this module: one
closure call per op per cycle) < ``codegen``
(:mod:`repro.sim.codegen`: one exec()-generated straight-line step
function per state, lane-vectorized across a whole key batch).

Determinism contract: for any design, arguments, arrays, key and cycle
budget, every engine's :class:`~repro.sim.fsmd_sim.SimulationResult`
is **field-identical** to the interpreter's (return value, arrays,
cycle count, completed flag and — when tracing — the state trace).
``tests/test_sim_compiled.py`` asserts this differentially over every
benchmark, preset pipeline and key class; the interpreter remains the
oracle.

Engine seam: :func:`resolve_engine` picks the engine for
``simulate``/``run_testbench`` — an explicit ``engine`` argument wins,
then the ``REPRO_SIM_ENGINE`` environment variable, then the default
``"compiled"``.  :func:`compiled_for` memoizes compilations per design
object (guarded by a cheap obfuscation-metadata fingerprint, so
re-obfuscating a design in place recompiles rather than running stale
code).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.hls.design import FsmdDesign, VariantOp
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import IntType
from repro.ir.values import Constant, ObfuscatedConstant, Value
from repro.registry import REGISTRY
from repro.sim.fsmd_sim import (
    FsmdSimulator,
    SimulationError,
    SimulationResult,
    zero_size_memory_error,
)
from repro.sim.layout import DesignLayout, PlanCache
from repro.sim.layout import COND as _COND
from repro.sim.layout import wrap_fn as _wrap_fn

#: Environment variable selecting the default simulation engine.
ENGINE_ENV = "REPRO_SIM_ENGINE"
DEFAULT_ENGINE = "compiled"


@dataclass(frozen=True)
class EngineDriver:
    """One simulation engine as a registered capability.

    ``run`` executes a single key trial with the
    ``(design, args, arrays, working_key, max_cycles)`` signature of
    :func:`repro.sim.fsmd_sim.simulate`; ``run_batch`` (optional)
    sweeps one workload across many keys at once — engines without a
    native batch path are looped scalar by ``simulate_batch``.  Every
    engine must return :class:`SimulationResult`\\ s field-identical
    to the ``interp`` reference oracle.
    """

    name: str
    description: str
    run: Callable[..., SimulationResult]
    run_batch: Optional[Callable[..., list]] = None


def _compiled_run(design, args, arrays, working_key, max_cycles):
    return compiled_for(design).run(
        args, arrays=arrays, working_key=working_key, max_cycles=max_cycles
    )


def _interp_run(design, args, arrays, working_key, max_cycles):
    return FsmdSimulator(design, max_cycles=max_cycles).run(args, arrays, working_key)


def _codegen_run(design, args, arrays, working_key, max_cycles):
    from repro.sim.codegen import codegen_for

    return codegen_for(design).run(
        args, arrays=arrays, working_key=working_key, max_cycles=max_cycles
    )


def _codegen_run_batch(design, args, arrays, working_keys, max_cycles):
    from repro.sim.codegen import codegen_for

    return codegen_for(design).run_batch(
        args, arrays=arrays, working_keys=working_keys, max_cycles=max_cycles
    )


for _driver in (
    EngineDriver(
        name="compiled",
        description="closure-compiled plan, lowered once per design (default)",
        run=_compiled_run,
    ),
    EngineDriver(
        name="interp",
        description="reference interpreter: the differential oracle",
        run=_interp_run,
    ),
    EngineDriver(
        name="codegen",
        description="exec()-generated source, lane-vectorized across key batches",
        run=_codegen_run,
        run_batch=_codegen_run_batch,
    ),
):
    REGISTRY.register(
        "engine", _driver.name, _driver, description=_driver.description
    )
del _driver

def engine_driver(name: str) -> EngineDriver:
    """The registered :class:`EngineDriver` called ``name`` (plugins
    loaded first), with the uniform unknown-capability error."""
    REGISTRY.load_plugins()
    return REGISTRY.get("engine", name)


def resolve_engine(engine: Optional[str] = None) -> str:
    """The engine to run: explicit choice > ``$REPRO_SIM_ENGINE`` > default."""
    if engine:
        choice, source = engine, "engine argument"
    elif os.environ.get(ENGINE_ENV):
        choice, source = os.environ[ENGINE_ENV], f"${ENGINE_ENV}"
    else:
        choice, source = DEFAULT_ENGINE, "default"
    REGISTRY.load_plugins()
    REGISTRY.entry("engine", choice, context=f"(from {source})")
    return choice


_Reader = Callable[[list], int]


def _arith_fn(
    opcode: Opcode, operand_types: list[IntType], result_type: IntType
) -> Optional[Callable]:
    """Compile one datapath opcode to a closure over Python ints.

    Mirrors :func:`repro.opt.constant_folding.evaluate_op` exactly
    (including division-by-zero totality, shift-modulo semantics and
    the operand-type bit masking of the bitwise ops), with the result
    wrap folded in — the bit-identity contract with the interpreter
    rests on this correspondence.
    """
    wrap = _wrap_fn(result_type)
    if opcode is Opcode.ADD:
        return lambda a, b: wrap(a + b)
    if opcode is Opcode.SUB:
        return lambda a, b: wrap(a - b)
    if opcode is Opcode.MUL:
        return lambda a, b: wrap(a * b)
    if opcode is Opcode.DIV:

        def div(a: int, b: int) -> int:
            if b == 0:
                return wrap(0)
            quotient = abs(a) // abs(b)
            return wrap(-quotient if (a < 0) != (b < 0) else quotient)

        return div
    if opcode is Opcode.REM:

        def rem(a: int, b: int) -> int:
            if b == 0:
                return wrap(0)
            magnitude = abs(a) % abs(b)
            return wrap(-magnitude if a < 0 else magnitude)

        return rem
    if opcode is Opcode.NEG:
        return lambda a: wrap(-a)
    if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
        mask0 = (1 << operand_types[0].width) - 1
        mask1 = (1 << operand_types[1].width) - 1
        if opcode is Opcode.AND:
            return lambda a, b: wrap((a & mask0) & (b & mask1))
        if opcode is Opcode.OR:
            return lambda a, b: wrap((a & mask0) | (b & mask1))
        return lambda a, b: wrap((a & mask0) ^ (b & mask1))
    if opcode is Opcode.NOT:
        return lambda a: wrap(~a)
    if opcode in (Opcode.SHL, Opcode.SHR):
        modulus = max(1, result_type.width)
        if opcode is Opcode.SHL:
            return lambda a, b: wrap(a << (b % modulus))
        if operand_types[0].signed:
            return lambda a, b: wrap(a >> (b % modulus))
        mask0 = (1 << operand_types[0].width) - 1
        return lambda a, b: wrap((a & mask0) >> (b % modulus))
    if opcode in (Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE):
        true_value = wrap(1)
        false_value = wrap(0)
        if opcode is Opcode.EQ:
            return lambda a, b: true_value if a == b else false_value
        if opcode is Opcode.NE:
            return lambda a, b: true_value if a != b else false_value
        if opcode is Opcode.LT:
            return lambda a, b: true_value if a < b else false_value
        if opcode is Opcode.LE:
            return lambda a, b: true_value if a <= b else false_value
        if opcode is Opcode.GT:
            return lambda a, b: true_value if a > b else false_value
        return lambda a, b: true_value if a >= b else false_value
    if opcode is Opcode.MOV:
        return lambda a: wrap(a)
    return None


def _op_fields(op) -> tuple:
    """``(opcode, result, operands, array_name)`` of a scheduled op or
    a DFG :class:`VariantOp` — the two shapes the fast tiers execute."""
    if isinstance(op, Instruction):
        return (
            op.opcode,
            op.result,
            list(op.operands),
            op.array.name if op.array is not None else None,
        )
    assert isinstance(op, VariantOp)
    return op.opcode, op.result, list(op.operands), op.array_name


class CompiledDesign:
    """One FSMD design lowered into a slot-indexed execution plan.

    Compile once (the constructor), then :meth:`run` any number of
    trials; :meth:`bind_key` specializes the key-dependent cells per
    working key, compiling each DFG variant arm the first time a key
    selects it, and is called automatically by :meth:`run`.  Instances
    hold closures and are deliberately **not picklable** — worker
    processes compile their own plan from the (picklable) design via
    :func:`compiled_for`.
    """

    def __init__(self, design: FsmdDesign) -> None:
        self.design = design
        layout = self.layout = DesignLayout(design)
        self._reg_slots = layout.reg_slots
        self._n_regs = layout.n_regs
        self._mem_slots = layout.mem_slots
        self._mem_names = layout.mem_names
        self._memory_specs = layout.memory_specs
        # --- key-dependent cells (filled by bind_key) --------------
        self._kconst_cells: dict[ObfuscatedConstant, list[int]] = {}
        self._rom_cells: dict[str, list[int]] = {}
        self._rom_binds: list[tuple] = []
        self._kb_binds: list[tuple[int, list[int]]] = []
        #: Per obfuscated block, ``(BlockVariants, [(state idx, {selector:
        #: op list}, {selector: compiled arm})])``; arms compile on first bind.
        self._variant_binds: list[tuple] = []
        self._bound_key: Optional[int] = None
        self._n_scalar_params = layout.n_scalar_params
        self._param_latches = layout.param_latches
        # --- states, ops and transitions ---------------------------
        self._state_names = layout.state_names
        self._done = layout.done
        self._trans: list[tuple] = []
        self._state_ops: list[list] = [[] for _ in layout.states]
        for idx, ops in enumerate(layout.state_op_lists):
            if ops is not None:
                self._state_ops[idx] = self._compile_ops(ops)
            self._compile_transition(layout.transition_specs[idx])
        for variants, tables in layout.variant_tables:
            self._variant_binds.append(
                (variants, [(idx, per_selector, {}) for idx, per_selector in tables])
            )
        self._entry_idx = layout.entry_idx

    # ------------------------------------------------------------------
    # Compilation helpers
    # ------------------------------------------------------------------
    def _reader(self, value: Value) -> _Reader:
        """Compile one operand read against the flat register file."""
        if isinstance(value, ObfuscatedConstant):
            cell = self._kconst_cells.setdefault(value, [0])
            return lambda regs, _c=cell: _c[0]
        if isinstance(value, Constant):
            return lambda regs, _v=value.value: _v
        register = self.design.binding.register_of.get(value)
        if register is None:
            raise SimulationError(f"value {value} has no bound register")
        slot = self._reg_slots[register.name]
        assert isinstance(value.type, IntType)
        if self.layout.elidable_read(slot, value.type):
            return lambda regs, _s=slot: regs[_s]
        wrap = _wrap_fn(value.type)
        return lambda regs, _s=slot, _w=wrap: _w(regs[_s])

    def _result_slot(self, result: Value) -> tuple[int, Callable[[int], int]]:
        register = self.design.binding.register_of.get(result)
        if register is None:
            raise SimulationError(f"value {result} has no bound register")
        assert isinstance(result.type, IntType)
        return self._reg_slots[register.name], _wrap_fn(result.type)

    def _rom_cell(self, array_name: str, element_type: IntType) -> list[int]:
        cell = self._rom_cells.get(array_name)
        if cell is None:
            cell = [0]
            self._rom_cells[array_name] = cell
            rom = self.design.obfuscated_roms[array_name]
            self._rom_binds.append((rom, element_type, cell))
        return cell

    def _compile_ops(self, ops: Sequence) -> list:
        compiled = [self._compile_op(op) for op in ops]
        return [ex for ex in compiled if ex is not None]

    def _compile_op(self, op) -> Optional[Callable]:
        opcode, result, operands, array_name = _op_fields(op)

        if opcode in (Opcode.JUMP, Opcode.BRANCH):
            return None  # handled by the compiled transitions
        if opcode is Opcode.RET:
            if operands:
                read = self._reader(operands[0])

                def ex_ret(regs, mems, writes, memw, _r=read):
                    return _r(regs)

                return ex_ret

            def ex_ret_void(regs, mems, writes, memw):
                return 0

            return ex_ret_void
        if opcode is Opcode.LOAD:
            assert array_name is not None and result is not None
            mem_idx = self._mem_slots[array_name]
            index_read = self._reader(operands[0])
            slot, wrap = self._result_slot(result)
            rom = self.design.obfuscated_roms.get(array_name)
            if rom is None:

                def ex_load(
                    regs,
                    mems,
                    writes,
                    memw,
                    _m=mem_idx,
                    _i=index_read,
                    _s=slot,
                    _w=wrap,
                    _name=array_name,
                ):
                    memory = mems[_m]
                    size = len(memory)
                    if size == 0:
                        raise zero_size_memory_error(_name)
                    writes.append((_s, _w(memory[_i(regs) % size])))

                return ex_load
            element_type = self.design.func.arrays[array_name].element_type
            element_mask = (1 << element_type.width) - 1
            element_wrap = _wrap_fn(element_type)
            cell = self._rom_cell(array_name, element_type)

            def ex_load_rom(
                regs,
                mems,
                writes,
                memw,
                _m=mem_idx,
                _i=index_read,
                _s=slot,
                _w=wrap,
                _em=element_mask,
                _ew=element_wrap,
                _c=cell,
                _name=array_name,
            ):
                memory = mems[_m]
                size = len(memory)
                if size == 0:
                    raise zero_size_memory_error(_name)
                raw = memory[_i(regs) % size]
                writes.append((_s, _w(_ew((raw & _em) ^ _c[0]))))

            return ex_load_rom
        if opcode is Opcode.STORE:
            assert array_name is not None
            mem_idx = self._mem_slots[array_name]
            index_read = self._reader(operands[0])
            value_read = self._reader(operands[1])
            element_type = self.design.func.arrays[array_name].element_type
            element_wrap = _wrap_fn(element_type)

            def ex_store(
                regs,
                mems,
                writes,
                memw,
                _m=mem_idx,
                _i=index_read,
                _v=value_read,
                _ew=element_wrap,
            ):
                memw.append((_m, _i(regs), _ew(_v(regs))))

            return ex_store
        if opcode is Opcode.CALL:
            raise SimulationError("calls must be inlined before simulation")
        # Datapath op or MOV.
        assert result is not None
        assert isinstance(result.type, IntType)
        operand_types: list[IntType] = []
        for operand in operands:
            assert isinstance(operand.type, IntType)
            operand_types.append(operand.type)
        fn = _arith_fn(opcode, operand_types, result.type)
        if fn is None:
            raise SimulationError(f"cannot evaluate opcode {opcode}")
        slot, _ = self._result_slot(result)
        if all(isinstance(v, Constant) for v in operands):
            # Fully-constant op: fold at compile time (the interpreter
            # recomputes the same value every cycle).
            value = fn(*[v.value for v in operands])

            def ex_const(regs, mems, writes, memw, _s=slot, _v=value):
                writes.append((_s, _v))

            return ex_const
        readers = [self._reader(v) for v in operands]
        if len(readers) == 1:

            def ex_unary(regs, mems, writes, memw, _r=readers[0], _f=fn, _s=slot):
                writes.append((_s, _f(_r(regs))))

            return ex_unary

        def ex_binary(
            regs, mems, writes, memw, _a=readers[0], _b=readers[1], _f=fn, _s=slot
        ):
            writes.append((_s, _f(_a(regs), _b(regs))))

        return ex_binary

    def _compile_transition(self, spec: tuple) -> None:
        if spec[0] == _COND:
            _, condition, key_bit, true_idx, false_idx = spec
            reader = self._reader(condition)
            key_bit_cell = [0]
            if key_bit is not None:
                self._kb_binds.append((key_bit, key_bit_cell))
            self._trans.append((1, reader, key_bit_cell, true_idx, false_idx))
        else:
            self._trans.append((0, spec[1]))

    # ------------------------------------------------------------------
    # Per-key specialization
    # ------------------------------------------------------------------
    def bind_key(self, working_key: int) -> None:
        """Select the variant arms and fill every key-dependent cell for
        ``working_key``.

        An arm the key selects for the first time is compiled here and
        kept on the plan; after that, binding is cheap — O(obfuscated
        constants + ROMs + masked branches + variant blocks),
        independent of cycle count — and memoized on the last bound
        key, so re-running the same key rebinds nothing.  A selector
        with no arm in its block's table raises ``KeyError``, and the
        failed bind leaves no key memoized.
        """
        if working_key == self._bound_key:
            return
        self._bound_key = None
        # Arms first: compiling a new arm can add constant and ROM cells.
        state_ops = self._state_ops
        for variants, tables in self._variant_binds:
            selector = variants.selector(working_key)
            for idx, per_selector, arms in tables:
                arm = arms.get(selector)
                if arm is None:
                    arm = arms[selector] = self._compile_ops(per_selector[selector])
                state_ops[idx] = arm
        for oc, cell in self._kconst_cells.items():
            cell[0] = oc.decode(working_key)
        for rom, element_type, cell in self._rom_binds:
            cell[0] = rom.mask_for(element_type, working_key)
        for bit, cell in self._kb_binds:
            cell[0] = (working_key >> bit) & 1
        self._bound_key = working_key

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        args: Sequence[int] = (),
        arrays: Optional[dict[str, list[int]]] = None,
        working_key: int = 0,
        max_cycles: int = 2_000_000,
        trace: bool = False,
    ) -> SimulationResult:
        if len(args) != self._n_scalar_params:
            raise SimulationError(
                f"{self.design.func.name} expects {self._n_scalar_params} "
                f"scalar args, got {len(args)}"
            )
        self.bind_key(working_key)
        regs = [0] * self._n_regs
        for latch, arg in zip(self._param_latches, args):
            if latch is not None:
                slot, wrap = latch
                regs[slot] = wrap(arg)
        mems, arrays_by_name = self.layout.initial_memories(arrays)

        state_ops = self._state_ops
        transitions = self._trans
        done = self._done
        state_names = self._state_names
        mem_names = self._mem_names
        state = self._entry_idx
        state_trace: list[str] = []
        writes: list[tuple[int, int]] = []
        memory_writes: list[tuple[int, int, int]] = []
        cycles = 0
        completed = False
        return_register_value: Optional[int] = None
        while cycles < max_cycles:
            cycles += 1
            if trace:
                state_trace.append(state_names[state])
            returned: Optional[int] = None
            ops = state_ops[state]
            if ops:
                # Phase 1: combinational reads against old register
                # values; Phase 2: clock edge — commit the writes.
                del writes[:]
                del memory_writes[:]
                for ex in ops:
                    value = ex(regs, mems, writes, memory_writes)
                    if value is not None:
                        returned = value
                for slot, value in writes:
                    regs[slot] = value
                for mem_idx, index, value in memory_writes:
                    memory = mems[mem_idx]
                    size = len(memory)
                    if size == 0:
                        raise zero_size_memory_error(mem_names[mem_idx])
                    memory[index % size] = value
            if returned is not None or done[state]:
                return_register_value = returned
                completed = True
                break
            transition = transitions[state]
            if transition[0]:
                condition = transition[1](regs)
                next_state = (
                    transition[3]
                    if (condition & 1) ^ transition[2][0]
                    else transition[4]
                )
            else:
                next_state = transition[1]
            if next_state is None:
                completed = True
                break
            state = next_state

        return SimulationResult(
            return_value=return_register_value,
            arrays=arrays_by_name,
            cycles=cycles,
            completed=completed,
            state_trace=state_trace,
        )


# ----------------------------------------------------------------------
# Compile-once cache
# ----------------------------------------------------------------------
#: See :class:`repro.sim.layout.PlanCache` for the eviction contract.
_COMPILE_CACHE_LIMIT = 8
_COMPILE_CACHE = PlanCache(CompiledDesign, limit=_COMPILE_CACHE_LIMIT)


def compiled_for(design: FsmdDesign) -> CompiledDesign:
    """The (memoized) compiled plan for ``design``.

    Keyed on object identity and validated against
    :func:`repro.sim.layout.design_fingerprint`; the cache holds at
    most :data:`_COMPILE_CACHE_LIMIT` recent plans.
    """
    return _COMPILE_CACHE.plan_for(design)
