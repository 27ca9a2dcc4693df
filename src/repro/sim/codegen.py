"""Codegen FSMD execution tier: exec()-generated, key-batched step code.

The compiled tier (:mod:`repro.sim.compiled`) removed per-cycle
*resolution* and runs each op as one fused closure that writes its
register in place, but it still pays one Python call per op, keeps the
register file in a list, and simulates one key at a time.  This module
is the third tier of the engine architecture and adds two things on
top:

* **Registers hoisted into locals, ops inlined.**  One Python sweep
  function is generated as source text and ``exec()``-compiled once
  per design: every state's operand reads, opcode arithmetic (rendered
  by :func:`repro.sim.layout.arith_expr`, wrap masks as literals), ROM
  decodes, DFG-variant dispatch and controller transition are inlined
  into its body, and the lane's registers, memories and key material
  live in Python locals, so a cycle is straight-line local-variable
  code with no call per op.

* **Key-batched lanes.**  The register file and the memories are
  vectorized into lane-indexed storage (``regs[slot][lane]``,
  ``mems[mem][lane]``), and every key-dependent quantity — decoded
  obfuscated constants, ROM masks, branch key bits, variant selectors
  — becomes a per-lane array filled by one swept
  :meth:`CodegenDesign.bind_keys`.  One pass through the FSM advances
  *all* live lanes, and lanes retire independently — a lane leaves the
  batch the cycle it returns, reaches a done state, or its transition
  falls off the FSM, and lanes still live when the budget expires time
  out exactly like a scalar run (``completed=False``,
  ``cycles == max_cycles``).

The **sweep driver** runs each lane to retirement on its own: it
chains consecutive states into straight-line multi-cycle runs, hoists
the lane's registers, memories and key material into Python locals,
and retires the lane inside generated code.  That is what the
wrong-key workloads need: corrupted lanes diverge in control flow, and
the sweep never pays for divergence.  This tier records no state
trace; the reference interpreter is the traced oracle, and the
compiled tier traces too.

Emission renders nothing twice: each (state, op list) body is
rendered once, with body-local temporaries — selectors that share a
DFG variant list share its body — and each inlined transition block
once per (target, depth); every further use copies the text.

The batch lifecycle is: ``codegen_for(design)`` (generate once per
process) → ``bind_keys(keys)`` (cheap, per batch; called by
``run_batch``) → one FSM sweep → per-lane
:class:`~repro.sim.fsmd_sim.SimulationResult`\\ s.  The scalar
:meth:`CodegenDesign.run` is a batch of one lane, so
``simulate(..., engine="codegen")`` obeys the same determinism
contract as the other engines: field-identical results to the
reference interpreter on every benchmark, preset pipeline and key
class (asserted differentially in ``tests/test_sim_compiled.py`` and
``tests/test_sim_codegen.py``, and gated in CI by
``scripts/check_engine_parity.py``).

Debuggability: the sweep module source is kept on
:attr:`CodegenDesign.source` — CI dumps it as an artifact next to the
parity gate.

Like the compiled plan, instances hold code objects and are
deliberately not picklable; worker processes generate their own via
:func:`codegen_for` (a :class:`repro.sim.layout.PlanCache`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hls.design import FsmdDesign
from repro.ir.instructions import Opcode
from repro.ir.types import IntType
from repro.ir.values import Constant, ObfuscatedConstant, Value
from repro.opt.constant_folding import evaluate_op
from repro.sim.fsmd_sim import (
    DEFAULT_MAX_CYCLES,
    SimulationError,
    SimulationResult,
    zero_size_memory_error,
)
from repro.sim.layout import (
    COND,
    EXPR_HELPERS,
    SEQ,
    DesignLayout,
    PlanCache,
    arith_expr,
    op_fields,
    wrap_expr,
)


class _Emitter:
    """Emits straight-line source for one state's datapath ops.

    The lane's values live in locals the sweep hoists, like
    ``_v3``/``_kc0``.  Tracks which register slots, memories and key
    arrays the emitted code touches so the sweep can hoist exactly
    those, and allocates temporaries for the two-phase
    (read-then-commit) clock-edge semantics.

    Temporaries are numbered from zero in every body, so a body's text
    depends only on its op list.  No temporary is live across bodies:
    a body's commits precede its transition, and ``_ret`` is read only
    by the retire lines right after it.
    """

    def __init__(self, plan: "CodegenDesign") -> None:
        self.plan = plan
        self.used_regs: set[int] = set()
        self.used_mems: set[int] = set()
        self.used_keys: set[str] = set()
        self._tmp = 0
        #: (state idx, id(op list)) -> rendered body.  The layout keeps
        #: the lists alive, and selectors that share a variant list
        #: share its filtered list, so each distinct arm renders once.
        self.bodies: dict[tuple[int, int], tuple] = {}

    def temp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def _key_ref(self, array_name: str) -> str:
        """The hoisted local holding the lane's entry of one key array."""
        self.used_keys.add(array_name)
        return "_" + array_name.lower()  # e.g. _kc0

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def operand(self, value: Value) -> str:
        plan = self.plan
        if isinstance(value, ObfuscatedConstant):
            return self._key_ref(plan._kconst_name(value))
        if isinstance(value, Constant):
            return repr(value.value)
        register = plan.design.binding.register_of.get(value)
        if register is None:
            raise SimulationError(f"value {value} has no bound register")
        slot = plan.layout.reg_slots[register.name]
        self.used_regs.add(slot)
        assert isinstance(value.type, IntType)
        base = f"_v{slot}"
        if plan.layout.elidable_read(slot, value.type):
            return base
        return wrap_expr(base, value.type)

    def arith(self, opcode: Opcode, operands: list[Value], result_type: IntType) -> str:
        """Inline arithmetic for one datapath op (wrap folded in)."""
        types: list[IntType] = []
        for operand in operands:
            assert isinstance(operand.type, IntType)
            types.append(operand.type)
        rendered = [self.operand(operand) for operand in operands]
        return arith_expr(opcode, rendered, types, result_type)

    def _read_slots(self, operands: Sequence[Value]) -> set[int]:
        """Register slots an op's read phase touches (for direct-assign)."""
        slots: set[int] = set()
        register_of = self.plan.design.binding.register_of
        for value in operands:
            if isinstance(value, (Constant, ObfuscatedConstant)):
                continue
            register = register_of.get(value)
            if register is not None:
                slots.add(self.plan.layout.reg_slots[register.name])
        return slots

    # ------------------------------------------------------------------
    # One op list -> (read-phase lines, commit lines, ret temp or None)
    # ------------------------------------------------------------------
    def state_body(
        self, state_idx: int, ops: Sequence
    ) -> tuple[list[str], list[str], Optional[str]]:
        """:meth:`body` of one (state, op list), rendered once."""
        key = (state_idx, id(ops))
        rendered = self.bodies.get(key)
        if rendered is None:
            rendered = self.bodies[key] = self.body(ops)
        return rendered

    def body(self, ops: Sequence) -> tuple[list[str], list[str], Optional[str]]:
        plan = self.plan
        self._tmp = 0
        reads: list[str] = []
        reg_commits: list[tuple[int, str]] = []
        mem_commits: list[str] = []
        ret_temp: Optional[str] = None
        # Intra-cycle writes are never read back (the two-phase clock
        # edge: every read sees pre-cycle values), so of multiple
        # writes to one slot only the last is live — earlier ones keep
        # their read phase (a dead LOAD must still raise on a
        # zero-size memory) but drop their commit.  A live write goes
        # straight to the slot's local when no later op reads it this
        # cycle, skipping the temp; transitions read post-commit
        # values, so they never force a temp.
        future_reads: list[set[int]] = [set() for _ in ops]
        last_write: dict[int, int] = {}
        register_of = plan.design.binding.register_of
        pending: set[int] = set()
        for position in range(len(ops) - 1, -1, -1):
            future_reads[position] = set(pending)
            opcode, result, operands, _ = op_fields(ops[position])
            pending |= self._read_slots(operands)
            if (
                result is not None
                and opcode not in (Opcode.JUMP, Opcode.BRANCH, Opcode.RET)
                and register_of.get(result) is not None
            ):
                slot = plan.layout.reg_slots[register_of[result].name]
                last_write.setdefault(slot, position)

        def mem_alias(mem_idx: int) -> str:
            self.used_mems.add(mem_idx)  # the sweep hoists it per lane
            return f"_a{mem_idx}"

        def commit_result(position: int, slot: int, expression: str) -> None:
            """Route one register write: dead / direct local / temp."""
            self.used_regs.add(slot)
            if last_write.get(slot) != position:
                # Dead write (a later op overwrites the slot): keep the
                # read phase for its side effects, drop the commit.
                reads.append(f"{self.temp()} = {expression}")
                return
            if slot not in future_reads[position]:
                reads.append(f"_v{slot} = {expression}")
                return
            temp = self.temp()
            reads.append(f"{temp} = {expression}")
            reg_commits.append((slot, temp))

        for position, op in enumerate(ops):
            opcode, result, operands, array_name = op_fields(op)
            if opcode in (Opcode.JUMP, Opcode.BRANCH):
                continue  # handled by the generated transition
            if opcode is Opcode.RET:
                ret_temp = self.temp("_ret")
                value = self.operand(operands[0]) if operands else "0"
                reads.append(f"{ret_temp} = {value}")
                continue
            if opcode is Opcode.CALL:
                raise SimulationError("calls must be inlined before simulation")
            if opcode is Opcode.LOAD:
                assert array_name is not None and result is not None
                mem_idx = plan.layout.mem_slots[array_name]
                alias = mem_alias(mem_idx)
                reads.append(f"if not _z{mem_idx}: raise _zero({array_name!r})")
                index = self.operand(operands[0])
                slot, result_type = plan._result_slot(result)
                raw = f"{alias}[({index}) % _z{mem_idx}]"
                rom = plan.design.obfuscated_roms.get(array_name)
                if rom is not None:
                    element_type = plan.design.func.arrays[array_name].element_type
                    element_mask = (1 << element_type.width) - 1
                    mask_ref = self._key_ref(plan._rom_name(array_name, element_type))
                    raw = wrap_expr(
                        f"({raw} & {element_mask}) ^ {mask_ref}", element_type
                    )
                commit_result(position, slot, wrap_expr(raw, result_type))
                continue
            if opcode is Opcode.STORE:
                assert array_name is not None
                mem_idx = plan.layout.mem_slots[array_name]
                alias = mem_alias(mem_idx)
                element_type = plan.design.func.arrays[array_name].element_type
                index_temp = self.temp("_ti")
                value_temp = self.temp("_tv")
                reads.append(f"{index_temp} = {self.operand(operands[0])}")
                reads.append(
                    f"{value_temp} = "
                    f"{wrap_expr(self.operand(operands[1]), element_type)}"
                )
                mem_commits.append(f"if not _z{mem_idx}: raise _zero({array_name!r})")
                mem_commits.append(f"{alias}[{index_temp} % _z{mem_idx}] = {value_temp}")
                continue
            # Datapath op or MOV.
            assert result is not None
            slot, result_type = plan._result_slot(result)
            if all(isinstance(v, Constant) for v in operands):
                # Fully-constant op: fold at generation time.
                value = evaluate_op(
                    opcode,
                    [v.value for v in operands],
                    [v.type for v in operands],
                    result_type,
                )
                if value is None:
                    raise SimulationError(f"cannot evaluate opcode {opcode}")
                expression = repr(value)
            else:
                expression = self.arith(opcode, operands, result_type)
            commit_result(position, slot, expression)

        commits = [f"_v{slot} = {temp}" for slot, temp in reg_commits]
        commits.extend(mem_commits)
        return reads, commits, ret_temp


class CodegenDesign:
    """One FSMD design lowered into generated, lane-batched step code.

    Generate once (the constructor execs the sweep driver, whose
    source is :attr:`source`), then :meth:`run_batch` any number of
    key batches; :meth:`bind_keys` fills the per-lane key arrays and
    is called automatically.  :meth:`run` is the scalar view — a batch
    of one lane.
    """

    def __init__(self, design: FsmdDesign) -> None:
        self.design = design
        layout = self.layout = DesignLayout(design)
        # Key-dependent per-lane arrays (filled by bind_keys) and the
        # namespace the generated module executes in.
        self._namespace: dict[str, object] = {
            "_zero": zero_size_memory_error,
            **EXPR_HELPERS,
        }
        self._kconst_binds: list[tuple[ObfuscatedConstant, list[int]]] = []
        self._kconst_names: dict[ObfuscatedConstant, str] = {}
        self._rom_binds: list[tuple] = []
        self._rom_names: dict[str, str] = {}
        self._kb_binds: list[tuple[int, list[int]]] = []
        self._kb_names: dict[int, str] = {}
        self._sel_binds: list[tuple] = []
        self._sel_names: dict[str, str] = {}
        self._bound_keys: Optional[tuple[int, ...]] = None
        # Variant dispatch: state idx -> (selector array name, tables).
        self._variant_states: dict[int, tuple[str, dict[int, list]]] = {}
        for variants, tables in layout.variant_tables:
            sel_name = self._sel_name(variants)
            for idx, per_selector in tables:
                self._variant_states[idx] = (sel_name, per_selector)
        self.source = (
            f"# Generated by repro.sim.codegen for design {design.name!r}.\n"
            f"# The per-lane `_sweep` driver; storage is lane-indexed\n"
            f"# (regs[slot][lane], mems[mem][lane]) and the per-lane key\n"
            f"# arrays (_KC*/_RM*/_KB*/_SEL*) are bound by\n"
            f"# CodegenDesign.bind_keys.\n\n"
            + self._emit_sweep()
            + "\n"
        )
        code = compile(self.source, f"<codegen:{design.name}>", "exec")
        exec(code, self._namespace)
        self._sweep = self._namespace["_sweep"]

    # ------------------------------------------------------------------
    # Name registries (key-dependent per-lane arrays)
    # ------------------------------------------------------------------
    def _kconst_name(self, value: ObfuscatedConstant) -> str:
        name = self._kconst_names.get(value)
        if name is None:
            name = f"_KC{len(self._kconst_names)}"
            self._kconst_names[value] = name
            array: list[int] = []
            self._kconst_binds.append((value, array))
            self._namespace[name] = array
        return name

    def _rom_name(self, array_name: str, element_type: IntType) -> str:
        name = self._rom_names.get(array_name)
        if name is None:
            name = f"_RM{len(self._rom_names)}"
            self._rom_names[array_name] = name
            array: list[int] = []
            rom = self.design.obfuscated_roms[array_name]
            self._rom_binds.append((rom, element_type, array))
            self._namespace[name] = array
        return name

    def _kb_name(self, key_bit: int) -> str:
        name = self._kb_names.get(key_bit)
        if name is None:
            name = f"_KB{len(self._kb_names)}"
            self._kb_names[key_bit] = name
            array: list[int] = []
            self._kb_binds.append((key_bit, array))
            self._namespace[name] = array
        return name

    def _sel_name(self, variants) -> str:
        name = self._sel_names.get(variants.block_name)
        if name is None:
            name = f"_SEL{len(self._sel_names)}"
            self._sel_names[variants.block_name] = name
            array: list[int] = []
            self._sel_binds.append((variants, array, frozenset(variants.variants)))
            self._namespace[name] = array
        return name

    def _result_slot(self, result: Value) -> tuple[int, IntType]:
        register = self.design.binding.register_of.get(result)
        if register is None:
            raise SimulationError(f"value {result} has no bound register")
        assert isinstance(result.type, IntType)
        return self.layout.reg_slots[register.name], result.type

    # ------------------------------------------------------------------
    # The sweep driver: chained states, hoisted lanes
    # ------------------------------------------------------------------
    def _emit_ops_and_retire(
        self, emitter: _Emitter, state_idx: int, retire, transition
    ) -> list[str]:
        """Ops + retire-or-transition lines for one state.

        ``retire(ret_temp)`` renders lane retirement (with or without
        a return value) and ``transition(spec)`` renders the
        controller transition — each rendering of a cycle (checked,
        unchecked, inlined) differs only there.
        """
        variant = self._variant_states.get(state_idx)
        layout = self.layout

        def tail(ret_temp: Optional[str]) -> list[str]:
            if ret_temp is not None:
                return retire(ret_temp)
            if layout.done[state_idx]:
                return retire(None)
            return transition(layout.transition_specs[state_idx])

        if variant is None:
            ops = layout.state_op_lists[state_idx]
            reads, commits, ret_temp = emitter.state_body(state_idx, ops)
            return reads + commits + tail(ret_temp)
        sel_name, per_selector = variant
        # Temporaries are body-local, so semantically identical
        # variants render identical text; group selectors by rendered
        # arm: DFG variants are frequently indistinguishable within a
        # single cstep, and a collapsed (or group-tested) dispatch keeps
        # variant states off the sweep's critical path.  Out-of-table
        # selectors fail in :meth:`CodegenDesign.bind_keys` (mirroring
        # the compiled tier's bind-time ``KeyError``), so no run-time
        # guard is needed here.
        groups: dict[tuple[str, ...], list[int]] = {}
        for selector in sorted(per_selector):
            reads, commits, ret_temp = emitter.state_body(
                state_idx, per_selector[selector]
            )
            branch = tuple(reads + commits + tail(ret_temp))
            groups.setdefault(branch, []).append(selector)
        if len(groups) == 1:
            return list(next(iter(groups)))
        sel_ref = emitter._key_ref(sel_name)
        lines = []
        ordered = sorted(groups.items(), key=lambda entry: entry[1][0])
        for position, (branch, selectors) in enumerate(ordered):
            if position + 1 == len(ordered):
                lines.append("else:")
            elif len(selectors) == 1:
                keyword = "if" if position == 0 else "elif"
                lines.append(f"{keyword} {sel_ref} == {selectors[0]}:")
            else:
                keyword = "if" if position == 0 else "elif"
                members = ", ".join(str(s) for s in selectors)
                lines.append(f"{keyword} {sel_ref} in ({members},):")
            lines.extend(f"    {line}" for line in branch)
        return lines

    def _build_chains(self) -> list[list[int]]:
        """Partition states into maximal straight-line multi-cycle runs.

        A state joins its predecessor's chain when one of the
        predecessor's outbound edges — the ``SEQ`` edge, or either arm
        of a ``COND`` — is its *sole* inbound edge and it is not the
        entry state; for a ``COND`` the other arm becomes an explicit
        exit jump back to the dispatcher.  Every state not absorbed
        this way heads its own chain and is a dispatch target.
        Chaining through conditionals is what keeps whole loop bodies
        straight-line: a corrupted wrong-key lane spinning in a loop
        pays one dispatch per iteration, not one per state.
        """
        layout = self.layout
        n = len(layout.states)
        preds = [0] * n
        for spec in layout.transition_specs:
            if spec[0] == COND:
                for target in (spec[3], spec[4]):
                    if target is not None:
                        preds[target] += 1
            elif spec[1] is not None:
                preds[spec[1]] += 1

        def chainable(target: Optional[int], chained: set[int]) -> bool:
            return (
                target is not None
                and target != layout.entry_idx
                and preds[target] == 1
                and target not in chained
            )

        chained: set[int] = set()
        chains: list[list[int]] = []
        for idx in range(n):
            if idx != layout.entry_idx and preds[idx] == 1:
                # Might be chain-internal; emitted when its predecessor's
                # chain reaches it (or as a singleton fallback below).
                continue
            chain = [idx]
            current = idx
            while not self.layout.done[current]:
                spec = layout.transition_specs[current]
                if spec[0] == SEQ:
                    target = spec[1]
                else:
                    # Prefer falling through into the false arm (the
                    # forward edge, by convention); take the true arm
                    # when only it is absorbable.
                    target = spec[4] if chainable(spec[4], chained) else spec[3]
                if not chainable(target, chained):
                    break
                chain.append(target)
                chained.add(target)
                current = target
            chains.append(chain)
        emitted = chained | {chain[0] for chain in chains}
        for idx in range(n):
            if idx not in emitted:
                chains.append([idx])  # unreachable SEQ cycles, defensively
        return chains

    def _emit_sweep(self) -> str:
        """The per-lane run-to-retirement driver, as generated source.

        For each lane: hoist registers, memories and key material into
        locals, then a ``while`` dispatch over chain heads where each
        chain executes its states as consecutive cycles without
        returning to the dispatcher.  Retirement and timeout both
        ``break``; ``_done`` distinguishes them.
        """
        layout = self.layout
        emitter = _Emitter(self)
        chains = self._build_chains()

        def condition_test(spec: tuple) -> str:
            _, condition, key_bit, _, _ = spec
            test = f"({emitter.operand(condition)}) & 1"
            if key_bit is not None:
                test = f"({test}) ^ {emitter._key_ref(self._kb_name(key_bit))}"
            return test

        def retire_with(consumed: int):
            """Lane retirement; ``consumed`` > 0 charges the cycles the
            unchecked rendering did not count one by one."""

            def retire(ret_temp: Optional[str]) -> list[str]:
                lines = []
                if ret_temp is not None:
                    lines.append(f"rv[lane] = {ret_temp}")
                if consumed:
                    lines.append(f"_n += {consumed}")
                lines.extend(["_done = True", "break"])
                return lines

            return retire

        chain_by_head = {chain[0]: chain for chain in chains}
        #: Short-chain targets of a transition are inlined (as
        #: budget-checked cycles) up to this depth instead of bouncing
        #: through the dispatcher — corrupted wrong-key lanes spin
        #: through short cross-chain loops, and each inlined cycle
        #: saves a dispatch.
        INLINE_DEPTH = 2
        INLINE_MAX_CHAIN = 2
        #: (target, depth) -> the rendered goto, shared by every exit
        #: that jumps there (callers copy, never mutate, the lines).
        inlined: dict[tuple[int, int], list[str]] = {}

        def goto(target: int, depth: int) -> list[str]:
            lines = inlined.get((target, depth))
            if lines is None:
                lines = inlined[(target, depth)] = render_goto(target, depth)
            return lines

        def render_goto(target: int, depth: int) -> list[str]:
            chain = chain_by_head.get(target)
            if depth <= 0 or chain is None or len(chain) > INLINE_MAX_CHAIN:
                return [f"_s = {target}", "continue"]
            lines: list[str] = []
            for position, state_idx in enumerate(chain):
                if position + 1 < len(chain):
                    render = internal_transition(chain[position + 1], 0, depth - 1)
                else:
                    render = tail_transition_with(0, depth - 1)
                lines.extend(
                    cycle(state_idx, True, retire_with(0), render, note="inlined ")
                )
            return lines

        def arm(target: Optional[int], depth: int) -> list[str]:
            if target is None:
                return ["_done = True", "break"]
            return goto(target, depth)

        def tail_transition_with(consumed: int, depth: int):
            """Chain-tail transition: every arm leaves the chain, so the
            cycle charge (if any) is emitted once up front."""

            def transition(spec: tuple) -> list[str]:
                lines = [f"_n += {consumed}"] if consumed else []
                if spec[0] == COND:
                    test = condition_test(spec)
                    lines.append(f"if {test}:")
                    lines.extend(f"    {line}" for line in arm(spec[3], depth))
                    lines.extend(arm(spec[4], depth))
                    return lines
                return lines + arm(spec[1], depth)

            return transition

        def internal_transition(next_in_chain: int, consumed: int, depth: int):
            """Renderer for a chain-internal edge: a ``SEQ`` edge emits
            nothing (fall through into the next cycle's code); a
            ``COND`` emits only the exit arm — the chained arm is the
            fall-through, whose cycles a later exit will charge."""

            def render(spec: tuple) -> list[str]:
                if spec[0] == SEQ:
                    return []
                true_idx, false_idx = spec[3], spec[4]
                test = condition_test(spec)
                if false_idx == next_in_chain:
                    exit_test, exit_target = test, true_idx
                else:
                    assert true_idx == next_in_chain
                    exit_test, exit_target = f"not ({test})", false_idx
                body = [f"_n += {consumed}"] if consumed else []
                body += arm(exit_target, depth)
                return [f"if {exit_test}:"] + [f"    {line}" for line in body]

            return render

        def cycle(
            state_idx: int, checked: bool, retire, render, note: str = ""
        ) -> list[str]:
            block = [f"# {note}state {layout.state_names[state_idx]}"]
            if checked:
                block.append("if _n == budget:")
                block.append("    break")
                block.append("_n += 1")
            block.extend(
                self._emit_ops_and_retire(emitter, state_idx, retire, render)
            )
            return block

        def chain_cycles(chain: list[int], checked: bool) -> list[str]:
            """One rendering of a chain: ``checked`` counts and guards
            the budget every cycle; the unchecked form runs the whole
            chain and charges cycles only at its exits (the caller
            guarantees the budget covers the full chain)."""
            block: list[str] = []
            for position, state_idx in enumerate(chain):
                consumed = 0 if checked else position + 1
                if position + 1 < len(chain):
                    render = internal_transition(
                        chain[position + 1], consumed, INLINE_DEPTH
                    )
                else:
                    render = tail_transition_with(consumed, INLINE_DEPTH)
                block.extend(
                    cycle(state_idx, checked, retire_with(consumed), render)
                )
            return block

        #: Chains at least this long get a second, check-free rendering
        #: used while the remaining budget covers the whole chain.
        UNCHECKED_MIN_CHAIN = 3

        chain_blocks: list[tuple[int, list[str]]] = []
        for chain in chains:
            if len(chain) >= UNCHECKED_MIN_CHAIN:
                block = [f"if budget - _n >= {len(chain)}:"]
                block.extend(f"    {line}" for line in chain_cycles(chain, False))
                block.append("else:")
                block.extend(f"    {line}" for line in chain_cycles(chain, True))
            else:
                block = chain_cycles(chain, True)
            chain_blocks.append((chain[0], block))

        lines = ["def _sweep(lanes, regs, mems, sizes, rv, fin, end, budget):"]
        indent = "    "
        for slot in sorted(emitter.used_regs):
            lines.append(f"{indent}_R{slot} = regs[{slot}]")
        for mem_idx in sorted(emitter.used_mems):
            lines.append(f"{indent}_M{mem_idx} = mems[{mem_idx}]")
            lines.append(f"{indent}_z{mem_idx} = sizes[{mem_idx}]")
        lines.append(f"{indent}for lane in lanes:")
        indent = "        "
        for slot in sorted(emitter.used_regs):
            lines.append(f"{indent}_v{slot} = _R{slot}[lane]")
        for mem_idx in sorted(emitter.used_mems):
            lines.append(f"{indent}_a{mem_idx} = _M{mem_idx}[lane]")
        for array_name in sorted(emitter.used_keys):
            lines.append(f"{indent}_{array_name.lower()} = {array_name}[lane]")
        lines.append(f"{indent}_n = 0")
        lines.append(f"{indent}_done = False")
        lines.append(f"{indent}_s = {layout.entry_idx}")
        lines.append(f"{indent}while True:")
        # Balanced binary dispatch over chain heads: O(log chains)
        # comparisons per dispatch instead of a linear if/elif scan —
        # branch-obfuscated FSMs have dense COND targets, so most
        # chains are short and dispatch runs nearly every cycle.
        chain_blocks.sort(key=lambda entry: entry[0])

        def dispatch(blocks: list, depth: str) -> None:
            if len(blocks) <= 3:
                keyword = "if"
                for head, block in blocks:
                    lines.append(f"{depth}{keyword} _s == {head}:")
                    lines.extend(f"{depth}    {line}" for line in block)
                    keyword = "elif"
                lines.append(f"{depth}else:")
                lines.append(
                    f"{depth}    raise SystemError('unreachable state %r' % _s)"
                )
                return
            mid = len(blocks) // 2
            lines.append(f"{depth}if _s < {blocks[mid][0]}:")
            dispatch(blocks[:mid], depth + "    ")
            lines.append(f"{depth}else:")
            dispatch(blocks[mid:], depth + "    ")

        dispatch(chain_blocks, "            ")
        lines.append("        fin[lane] = _done")
        lines.append("        end[lane] = _n")
        # The closures above reference each other, so this frame is
        # freed only by the cycle collector; drop the render tables now.
        inlined.clear()
        emitter.bodies.clear()
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Per-batch key specialization
    # ------------------------------------------------------------------
    def bind_keys(self, working_keys: Sequence[int]) -> None:
        """Fill every per-lane key array for the batch ``working_keys``.

        Cheap — O(lanes × (obfuscated constants + ROMs + masked
        branches + variant blocks)), independent of cycle count — and
        memoized on the last bound batch.  Lane ``i`` of the subsequent
        :meth:`run_batch` simulates ``working_keys[i]``.
        """
        keys = tuple(working_keys)
        if keys == self._bound_keys:
            return
        for oc, array in self._kconst_binds:
            array[:] = [oc.decode(key) for key in keys]
        for rom, element_type, array in self._rom_binds:
            array[:] = [rom.mask_for(element_type, key) for key in keys]
        for bit, array in self._kb_binds:
            array[:] = [(key >> bit) & 1 for key in keys]
        for variants, array, valid in self._sel_binds:
            selectors = []
            for key in keys:
                selector = variants.selector(key)
                if selector not in valid:
                    # Mirror the compiled tier, which KeyErrors on an
                    # out-of-table selector when binding the key.
                    raise KeyError(selector)
                selectors.append(selector)
            array[:] = selectors
        self._bound_keys = keys

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_batch(
        self,
        args: Sequence[int] = (),
        arrays: Optional[dict[str, list[int]]] = None,
        working_keys: Sequence[int] = (),
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> list[SimulationResult]:
        """Simulate one lane per working key; all lanes share the workload.

        Every lane starts from the same arguments and initial memory
        images (each lane gets private copies) and advances through the
        FSM; lanes retire independently.  The result list is
        lane-indexed: ``result[i]`` is field-identical to an untraced
        scalar run of ``working_keys[i]`` on any engine.
        """
        layout = self.layout
        if len(args) != layout.n_scalar_params:
            raise SimulationError(
                f"{self.design.func.name} expects {layout.n_scalar_params} "
                f"scalar args, got {len(args)}"
            )
        keys = list(working_keys)
        n_lanes = len(keys)
        if n_lanes == 0:
            return []
        self.bind_keys(keys)
        regs: list[list[int]] = [[0] * n_lanes for _ in range(layout.n_regs)]
        for latch, arg in zip(layout.param_latches, args):
            if latch is not None:
                slot, wrap = latch
                value = wrap(arg)
                row = regs[slot]
                for lane in range(n_lanes):
                    row[lane] = value
        # Lane-indexed memory images (mems[mem][lane]) plus each lane's
        # name-keyed view of its own lists (for SimulationResult.arrays).
        mems: list[list[list[int]]] = [[] for _ in layout.memory_specs]
        arrays_by_lane: list[dict[str, list[int]]] = []
        for _ in range(n_lanes):
            lane_mems, by_name = layout.initial_memories(arrays)
            for mem_idx, memory in enumerate(lane_mems):
                mems[mem_idx].append(memory)
            arrays_by_lane.append(by_name)
        sizes = [len(rows[0]) if rows else 0 for rows in mems]

        rv: list[Optional[int]] = [None] * n_lanes
        completed = [False] * n_lanes
        retire_cycle = [0] * n_lanes
        self._sweep(
            range(n_lanes), regs, mems, sizes, rv, completed, retire_cycle,
            max_cycles,
        )
        return [
            SimulationResult(
                return_value=rv[lane],
                arrays=arrays_by_lane[lane],
                cycles=retire_cycle[lane],
                completed=completed[lane],
            )
            for lane in range(n_lanes)
        ]

    def run(
        self,
        args: Sequence[int] = (),
        arrays: Optional[dict[str, list[int]]] = None,
        working_key: int = 0,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> SimulationResult:
        """One scalar trial — a batch of one lane."""
        return self.run_batch(
            args,
            arrays=arrays,
            working_keys=[working_key],
            max_cycles=max_cycles,
        )[0]


# ----------------------------------------------------------------------
# Compile-once cache
# ----------------------------------------------------------------------
_CODEGEN_CACHE = PlanCache(CodegenDesign, limit=8)


def codegen_for(design: FsmdDesign) -> CodegenDesign:
    """The (memoized) generated plan for ``design``.

    Same contract as :func:`repro.sim.compiled.compiled_for`: keyed on
    object identity, validated against the obfuscation-metadata
    fingerprint, bounded LRU.
    """
    return _CODEGEN_CACHE.plan_for(design)
