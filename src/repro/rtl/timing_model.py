"""Structural timing model: critical-path and achievable-frequency
estimation.

Each clock period must cover the worst register-to-register path:

    clk-to-Q/setup + FU-input mux + (constant-unmask XOR) + FU logic
    + register-write mux

plus, on controller paths, next-state logic and the branch-mask XOR.
The paper reports ~8 % average frequency loss from DFG variants (more
mux levels), <1 % from branch masking (one XOR in next-state logic)
and ~4 % from constant obfuscation (wider muxes + unmask XOR); this
model reproduces those effects structurally (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.design import FsmdDesign
from repro.hls.resources import (
    FSM_LOGIC_NS,
    REGISTER_OVERHEAD_NS,
    XOR_DELAY_NS,
    fu_kind_for,
    memory_access_delay,
    mux_delay,
    opcode_delay,
)
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import Constant, ObfuscatedConstant


@dataclass
class TimingReport:
    """Critical-path summary of one design."""

    critical_path_ns: float
    frequency_mhz: float
    path_description: str
    per_state_worst: dict[str, float] = field(default_factory=dict)

    def frequency_ratio(self, baseline: "TimingReport") -> float:
        """Achievable frequency as a fraction of the baseline's."""
        if baseline.frequency_mhz <= 0:
            raise ValueError("baseline frequency must be positive")
        return self.frequency_mhz / baseline.frequency_mhz


def estimate_timing(design: FsmdDesign) -> TimingReport:
    """Estimate the worst register-to-register path over all states."""
    fu_mux_sources = design.fu_input_sources()
    register_mux_sources = design.register_input_sources()

    fu_input_count: dict[str, int] = {}
    for (fu_name, _port), sources in fu_mux_sources.items():
        fu_input_count[fu_name] = max(
            fu_input_count.get(fu_name, 1), len(sources)
        )
    register_input_count = {
        name: len(sources) for name, sources in register_mux_sources.items()
    }

    worst = REGISTER_OVERHEAD_NS + FSM_LOGIC_NS  # idle controller floor
    worst_desc = "controller"
    per_state: dict[str, float] = {}

    fu_of = design.binding.fu_of
    register_of = design.binding.register_of
    merged_optypes = design.merged_fu_optypes()

    for block_name, block_schedule in design.schedule.blocks.items():
        variants = design.block_variants.get(block_name)
        op_lists: list[list] = [list(block_schedule.block.instructions)]
        if variants is not None:
            op_lists.extend(variants.distinct_lists().values())
        for ops in op_lists:
            for op in ops:
                path, description = _op_path_delay(
                    design,
                    block_name,
                    op,
                    fu_input_count,
                    register_input_count,
                    merged_optypes,
                )
                state_key = f"{block_name}"
                per_state[state_key] = max(per_state.get(state_key, 0.0), path)
                if path > worst:
                    worst = path
                    worst_desc = description

    # Controller decision path: state reg -> next-state logic (+ mask XOR).
    controller_path = REGISTER_OVERHEAD_NS + FSM_LOGIC_NS
    if design.masked_branches:
        controller_path += XOR_DELAY_NS
    if controller_path > worst:
        worst = controller_path
        worst_desc = "controller next-state logic"

    frequency = 1000.0 / worst  # ns -> MHz
    return TimingReport(
        critical_path_ns=worst,
        frequency_mhz=frequency,
        path_description=worst_desc,
        per_state_worst=per_state,
    )


def _op_path_delay(
    design: FsmdDesign,
    block_name: str,
    op,
    fu_input_count: dict[str, int],
    register_input_count: dict[str, int],
    merged_optypes,
) -> tuple[float, str]:
    """Register-to-register delay of one scheduled operation of
    ``block_name`` (a baseline instruction or a DFG variant op)."""
    from repro.hls.design import VariantOp

    if isinstance(op, Instruction):
        opcode = op.opcode
        result = op.result
        operands = op.operands
        bound_inst = op
    else:
        assert isinstance(op, VariantOp)
        opcode = op.opcode
        result = op.result
        operands = op.operands
        baseline = design.func.blocks[block_name].instructions
        bound_inst = baseline[op.slot] if op.slot < len(baseline) else None

    if opcode in (Opcode.JUMP, Opcode.RET):
        return REGISTER_OVERHEAD_NS + FSM_LOGIC_NS, "control"
    path = REGISTER_OVERHEAD_NS

    # Source-side mux + constant unmask XOR.
    fu = design.binding.fu_for(bound_inst) if bound_inst is not None else None
    if fu is not None:
        path += mux_delay(fu_input_count.get(fu.name, 1))
    if any(isinstance(v, ObfuscatedConstant) for v in operands):
        path += XOR_DELAY_NS

    # FU logic (widest variant demand governs the merged unit).
    width = 32
    if result is not None and hasattr(result.type, "width"):
        width = result.type.width
    if opcode in (Opcode.LOAD, Opcode.STORE):
        path += memory_access_delay()
        description = f"memory {opcode}"
    else:
        path += opcode_delay(opcode, width)
        description = f"{opcode} ({width}b)"
        if fu is not None:
            extra_ops = merged_optypes.get(fu.name, set())
            if len({fu_kind_for(o) for o in extra_ops} - {None}) > 1:
                path += 0.05  # function-select steering in merged FU
    # Destination register write mux.
    if result is not None:
        register = design.binding.register_of.get(result)
        if register is not None:
            path += mux_delay(register_input_count.get(register.name, 1))
    if opcode is Opcode.BRANCH:
        path += FSM_LOGIC_NS
    return path, description
