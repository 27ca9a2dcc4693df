"""Operation scheduling: ASAP, ALAP and resource-constrained list
scheduling over each basic block's data-flow graph.

The schedule assigns every instruction a control step (cstep) inside
its block.  No operation chaining: a consumer executes at least one
cstep after its producers (results are latched in registers at the end
of the producing cstep).  Terminators execute in the block's final
cstep.  TAO's DFG-variant pass reuses the baseline schedule as the
constraint for all variants (paper §3.3.4).

List scheduling keeps, per node, a count of its unplaced predecessors;
a node joins the ready list in the cstep after its last predecessor is
placed, and stays there until it is placed.  That is exactly the set a
rescan of every unscheduled node would find at each cstep (all
predecessors placed in an earlier cstep), so the greedy pass, which
walks the ready list sorted by ``(alap, index)`` with the same FU-limit,
memory-port and terminator-last checks in the same order, places every
node where the rescan does.  The pass costs the ready list per cstep
plus each edge once, instead of every node and edge per cstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.basic_block import BasicBlock
from repro.ir.dfg import DataFlowGraph, DFGNode
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.hls.resources import FUKind, ResourceConstraints, fu_kind_for


@dataclass
class BlockSchedule:
    """Schedule of one basic block.

    Attributes:
        block: The scheduled block.
        cstep_of: Control step assigned to each instruction (by uid).
        n_steps: Total control steps (>= 1; empty blocks still take one
            state for their terminator).
    """

    block: BasicBlock
    cstep_of: dict[int, int]
    n_steps: int

    def instructions_at(self, step: int) -> list[Instruction]:
        return [
            inst
            for inst in self.block.instructions
            if self.cstep_of[inst.uid] == step
        ]

    def step_table(self) -> list[list[Instruction]]:
        table: list[list[Instruction]] = [[] for _ in range(self.n_steps)]
        for inst in self.block.instructions:
            table[self.cstep_of[inst.uid]].append(inst)
        return table


@dataclass
class FunctionSchedule:
    """Schedules for every block of a function."""

    func: Function
    blocks: dict[str, BlockSchedule] = field(default_factory=dict)

    @property
    def total_steps(self) -> int:
        return sum(s.n_steps for s in self.blocks.values())


def asap_schedule(dfg: DataFlowGraph) -> dict[DFGNode, int]:
    """Unconstrained as-soon-as-possible schedule (each op takes 1 cstep)."""
    steps: dict[DFGNode, int] = {}
    for node in dfg.topological_order():
        steps[node] = max((steps[p] + 1 for p in node.preds), default=0)
    return steps


def alap_schedule(dfg: DataFlowGraph, length: Optional[int] = None) -> dict[DFGNode, int]:
    """As-late-as-possible schedule within ``length`` csteps."""
    asap = asap_schedule(dfg)
    horizon = length if length is not None else (max(asap.values(), default=0) + 1)
    steps: dict[DFGNode, int] = {}
    for node in reversed(dfg.topological_order()):
        steps[node] = min((steps[s] - 1 for s in node.succs), default=horizon - 1)
    return steps


def list_schedule_block(
    block: BasicBlock,
    constraints: ResourceConstraints,
) -> BlockSchedule:
    """Resource-constrained list scheduling with ALAP-slack priority.

    The schedule is checked against the DFG it was built from before
    that DFG is dropped (see :func:`validate_schedule`).
    """
    dfg = DataFlowGraph(block)
    if not dfg.nodes:
        return BlockSchedule(block=block, cstep_of={}, n_steps=1)
    alap = alap_schedule(dfg)

    # A node joins ``ready`` in the cstep after its last predecessor
    # is placed; ``waiting`` counts each node's unplaced predecessors.
    waiting = [len(node.preds) for node in dfg.nodes]
    ready = [node for node in dfg.nodes if not node.preds]
    unscheduled = len(dfg.nodes)
    scheduled_step: dict[DFGNode, int] = {}
    step = 0
    terminator = block.terminator
    while unscheduled:
        # Resource usage this cstep.
        fu_used: dict[FUKind, int] = {}
        ports_used: dict[str, int] = {}
        ready.sort(key=lambda n: (alap[n], n.index))
        ready_next: list[DFGNode] = []
        placed: list[DFGNode] = []
        for node in ready:
            inst = node.inst
            if terminator is not None and inst is terminator and unscheduled > 1:
                ready_next.append(node)
                continue  # terminator goes last
            kind = fu_kind_for(inst.opcode) if inst.is_datapath_op else None
            if kind is not None:
                limit = constraints.limit(kind)
                if limit is not None and fu_used.get(kind, 0) >= limit:
                    ready_next.append(node)
                    continue
            if inst.opcode in (Opcode.LOAD, Opcode.STORE):
                assert inst.array is not None
                # Shared-port mode banks every array behind one memory
                # subsystem: memory_ports caps total accesses per cstep.
                port = (
                    "" if constraints.shared_memory_port else inst.array.name
                )
                if ports_used.get(port, 0) >= constraints.memory_ports:
                    ready_next.append(node)
                    continue
                ports_used[port] = ports_used.get(port, 0) + 1
            if kind is not None:
                fu_used[kind] = fu_used.get(kind, 0) + 1
            scheduled_step[node] = step
            unscheduled -= 1
            placed.append(node)
        for node in placed:
            for succ in node.succs:
                waiting[succ.index] -= 1
                if not waiting[succ.index]:
                    ready_next.append(succ)
        ready = ready_next
        step += 1
        if step > 4 * len(dfg.nodes) + 8:  # pragma: no cover - defensive
            raise RuntimeError(f"scheduler livelock in block {block.name}")

    n_steps = max(scheduled_step.values()) + 1
    # Pin the terminator into the final cstep.
    if terminator is not None:
        term_node = next(n for n in dfg.nodes if n.inst is terminator)
        if scheduled_step[term_node] != n_steps - 1:
            scheduled_step[term_node] = n_steps - 1
    cstep_of = {node.inst.uid: s for node, s in scheduled_step.items()}
    block_schedule = BlockSchedule(block=block, cstep_of=cstep_of, n_steps=n_steps)
    _check_block(block.name, block_schedule, dfg)
    return block_schedule


def schedule_function(
    func: Function,
    constraints: Optional[ResourceConstraints] = None,
) -> FunctionSchedule:
    """Schedule every block of ``func``."""
    constraints = constraints or ResourceConstraints()
    schedule = FunctionSchedule(func=func)
    for name, block in func.blocks.items():
        schedule.blocks[name] = list_schedule_block(block, constraints)
    return schedule


def validate_schedule(schedule: FunctionSchedule) -> None:
    """Check dependence and terminator invariants; raises on violation.

    :func:`list_schedule_block` already checks each block it builds;
    this re-checks a whole schedule, e.g. one edited after the fact.
    """
    for name, block_schedule in schedule.blocks.items():
        _check_block(name, block_schedule, DataFlowGraph(block_schedule.block))


def _check_block(
    name: str, block_schedule: BlockSchedule, dfg: DataFlowGraph
) -> None:
    steps = block_schedule.cstep_of
    for node in dfg.nodes:
        for pred in node.preds:
            if steps[pred.inst.uid] >= steps[node.inst.uid]:
                raise ValueError(
                    f"{name}: {pred.inst} (c{steps[pred.inst.uid]}) must "
                    f"precede {node.inst} (c{steps[node.inst.uid]})"
                )
    term = block_schedule.block.terminator
    if term is not None and steps[term.uid] != block_schedule.n_steps - 1:
        raise ValueError(f"{name}: terminator not in final cstep")
