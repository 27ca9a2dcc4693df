"""Per-basic-block data-flow graphs.

The DFG is the object TAO's Algorithm 1 diversifies: nodes are datapath
operations, edges are flow dependences inside one basic block.  Memory
operations on the same array are serialized with dependence edges so
scheduling never reorders conflicting accesses.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import Constant, Value


class DFGNode:
    """A node of the data-flow graph wrapping one instruction."""

    def __init__(self, inst: Instruction, index: int) -> None:
        self.inst = inst
        self.index = index
        self.preds: list[DFGNode] = []
        self.succs: list[DFGNode] = []

    @property
    def opcode(self) -> Opcode:
        return self.inst.opcode

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DFGNode {self.index}: {self.inst}>"


class DataFlowGraph:
    """Flow- and memory-dependence graph of one basic block.

    Edges point from producer to consumer.  The graph is a DAG: a value
    defined later in the block never feeds an earlier instruction.
    """

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        self.nodes: list[DFGNode] = []
        self._edge_set: set[tuple[int, int]] = set()
        self._build()

    def _build(self) -> None:
        last_def: dict[Value, DFGNode] = {}
        last_store: dict[str, DFGNode] = {}
        last_loads: dict[str, list[DFGNode]] = {}
        # Readers of a value since its last definition (for WAR edges).
        readers_since_def: dict[Value, list[DFGNode]] = {}

        for index, inst in enumerate(self.block.instructions):
            node = DFGNode(inst, index)
            self.nodes.append(node)
            # Flow (read-after-write) dependences through values.
            for operand in inst.operands:
                if isinstance(operand, Constant):
                    continue
                producer = last_def.get(operand)
                if producer is not None:
                    self._add_edge(producer, node)
                readers_since_def.setdefault(operand, []).append(node)
            # Memory dependences per array.
            if inst.opcode is Opcode.LOAD:
                assert inst.array is not None
                store = last_store.get(inst.array.name)
                if store is not None:
                    self._add_edge(store, node)
                last_loads.setdefault(inst.array.name, []).append(node)
            elif inst.opcode is Opcode.STORE:
                assert inst.array is not None
                store = last_store.get(inst.array.name)
                if store is not None:
                    self._add_edge(store, node)
                for load in last_loads.get(inst.array.name, []):
                    self._add_edge(load, node)
                last_store[inst.array.name] = node
                last_loads[inst.array.name] = []
            elif inst.opcode is Opcode.CALL:
                # Calls conservatively order against all memory traffic.
                for other in list(last_store.values()):
                    self._add_edge(other, node)
                for loads in last_loads.values():
                    for load in loads:
                        self._add_edge(load, node)
                for name in list(last_store):
                    last_store[name] = node
                for name in list(last_loads):
                    last_loads[name] = []
            # Redefinitions order after the prior definition (WAW) and
            # after every reader of the old value (WAR): the FSMD commits
            # register writes at end-of-cstep, so a reader scheduled at or
            # after the writer's cstep would observe the new value.
            if inst.result is not None:
                prior = last_def.get(inst.result)
                if prior is not None:
                    self._add_edge(prior, node)
                for reader in readers_since_def.get(inst.result, []):
                    if reader is not node:
                        self._add_edge(reader, node)
                readers_since_def[inst.result] = []
                last_def[inst.result] = node
            # Terminators depend on everything that defines their operands
            # (already handled) — nothing extra needed.

    def _add_edge(self, src: DFGNode, dst: DFGNode) -> None:
        pair = (src.index, dst.index)
        if pair not in self._edge_set:
            self._edge_set.add(pair)
            src.succs.append(dst)
            dst.preds.append(src)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def operation_nodes(self) -> list[DFGNode]:
        """Nodes occupying functional units (TAO's swap candidates)."""
        return [n for n in self.nodes if n.inst.is_datapath_op]

    def edges(self) -> list[tuple[DFGNode, DFGNode]]:
        return [(src, dst) for src in self.nodes for dst in src.succs]

    def roots(self) -> list[DFGNode]:
        return [n for n in self.nodes if not n.preds]

    def leaves(self) -> list[DFGNode]:
        return [n for n in self.nodes if not n.succs]

    def topological_order(self) -> list[DFGNode]:
        """Nodes in a dependence-respecting order: index order.

        ``_build`` only adds edges from an earlier instruction to a
        later one, so Kahn's smallest-index-first order is exactly the
        index order.  A linear check confirms it and raises on an edge
        that points back, which only a hand-added edge can be.
        """
        for node in self.nodes:
            for succ in node.succs:
                if succ.index <= node.index:
                    raise ValueError(
                        f"back edge {node.index} -> {succ.index} in data-flow "
                        "graph: edges must follow instruction order"
                    )
        return list(self.nodes)

    def critical_path_length(self) -> int:
        """Longest chain of dependent operations (in nodes)."""
        depth: dict[DFGNode, int] = {}
        for node in self.topological_order():
            depth[node] = 1 + max((depth[p] for p in node.preds), default=0)
        return max(depth.values(), default=0)

    def __iter__(self) -> Iterator[DFGNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DFG {self.block.name}: {len(self.nodes)} nodes, "
            f"{len(self.edges())} edges>"
        )
