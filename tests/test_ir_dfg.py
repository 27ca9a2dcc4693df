"""Unit tests for the per-block data-flow graph, including the
dependence kinds the FSMD scheduler relies on (RAW, WAR, WAW, memory)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.basic_block import BasicBlock
from repro.ir.dfg import DataFlowGraph
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import INT32, ArrayType
from repro.ir.values import ArrayValue, Temp, Variable, const


def add(result, lhs, rhs):
    return Instruction(Opcode.ADD, result=result, operands=[lhs, rhs])


def mov(result, source):
    return Instruction(Opcode.MOV, result=result, operands=[source])


class TestFlowDependences:
    def test_raw_edge(self):
        block = BasicBlock("bb")
        t0 = Temp(INT32)
        t1 = Temp(INT32)
        block.append(add(t0, const(1), const(2)))
        block.append(add(t1, t0, const(3)))
        block.append(Instruction(Opcode.RET, operands=[t1]))
        dfg = DataFlowGraph(block)
        producer, consumer, ret = dfg.nodes
        assert consumer in producer.succs
        assert ret in consumer.succs

    def test_no_edge_between_independent_ops(self):
        block = BasicBlock("bb")
        block.append(add(Temp(INT32), const(1), const(2)))
        block.append(add(Temp(INT32), const(3), const(4)))
        block.append(Instruction(Opcode.RET))
        dfg = DataFlowGraph(block)
        a, b, __ = dfg.nodes
        assert b not in a.succs

    def test_war_edge_on_variable_redefinition(self):
        # reader of v must precede the instruction redefining v.
        block = BasicBlock("bb")
        v = Variable(INT32, "v")
        t = Temp(INT32)
        block.append(mov(v, const(1)))
        block.append(add(t, v, const(2)))  # reads v
        block.append(mov(v, const(9)))  # redefines v -> WAR edge from reader
        block.append(Instruction(Opcode.RET, operands=[t]))
        dfg = DataFlowGraph(block)
        reader = dfg.nodes[1]
        writer = dfg.nodes[2]
        assert writer in reader.succs

    def test_waw_edge(self):
        block = BasicBlock("bb")
        v = Variable(INT32, "v")
        block.append(mov(v, const(1)))
        block.append(mov(v, const(2)))
        block.append(Instruction(Opcode.RET, operands=[v]))
        dfg = DataFlowGraph(block)
        first, second, __ = dfg.nodes
        assert second in first.succs


class TestMemoryDependences:
    def setup_method(self):
        self.array = ArrayValue(ArrayType(INT32, 8), "a")

    def load(self, result, index):
        return Instruction(
            Opcode.LOAD, result=result, operands=[index], array=self.array
        )

    def store(self, index, value):
        return Instruction(Opcode.STORE, operands=[index, value], array=self.array)

    def test_store_to_load_edge(self):
        block = BasicBlock("bb")
        block.append(self.store(const(0), const(5)))
        block.append(self.load(Temp(INT32), const(0)))
        block.append(Instruction(Opcode.RET))
        dfg = DataFlowGraph(block)
        st_node, ld_node, __ = dfg.nodes
        assert ld_node in st_node.succs

    def test_load_to_store_edge(self):
        block = BasicBlock("bb")
        block.append(self.load(Temp(INT32), const(0)))
        block.append(self.store(const(0), const(5)))
        block.append(Instruction(Opcode.RET))
        dfg = DataFlowGraph(block)
        ld_node, st_node, __ = dfg.nodes
        assert st_node in ld_node.succs

    def test_store_to_store_edge(self):
        block = BasicBlock("bb")
        block.append(self.store(const(0), const(1)))
        block.append(self.store(const(1), const(2)))
        block.append(Instruction(Opcode.RET))
        dfg = DataFlowGraph(block)
        first, second, __ = dfg.nodes
        assert second in first.succs

    def test_different_arrays_independent(self):
        other = ArrayValue(ArrayType(INT32, 8), "b")
        block = BasicBlock("bb")
        block.append(self.store(const(0), const(1)))
        block.append(Instruction(Opcode.STORE, operands=[const(0), const(2)], array=other))
        block.append(Instruction(Opcode.RET))
        dfg = DataFlowGraph(block)
        first, second, __ = dfg.nodes
        assert second not in first.succs


class TestGraphQueries:
    def test_topological_order_respects_edges(self):
        block = BasicBlock("bb")
        t0, t1, t2 = Temp(INT32), Temp(INT32), Temp(INT32)
        block.append(add(t0, const(1), const(2)))
        block.append(add(t1, t0, const(3)))
        block.append(add(t2, t1, t0))
        block.append(Instruction(Opcode.RET, operands=[t2]))
        dfg = DataFlowGraph(block)
        order = dfg.topological_order()
        position = {node: i for i, node in enumerate(order)}
        for src, dst in dfg.edges():
            assert position[src] < position[dst]

    def test_topological_order_is_index_order(self):
        block = BasicBlock("bb")
        t0, t1, t2 = Temp(INT32), Temp(INT32), Temp(INT32)
        block.append(add(t1, const(1), const(2)))
        block.append(add(t0, const(3), const(4)))
        block.append(add(t2, t0, t1))
        block.append(Instruction(Opcode.RET, operands=[t2]))
        dfg = DataFlowGraph(block)
        assert dfg.topological_order() == dfg.nodes

    def test_duplicate_edge_added_once(self):
        block = BasicBlock("bb")
        t0, t1 = Temp(INT32), Temp(INT32)
        block.append(add(t0, const(1), const(2)))
        block.append(add(t1, t0, t0))  # reads t0 twice: one RAW edge
        block.append(Instruction(Opcode.RET, operands=[t1]))
        dfg = DataFlowGraph(block)
        first, second, ret = dfg.nodes
        assert first.succs == [second]
        assert second.preds == [first]
        assert dfg.edges() == [(first, second), (second, ret)]

    @pytest.mark.parametrize("closes_cycle", [True, False])
    def test_hand_added_back_edge_raises(self, closes_cycle):
        block = BasicBlock("bb")
        t0, t1, t2 = Temp(INT32), Temp(INT32), Temp(INT32)
        block.append(add(t0, const(1), const(2)))
        block.append(add(t1, t0, const(3)) if closes_cycle else mov(t1, const(3)))
        block.append(add(t2, t1, const(4)))
        block.append(Instruction(Opcode.RET, operands=[t2]))
        dfg = DataFlowGraph(block)
        dfg.topological_order()
        first, _second, third, _ret = dfg.nodes
        dfg._add_edge(third, first)
        with pytest.raises(ValueError, match="back edge 2 -> 0"):
            dfg.topological_order()

    def test_critical_path_length_of_chain(self):
        block = BasicBlock("bb")
        value = const(1)
        prev = None
        for __ in range(4):
            t = Temp(INT32)
            block.append(add(t, prev if prev is not None else value, const(1)))
            prev = t
        block.append(Instruction(Opcode.RET, operands=[prev]))
        dfg = DataFlowGraph(block)
        assert dfg.critical_path_length() == 5  # 4 adds + ret

    def test_roots_and_leaves(self):
        block = BasicBlock("bb")
        t0 = Temp(INT32)
        block.append(add(t0, const(1), const(2)))
        block.append(Instruction(Opcode.RET, operands=[t0]))
        dfg = DataFlowGraph(block)
        assert dfg.roots() == [dfg.nodes[0]]
        assert dfg.leaves() == [dfg.nodes[1]]

    def test_operation_nodes_excludes_moves(self):
        block = BasicBlock("bb")
        block.append(add(Temp(INT32), const(1), const(2)))
        block.append(mov(Temp(INT32), const(3)))
        block.append(Instruction(Opcode.RET))
        dfg = DataFlowGraph(block)
        assert len(dfg.operation_nodes()) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=20))
def test_dfg_is_always_acyclic(choices):
    """Property: any straight-line block yields a DAG (topo sort succeeds)."""
    block = BasicBlock("bb")
    array = ArrayValue(ArrayType(INT32, 8), "mem")
    values = [const(1)]
    v = Variable(INT32, "acc")
    for choice in choices:
        if choice == 0:
            t = Temp(INT32)
            block.append(add(t, values[-1], const(2)))
            values.append(t)
        elif choice == 1:
            block.append(mov(v, values[-1]))
            values.append(v)
        elif choice == 2:
            t = Temp(INT32)
            block.append(
                Instruction(Opcode.LOAD, result=t, operands=[const(0)], array=array)
            )
            values.append(t)
        else:
            block.append(
                Instruction(Opcode.STORE, operands=[const(0), values[-1]], array=array)
            )
    block.append(Instruction(Opcode.RET))
    dfg = DataFlowGraph(block)
    order = dfg.topological_order()
    assert len(order) == len(dfg.nodes)
