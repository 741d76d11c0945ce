"""Unit tests for the DataflowGraph adjacency and its topological order."""

import pytest

from repro.errors import GraphError
from repro.graph.dataflow import DataflowGraph, DataflowNode
from repro.trace import ExecutionUnit, OpDomain
from repro.trace.opnode import TraceOp


def _graph(*names: str) -> DataflowGraph:
    g = DataflowGraph("toy")
    for name in names:
        op = TraceOp(name, "sum", OpDomain.SYMBOLIC, ExecutionUnit.SIMD, (), (1,))
        g.add_node(DataflowNode(name=name, op=op))
    return g


class TestAdjacency:
    @pytest.mark.parametrize("method", ["predecessors", "successors"])
    def test_unknown_node_raises_graph_error(self, method):
        g = _graph("%a")
        with pytest.raises(GraphError, match="%missing"):
            getattr(g, method)("%missing")

    def test_duplicate_edge_leaves_one_predecessor(self):
        g = _graph("%a", "%b")
        g.add_edge("%a", "%b")
        g.add_edge("%a", "%b")
        assert g.predecessors("%b") == ["%a"]
        assert g.successors("%a") == ["%b"]
        assert g.edges() == [("%a", "%b")]

    def test_edge_to_unknown_node_rejected(self):
        g = _graph("%a")
        with pytest.raises(GraphError):
            g.add_edge("%a", "%missing")


class TestCycles:
    def test_two_cycle_named(self):
        g = _graph("%src", "%a", "%b")
        g.add_edge("%src", "%a")
        g.add_edge("%a", "%b")
        g.add_edge("%b", "%a")
        with pytest.raises(GraphError, match="cycle") as exc:
            g.validate()
        message = str(exc.value)
        assert "('%a', '%b')" in message and "('%b', '%a')" in message
        assert "%src" not in message

    def test_self_loop_named(self):
        g = _graph("%a", "%b")
        g.add_edge("%a", "%b")
        g.add_edge("%b", "%b")
        with pytest.raises(GraphError, match=r"cycle: \[\('%b', '%b'\)\]"):
            g.validate()

    def test_topological_order_refuses_a_cycle(self):
        g = _graph("%a", "%b")
        g.add_edge("%a", "%b")
        g.add_edge("%b", "%a")
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()


class TestTopologicalOrder:
    def test_generations_in_insertion_order(self):
        g = _graph("%d", "%c", "%b", "%a")
        g.add_edge("%d", "%a")
        g.add_edge("%c", "%b")
        g.add_edge("%d", "%b")
        # Sources by insertion, then freed children by successor order.
        assert g.topological_order() == ["%d", "%c", "%a", "%b"]

    def test_memoised_order_refreshed_after_add_edge(self):
        g = _graph("%a", "%b")
        assert g.topological_order() == ["%a", "%b"]
        g.add_edge("%b", "%a")
        assert g.topological_order() == ["%b", "%a"]
        assert [n.name for n in g.simd_nodes] == ["%b", "%a"]

    def test_memoised_order_refreshed_after_add_node(self):
        g = _graph("%a")
        assert g.topological_order() == ["%a"]
        g.add_node(_graph("%z").node("%z"))
        assert g.topological_order() == ["%a", "%z"]

    def test_returned_order_is_a_copy(self):
        g = _graph("%a", "%b")
        g.topological_order().reverse()
        assert g.topological_order() == ["%a", "%b"]
