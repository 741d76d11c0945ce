"""Differential test: ``DataflowGraph.topological_order`` vs networkx.

The in-house Kahn generation sort must reproduce
``networkx.topological_sort`` exactly, because the order fixes ``R_l``/
``R_v``, the critical-path tie-break and ``attached`` order (and through
them every golden). Each graph is built once while recording its
``add_node``/``add_edge`` calls, then the same calls are replayed into an
``nx.DiGraph``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import build_dataflow_graph, fuse_loops
from repro.graph.dataflow import DataflowGraph, DataflowNode
from repro.trace import ExecutionUnit, OpDomain
from repro.trace.opnode import TraceOp
from repro.workloads import available_workloads, build_workload

nx = pytest.importorskip("networkx")


def _record(monkeypatch, build):
    """Run ``build()`` and return (graph, the nx.DiGraph of its calls)."""
    mirror = nx.DiGraph()
    add_node, add_edge = DataflowGraph.add_node, DataflowGraph.add_edge

    def node(self, n):
        add_node(self, n)
        mirror.add_node(n.name)

    def edge(self, u, v):
        add_edge(self, u, v)
        mirror.add_edge(u, v)

    with monkeypatch.context() as m:
        m.setattr(DataflowGraph, "add_node", node)
        m.setattr(DataflowGraph, "add_edge", edge)
        graph = build()
    return graph, mirror


@pytest.fixture(scope="module")
def traces():
    return {name: build_workload(name).build_trace() for name in available_workloads()}


@pytest.mark.parametrize("name", available_workloads())
@pytest.mark.parametrize("loops", [None, 1, 2, 3])
def test_registry_graphs_match_networkx(monkeypatch, traces, name, loops):
    trace = traces[name]
    if loops is None:
        graph, mirror = _record(monkeypatch, lambda: build_dataflow_graph(trace))
    else:
        graph, mirror = _record(monkeypatch, lambda: fuse_loops(trace, loops))
    assert graph.topological_order() == list(nx.topological_sort(mirror))
    assert sorted(graph.edges()) == sorted(mirror.edges())


@st.composite
def random_dags(draw):
    """Nodes in a shuffled insertion order; edges respect a hidden rank."""
    n = draw(st.integers(1, 14))
    insertion = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(a, b) for a, b in draw(st.lists(pairs, max_size=40)) if a < b]
    return insertion, edges


@settings(max_examples=200, deadline=None)
@given(random_dags())
def test_random_dags_match_networkx(dag):
    insertion, edges = dag
    graph, mirror = DataflowGraph("random"), nx.DiGraph()
    for i in insertion:
        name = f"%n{i}"
        op = TraceOp(name, "sum", OpDomain.SYMBOLIC, ExecutionUnit.SIMD, (), (1,))
        graph.add_node(DataflowNode(name=name, op=op))
        mirror.add_node(name)
    for a, b in edges:
        graph.add_edge(f"%n{a}", f"%n{b}")
        mirror.add_edge(f"%n{a}", f"%n{b}")
    assert graph.topological_order() == list(nx.topological_sort(mirror))
