"""Unit tests for dataflow-graph construction (Fig. 4 steps ①-③)."""

import pytest

from repro.errors import GraphError
from repro.graph import build_dataflow_graph, fuse_loops
from repro.nn.gemm import GemmDims
from repro.trace import ExecutionUnit, OpDomain, Trace, Tracer


def _chain_with_fanout() -> Trace:
    """conv → conv → [3 parallel VSA ops] → sum."""
    t = Tracer("toy")
    c1 = t.record("conv2d", OpDomain.NEURAL, ExecutionUnit.ARRAY_NN,
                  ("%input",), (1, 8, 8, 8), gemm=GemmDims(64, 8, 9))
    c2 = t.record("conv2d", OpDomain.NEURAL, ExecutionUnit.ARRAY_NN,
                  (c1.name,), (1, 8, 8, 8), gemm=GemmDims(64, 8, 72))
    binds = [
        t.record_binding((c2.name,), n_vectors=2, dim=16) for _ in range(3)
    ]
    t.record_simd("sum", tuple(b.name for b in binds), (3,))
    return t.finish()


class TestBuild:
    def test_structure(self):
        g = build_dataflow_graph(_chain_with_fanout())
        assert len(g) == 6
        g.validate()

    def test_critical_path_is_a_path(self):
        g = build_dataflow_graph(_chain_with_fanout())
        cp = g.critical_path
        for a, b in zip(cp, cp[1:]):
            assert b in g.successors(a)

    def test_critical_path_contains_heavy_chain(self):
        """FLOP weighting puts the conv chain on the critical path."""
        g = build_dataflow_graph(_chain_with_fanout())
        assert "%conv2d_1" in g.critical_path
        assert "%conv2d_2" in g.critical_path

    def test_every_noncritical_node_attached_once(self):
        g = build_dataflow_graph(_chain_with_fanout())
        cp = set(g.critical_path)
        attached = [name for node in g if node.on_critical_path for name in node.attached]
        off_path = [n.name for n in g if not n.on_critical_path]
        assert sorted(attached) == sorted(off_path)
        assert not (set(attached) & cp)

    def test_depths_monotone_along_edges(self):
        g = build_dataflow_graph(_chain_with_fanout())
        for node in g:
            for succ in g.successors(node.name):
                assert g.node(succ).depth > node.depth

    def test_empty_trace_rejected(self):
        with pytest.raises(GraphError):
            build_dataflow_graph(Trace("empty", []))

    def test_layer_and_vsa_selectors_ordered(self, small_nvsa_graph):
        layers = small_nvsa_graph.layer_nodes
        assert all(n.gemm is not None for n in layers)
        order = {n: i for i, n in enumerate(small_nvsa_graph.topological_order())}
        indices = [order[n.name] for n in layers]
        assert indices == sorted(indices)

    def test_vsa_span_covers_all_nodes(self, small_nvsa_graph):
        """Union of per-layer spans covers the whole VSA node set."""
        n_vsa = len(small_nvsa_graph.vsa_nodes)
        covered = set()
        for layer in small_nvsa_graph.layer_nodes:
            lo, hi = small_nvsa_graph.vsa_span_for_layer(layer.name)
            assert 0 <= lo < hi <= n_vsa
            covered.update(range(lo, hi))
        assert covered == set(range(n_vsa))

    def test_span_rejects_non_layer(self, small_nvsa_graph):
        with pytest.raises(GraphError):
            small_nvsa_graph.vsa_span_for_layer("%not_a_layer")


class TestFuseLoops:
    def test_size_scales_with_loops(self):
        trace = _chain_with_fanout()
        g1 = fuse_loops(trace, 1)
        g3 = fuse_loops(trace, 3)
        assert len(g3) == 3 * len(g1)

    def test_unit_serialization_edges(self):
        """Loop k's first NN node depends on loop k-1's last NN node."""
        trace = _chain_with_fanout()
        g = fuse_loops(trace, 2)
        assert "%conv2d_1@loop1" in g.successors("%conv2d_2")

    def test_cross_loop_overlap_possible(self):
        """Loop 1's NN does NOT depend on loop 0's symbolic tail."""
        trace = _chain_with_fanout()
        g = fuse_loops(trace, 2)
        reached, stack = set(), ["%sum_1"]
        while stack:
            for succ in g.successors(stack.pop()):
                if succ not in reached:
                    reached.add(succ)
                    stack.append(succ)
        assert "%conv2d_1@loop1" not in reached

    def test_still_a_dag(self):
        g = fuse_loops(_chain_with_fanout(), 4)
        g.validate()

    def test_invalid_loop_count(self):
        with pytest.raises(GraphError):
            fuse_loops(_chain_with_fanout(), 0)
