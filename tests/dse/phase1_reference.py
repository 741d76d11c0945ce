"""Scalar Phase I reference: the original serial geometry sweep.

Production Phase I is :meth:`repro.dse.DseEngine.explore` (batched,
priced through an evaluation backend). This is the straight-line form of
Algorithm 1 lines 2-15, kept as the oracle the engine's Phase I must
reproduce exactly.
"""

from __future__ import annotations

from repro.dse.phase1 import Phase1Result, extract_cost_dims
from repro.errors import DSEError
from repro.graph.dataflow import DataflowGraph
from repro.model.designspace import hw_config_candidates
from repro.model.runtime import parallel_runtime, sequential_runtime
from repro.utils import log2_int

__all__ = ["run_phase1"]


def run_phase1(
    graph: DataflowGraph,
    max_pes: int,
    range_h: tuple[int, int] = (4, 256),
    range_w: tuple[int, int] = (4, 256),
    aspect_min: float = 0.25,
    aspect_max: float = 16.0,
) -> Phase1Result:
    """Sweep pruned geometries and static partitions (Algorithm 1 l.2-15)."""
    layers, vsa_nodes = extract_cost_dims(graph)
    m = log2_int(max_pes)

    best_para: tuple[int, int, int, int, int, int] | None = None  # t, h, w, n, nl, nv
    best_seq: tuple[int, int, int, int] | None = None             # t, h, w, n
    evaluated = 0
    for h, w in hw_config_candidates(m, aspect_min, aspect_max, prune=True):
        if not (range_h[0] <= h <= range_h[1] and range_w[0] <= w <= range_w[1]):
            continue
        n_sub = max_pes // (h * w)
        if n_sub < 2:
            continue

        t_seq = sequential_runtime(h, w, n_sub, layers, vsa_nodes)
        evaluated += 1
        if best_seq is None or t_seq < best_seq[0]:
            best_seq = (int(t_seq), h, w, n_sub)

        if vsa_nodes:
            for nl_bar in range(1, n_sub):
                nv_bar = n_sub - nl_bar
                t_para = parallel_runtime(
                    h, w,
                    [nl_bar] * len(layers),
                    [nv_bar] * len(vsa_nodes),
                    layers, vsa_nodes,
                )
                evaluated += 1
                if best_para is None or t_para < best_para[0]:
                    best_para = (int(t_para), h, w, n_sub, nl_bar, nv_bar)
        else:
            # No VSA nodes: "parallel" degenerates to whole-array NN.
            if best_para is None or t_seq < best_para[0]:
                best_para = (int(t_seq), h, w, n_sub, n_sub, 0)

    if best_para is None or best_seq is None:
        raise DSEError(
            f"Phase I found no feasible geometry for max_pes={max_pes} "
            f"within H range {range_h}, W range {range_w}"
        )
    t_para, h, w, n_sub, nl_bar, nv_bar = best_para
    t_seq, sh, sw, sn = best_seq
    return Phase1Result(
        h=h,
        w=w,
        n_sub=n_sub,
        nl_bar=nl_bar,
        nv_bar=nv_bar,
        t_parallel=t_para,
        seq_h=sh,
        seq_w=sw,
        seq_n_sub=sn,
        t_sequential=t_seq,
        candidates_evaluated=evaluated,
    )
