#!/usr/bin/env python3
"""DSE hot-path benchmark: partition-search strategies head to head.

Times cold- and warm-cache :meth:`repro.dse.engine.DseEngine.explore`
under three analytic backends that differ only in how Phase I searches
each geometry's static splits — ``dense`` (an oracle pricing through
the base-class scalar scan), ``bisect`` (an oracle running the monotone
crossing-point search over the batched NumPy kernels at every ``N``)
and ``auto`` (the production :class:`~repro.model.backend.
AnalyticBackend`: vectorized dense at small ``N``, bisection above) —
verifies that all three produce a byte-identical
:class:`~repro.dse.engine.DseReport`, times a small scenario-sweep grid
on the production path, and writes the whole result set to
``BENCH_dse_hotpath.json`` (repo root) — the seed of the repo's bench
trajectory for this hot path.

The headline numbers are per-workload **Phase I sweep stage** speedups
(``phase1.sweep`` wall-clock, dense ÷ bisect) and the model-probe
reduction (``phase1.model_probes`` items): the bisection does
``O(log N)`` probes per geometry instead of ``N − 1``.

Usage::

    PYTHONPATH=src python benchmarks/bench_dse_hotpath.py
    PYTHONPATH=src python benchmarks/bench_dse_hotpath.py --max-pes 512 --check-only

Both modes also gate the schedule backend's batched Phase I: each
workload is explored on the schedule backend twice — through the
batched ``ScheduleBackend.score_geometries`` and through the base-class
scalar scan — and the two ``DseReport``s must be byte-identical with
equal model-probe counts.

``--check-only`` runs the equivalence contract at a small budget and
skips the timing sweep — CI's perf-smoke job uses it to guard the
*results* contract (production analytic ≡ both oracles, batched
schedule ≡ scalar schedule, bit for bit) without depending on runner
wall-clock. Exit status 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import pickle
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dse.engine import DseEngine  # noqa: E402
from repro.dse.timing import (  # noqa: E402
    clear_stage_timings,
    stage_timings,
)
from repro.flow.sweep import ScenarioGrid, run_sweep  # noqa: E402
from repro.graph import build_dataflow_graph  # noqa: E402
from repro.model.backend import (  # noqa: E402
    AnalyticBackend,
    EvaluationBackend,
    ScheduleBackend,
)
from repro.model.batch import bisect_uniform_partition  # noqa: E402
from repro.model.cache import (  # noqa: E402
    cached_workload_arrays,
    clear_model_caches,
)
from repro.quant import MIXED_PRECISION_PRESETS  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

DEFAULT_WORKLOADS = ("nvsa", "mimonet")
SWEEP_WORKLOADS = ("prae", "mimonet")


class ScalarAnalyticOracle(AnalyticBackend):
    """The analytic backend priced through the base-class scalar scan."""

    score_geometry = EvaluationBackend.score_geometry
    score_geometries = EvaluationBackend.score_geometries


class BisectAnalyticOracle(AnalyticBackend):
    """The analytic backend bisecting at every ``N``, not only large ones."""

    def score_geometry(self, h, w, n_sub, layers, vsa_nodes, **_):
        score = super().score_geometry(h, w, n_sub, layers, vsa_nodes)
        if not vsa_nodes:
            return score
        found = bisect_uniform_partition(
            h, w, n_sub, cached_workload_arrays(tuple(layers), tuple(vsa_nodes))
        )
        return dataclasses.replace(
            score, t_parallel=found.t_parallel, nl_bar=found.nl_bar,
            nv_bar=found.nv_bar, probes=found.probes + 1,
        )


#: Phase I partition-search strategies, each an analytic backend with the
#: production ``name``/``version`` (so reports must match byte for byte).
STRATEGIES = {
    "dense": ScalarAnalyticOracle,
    "bisect": BisectAnalyticOracle,
    "auto": AnalyticBackend,
}


def _explore_once(graph, max_pes: int, mode: str):
    """One timed exploration; returns (report, seconds, stage stats)."""
    clear_stage_timings()
    engine = DseEngine(max_pes=max_pes, backend=STRATEGIES[mode]())
    t0 = time.perf_counter()
    report = engine.explore(graph)
    elapsed = time.perf_counter() - t0
    stages = {
        name: {"seconds": s.seconds, "items": s.items}
        for name, s in stage_timings().items()
    }
    return report, elapsed, stages


def bench_workload(name: str, max_pes: int) -> tuple[dict, dict]:
    """Cold/warm explore timings per mode; returns (row, reports)."""
    graph = build_dataflow_graph(build_workload(name).build_trace())
    row: dict = {
        "workload": name,
        "max_pes": max_pes,
        "layer_nodes": len(graph.layer_nodes),
        "vsa_nodes": len(graph.vsa_nodes),
        "modes": {},
    }
    reports = {}
    for mode in STRATEGIES:
        clear_model_caches()
        report, cold_s, cold_stages = _explore_once(graph, max_pes, mode)
        _, warm_s, _ = _explore_once(graph, max_pes, mode)
        reports[mode] = report
        row["modes"][mode] = {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "phase1_sweep_s": cold_stages["phase1.sweep"]["seconds"],
            "model_probes": cold_stages["phase1.model_probes"]["items"],
            "geometries": cold_stages["phase1.sweep"]["items"],
        }
    dense = row["modes"]["dense"]
    bisect = row["modes"]["bisect"]
    row["phase1_speedup_bisect_vs_dense"] = (
        dense["phase1_sweep_s"] / bisect["phase1_sweep_s"]
        if bisect["phase1_sweep_s"] > 0 else float("inf")
    )
    row["probe_reduction"] = (
        dense["model_probes"] / bisect["model_probes"]
        if bisect["model_probes"] else float("inf")
    )
    return row, reports


def bench_sweep_grid(max_pes: int) -> dict:
    """A small scenario grid end to end on the production path."""
    grid = ScenarioGrid(workloads=SWEEP_WORKLOADS, max_pes=(max_pes,))
    clear_model_caches()
    result = run_sweep(grid)
    assert result.n_errors == 0, (
        f"sweep errors: {[o.error for o in result.outcomes if not o.ok]}"
    )
    return {
        "workloads": list(SWEEP_WORKLOADS),
        "max_pes": max_pes,
        "elapsed_s": result.elapsed_s,
        "scenarios": result.n_scenarios,
        "stage_timings": {
            name: {"seconds": s.seconds, "items": s.items}
            for name, s in result.stage_timings.items()
        },
    }


def check_equivalence(reports: dict[str, object], context: str) -> list[str]:
    """Byte-level report identity across strategies; returns mismatch notes."""
    failures = []
    baseline = pickle.dumps(reports["dense"])
    for mode in ("bisect", "auto"):
        if pickle.dumps(reports[mode]) != baseline:
            failures.append(
                f"{context}: DseReport differs between dense and {mode}"
            )
    return failures


class ScalarScheduleOracle(ScheduleBackend):
    """The schedule backend priced through the base-class scalar scan."""

    score_geometry = EvaluationBackend.score_geometry
    score_geometries = EvaluationBackend.score_geometries


def check_schedule_identity(name: str, max_pes: int) -> list[str]:
    """Batched vs scalar schedule-backend reports; returns mismatch notes."""
    graph = build_dataflow_graph(build_workload(name).build_trace())
    precision = MIXED_PRECISION_PRESETS["MP"]
    runs = {}
    for label, cls in (("batched", ScheduleBackend),
                       ("scalar", ScalarScheduleOracle)):
        clear_model_caches()
        clear_stage_timings()
        report = DseEngine(
            max_pes=max_pes, precision=precision,
            backend=cls.from_precision(precision),
        ).explore(graph)
        probes = stage_timings()["phase1.model_probes"].items
        runs[label] = (pickle.dumps(report), probes)
    failures = []
    context = f"{name}@{max_pes} schedule backend"
    if runs["batched"][0] != runs["scalar"][0]:
        failures.append(f"{context}: DseReport differs between batched and scalar")
    if runs["batched"][1] != runs["scalar"][1]:
        failures.append(
            f"{context}: model probes {runs['batched'][1]} (batched) != "
            f"{runs['scalar'][1]} (scalar)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-pes", type=int, default=8192,
                        help="PE budget for the explore benches "
                             "(default: 8192, the paper's deployment scale)")
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workloads to explore")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_dse_hotpath.json",
                        help="result JSON path "
                             "(default: repo-root BENCH_dse_hotpath.json)")
    parser.add_argument("--check-only", action="store_true",
                        help="verify cross-strategy equivalence and exit; "
                             "skip the timing grid and the JSON write")
    args = parser.parse_args(argv)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]

    failures: list[str] = []
    rows = []
    for name in workloads:
        row, reports = bench_workload(name, args.max_pes)
        failures.extend(check_equivalence(reports, f"{name}@{args.max_pes}"))
        failures.extend(check_schedule_identity(name, args.max_pes))
        rows.append(row)
        d, b = row["modes"]["dense"], row["modes"]["bisect"]
        print(f"{name:>10} @ {args.max_pes} PEs: "
              f"phase1 {d['phase1_sweep_s']*1e3:8.1f} ms dense -> "
              f"{b['phase1_sweep_s']*1e3:7.1f} ms bisect "
              f"({row['phase1_speedup_bisect_vs_dense']:6.1f}x, "
              f"probes {d['model_probes']:,} -> {b['model_probes']:,})")

    if failures:
        for failure in failures:
            print(f"EQUIVALENCE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"equivalence: all {len(workloads)} workloads byte-identical "
          "across partition-search strategies and batched/scalar schedule "
          "pricing")
    if args.check_only:
        return 0

    sweep = bench_sweep_grid(args.max_pes)
    doc = {
        "bench": "dse_hotpath",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "max_pes": args.max_pes,
        "explore": rows,
        "sweep_grid": sweep,
        "equivalent_across_modes": True,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")

    worst = min(r["phase1_speedup_bisect_vs_dense"] for r in rows)
    print(f"worst-case Phase I sweep speedup (bisect vs dense): {worst:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
