#!/usr/bin/env python
"""Accuracy-objective smoke gate (CI's perf-smoke lane).

Proves the functional-accuracy contract end to end with the real sweep
orchestrator:

1. cold-sweep ``prae`` across the INT8 and INT4 precision presets with
   ``--accuracy`` on: both scenarios must score, the scores must obey
   the quantization ladder (INT4 <= INT8), and the deployment-precision
   twin must make the trade-off *visible* (INT4 strictly below INT8 at
   the default problem set — the whole point of the fourth axis);
2. cold-sweep ``mimonet`` (the one workload whose accuracy runs its CNN)
   across the same presets at a small problem count: both must score;
3. across both cold sweeps, each (workload, seed) must have built its
   seeded network exactly once — every precision twin reuses it
   (``network_build_stats()``, a count that does not depend on the
   machine);
4. warm-sweep the identical grids after clearing the in-process memo:
   every scenario must be a cache hit, pricing zero fresh DSE
   evaluations and executing **zero** functional accuracy problems
   (``accuracy_cache_stats()``) — the scores ride the artifact store;
5. the warm scores must be bit-identical to the cold ones.

Any violated invariant exits non-zero.

Usage:
    PYTHONPATH=src python tools/accuracy_smoke.py [--workdir DIR]
        [--problems N]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
)

from repro.dse import accuracy_cache_stats, clear_accuracy_cache  # noqa: E402
from repro.flow import ArtifactStore, ScenarioGrid, run_sweep  # noqa: E402
from repro.nn import clear_network_memo, network_build_stats  # noqa: E402

#: Problems per mimonet evaluation: its CNN makes it the slowest to score.
MIMONET_PROBLEMS = 2


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def scores(result) -> dict[str, float | None]:
    out = {}
    for outcome in result.ok_outcomes():
        acc = outcome.artifacts.report.accuracy
        if acc is None:
            fail(f"{outcome.spec.scenario_id} has no accuracy result")
        out[outcome.spec.scenario_id] = acc.value
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=None,
                        help="cache directory (default: a temp dir)")
    parser.add_argument("--problems", type=int, default=16,
                        help="seeded problems per evaluation (default 16)")
    args = parser.parse_args()

    workdir = pathlib.Path(
        args.workdir or tempfile.mkdtemp(prefix="accuracy-smoke-")
    )
    precisions = ("INT8", "INT4")
    grids = {
        "prae": ScenarioGrid(
            workloads=("prae",), precisions=precisions, accuracy=True,
            accuracy_problems=args.problems,
        ),
        "mimonet": ScenarioGrid(
            workloads=("mimonet",), precisions=precisions, accuracy=True,
            accuracy_problems=MIMONET_PROBLEMS,
        ),
    }
    store = ArtifactStore(workdir / "cache")

    clear_accuracy_cache()
    clear_network_memo()
    cold_scores = {}
    for name, grid in grids.items():
        cold = run_sweep(grid, store=store)
        if cold.n_errors:
            fail(f"cold {name} sweep recorded {cold.n_errors} errors")
        if cold.n_compiled != len(precisions):
            fail(f"cold {name} sweep compiled {cold.n_compiled} scenarios, "
                 f"wanted {len(precisions)}")
        cold_scores.update(scores(cold))
    int8 = cold_scores[f"prae@u250/INT8/acc{args.problems}"]
    int4 = cold_scores[f"prae@u250/INT4/acc{args.problems}"]
    if int8 is None or int4 is None:
        fail(f"prae scenarios must score, got INT8={int8} INT4={int4}")
    if int4 > int8:
        fail(f"quantization ladder violated: INT4 {int4} > INT8 {int8}")
    if int4 >= int8:
        fail(
            f"no visible trade-off: INT4 {int4} == INT8 {int8} — the "
            "deployment-precision twin is not reaching the pipeline"
        )
    mimonet = {
        p: cold_scores[f"mimonet@u250/{p}/acc{MIMONET_PROBLEMS}"]
        for p in precisions
    }
    if None in mimonet.values():
        fail(f"mimonet scenarios must score, got {mimonet}")
    builds = network_build_stats()
    if builds["builds"] != len(grids):
        fail(
            f"cold sweeps built {builds['builds']} seeded networks for "
            f"{len(grids)} (workload, seed) pairs — a precision twin "
            "rebuilt its network instead of reusing it"
        )
    print(f"cold: prae INT8 {int8:.4f}, INT4 {int4:.4f} "
          f"({args.problems} problems); mimonet INT8 {mimonet['INT8']:.4f}, "
          f"INT4 {mimonet['INT4']:.4f} ({MIMONET_PROBLEMS} problems); "
          f"{builds['builds']} network builds, {builds['hits']} reused")

    clear_accuracy_cache()
    warm_scores = {}
    for name, grid in grids.items():
        warm = run_sweep(grid, store=store)
        if warm.n_compiled != 0:
            fail(f"warm {name} sweep re-priced {warm.n_compiled} scenarios")
        warm_scores.update(scores(warm))
    executed = accuracy_cache_stats()["executed"]
    if executed != 0:
        fail(f"warm sweep re-executed {executed} accuracy evaluations")
    if warm_scores != cold_scores:
        fail(f"warm scores drifted: {warm_scores} != {cold_scores}")
    print(f"warm: {len(warm_scores)} cache hits, 0 fresh evaluations, "
          "0 accuracy executions, scores bit-identical")
    print("OK: accuracy smoke passed")


if __name__ == "__main__":
    main()
