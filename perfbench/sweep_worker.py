"""One sweep workload in a fresh process: set-up, cold pass, warm passes.

Run by ``run.py``; prints one JSON document on its last stdout line.

* **set-up** — import, a two-worker ``DsePool`` spun up, the artifact
  store opened. ``setup_s`` runs from the parent's spawn (a
  ``time.monotonic`` stamp passed in ``--spawned-at``) to here.
  ``--setup-only`` stops after it.
* **cold pass** — ``run_sweep`` over the grid against an empty store and
  ledger, with the process's model and accuracy caches empty, as a new
  user pays on a default ``repro sweep``.
* **warm passes** — the same grid again until ``--seconds`` have passed;
  every scenario must be a store hit returning the cold pass's artifacts
  byte for byte.

With ``--trace 1`` the layer entry points are wrapped (after the pool is
up, so workers stay unwrapped) and the per-layer figures are returned;
warm passes then alternate traced and untraced to give the overhead.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from common import (
    artifact_bytes, geomean, median, outcome_problems, peak_rss_mb, percentile,
)
import spans
from scenarios import SWEEP_JOBS, SWEEP_WORKLOADS, sweep_grid

MIN_WARM_PASSES = 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SWEEP_WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    import repro.flow.sweep as sweep_mod
    from repro.dse.engine import DsePool
    from repro.faults import RetryPolicy
    from repro.flow.artifacts import ArtifactStore
    t_import = time.monotonic()
    pool = DsePool(SWEEP_JOBS)
    pool.map(abs, [0] * SWEEP_JOBS, chunksize=1)
    t_pool = time.monotonic()
    # Exactly what `repro sweep --cache-dir DIR` opens by default.
    retry = RetryPolicy(max_attempts=3)
    store = ArtifactStore(args.workdir / "store", retry=retry)
    ledger = args.workdir / "store" / "sweep-ledger.jsonl"
    setup = {
        "setup_s": time.monotonic() - args.spawned_at,
        "import_s": t_import - t0,
        "pool_spinup_s": t_pool - t_import,
    }
    if args.setup_only:
        pool.close()
        print(json.dumps({"setup": setup}))
        return 0

    specs = sweep_grid(args.workload, args.seed).expand()
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder(
            {s.cache_key(): s.scenario_id for s in specs}
        )
        recorder.install()
        snap = spans.program_snapshot()

    def one_pass():
        t = time.perf_counter()
        result = sweep_mod.run_sweep(
            specs, store=store, pool=pool, ledger=ledger, retry=retry,
        )
        return result, time.perf_counter() - t

    problems: list[str] = []
    maps_before = pool.maps
    if recorder is not None:
        recorder.phase = "cold"
    cold, cold_s = one_pass()
    pool_maps = pool.maps - maps_before
    if recorder is not None:
        program = spans.program_since(snap)
    attempted = len(specs)
    cold_bytes = {}
    for outcome in cold.outcomes:
        found = outcome_problems(outcome)
        if outcome.cached:
            found.append(f"{outcome.scenario_id}: cold pass hit the store")
        problems.extend(found)
        if outcome.ok:
            cold_bytes[outcome.key] = (artifact_bytes(outcome.artifacts),
                                       outcome.artifact_digest)
    failed = len(problems)

    # Warm passes. The first is compared byte for byte with the cold
    # artifacts; later ones by the store's entry digest.
    warm_rates, request_ms, pass_s = [], [], {"traced": [], "plain": []}
    deadline = time.perf_counter() + args.seconds
    n_pass = 0
    while n_pass < MIN_WARM_PASSES or time.perf_counter() < deadline:
        traced = recorder is not None and n_pass % 2 == 0
        if recorder is not None:
            recorder.phase = "warm" if traced else "plain"
            if traced:
                recorder.install()
            else:
                recorder.uninstall()
        result, wall = one_pass()
        pass_s["traced" if traced else "plain"].append(wall)
        warm_rates.append(len(result.outcomes) / wall)
        for outcome in result.outcomes:
            attempted += 1
            request_ms.append(outcome.elapsed_s * 1e3)
            bad = not outcome.ok or not outcome.cached
            want_bytes, want_digest = cold_bytes.get(outcome.key, (None, None))
            if not bad and n_pass == 0:
                bad = artifact_bytes(outcome.artifacts) != want_bytes
            elif not bad:
                bad = outcome.artifact_digest != want_digest
            if bad:
                failed += 1
                problems.append(f"{outcome.scenario_id}: warm pass {n_pass} "
                                "did not return the cold artifacts")
        n_pass += 1
    if recorder is not None:
        recorder.uninstall()

    ok_outcomes = [o for o in cold.outcomes if o.ok]
    metrics = {
        "cold_scenarios_per_s": len(specs) / cold_s,
        "warm_scenarios_per_s": median(warm_rates),
        "request_ms_p50": percentile(request_ms, 50),
        "request_ms_p99": percentile(request_ms, 99),
        "design_latency_ms_geomean": geomean(o.latency_ms for o in ok_outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }
    counts = {
        "cold_scenarios_per_s": len(specs),
        "warm_scenarios_per_s": len(warm_rates),
        "request_ms_p50": len(request_ms),
        "request_ms_p99": len(request_ms),
        "design_latency_ms_geomean": len(ok_outcomes),
        "peak_rss_mb": 1,
    }
    doc = {
        "setup": setup, "metrics": metrics, "counts": counts,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
    }
    if recorder is not None:
        accuracies = [o.artifacts.report.accuracy.value for o in ok_outcomes
                      if o.artifacts.report.accuracy is not None
                      and o.artifacts.report.accuracy.value is not None]
        n_warm = len(pass_s["traced"])
        doc["layers"] = spans.layer_metrics(
            recorder.spans, cold_phase="cold", warm_phase="warm",
            n_warm=n_warm, program=program, pool_maps=pool_maps,
            accuracies=accuracies,
            overhead_ratio=median(pass_s["traced"]) / median(pass_s["plain"]),
        )
        doc["counts"].update(spans.span_counts(
            recorder.spans, cold_phase="cold", warm_phase="warm",
        ))
        cold_layers = spans.cold_layer_seconds(
            recorder.spans, "cold", program["stages"]
        )
        warm_s = sum(pass_s["traced"]) / n_warm
        doc["shares"] = {
            "cold": {k: v / cold_s for k, v in cold_layers.items()},
            "warm": {
                k: t["self_s"] / n_warm / warm_s
                for k, t in spans.layer_totals(recorder.spans, "warm").items()
            },
        }
        recorder.dump(args.workdir / "spans.jsonl")
    pool.close()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
