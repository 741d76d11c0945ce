"""Seeded inputs of every benchmark workload.

Everything the program receives is generated here from ``(workload,
seed)``: the ``<name>:<seed>`` workload axes of the sweep grids, and for
``serve-mixed`` the pre-warmed key set, the Zipf popularity of hits, and
the schedule of misses and concurrent duplicates. The same seed gives the
same inputs in every process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SWEEP_WORKLOADS = ("sweep-schedule", "sweep-accuracy")
WORKLOADS = SWEEP_WORKLOADS + ("serve-mixed",)

#: Sweeps run on a two-worker pool, the machine's core count here and
#: the ``nproc`` budget the benchmark keeps to.
SWEEP_JOBS = 2
#: Synth scenarios in ``sweep-schedule``; with the three registry
#: workloads the grid is 16 scenarios.
SCHEDULE_SYNTH = 13
ACCURACY_PRECISIONS = ("FP16", "INT8", "MP", "INT4")
#: Synth seeds in ``sweep-accuracy``; each runs at every precision, so the
#: grid is (4 registry workloads + 10 synth) x 4 precisions = 56 scenarios.
ACCURACY_SYNTH = 10

#: Open-loop offered rate and connection count of ``serve-mixed``. The
#: rate sits well below the warm server's closed-loop hit saturation
#: (about 290 req/s on two connections), so a healthy server keeps up.
SERVE_RATE = 80.0
SERVE_CONNECTIONS = 2
#: Pre-warmed keys: alternating synth/prae ranks so the share of small
#: (synth) and large (prae) artifacts among hits does not hang on the seed.
SERVE_WARM_KEYS = 100
ZIPF_S = 1.1
#: Shares of the schedule that are fixed counts, not coin flips, so every
#: seed offers the same mix: misses among requests, then schedule-backend
#: pricings and concurrent duplicate pairs among the misses. The slowest
#: misses (schedule backend) are 2 % of requests, so p99 lies inside their
#: spread rather than on the edge between two groups of misses.
SERVE_MISS_SHARE = 0.10
SERVE_SCHEDULE_SHARE = 0.20
SERVE_DUPLICATE_SHARE = 0.10
#: Distinct served scenarios re-derived by a local ``run_sweep``.
SERVE_CHECK_SAMPLE = 6


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_grid(workload: str, seed: int):
    """The ``ScenarioGrid`` of one sweep workload."""
    from repro.flow.sweep import ScenarioGrid

    rng = _rng(workload, seed)
    if workload == "sweep-schedule":
        lo = rng.randrange(1_000_000)
        axes = [f"synth:{lo}-{lo + SCHEDULE_SYNTH - 1}"] + [
            f"{name}:{rng.randrange(1_000_000)}"
            for name in ("mimonet", "lvrf", "nvsa")
        ]
        return ScenarioGrid(workloads=tuple(axes), backends=("schedule",))
    if workload == "sweep-accuracy":
        # synth has no functional pipeline: its riders rank on three axes,
        # cost little cold, and keep nvsa (the largest artifact) near 7 %
        # of warm lookups, so the warm p99 sits inside nvsa's load-time
        # spread rather than on the tail where GC pauses and host stalls
        # flip it from run to run.
        axes = [
            f"{name}:{rng.randrange(1_000_000)}"
            for name in ("prae", "mimonet", "lvrf", "nvsa")
        ]
        lo = rng.randrange(1_000_000)
        axes.append(f"synth:{lo}-{lo + ACCURACY_SYNTH - 1}")
        return ScenarioGrid(
            workloads=tuple(axes), precisions=ACCURACY_PRECISIONS,
            accuracy=True,
        )
    raise ValueError(f"not a sweep workload: {workload}")


@dataclass(frozen=True)
class Request:
    """One open-loop request: when it is due and what it asks for."""

    due_s: float
    kind: str          # "hit" | "miss"
    spec: dict         # the POST /compile body


def _spec_doc(name: str, seed: int, backend: str = "analytic") -> dict:
    return {"workload": name, "backend": backend, "overrides": {"seed": seed}}


def serve_plan(seed: int, seconds: float) -> tuple[list[dict], list[Request]]:
    """The pre-warmed key set and the open-loop request schedule.

    Misses are analytic ``synth`` (~8 ms to price) and ``prae`` (~17 ms),
    and ``prae`` on the schedule backend (~30 ms), so no single pricing
    stalls the server for long; a duplicate pair is two requests for one
    never-seen key, due at the same instant.
    """
    rng = _rng("serve-mixed", seed)
    used: set[tuple[str, int]] = set()

    def fresh(name: str) -> int:
        while True:
            s = rng.randrange(1_000_000)
            if (name, s) not in used:
                used.add((name, s))
                return s

    warm = [
        _spec_doc(name, fresh(name))
        for name in ("synth", "prae") * (SERVE_WARM_KEYS // 2)
    ]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(warm))]
    n = int(SERVE_RATE * seconds)
    # One miss per block of requests at a seeded offset away from the
    # block edges: misses never cluster, so the tail does not hang on how
    # many bursts a seed happens to draw.
    block = round(1 / SERVE_MISS_SHARE)
    miss_slots = [
        start + rng.randrange(block // 4, block - block // 4)
        for start in range(0, n - block + 1, block)
    ]
    rng.shuffle(miss_slots)
    n_schedule = round(len(miss_slots) * SERVE_SCHEDULE_SHARE)
    n_dup = round(len(miss_slots) * SERVE_DUPLICATE_SHARE)
    kinds = (["schedule"] * n_schedule
             + ["dup-synth", "dup-prae"] * (n_dup // 2)
             + ["synth", "synth", "synth", "prae", "prae"] * len(miss_slots))
    miss_kind = dict(zip(miss_slots, kinds))
    requests: list[Request] = []
    for i in range(n):
        due = i / SERVE_RATE
        kind = miss_kind.get(i)
        if kind is None:
            requests.append(Request(due, "hit", rng.choices(warm, weights)[0]))
        elif kind == "schedule":
            spec = _spec_doc("prae", fresh("prae"), backend="schedule")
            requests.append(Request(due, "miss", spec))
        else:
            name = kind.removeprefix("dup-")
            spec = _spec_doc(name, fresh(name))
            copies = 2 if kind.startswith("dup-") else 1
            requests.extend(Request(due, "miss", spec) for _ in range(copies))
    return warm, requests
