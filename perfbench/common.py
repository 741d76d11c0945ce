"""Statistics and output checks shared by the sweep and serve runners."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def artifact_bytes(artifacts) -> bytes:
    """Canonical bytes of one scenario's artifacts, for byte-for-byte checks."""
    from repro.dse.config import design_config_to_json
    from repro.trace.serialize import trace_to_json
    from repro.utils import canonical_json, jsonable

    return "\n".join([
        trace_to_json(artifacts.trace),
        design_config_to_json(artifacts.config),
        canonical_json(jsonable(artifacts.report)),
        canonical_json(jsonable(artifacts.resources)),
        repr(artifacts.total_cycles),
        repr(artifacts.latency_ms),
    ]).encode("utf-8")


def _dominates(a, b) -> bool:
    ao, bo = a.objectives, b.objectives
    return all(x <= y for x, y in zip(ao, bo)) and ao != bo


def outcome_problems(outcome) -> list[str]:
    """Why one sweep outcome is wrong (empty when it is correct).

    The scenario finished ``ok``; its frontier is mutually non-dominated
    and holds the chosen geometry; a requested accuracy lies in [0, 1].
    The frontier has one point per geometry with that geometry's Phase I
    mapping; Phase II may still refine the chosen design's partitions and
    switch its sequential/parallel mode (DESIGN.md "Pareto frontier
    semantics"), so only ``(H, W, N)`` must match.
    """
    sid = outcome.scenario_id
    if not outcome.ok or outcome.artifacts is None:
        return [f"{sid}: not ok: {outcome.error}"]
    problems = []
    report = outcome.artifacts.report
    points = report.pareto.points if report.pareto is not None else ()
    if not points:
        problems.append(f"{sid}: empty frontier")
    if any(_dominates(a, b) for a in points for b in points if a is not b):
        problems.append(f"{sid}: frontier holds a dominated point")
    cfg = report.config
    if not any(p.geometry == (cfg.h, cfg.w, cfg.n_sub) for p in points):
        problems.append(f"{sid}: chosen geometry not on its frontier")
    if outcome.spec.accuracy:
        acc = report.accuracy
        if acc is None:
            problems.append(f"{sid}: accuracy requested but absent")
        elif acc.value is not None and not 0.0 <= acc.value <= 1.0:
            problems.append(f"{sid}: accuracy {acc.value} outside [0, 1]")
    if not outcome.artifacts.latency_ms > 0:
        problems.append(f"{sid}: non-positive latency")
    return problems
