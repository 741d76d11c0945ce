"""In-memory span recorder wrapped around each layer's public entry points.

The benchmark's traced run (``--trace 1``) installs these wrappers on the
module or class attribute through which the program looks each entry
point up, so no file under ``src/`` changes. A span records its name,
start, end, parent span, the scenario id and cache key it served, and the
benchmark phase (``cold``/``warm``/...) it ran in. Spans stay in memory
until :meth:`SpanRecorder.dump` writes them out at the end of a run.

Work done inside DSE pool workers is not spanned: the per-stage split and
probe counts come from the program's own ``stage_timings_since`` and
``model.cache.delta_since`` deltas, which already count worker work.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: (owner path, attribute, span name, layer). The owner is the module or
#: class the program resolves the call through; the layer names the
#: per-layer metric family a span's self time is charged to.
ENTRY_POINTS = (
    ("repro.flow.sweep", "run_sweep", "run_sweep", "sweep"),
    ("repro.flow.sweep", "build_workload", "build_workload", "workloads"),
    ("repro.dse.accuracy", "deployed_workload", "deployed_workload", "workloads"),
    ("repro.flow.nsflow", "build_dataflow_graph", "build_dataflow_graph", "graph"),
    ("repro.flow.nsflow", "evaluate_accuracy", "evaluate_accuracy", "accuracy"),
    ("repro.flow.nsflow", "estimate_resources", "estimate_resources", "arch.resources"),
    ("repro.flow.nsflow", "generate_rtl_parameters", "generate_rtl_parameters", "codegen"),
    ("repro.flow.nsflow", "generate_host_code", "generate_host_code", "codegen"),
    ("repro.dse.engine.DseEngine", "explore", "DseEngine.explore", "dse"),
    ("repro.arch.controller.Controller", "schedule", "Controller.schedule", "arch.controller"),
    ("repro.flow.artifacts.ArtifactStore", "load", "ArtifactStore.load", "artifacts.load"),
    ("repro.flow.artifacts.ArtifactStore", "store", "ArtifactStore.store", "artifacts.store"),
    ("repro.flow.ledger.RunLedger", "append", "RunLedger.append", "ledger"),
)


def _resolve(path: str):
    """The object at ``path``, or ``None`` when its module is not loaded.

    Nothing is imported here: a process only gets wrappers on the
    modules it already uses.
    """
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        obj = sys.modules.get(".".join(parts[:i]))
        if obj is not None:
            for attr in parts[i:]:
                obj = getattr(obj, attr, None)
            return obj
    return None


def _subclass_owners(base_path: str, attr: str) -> list:
    """``base`` and every subclass that defines ``attr`` itself."""
    base = _resolve(base_path)
    owners, todo = [], [] if base is None else [base]
    while todo:
        cls = todo.pop()
        if attr in vars(cls):
            owners.append(cls)
        todo.extend(cls.__subclasses__())
    return owners


class SpanRecorder:
    """Collects spans from every thread of one process.

    ``tag`` (scenario id, cache key) and the open-span stack are
    per-thread: the sweep loop runs one scenario at a time on its thread,
    and the server prices on one thread while readers load on others.
    """

    def __init__(self, key_to_scenario: dict[str, str] | None = None):
        self.spans: list[dict] = []
        self.phase = "setup"
        self.key_to_scenario = dict(key_to_scenario or {})
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        recorder = self
        is_load = name == "ArtifactStore.load"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            if is_load:
                # The sweep loop and the server's pricer both look a key
                # up first; everything until the next lookup on this
                # thread serves that scenario.
                key = args[1] if len(args) > 1 else kwargs.get("key")
                local.tag = (recorder.key_to_scenario.get(key), key)
            with recorder._id_lock:
                span_id = recorder._next_id
                recorder._next_id += 1
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                scenario, key = getattr(local, "tag", (None, None))
                recorder.spans.append({
                    "id": span_id, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "scenario": scenario, "key": key,
                    "phase": recorder.phase,
                    "thread": threading.get_ident(),
                    "size": _result_size(name, result),
                })

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; idempotent per recorder."""
        if self._patched:
            return
        targets = [
            (_resolve(owner), attr, name, layer)
            for owner, attr, name, layer in ENTRY_POINTS
            if _resolve(owner) is not None
        ]
        for cls in _subclass_owners("repro.workloads.base.NSAIWorkload",
                                    "build_trace"):
            targets.append((cls, "build_trace", "Workload.build_trace", "trace"))
        for cls in _subclass_owners("repro.model.backend.EvaluationBackend",
                                    "evaluate_design"):
            targets.append((cls, "evaluate_design",
                            "EvaluationBackend.evaluate_design", "model"))
        for owner, attr, name, layer in targets:
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _result_size(name: str, result) -> int:
    """Work count carried by a span: trace ops, graph nodes, bytes written."""
    if result is None:
        return 0
    if name in ("Workload.build_trace", "build_dataflow_graph"):
        return len(result)
    if name == "ArtifactStore.store":
        return sum(f.stat().st_size for f in result.iterdir() if f.is_file())
    if name == "ArtifactStore.load":
        return 1
    return 0


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [
        max(0.0, span["end"] - span["start"] - child_time[span["id"]])
        for span in spans
    ]


def layer_totals(spans: list[dict], phase: str | None = None) -> dict[str, dict]:
    """Per-layer ``{"self_s", "calls", "size"}`` over one phase."""
    totals: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "size": 0}
    )
    for span, self_s in zip(spans, self_times(spans)):
        if phase is not None and span["phase"] != phase:
            continue
        entry = totals[span["layer"]]
        entry["self_s"] += self_s
        entry["calls"] += 1
        entry["size"] += span["size"]
    return dict(totals)


#: Keyed model caches whose hit ratio is reported per layer.
MODEL_CACHES = ("layer_runtime", "vsa_node_runtime", "memory_plan",
                "simd_width", "workload_arrays")
_EMPTY = {"self_s": 0.0, "calls": 0, "size": 0}


def program_snapshot() -> dict:
    """The program's own monotonic counters, to diff with :func:`program_since`."""
    from repro.dse.accuracy import accuracy_cache_stats
    from repro.dse.timing import timings_snapshot
    from repro.model.cache import counters_snapshot, cumulative_snapshot

    return {
        "stages": timings_snapshot(),
        "cache": cumulative_snapshot(),
        "counters": counters_snapshot(),
        "accuracy": accuracy_cache_stats(),
    }


def program_since(snap: dict) -> dict:
    """DSE stage splits, model-cache and accuracy-memo deltas since ``snap``.

    Stage timings and probe counts are the engine's own: with a process
    pool, the sweep stage is timed in the parent around the ``map`` and
    probe counts travel back with each result.
    """
    from repro.dse.accuracy import accuracy_cache_stats
    from repro.dse.timing import stage_timings_since
    from repro.model.cache import delta_since, fresh_evaluations_since

    acc = accuracy_cache_stats()
    return {
        "stages": {
            name: [stat.seconds, stat.items]
            for name, stat in stage_timings_since(snap["stages"]).items()
        },
        "cache": {
            name: [stat.hits, stat.misses]
            for name, stat in delta_since(snap["cache"]).items()
        },
        "fresh_evaluations": fresh_evaluations_since(snap["counters"]),
        "accuracy_executed": acc["executed"] - snap["accuracy"]["executed"],
        "accuracy_hits": acc["hits"] - snap["accuracy"]["hits"],
    }


def cold_layer_seconds(spans: list[dict], phase: str, stages: dict) -> dict:
    """Self seconds per layer in one phase, the DSE split by stage."""
    out = {layer: t["self_s"] for layer, t in layer_totals(spans, phase).items()}
    explore = out.pop("dse", 0.0)
    for stage, name in (("phase1.sweep", "dse.phase1_sweep"),
                        ("phase2.refine", "dse.phase2_refine"),
                        ("pareto.filter", "dse.pareto_filter")):
        out[name] = stages.get(stage, [0.0, 0])[0]
    out["dse.explore_other"] = max(
        0.0, explore - out["dse.phase1_sweep"] - out["dse.phase2_refine"]
        - out["dse.pareto_filter"]
    )
    return out


def layer_metrics(spans: list[dict], *, cold_phase: str, warm_phase: str,
                  n_warm: int, program: dict, pool_maps: int,
                  accuracies: list[float], overhead_ratio: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from spans and counters.

    Compile-layer figures are totals over ``cold_phase``; artifact-load,
    ledger and sweep-loop figures are per ``warm_phase`` pass (``n_warm``
    passes were traced).
    """
    cold_t = layer_totals(spans, cold_phase)
    warm_t = layer_totals(spans, warm_phase)

    def c(layer, field="self_s"):
        return cold_t.get(layer, _EMPTY)[field]

    def w(layer, field="self_s"):
        return warm_t.get(layer, _EMPTY)[field] / max(1, n_warm)

    stages = program["stages"]
    phase1_s, geometries = stages.get("phase1.sweep", [0.0, 0])
    probes = stages.get("phase1.model_probes", [0.0, 0])[1]
    acc_calls = c("accuracy", "calls")
    loads = warm_t.get("artifacts.load", _EMPTY)
    out = {
        "workloads.build_s": c("workloads"),
        "workloads.builds": c("workloads", "calls"),
        "trace.build_s": c("trace"),
        "trace.ops": c("trace", "size"),
        "graph.build_s": c("graph"),
        "graph.nodes": c("graph", "size"),
        "accuracy.execute_s": c("accuracy"),
        "accuracy.executed": program["accuracy_executed"],
        "accuracy.memo_hit_ratio": (program["accuracy_hits"] / acc_calls
                                    if acc_calls else 0.0),
        "accuracy.design_mean": (sum(accuracies) / len(accuracies)
                                 if accuracies else 0.0),
        "dse.explore_s": c("dse"),
        "dse.phase1_sweep_s": phase1_s,
        "dse.phase2_refine_s": stages.get("phase2.refine", [0.0, 0])[0],
        "dse.pareto_filter_s": stages.get("pareto.filter", [0.0, 0])[0],
        "dse.geometries": geometries,
        "dse.model_probes": probes,
        "dse.probes_per_s": probes / phase1_s if phase1_s else 0.0,
        "dse.pool_maps": pool_maps,
        "model.evaluate_design_s": c("model"),
        "model.fresh_evaluations": program["fresh_evaluations"],
        "arch.controller_s": c("arch.controller"),
        "arch.resources_s": c("arch.resources"),
        "codegen_s": c("codegen"),
        "artifacts.load_s": w("artifacts.load"),
        "artifacts.store_s": c("artifacts.store"),
        "artifacts.bytes_written": c("artifacts.store", "size"),
        "artifacts.hit_ratio": (loads["size"] / loads["calls"]
                                if loads["calls"] else 0.0),
        "ledger.append_s": w("ledger"),
        "ledger.appends": w("ledger", "calls"),
        "sweep.self_s": w("sweep"),
        "tracing.overhead_ratio": overhead_ratio,
    }
    for name in MODEL_CACHES:
        hits, misses = program["cache"].get(name, [0, 0])
        out[f"model.cache_hit_ratio.{name}"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    return out


#: Span-timed per-layer metrics: (phase role, layer) each is summed over.
_SPAN_METRICS = {
    "workloads.build_s": ("cold", "workloads"),
    "trace.build_s": ("cold", "trace"),
    "graph.build_s": ("cold", "graph"),
    "accuracy.execute_s": ("cold", "accuracy"),
    "dse.explore_s": ("cold", "dse"),
    "model.evaluate_design_s": ("cold", "model"),
    "arch.controller_s": ("cold", "arch.controller"),
    "arch.resources_s": ("cold", "arch.resources"),
    "codegen_s": ("cold", "codegen"),
    "artifacts.store_s": ("cold", "artifacts.store"),
    "artifacts.load_s": ("warm", "artifacts.load"),
    "ledger.append_s": ("warm", "ledger"),
    "sweep.self_s": ("warm", "sweep"),
}


def span_counts(spans: list[dict], *, cold_phase: str, warm_phase: str) -> dict:
    """Sample count (spans summed) behind each span-timed layer metric."""
    totals = {"cold": layer_totals(spans, cold_phase),
              "warm": layer_totals(spans, warm_phase)}
    return {
        name: totals[role].get(layer, _EMPTY)["calls"]
        for name, (role, layer) in _SPAN_METRICS.items()
    }
