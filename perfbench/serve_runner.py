"""``serve-mixed``: a ``repro serve`` subprocess driven open-loop.

1. **Boot** the server ``SETUP_SAMPLES`` times (spawn until the first
   ``/healthz`` answers); all but the last are drained again.
2. **Pre-warm** the key set closed-loop over the connections: every key
   is priced once on an empty store (the serve-side cold throughput).
3. **Open loop** at :data:`scenarios.SERVE_RATE` for ``seconds``: ~90 %
   Zipf-popular hits on the pre-warmed keys, the rest never-seen
   scenarios (some on the schedule backend, some as concurrent duplicate
   pairs). Each request is timed from when it was due, so a stall also
   charges the requests queued behind it.
4. **Check** every answer (status, cache key, one answer per key), the
   server's counter identities, and a seeded sample of answers against a
   local ``run_sweep`` of the same specs.
"""

from __future__ import annotations

import json
import pathlib
import random
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import spans
from common import geomean, median, peak_rss_mb, percentile
from repro.errors import ServeError
from repro.flow.client import ServeClient
from repro.flow.server import scenario_spec_from_doc
from repro.flow.sweep import run_sweep
from scenarios import SERVE_CHECK_SAMPLE, SERVE_CONNECTIONS, serve_plan

_READY_RE = re.compile(r"Serving on (http://\S+)")
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


class _Server:
    """One server subprocess: spawned, booted, and drained on ``stop``."""

    def __init__(self, cmd: list[str], cwd: pathlib.Path, env: dict):
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = _READY_RE.search(line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = match.group(1)
            self.client = ServeClient(self.url, timeout_s=BOOT_TIMEOUT_S)
            while True:
                try:
                    self.client.health()
                    break
                except ServeError:
                    if time.monotonic() - t0 > BOOT_TIMEOUT_S:
                        raise
                    time.sleep(0.002)
            self.boot_s = time.monotonic() - t0
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _open_loop(url: str, requests) -> list[tuple]:
    """Send ``requests`` on schedule; returns (lag_s, latency_s, doc, error)."""
    results: list[tuple | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    t_base = time.perf_counter() + 0.05

    def sender() -> None:
        client = ServeClient(url, timeout_s=120.0)
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(requests):
                return
            due = t_base + requests[i].due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = time.perf_counter()
            try:
                doc, error = client.compile_scenario(requests[i].spec), None
            except ServeError as exc:
                doc, error = None, str(exc)
            results[i] = (start - due, time.perf_counter() - due, doc, error)

    threads = [threading.Thread(target=sender) for _ in range(SERVE_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def run_serve(root: pathlib.Path, workdir: pathlib.Path, env: dict,
              seed: int, seconds: float, trace: bool,
              setup_samples: int) -> dict:
    cache = workdir / "serve-cache"
    spans_out = workdir / "server-spans.json"
    serve_args = ["serve", "--port", "0", "--cache-dir", str(cache),
                  "--jobs", "1"]
    if trace:
        cmd = [sys.executable, str(root / "perfbench" / "serve_launcher.py"),
               "--out", str(spans_out), "--", *serve_args]
    else:
        cmd = [sys.executable, "-m", "repro", *serve_args]

    warm, requests = serve_plan(seed, seconds)
    boots = []
    for _ in range(setup_samples - 1):
        server = _Server(cmd, root, env)
        boots.append(server.boot_s)
        server.stop()
    server = _Server(cmd, root, env)
    boots.append(server.boot_s)
    try:
        t = time.perf_counter()
        with ThreadPoolExecutor(SERVE_CONNECTIONS) as ex:
            prewarm = list(ex.map(server.client.compile_scenario, warm))
        prewarm_s = time.perf_counter() - t
        results = _open_loop(server.url, requests)
        stats = server.client.stats()
        rss_mb = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()

    problems: list[str] = []
    answers: dict[str, list[dict]] = {}
    attempted = len(warm) + len(requests)
    for spec, doc in zip(warm, prewarm):
        key = scenario_spec_from_doc(spec).cache_key()
        answers.setdefault(key, []).append(doc)
    lat_ms = {"hit": [], "miss": []}
    elapsed_ms = []
    for req, (_lag, latency, doc, error) in zip(requests, results):
        if doc is None:
            problems.append(f"{req.spec}: {error}")
            continue
        lat_ms[req.kind].append(latency * 1e3)
        elapsed_ms.append(doc["elapsed_s"] * 1e3)
        key = scenario_spec_from_doc(req.spec).cache_key()
        answers.setdefault(key, []).append(doc)
        if req.kind == "hit" and not doc["cached"]:
            problems.append(f"{doc['scenario_id']}: pre-warmed key re-priced")
    for key, docs in answers.items():
        first = docs[0]
        if any(d["status"] != "ok" or d["key"] != key for d in docs):
            problems.append(f"{first['scenario_id']}: bad status or key")
        if len({(d["latency_ms"], d["total_cycles"]) for d in docs}) != 1:
            problems.append(f"{first['scenario_id']}: answers disagree")
    if stats["compiles"] != attempted or (
        stats["warm_hits"] + stats["pricings"] + stats["coalesced"]
        != stats["compiles"]
    ):
        problems.append(f"server counters do not add up: {stats}")

    # A seeded sample of answers re-derived by a local sweep.
    rng = random.Random(f"serve-check:{seed}")
    sample_docs = rng.sample(
        warm + [r.spec for r in requests if r.kind == "miss"],
        SERVE_CHECK_SAMPLE,
    )
    sample = {}
    for spec_doc in sample_docs:
        spec = scenario_spec_from_doc(spec_doc)
        sample[spec.cache_key()] = spec
    local = run_sweep(list(sample.values()), jobs=1)
    attempted += len(sample)
    for outcome in local.outcomes:
        served = answers.get(outcome.key, [None])[0]
        if (not outcome.ok or served is None
                or served["latency_ms"] != outcome.latency_ms
                or served["total_cycles"] != outcome.artifacts.total_cycles):
            problems.append(f"{outcome.scenario_id}: served answer differs "
                            "from a local run_sweep")

    latencies = lat_ms["hit"] + lat_ms["miss"]
    done = [r for r in results if r[2] is not None]
    served_s = max(req.due_s + r[1] for req, r in zip(requests, results))
    metrics = {
        "setup_s": median(boots),
        "cold_scenarios_per_s": len(warm) / prewarm_s,
        "warm_scenarios_per_s": len(done) / served_s,
        "request_ms_p50": percentile(latencies, 50),
        "request_ms_p99": percentile(latencies, 99),
        "design_latency_ms_geomean": geomean(
            docs[0]["latency_ms"] for docs in answers.values()
        ),
        "peak_rss_mb": rss_mb,
    }
    counts = {
        "setup_s": len(boots),
        "cold_scenarios_per_s": len(warm),
        "warm_scenarios_per_s": len(done),
        "request_ms_p50": len(latencies),
        "request_ms_p99": len(latencies),
        "design_latency_ms_geomean": len(answers),
        "peak_rss_mb": 1,
    }
    doc = {
        "metrics": metrics, "counts": counts, "attempted": attempted,
        "failed": len(problems), "problems": problems[:20],
    }
    if trace:
        server_doc = json.loads(spans_out.read_text(encoding="utf-8"))
        # The server cannot name scenarios; its answers can.
        for span in server_doc["spans"]:
            if span["key"] in answers:
                span["scenario"] = answers[span["key"]][0]["scenario_id"]
        spans_out.write_text(json.dumps(server_doc), encoding="utf-8")
        doc["layers"] = _serve_layers(server_doc, stats, boots, lat_ms,
                                      elapsed_ms, results)
        counts.update(spans.span_counts(server_doc["spans"],
                                        cold_phase="serve", warm_phase="serve"))
        counts.update({
            "serve.hit_ms_p50": len(lat_ms["hit"]),
            "serve.hit_ms_p99": len(lat_ms["hit"]),
            "serve.miss_ms_p50": len(lat_ms["miss"]),
            "serve.miss_ms_p99": len(lat_ms["miss"]),
            "serve.server_elapsed_ms_p50": len(elapsed_ms),
            "loadgen.lag_ms_p99": len(results),
        })
    return doc


def _serve_layers(server_doc: dict, stats: dict, boots, lat_ms, elapsed_ms,
                  results) -> dict:
    layers = spans.layer_metrics(
        server_doc["spans"], cold_phase="serve", warm_phase="serve",
        n_warm=1, program=server_doc["program"], pool_maps=stats["pool_maps"],
        accuracies=[], overhead_ratio=server_doc["overhead_ratio"],
    )
    layers.update({
        "setup.import_s": server_doc["import_s"],
        "setup.server_boot_s": median(boots),
        "serve.hit_ms_p50": percentile(lat_ms["hit"], 50),
        "serve.hit_ms_p99": percentile(lat_ms["hit"], 99),
        "serve.miss_ms_p50": percentile(lat_ms["miss"], 50),
        "serve.miss_ms_p99": percentile(lat_ms["miss"], 99),
        "serve.server_elapsed_ms_p50": percentile(elapsed_ms, 50),
        "serve.warm_hits": stats["warm_hits"],
        "serve.pricings": stats["pricings"],
        "serve.coalesced": stats["coalesced"],
        "loadgen.lag_ms_p99": percentile([r[0] * 1e3 for r in results], 99),
        "loadgen.sent": len(results),
    })
    return layers
