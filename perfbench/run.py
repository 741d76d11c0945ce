#!/usr/bin/env python3
"""NSFlow end-to-end benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-schedule --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``sweep-schedule`` — a cold then warm ``run_sweep`` of 16 seeded
  scenarios on the schedule backend (DSE-bound).
* ``sweep-accuracy`` — the same sweep over four registry workloads x
  four precisions plus a synth rider, accuracy on (accuracy-bound).
* ``serve-mixed`` — a ``repro serve`` subprocess driven open-loop with
  Zipf-popular hits and never-seen misses.

Every timing is host wall-clock except ``design_latency_ms_geomean``,
the simulated latency of the chosen FPGA designs (an unvalidated model:
no hardware measurement backs it). ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` repeats the run with the
layer entry points wrapped and prints the per-layer metrics. Every
metric is printed by name with its unit and sample count; the last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import median  # noqa: E402
from scenarios import SWEEP_WORKLOADS, WORKLOADS  # noqa: E402

#: Fresh-process set-up measurements per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_json(cmd: list[str], root: pathlib.Path, env: dict) -> dict:
    proc = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sweep_workload(root, workdir, env, args) -> dict:
    worker = [sys.executable, str(HERE / "sweep_worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        sub = workdir / f"setup-{i}"
        sub.mkdir()
        setups.append(_child_json(
            worker + ["--workdir", str(sub), "--setup-only",
                      "--spawned-at", repr(time.monotonic())],
            root, env,
        )["setup"])
    run_dir = workdir / "run"
    run_dir.mkdir()
    doc = _child_json(
        worker + ["--workdir", str(run_dir),
                  "--spawned-at", repr(time.monotonic())],
        root, env,
    )
    setups.append(doc["setup"])
    doc["metrics"]["setup_s"] = median([s["setup_s"] for s in setups])
    doc["counts"]["setup_s"] = len(setups)
    if "layers" in doc:
        doc["layers"].update({
            "setup.import_s": median([s["import_s"] for s in setups]),
            "setup.pool_spinup_s": median([s["pool_spinup_s"] for s in setups]),
        })
    return doc


def _print_report(spec: dict, doc: dict, trace: bool) -> dict:
    """Human-readable lines, and the result's ``metrics`` object."""
    section = "per_layer" if trace else "end_to_end"
    source = doc["layers"] if trace else doc["metrics"]
    counts = doc.get("counts", {})
    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        if trace:
            # A layer the workload does not use (serve on a sweep, the
            # ledger behind /compile) reads 0.
            value = source.get(name, 0)
        elif name in source:
            value = source[name]
        else:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
        n = counts.get(name)
        note = f"  (n={n})" if n is not None else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"  {'failed_ratio':<40} {failed / attempted:>14.6g} fraction"
          f"  ({failed} failed of {attempted} attempted)")
    for problem in doc.get("problems", []):
        print(f"  FAILED: {problem}")
    for phase, shares in doc.get("shares", {}).items():
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
        print(f"  {phase} pass self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in top))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")

    root = pathlib.Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source under {root / 'src'}; "
                     "run from the repository root")
    if not spec_path.is_file():
        return _fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))

    out_dir = root / ".perfbench"
    workdir = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp)
    try:
        # Compile the package's bytecode untimed, so set-up measures what
        # a user pays on every start, not a one-off first import.
        subprocess.run([sys.executable, "-c", "import repro.flow.cli, "
                        "repro.flow.server"], cwd=root, env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        if args.workload in SWEEP_WORKLOADS:
            doc = run_sweep_workload(root, workdir, env, args)
        else:
            from serve_runner import run_serve

            doc = run_serve(root, workdir, env, args.seed, args.seconds,
                            bool(args.trace), SETUP_SAMPLES)
        metrics = _print_report(spec, doc, bool(args.trace))
        # Spans outlive the run's working directory.
        for path in workdir.rglob("*spans.json*"):
            shutil.copyfile(path, out_dir / f"{workdir.name}-{path.name}")
    except (RuntimeError, KeyError, OSError, ValueError,
            subprocess.SubprocessError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
