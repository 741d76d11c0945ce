"""Run ``repro serve`` with the layer wrappers installed (traced runs only).

Usage: ``python perfbench/serve_launcher.py --out FILE -- serve ARGS...``

Imports the CLI, installs :class:`spans.SpanRecorder` on the server's
entry points, runs ``repro.flow.cli.main(ARGS)`` until the server drains
(SIGTERM), then writes the spans, the program's own counter deltas and a
tracing-overhead measurement to ``FILE`` as one JSON document.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time

import spans

#: The overhead probe loads the first ``OVERHEAD_KEYS`` stored entries
#: once per round, ``OVERHEAD_ROUNDS`` rounds without and as many with the
#: wrappers, alternating.
OVERHEAD_KEYS = 50
OVERHEAD_ROUNDS = 4


def _overhead_ratio(recorder: spans.SpanRecorder, cache_dir: pathlib.Path) -> float:
    """Traced ÷ untraced wall time of loading every stored entry."""
    from repro.flow.artifacts import ArtifactStore

    store = ArtifactStore(cache_dir)
    keys = store.keys()[:OVERHEAD_KEYS]
    if not keys:
        return 0.0
    walls = {True: [], False: []}
    recorder.phase = "overhead"
    for i in range(2 * OVERHEAD_ROUNDS + 1):
        traced = i % 2 == 1
        if traced:
            recorder.install()
        else:
            recorder.uninstall()
        t = time.perf_counter()
        for key in keys:
            store.load(key)
        if i:  # round 0 only warms the page cache
            walls[traced].append(time.perf_counter() - t)
    recorder.uninstall()
    return statistics.median(walls[True]) / statistics.median(walls[False])


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    out = pathlib.Path(argv[split - 1])
    cli_args = argv[split + 1:]
    cache_dir = pathlib.Path(cli_args[cli_args.index("--cache-dir") + 1])

    t0 = time.monotonic()
    import repro.flow.server  # noqa: F401  (imported by `serve`; timed here)
    from repro.flow import cli
    import_s = time.monotonic() - t0

    recorder = spans.SpanRecorder()
    recorder.phase = "serve"
    recorder.install()
    snap = spans.program_snapshot()
    code = cli.main(cli_args)
    recorder.uninstall()
    doc = {
        "import_s": import_s,
        "program": spans.program_since(snap),
        "overhead_ratio": _overhead_ratio(recorder, cache_dir),
        "spans": [s for s in recorder.spans if s["phase"] == "serve"],
    }
    out.write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
