"""Guard: the package runs with numpy as its only third-party dependency."""

import os
import subprocess
import sys

import repro

#: Blocks networkx, then compiles one workload through the CLI.
_PROG = """
import sys
sys.modules["networkx"] = None
from repro.flow import cli
assert cli.main(["compile", "synth"]) == 0
"""


def test_cli_compiles_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _PROG], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
