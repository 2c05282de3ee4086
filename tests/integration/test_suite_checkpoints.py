"""The reference benchmark's seed-0 checkpoints, pinned in tier-1.

Up to its checkpoint a simulator workload of ``benchmarks/suite`` is a
pure function of (workload, seed): the stats digest and the event,
value and send counts must repeat exactly (``simhost.py``).  Each
workload here runs in a child process, as the suite runs it, with
``--check-only`` so it stops at the checkpoint.  A change of behaviour
re-issues ``suite_checkpoints.json`` in a commit of its own, as the
digest pins of ``test_determinism.py`` are re-issued.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SUITE_DIR = ROOT / "benchmarks" / "suite"
PINS = json.loads((pathlib.Path(__file__).with_name("suite_checkpoints.json")).read_text())


@pytest.mark.parametrize("workload", sorted(PINS))
def test_suite_workload_reaches_its_pinned_checkpoint(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "simhost.py", "--workload", workload, "--seconds", "1", "--check-only"],
        cwd=SUITE_DIR,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["checkpoint"] == PINS[workload]
