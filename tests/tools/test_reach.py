"""The call recorder sees subprocesses and survives a profiler reset."""

from . import reach

CHILD = "from repro.core.config import TABLE_I; TABLE_I.as_table()"

PARENT = f"""
import subprocess, sys
from repro.core.config import MiddlewareConfig
sys.setprofile(None)  # what pytest-benchmark does around a benchmark
MiddlewareConfig().with_(k=3)
subprocess.check_call([sys.executable, "-c", {CHILD!r}])
"""


def test_records_calls_after_a_reset_and_in_subprocesses(tmp_path):
    assert reach.record(tmp_path, ["python", "-c", PARENT]) == 0
    assert len(list(tmp_path.glob("*.tsv"))) == 2  # parent and child
    unentered = {name for _path, _line, name, _lines in reach.unentered(tmp_path)}
    assert "MiddlewareConfig.with_" not in unentered
    assert "WorkloadConfig.as_table" not in unentered
    assert "MiddlewareConfig.duplicates_possible" in unentered
