"""The reference benchmark's trace table resolves against the live code.

``benchmarks/suite/trace.py`` wraps every layer's entry points by name
(``"module:Class"`` plus attribute names).  A method renamed or deleted
under ``src/`` would otherwise surface only in a traced suite run; here
the whole table is installed and uninstalled in tier-1.
"""

import importlib.util
import pathlib

SUITE_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "suite"


def _load_trace_module(monkeypatch):
    # the suite's scripts import each other as top-level modules; load
    # trace.py from its file so the stdlib ``trace`` module cannot shadow it
    monkeypatch.syspath_prepend(str(SUITE_DIR))
    spec = importlib.util.spec_from_file_location("suite_trace", SUITE_DIR / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_table_installs_and_uninstalls(monkeypatch):
    trace = _load_trace_module(monkeypatch)
    tracer = trace.Tracer()
    try:
        tracer.install()
        patched = list(tracer.patched)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    assert tracer.patched == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
