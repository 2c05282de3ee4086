"""Self-tests of the reference benchmark (not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/suite/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

SUITE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
# the suite's scripts import each other as top-level modules; its
# ``trace.py`` must win over the standard library's module of that name
sys.path.insert(0, SUITE_DIR)
sys.modules.pop("trace", None)

import report  # noqa: E402
import spec  # noqa: E402
from trace import Tracer, layer_totals  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    """One ``--smoke --trace`` pass over every workload."""
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    started = os.times()
    proc = subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    # CPU seconds of the children, as everywhere in the suite: the wall
    # clock of a shared host measures its neighbours as well
    ended = os.times()
    elapsed = (ended.children_user + ended.children_system
               - started.children_user - started.children_system)
    assert proc.returncode == 0, proc.stdout[-4000:]
    with open(out) as fh:
        return json.load(fh), elapsed, proc.stdout


def test_benchmark_json_mirrors_the_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/suite"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, spec.WORKLOAD_WHY[name]) for name in spec.DRIVER_WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]
    # the contract's own limits
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in doc["end_to_end"])
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])


def test_no_file_is_collected_as_a_bench():
    for _root, _dirs, files in os.walk(SUITE_DIR):
        assert not [f for f in files if f.startswith("bench_") and f.endswith(".py")]


def test_smoke_emits_every_metric_and_passes_every_check(smoke_doc):
    doc, elapsed, stdout = smoke_doc
    assert "ALL CHECKS PASSED" in stdout
    assert elapsed < 30.0, f"smoke took {elapsed:.1f} CPU s (20 s on a quiet 2-core reference host)"
    assert list(doc["workloads"]) == list(spec.WORKLOAD_NAMES)
    for name, entry in doc["workloads"].items():
        for metric in spec.END_TO_END:
            assert metric.name in entry["end_to_end"], (name, metric.name)
            assert entry["end_to_end"][metric.name]["value"] != 0, (name, metric.name)
        assert set(entry["per_layer"]) == {m.name for m in spec.PER_LAYER}, name
        for metric_name in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert NAME.fullmatch(metric_name), metric_name


def test_layer_self_times_partition_the_root_spans(smoke_doc):
    doc, _elapsed, _stdout = smoke_doc
    for name, entry in doc["workloads"].items():
        sums = [c for c in entry["trace_checks"] if c["name"].startswith("layer self times")]
        assert sums and sums[0]["ok"], (name, sums)


def test_compare_of_a_file_with_itself_is_all_same(smoke_doc):
    doc, _elapsed, _stdout = smoke_doc
    rows = report.compare(doc, doc)
    # half-second runs have slices too short to resolve their own
    # median; everything the noise guard lets through must read "same"
    assert rows and {r["verdict"] for r in rows} <= {"same", "unresolved"}
    assert all(r["ratio_b_over_a"] == 1.0 for r in rows if r["a"])
    assert {r["verdict"] for r in rows if r["metric"] == "msgs_per_node_s"} == {"same"}


def _tiny_traced_run(tracer: Tracer) -> None:
    from repro.core.config import MiddlewareConfig, WorkloadConfig
    from repro.core.system import StreamIndexSystem
    from repro.workload import QueryWorkload

    config = MiddlewareConfig(window_size=8, k=2, batch_size=1,
                              workload=WorkloadConfig(nper_ms=500.0))
    system = StreamIndexSystem(8, config, seed=3)
    system.attach_random_walk_streams()
    QueryWorkload(system, hit_fraction=1.0).start()
    system.warmup()
    tracer.reset()
    system.run(5_000.0)


def test_every_wrapped_attribute_is_restored_to_the_identical_object():
    tracer = Tracer()
    tracer.install()
    patched = list(tracer.patched)
    try:
        assert patched and all(vars(o)[a] is not orig for o, a, orig in patched)
        _tiny_traced_run(tracer)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert not tracer.patched


def test_self_time_sums_to_root_and_layers_nest():
    tracer = Tracer()
    tracer.install()
    try:
        _tiny_traced_run(tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    layers = layer_totals(summary["spans"])
    assert summary["root_s"] > 0
    assert abs(sum(s for s, _ in layers.values()) - summary["root_s"]) <= 0.02 * summary["root_s"]
    for layer in ("sim.engine", "sim.network", "chord.dht", "core.runtime", "core.index"):
        assert layers[layer][1] > 0, layer
    run = summary["spans"]["sim.engine:Simulator.run"]
    assert run["incl_s"] == pytest.approx(summary["root_s"])
    assert tracer.raw and tracer.raw[0][3] is not None  # first finished span had a parent


def test_verdicts():
    metric = {m.name: m for m in spec.END_TO_END}["values_per_s"]
    base = {"value": 100.0, "unit": "1/s", "median": 100.0, "q1": 99.0, "q3": 101.0, "n": 20}
    worse, better = 100.0 * (1 - 1.5 * metric.bound), 100.0 * (1 + 1.5 * metric.bound)
    assert report.verdict(metric, base, {**base, "value": worse})[0] == "worse"
    assert report.verdict(metric, base, {**base, "value": better})[0] == "better"
    assert report.verdict(metric, base, {**base, "value": 95.0})[0] == "same"
    noisy = {**base, "q1": 20.0, "q3": 180.0}
    assert report.verdict(metric, base, noisy)[0] == "unresolved"
