#!/usr/bin/env python3
"""The repo's reference benchmark: six workloads, end-to-end + per-layer metrics.

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload in fresh child processes; prints every
        metric by name with its unit and, as the last line, the JSON
        object BENCHMARK.json's contract asks for.  --trace 0 gives the
        end-to-end metrics from an untraced run, --trace 1 the per-layer
        metrics from a traced run (plus an untraced baseline for the
        tracing overhead).

    python3 benchmarks/suite/run.py [--workload NAME ...] [--trace] [--smoke] [--out FILE]
        the full set: every workload twice untraced (the two checkpoints,
        stats digest and counts, must agree), once traced with --trace,
        every correctness
        check, results written to FILE for `compare`.

    python3 benchmarks/suite/run.py compare A.json B.json
        one row per workload × end-to-end metric: both values, B ÷ A,
        the bound, and better / same / worse / unresolved.

Exit status is non-zero when a correctness check fails, when `compare`
finds a `worse` or `unresolved` row, or when the `repro` sources are
not beside the suite.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import report
import spec
from report import plain, sliced
from trace import layer_totals

if not os.path.isdir(os.path.join(spec.SRC_DIR, "repro")):
    sys.exit(f"run.py: the repro sources are not at {spec.SRC_DIR}; nothing to benchmark")

#: set-ups timed per run (fresh process each), while their wall time fits the budget
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 3.0
SMOKE_SECONDS = 0.5

Record = Dict[str, Any]


def sim_child(name: str, seed: int, seconds: float, *, trace: int = 0,
              check_only: bool = False, setup_only: bool = False, smoke: bool = False,
              trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run ``simhost.py`` once in a fresh process; its JSON document."""
    cmd = [sys.executable, os.path.join(spec.SUITE_DIR, "simhost.py"),
           "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--t0", repr(time.time())]
    if check_only:
        cmd.append("--check-only")
    if setup_only:
        cmd.append("--setup-only")
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(made: List[Dict[str, float]], again: Callable[[], Dict[str, float]],
                  repeat: bool) -> List[float]:
    """CPU seconds of each set-up: those ``made`` and, while cheap, fresh ones."""
    setups = list(made)
    while (repeat and len(setups) < SETUP_SAMPLES
           and sum(s["wall_s"] for s in setups) < SETUP_BUDGET_S):
        setups.append(again())
    return [s["cpu_s"] for s in setups]


def check(name: str, ok: bool, detail: str = "") -> Dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ----------------------------------------------------------------------
# per-layer metrics shared by both kinds of workload
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_from_trace(trace: Dict[str, Any], ops: Dict[str, int],
                         values: int) -> Dict[str, Dict[str, Any]]:
    """Every PER_LAYER name (0 by default) filled from spans and op counts.

    A share is of the time under the outermost spans, which the layers'
    self times add up to: the spans are timed by the wall clock, and on
    a shared host no other clock's seconds are the same seconds.
    """
    out = {m.name: plain(0.0 if m.unit != "count" else 0, m.unit) for m in spec.PER_LAYER}
    spans, measured_s = trace["spans"], trace["root_s"]
    layers = layer_totals(spans)
    for layer, (self_s, calls) in layers.items():
        out[f"{layer}.self_s"]["value"] = self_s
        out[f"{layer}.share"]["value"] = _ratio(self_s, measured_s)
        out[f"{layer}.calls"]["value"] = calls

    def self_s(layer: str) -> float:
        return layers.get(layer, (0.0, 0))[0]

    def incl(*names: str) -> float:
        return sum(spans[n]["incl_s"] for n in names if n in spans)

    def calls(*names: str) -> int:
        return sum(int(spans[n]["calls"]) for n in names if n in spans)

    def put(name: str, value: float) -> None:
        out[name]["value"] = value

    events, hops = ops.get("sim.events", 0), ops.get("net.hops", 0)
    put("sim.engine.events", events)
    put("sim.engine.us_per_event", 1e6 * _ratio(self_s("sim.engine"), events))
    put("sim.network.hops", hops)
    put("sim.network.us_per_hop", 1e6 * _ratio(self_s("sim.network"), hops))
    lookup = "chord.routing:routing.next_hop"
    put("chord.routing.us_per_lookup", 1e6 * _ratio(incl(lookup), calls(lookup)))
    hits, misses = ops.get("route.cache_hits", 0), ops.get("route.cache_misses", 0)
    put("chord.routing.cache_hit_rate", _ratio(hits, hits + misses))
    delivered = ops.get("dispatch.delivered", 0)
    put("core.runtime.delivered", delivered)
    put("core.runtime.us_per_delivery", 1e6 * _ratio(self_s("core.runtime"), delivered))
    scans = ("core.index:LocalIndex.new_candidates", "core.index:LocalIndex.probe")
    put("core.index.scans", calls(*scans))
    put("core.index.us_per_scan", 1e6 * _ratio(incl(*scans), calls(*scans)))
    put("core.index.rows_scanned", ops.get("index.rows_scanned", 0))
    put("core.index.scan_selectivity",
        _ratio(ops.get("index.rows_exact", 0), ops.get("index.rows_scanned", 0)))
    put("core.index.rebuild_ratio",
        _ratio(ops.get("index.stack_rebuilds", 0), ops.get("index.stack_appends", 0)))
    add = "core.index:LocalIndex.add_mbr"
    put("core.index.us_per_add", 1e6 * _ratio(incl(add), calls(add)))
    put("streams.values", values)
    put("streams.us_per_value", 1e6 * _ratio(self_s("streams"), values))
    put("core.mbr.us_per_add",
        1e6 * _ratio(self_s("core.mbr"), calls("core.mbr:MBRBatcher.add")))
    encode = ("net.wire:wire.encode_frame", "net.wire:wire.encode_message")
    decode = ("net.wire:FrameDecoder.feed", "net.wire:wire.decode_message")
    frames_out = calls("net.wire:wire.encode_frame")
    frames_in = int(spans.get("net.wire:FrameDecoder.feed", {}).get("units", 0))
    put("net.wire.encode_us", 1e6 * _ratio(incl(*encode), frames_out))
    put("net.wire.decode_us", 1e6 * _ratio(incl(*decode), frames_in))
    put("net.wire.bytes_per_msg",
        _ratio(spans.get("net.wire:wire.encode_frame", {}).get("units", 0), frames_out))
    put("net.wire.frames", frames_out + frames_in)
    return out


def trace_checks(workload: str, metrics: Dict[str, Dict[str, Any]],
                 trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The layers partition the traced time; bypassed layers read 0."""
    root = trace["root_s"]
    total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    return [check("layer self times sum to the root spans",
                  abs(total - root) <= 0.02 * root, f"{total:.4f} vs {root:.4f} s")] + [
        check(f"{name} == 0", metrics[name]["value"] == 0, f"got {metrics[name]['value']}")
        for name in spec.MUST_BE_ZERO[workload]
    ]


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def event_costs(doc: Dict[str, Any], upto: Optional[int] = None) -> List[float]:
    """CPU seconds per simulator event of each slice (of the first ``upto``)."""
    return [c / e for c, e in zip(doc["cpu"][:upto], doc["events"][:upto])]


def sim_end_to_end(doc: Dict[str, Any], setups: List[float], recall: float,
                   attempted: int, failed: int) -> Dict[str, Dict[str, Any]]:
    stats, probes = doc["stats"], doc["probes"]
    measured_sim_s = doc["slice_ms"] * len(doc["cpu"]) / 1000.0
    settled = stats["reliable_acked"] + stats["dead_letters"]
    # the slices hold unequal work (Poisson arrivals, churn), so each is
    # costed per event it processed; the run's event mix turns the
    # typical cost back into rates
    cost = sliced(event_costs(doc), "s", "lower")
    events, values = sum(doc["events"]), sum(doc["values"])

    def scaled(factor: float, unit: str, better: str) -> Dict[str, Any]:
        points = {k: factor * cost[k] if better == "lower" else factor / cost[k]
                  for k in ("value", "median", "q1", "q3")}
        if better == "higher":
            points["q1"], points["q3"] = points["q3"], points["q1"]
        return {**points, "unit": unit, "n": cost["n"]}

    metrics = {
        "setup_s": {**plain(statistics.median(setups), "s"), "samples": setups,
                    "wall_s": doc["setup"]["wall_s"]},
        "values_per_s": scaled(values / events, "1/s", "higher"),
        "peak_rss_mb": plain(doc["peak_rss_kb"] / 1024.0, "MB"),
        "msgs_per_node_s": plain(stats["sends"] / doc["n_nodes"] / measured_sim_s, "1/s"),
        "query_recall": plain(recall, "ratio"),
        "delivery_ratio": plain(stats["reliable_acked"] / settled if settled else 1.0, "ratio"),
        "ingest_latency_ms": plain(stats["mbr_delivery_ms"], "ms"),
        "wall_per_sim_s": scaled(events / measured_sim_s, "s/s", "lower"),
        "failed_share": plain(failed / attempted, "ratio"),
    }
    if probes:
        metrics["query_recall"].update(expected=probes["expected"], matched=probes["matched"])
        if probes["first_match_ms"]:
            metrics["query_first_match_ms_p50"] = plain(
                statistics.median(probes["first_match_ms"]), "ms")
    return metrics


def sim_per_layer(doc: Dict[str, Any], base: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    stats, setup = doc["stats"], doc["setup"]
    metrics = per_layer_from_trace(doc["trace"], doc["ops"], sum(doc["values"]))
    check = len(base["cpu"])
    for key, value in (
        ("core.reliable.tracked", stats["reliable_sends"]),
        ("core.reliable.retransmissions", stats["retransmissions"]),
        ("core.reliable.dead_letters", stats["dead_letters"]),
        ("core.replication.pushes", stats["replica_pushes"]),
        ("core.replication.read_repairs", stats["read_repairs"]),
        ("core.replication.handoffs_drained", stats["handoffs_drained"]),
        ("sim.faults.drops", stats["drops"]),
        ("sim.network.duplicates_suppressed", stats["duplicates_suppressed"]),
        ("chord.ring.build_s", setup["ring_build_s"]),
        ("workload.attach_s", setup["attach_s"]),
        ("workload.warmup_s", setup["warmup_s"]),
        ("mem.kb_per_node", setup["kb_per_node"]),
        # the same slices, up to the checkpoint, traced ÷ untraced
        ("trace.overhead_ratio",
         sliced(event_costs(doc, check), "s", "lower")["value"]
         / sliced(event_costs(base), "s", "lower")["value"]),
    ):
        metrics[key]["value"] = value
    return metrics


def measure_sim(name: str, seed: int, seconds: float, trace: int, *, smoke: bool = False,
                repeat_setup: bool = True, baseline: Optional[Record] = None,
                trace_out: Optional[str] = None) -> Record:
    """One untraced or traced run of a simulator workload as a record.

    ``baseline`` is an untraced record of the same (workload, seed); a
    traced run without one makes its own, up to the checkpoint.  Nothing
    a traced run reports is gated, so it measures for half as long.
    """
    w = spec.sim_workloads(smoke)[name]
    check_slices = spec.SMOKE_CHECK_SLICES if smoke else spec.CHECK_SLICES
    if trace:
        base = baseline["raw"] if baseline else sim_child(
            name, seed, seconds, smoke=smoke, check_only=True)
        base = {**base, "cpu": base["cpu"][:check_slices], "events": base["events"][:check_slices]}
        doc = sim_child(name, seed, seconds / 2.0, trace=1, smoke=smoke, trace_out=trace_out)
    else:
        doc = sim_child(name, seed, seconds, smoke=smoke)

    probes, inv = doc["probes"], doc["invariants"]
    recall = probes["matched"] / probes["expected"] if probes and probes["expected"] else 1.0
    # on a faulty fabric a probe that misses within the grace is what
    # query_recall measures, not an operation that must succeed
    probes_must_match = probes is not None and w.churn is None
    attempted = inv["checks"] + (probes["with_expectation"] if probes_must_match else 0)
    failed = inv["violation_count"] + (probes["failed"] if probes_must_match else 0)
    checks = [check("ledger and placement invariants hold", inv["violation_count"] == 0,
                    "; ".join(inv["violations"]))]
    if w.exact_recall and probes is not None:
        checks.append(check(
            "query_recall == 1.0 over a non-empty expected set",
            probes["expected"] > 0 and probes["matched"] == probes["expected"],
            f"{probes['matched']}/{probes['expected']}",
        ))
    if trace:
        metrics = sim_per_layer(doc, base)
        checks.append(check(
            "tracing does not perturb behaviour (stats digest and counts at the checkpoint)",
            base["checkpoint"] == doc["checkpoint"],
        ))
        checks.extend(trace_checks(name, metrics, doc["trace"]))
    else:
        setups = setup_samples(
            [doc["setup"]],
            lambda: sim_child(name, seed, seconds, smoke=smoke, setup_only=True)["setup"],
            repeat_setup,
        )
        metrics = sim_end_to_end(doc, setups, recall, attempted, failed)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed, "metrics": metrics, "checks": checks,
        "checkpoint": doc["checkpoint"], "raw": doc,
    }


# ----------------------------------------------------------------------
# the socket workload
# ----------------------------------------------------------------------
def net_end_to_end(doc: Dict[str, Any], setups: List[float]) -> Dict[str, Dict[str, Any]]:
    import netgen

    closed, opened = doc["closed"], doc["open"]
    delivered, sent = netgen.delivered_and_sent(doc["final"])
    latency = sliced([1000.0 * s for s in opened["publish_latency_s"]], "ms", "lower",
                     spec.RPC_QUANTILE)
    first_ms = [1000.0 * s for s in opened["first_match_s"]]
    return {
        "setup_s": {**plain(statistics.median(setups), "s"), "samples": setups,
                    "wall_s": doc["setup"]["wall_s"]},
        # capacity of the single-threaded host: values per second of its
        # CPU time over the closed loop, in short intervals
        "values_per_s": {**sliced(closed["rates"], "1/s", "higher"),
                         "host_busy": closed["host_busy"]},
        "peak_rss_mb": plain(doc["final"]["peak_rss_kb"] / 1024.0, "MB"),
        "msgs_per_node_s": plain(opened["sends"] / spec.NET_NODES / opened["offered_s"], "1/s"),
        "query_recall": plain(_ratio(opened["recall_hits"], opened["queries"]), "ratio"),
        "delivery_ratio": plain(_ratio(delivered, sent), "ratio"),
        "ingest_latency_ms": latency,
        "publish_rpc_ms_p50": plain(latency["median"], "ms"),
        "publish_rpc_ms_p99": plain(report.percentile(opened["publish_latency_s"], 99) * 1000.0,
                                    "ms"),
        "query_first_match_ms_p50": {**plain(report.percentile(first_ms, 50), "ms"),
                                     "n": len(first_ms)},
        "query_first_match_ms_p95": plain(report.percentile(first_ms, 95), "ms"),
        "failed_share": plain(_ratio(doc["failed"], doc["attempted"]), "ratio"),
    }


def net_per_layer(doc: Dict[str, Any], base: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    final = doc["final"]
    metrics = per_layer_from_trace(final["trace"], final["ops"], final["values"])
    late_ms = [1000.0 * s for s in doc["open"]["lateness_s"]]
    for key, value in (
        ("net.peer.drain_s", doc["closed"]["drain_s"]),
        ("net.peer.msgs_per_value", _ratio(sum(final["sends"].values()), final["values"])),
        ("workload.gen_late_ms_p99", report.percentile(late_ms, 99)),
        ("trace.overhead_ratio",
         sliced(base["closed"]["rates"], "1/s", "higher")["value"]
         / sliced(doc["closed"]["rates"], "1/s", "higher")["value"]),
    ):
        metrics[key]["value"] = value
    return metrics


def measure_net(seed: int, seconds: float, trace: int, *, repeat_setup: bool = True,
                baseline: Optional[Record] = None, trace_out: Optional[str] = None) -> Record:
    """One untraced or traced run of ``net_loopback_n4`` (see :func:`measure_sim`)."""
    import netgen

    name = spec.NET_WORKLOAD
    checked = netgen.run_host(seed, seconds, trace=trace, mode="check")
    if trace:
        base = baseline["raw"] if baseline else netgen.run_host(seed, seconds / 2.0)
        doc = netgen.run_host(seed, seconds / 2.0, trace=1, trace_out=trace_out)
        metrics = net_per_layer(doc, base)
        checks = trace_checks(name, metrics, doc["final"]["trace"])
    else:
        doc = netgen.run_host(seed, seconds)
        setups = setup_samples(
            [doc["setup"], checked["setup"]],
            lambda: netgen.run_host(seed, seconds, mode="setup")["setup"],
            repeat_setup,
        )
        metrics = net_end_to_end(doc, setups)
        checks = []
    check_doc = checked["check"]
    checks.append(check(
        "placements and scripted answers equal the simulator's", check_doc["reference_ok"],
        json.dumps({k: check_doc[k] for k in ("placements", "want_placements",
                                              "answers", "want_answers")})))
    attempted = doc["attempted"] + checked["attempted"]
    failed = doc["failed"] + checked["failed"]
    checks.append(check("no RPC failed and every ledger drained", failed == 0,
                        "; ".join(doc["errors"] + checked["errors"])))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "checks": checks, "checkpoint": {}, "raw": doc,
    }


def measure(name: str, seed: int, seconds: float, trace: int, *, smoke: bool = False,
            **kw: Any) -> Record:
    if name == spec.NET_WORKLOAD:  # --seconds is all that sizes this workload
        return measure_net(seed, seconds, trace, **kw)
    return measure_sim(name, seed, seconds, trace, smoke=smoke, **kw)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def show(rec: Record) -> bool:
    kind = "per-layer (traced)" if rec["trace"] else "end-to-end (untraced)"
    report.print_metrics(
        rec["metrics"],
        f"== {rec['workload']}  seed {rec['seed']}  {rec['seconds']:g} s  {kind}")
    print(f"  attempted {rec['attempted']}  failed {rec['failed']}")
    ok = True
    for c in rec["checks"]:
        ok &= c["ok"]
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + (f": {c['detail']}" if c["detail"] and not c["ok"] else ""))
    return ok


def contract_line(rec: Record, ok: bool) -> str:
    wanted = spec.PER_LAYER if rec["trace"] else spec.END_TO_END
    return json.dumps({
        "correct": ok,
        "attempted": max(1, int(rec["attempted"])),
        "failed": int(rec["failed"]),
        "metrics": {
            m.name: {"value": rec["metrics"][m.name]["value"], "unit": m.unit} for m in wanted
        },
    })


def run_set(names: List[str], seed: int, seconds: float, trace: int, smoke: bool,
            out: Optional[str], trace_out: Optional[str]) -> bool:
    """Every named workload twice untraced (+ once traced), one document.

    Under ``--smoke --trace`` the traced run stands in for the second
    untraced one: an equal digest shows both that the run repeats and
    that tracing did not perturb it.
    """
    doc: Dict[str, Any] = {"schema": 1, "host": report.host_fingerprint(), "seed": seed,
                           "seconds": seconds, "smoke": smoke, "workloads": {}}
    all_ok = True
    for name in names:
        first = measure(name, seed, seconds, 0, smoke=smoke, repeat_setup=not smoke)
        if not (smoke and trace):
            again = measure(name, seed, seconds, 0, smoke=smoke, repeat_setup=False)
            first["checks"].append(check(
                "a second run repeats the stats digest and every count at the checkpoint",
                first["checkpoint"] == again["checkpoint"],
                f"{first['checkpoint']} vs {again['checkpoint']}"))
        all_ok &= show(first)
        entry = {"why": spec.WORKLOAD_WHY[name], "end_to_end": first["metrics"],
                 "attempted": first["attempted"], "failed": first["failed"],
                 "checkpoint": first["checkpoint"], "checks": first["checks"]}
        if trace:
            traced = measure(name, seed, seconds, 1, smoke=smoke, baseline=first,
                             trace_out=trace_out)
            all_ok &= show(traced)
            entry.update(per_layer=traced["metrics"], trace_checks=traced["checks"])
        doc["workloads"][name] = entry
    doc["host"]["loadavg_1m_after"] = os.getloadavg()[0]
    print(f"host: {json.dumps(doc['host'])}")
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"results written to {out}")
    print("ALL CHECKS PASSED" if all_ok else "SOME CHECKS FAILED")
    return all_ok


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        with open(argv[1]) as fa, open(argv[2]) as fb:
            rows = report.compare(json.load(fa), json.load(fb))
        report.print_compare(rows)
        return int(any(r["verdict"] in ("worse", "unresolved") for r in rows))

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds of the measured interval "
                             "(default: run_seconds of BENCHMARK.json, 8)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at {SMOKE_SECONDS} s, to exercise the code")
    parser.add_argument("--out", default=None, help="write the full-set results here")
    parser.add_argument("--trace-out", default=None,
                        help="write the first 100k raw spans of the traced run here")
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else 8.0 if args.seconds is None else args.seconds

    driver_mode = args.workload is not None and len(args.workload) == 1 and args.seconds is not None
    if driver_mode:
        rec = measure(args.workload[0], args.seed, seconds, args.trace,
                      smoke=args.smoke, trace_out=args.trace_out)
        ok = show(rec)
        print(contract_line(rec, ok))
        return 0 if ok else 1
    names = args.workload or list(spec.WORKLOAD_NAMES)
    ok = run_set(names, args.seed, seconds, args.trace, args.smoke, args.out, args.trace_out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
