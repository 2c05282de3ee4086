"""Child process of one simulator workload: build, warm up, measure, report.

Started fresh by ``run.py`` for every run, so ``ru_maxrss`` is the
workload's own.  Uses only the public API of ``repro`` (``StreamIndexSystem``,
``QueryWorkload``, ``ChurnWorkload``, the ``repro.analysis`` invariant
checkers and ``repro.perf.counters``).
Prints one JSON document of raw facts on its last stdout line; ``run.py``
turns facts into metrics.

The measured interval is a row of equal slices of simulated time, each
timed on its own, made until ``--seconds`` of wall time have passed
(so a slow host measures less work, not for longer) and never fewer
than ``CHECK_SLICES``.  Up to that checkpoint a run is a pure function
of (workload, seed): its counts and stats digest must repeat between
runs, traced or not.  The probe queries that check the answers follow
the slices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from spec import CHECK_SLICES, PROBE_RADIUS, SMOKE_CHECK_SLICES, SimWorkload, sim_workloads
from trace import Tracer

from repro.analysis import check_index_placement, check_message_conservation
from repro.bench.export import stats_to_csv_string
from repro.core.queries import SimilarityQuery
from repro.core.system import StreamIndexSystem
from repro.perf.counters import OpCounters, install as install_counters, uninstall as uninstall_counters
from repro.workload import ChurnWorkload, QueryWorkload


def current_rss_kb() -> int:
    """Resident set right now (``ru_maxrss`` only ever grows)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def stats_digest(system: StreamIndexSystem) -> str:
    """sha256 over the full message ledger plus the event count."""
    text = stats_to_csv_string(system.network.stats)
    text += f"events,{system.sim.events_processed}\n"
    return hashlib.sha256(text.encode()).hexdigest()


def probe_phase_ms(config) -> Tuple[float, float]:
    """(lead, grace) of the probe phase: post → oracle → read.

    The lead lets the subscription spread over its key range; where
    soft-state refresh is on (lossy fabric) it spans six refresh
    periods, because a span copy lost on one hop is only healed by the
    next refresh.  The grace covers an MBR published just before the
    oracle looked: route to its holders, holder tick, route to the
    aggregator, aggregator tick, route to the client — two notification
    periods and three routed legs.  With 1 s for the legs one run in
    sixty of ``fig6a_n200`` (ten hops of 50 ms each way) read a match
    160 ms before it arrived and failed the exact-recall check; 4 s
    leaves each leg 26 hops.
    """
    nper = config.workload.nper_ms
    return max(4.0 * nper + 2_000.0, 6.0 * config.refresh_period_ms), 2.0 * nper + 4_000.0


def values_ingested(system: StreamIndexSystem) -> int:
    return sum(
        src.values_ingested for app in system.all_apps for src in app.sources.values()
    )


class Probes:
    """Similarity probes with a ground-truth oracle, as ``perf.parallel`` does.

    Posted from node 0 right after the measured interval, each with the
    current window of a random live stream as its pattern; a lead later
    the oracle records, per probe, every live source whose last
    published MBR is unexpired and within the radius; a grace after
    that the client's results are read (see :func:`probe_phase_ms`).
    """

    def __init__(self, system: StreamIndexSystem, count: int, seed: int) -> None:
        self.system = system
        self.count = count
        self.rng = np.random.default_rng([seed, 0x9E0BE])
        self.client = system.app(0)
        self.lead_ms, self.grace_ms = probe_phase_ms(system.config)
        self.posted: List[Any] = []  # (query id, query, post time)
        self.expected: List[set] = []

    def run(self) -> Dict[str, Any]:
        self.post()
        self.system.run(self.lead_ms)
        self.snapshot_oracle()
        self.system.run(self.grace_ms)
        return self.outcome()

    def post(self) -> None:
        live = [
            src
            for app in self.system.all_apps
            if app.node.alive
            for src in app.sources.values()
            if src.extractor.ready
        ]
        cfg = self.system.config
        for _ in range(self.count):
            src = live[int(self.rng.integers(len(live)))]
            query = SimilarityQuery(
                pattern=src.extractor.window.values(),
                radius=PROBE_RADIUS,
                lifespan_ms=self.lead_ms + self.grace_ms + 1_000.0,
                normalization=cfg.normalization,
            )
            qid = self.client.post_similarity_query(query)
            self.posted.append((qid, query, self.system.sim.now))

    def snapshot_oracle(self) -> None:
        now = self.system.sim.now
        ids: List[str] = []
        lows: List[np.ndarray] = []
        highs: List[np.ndarray] = []
        for app in self.system.all_apps:
            if not app.node.alive:
                continue
            for stream_id, src in app.sources.items():
                last = src.last_publish
                if last is None or src.last_publish_ms + last.lifespan_ms <= now:
                    continue
                ids.append(stream_id)
                lows.append(last.mbr.low)
                highs.append(last.mbr.high)
        low, high = np.array(lows), np.array(highs)
        k = self.system.config.k
        for _qid, query, _t in self.posted:
            q = query.feature_vector(k)
            delta = np.maximum(low - q, 0.0) + np.maximum(q - high, 0.0)
            dist = np.sqrt((delta * delta).sum(axis=1))
            self.expected.append(
                {ids[i] for i in np.flatnonzero(dist <= query.radius + 1e-12)}
            )

    def outcome(self) -> Dict[str, Any]:
        expected_total = matched_total = with_expectation = failed = 0
        first_match_ms: List[float] = []
        for (qid, _query, posted_at), expected in zip(self.posted, self.expected):
            matches = self.client.similarity_results.get(qid, [])
            if matches:
                first_match_ms.append(min(m.time for m in matches) - posted_at)
            if not expected:
                continue
            hit = expected & {m.stream_id for m in matches}
            with_expectation += 1
            expected_total += len(expected)
            matched_total += len(hit)
            failed += not hit
        return {
            "posted": len(self.posted),
            "with_expectation": with_expectation,
            "expected": expected_total,
            "matched": matched_total,
            "failed": failed,
            "first_match_ms": first_match_ms,
        }


def run(args: argparse.Namespace, tracer: Optional[Tracer]) -> Dict[str, Any]:
    spec: SimWorkload = sim_workloads(args.smoke)[args.workload]
    cfg = spec.config

    rss_before = current_rss_kb()
    t0 = time.perf_counter()
    system = StreamIndexSystem(
        spec.n_nodes, cfg, seed=args.seed, with_stabilizer=spec.churn is not None
    )
    t1 = time.perf_counter()
    system.attach_random_walk_streams()
    QueryWorkload(system, hit_fraction=spec.hit_fraction).start()
    t2 = time.perf_counter()

    system.warmup(extra_ms=spec.warmup_extra_ms)
    probes = Probes(system, spec.probes, args.seed)
    if spec.churn is not None:
        fail_rate, join_rate = spec.churn
        ChurnWorkload(
            system,
            fail_rate_per_s=fail_rate,
            join_rate_per_s=join_rate,
            protect=[probes.client.node_id],
        ).start()
    system.reset_stats()
    setup = {
        # CPU seconds of this process since it started: interpreter,
        # imports, build, attach, warm-up
        "cpu_s": time.process_time(),
        "wall_s": time.time() - args.t0,
        "build_s": t1 - t0,
        "attach_s": t2 - t1,
        "warmup_s": time.perf_counter() - t2,
        "kb_per_node": (current_rss_kb() - rss_before) / spec.n_nodes,
    }
    if tracer is not None:
        ring_build = tracer.summary()["spans"].get("chord.ring:ChordRing.build", {})
        setup["ring_build_s"] = ring_build.get("incl_s", 0.0)
    doc: Dict[str, Any] = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "n_nodes": spec.n_nodes,
        "slice_ms": spec.slice_ms,
        "setup": setup,
    }
    if args.setup_only:
        return doc

    ops: Optional[OpCounters] = None
    if tracer is not None:
        tracer.reset()
        ops = install_counters()
    check_slices = SMOKE_CHECK_SLICES if args.smoke else CHECK_SLICES
    stats = system.network.stats
    cpu: List[float] = []
    wall: List[float] = []
    events: List[int] = []
    values: List[int] = []
    events_before = system.sim.events_processed
    values_before = values_ingested(system)
    deadline = time.perf_counter() + args.seconds
    while len(cpu) < check_slices or (not args.check_only and time.perf_counter() < deadline):
        w0, c0 = time.perf_counter(), time.process_time()
        system.run(spec.slice_ms)
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
        events_after, values_after = system.sim.events_processed, values_ingested(system)
        events.append(events_after - events_before)
        values.append(values_after - values_before)
        events_before, values_before = events_after, values_after
        if len(cpu) == check_slices:
            doc["checkpoint"] = {
                "digest": stats_digest(system),
                "events": sum(events),
                "values": sum(values),
                "sends": sum(stats.sends_by_kind.values()),
            }
    if tracer is not None:
        uninstall_counters()
        doc["trace"] = tracer.summary()
        doc["ops"] = ops.snapshot() if ops is not None else {}
    doc.update(cpu=cpu, wall=wall, events=events, values=values)
    if args.check_only:
        return doc  # overhead-baseline run

    doc["stats"] = {
        "sends": sum(stats.sends_by_kind.values()),
        "mbr_delivery_ms": stats.mean_latency("mbr"),
        "reliable_sends": sum(stats.reliable_sends.values()),
        "reliable_acked": sum(stats.reliable_acked.values()),
        "retransmissions": sum(stats.retransmissions.values()),
        "dead_letters": sum(stats.dead_letters.values()),
        "replica_pushes": stats.sends_by_kind.get("replica", 0),
        "read_repairs": sum(stats.read_repairs.values()),
        "handoffs_drained": sum(stats.handoffs_drained.values()),
        "drops": stats.total_drops(),
        "duplicates_suppressed": sum(stats.duplicates_suppressed.values()),
    }
    p0 = time.perf_counter()
    doc["probes"] = probes.run() if spec.probes else None
    doc["probe_wall_s"] = time.perf_counter() - p0
    # the books must balance everywhere; placement is only an invariant
    # on a static ring (churn legitimately leaves stale soft state)
    reports = [check_message_conservation(system.network)]
    if spec.churn is None:
        reports.append(check_index_placement(system))
    doc["invariants"] = {
        "checks": sum(r.checks_run for r in reports),
        "violations": [str(v) for r in reports for v in r.violations][:20],
        "violation_count": sum(len(r.violations) for r in reports),
    }
    doc["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.time() just before this process was spawned")
    parser.add_argument("--check-only", action="store_true",
                        help="stop at the checkpoint (overhead baseline)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.time()
    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        doc = run(args, tracer)
        if tracer is not None and args.trace_out:
            tracer.dump_raw(args.trace_out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
