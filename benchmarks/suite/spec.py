"""What the reference benchmark runs and reports: workloads and metric tables.

Pure data plus the few helpers that read it.  ``BENCHMARK.json`` at the
repo root is the driver-facing copy of ``END_TO_END`` / ``PER_LAYER`` /
the workload names and reasons; ``tests/test_suite.py`` checks that the
two agree.

Importing this module puts the repo's ``src/`` on ``sys.path``, so every
script of the suite (``run.py`` and the child processes it starts) finds
``repro`` without ``PYTHONPATH``; ``repro`` itself is imported lazily.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(SUITE_DIR)), "src")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

#: slices every simulator run makes whatever the clock says; the stats
#: digest after them is what two runs of a seed must agree on
CHECK_SLICES = 20
SMOKE_CHECK_SLICES = 4
#: a timing is the value at this quantile of its slices, fast end (see
#: ``report.typical``): on a shared host interference only ever slows a slice
TYPICAL_QUANTILE = 0.10
#: the same for single RPCs, which take a millisecond where a slice takes
#: fifty and of which a neighbour's burst leaves far fewer untouched
RPC_QUANTILE = 0.01
#: similarity probes posted near the end of every sim run that can afford them
N_PROBES = 20
PROBE_RADIUS = 0.4

LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.network",
    "sim.faults",
    "chord.dht",
    "chord.routing",
    "chord.ring",
    "chord.stabilize",
    "streams",
    "core.mbr",
    "core.mapping",
    "core.multicast",
    "core.runtime",
    "core.roles",
    "core.index",
    "core.reliable",
    "core.replication",
    "net.wire",
    "net.peer",
    "workload",
)


@dataclass(frozen=True)
class Metric:
    """One reported number: name, unit, direction and regression bound.

    ``bound`` is relative (share of the baseline median) unless
    ``absolute`` is set; ``None`` means the metric is informational
    (per-layer metrics are never gated).
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    absolute: bool = False
    what: str = ""


#: reported by every workload from an untraced run; mirrored in BENCHMARK.json.
#: Seconds are CPU seconds of the process that hosts the system (one
#: thread; equal to wall seconds on an idle machine): the reference host
#: is a shared VM on which the wall clock has read 2-10x the CPU clock.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           what="CPU seconds of the hosting process from its start to stats "
                "reset: interpreter, imports, build, stream attach, warm-up "
                "(median of the set-ups made in one run)"),
    Metric("values_per_s", "1/s", "higher", 0.25,
           what="stream values ingested per CPU second with all the query "
                "work the workload carries, fast decile of the slices (sim) "
                "or of the 50 ms samples of the closed loop (net)"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           what="ru_maxrss of the process that hosts the system"),
    Metric("msgs_per_node_s", "1/s", "lower", 0.25,
           what="messages sent per node per second (Fig. 6(a) total); "
                "simulated seconds, or scheduled seconds of the fixed-rate "
                "phase on net_loopback_n4"),
    Metric("query_recall", "ratio", "higher", 0.20,
           what="pooled |expected ∩ reported| ÷ |expected| over the probe "
                "queries; 1.0 when no probe expected a match"),
    Metric("delivery_ratio", "ratio", "higher", 0.02,
           what="settled reliable sends that were acked (sim) or remote "
                "sends that arrived after drain (net)"),
    Metric("ingest_latency_ms", "ms", "lower", 0.25,
           what="latency of the ingest path: mean simulated ms from an MBR's "
                "publication to its first holder (sim), or wall ms of an "
                "undisturbed publish RPC, write to reply, at the fixed rate "
                "(net; fastest hundredth)"),
)

#: printed, stored and compared by this suite, but only where they apply,
#: so they cannot be in BENCHMARK.json (which needs every metric everywhere)
SUITE_ONLY: Tuple[Metric, ...] = (
    Metric("wall_per_sim_s", "s/s", "lower", 0.25,
           what="CPU seconds per simulated second, fast decile of the slices (sim)"),
    Metric("publish_rpc_ms_p50", "ms", "lower", 0.25,
           what="publish RPC latency, write to reply, open loop (net): the "
                "median a user sees, neighbours included"),
    Metric("publish_rpc_ms_p99", "ms", "lower", 0.25),
    Metric("query_first_match_ms_p50", "ms", "lower", 0.10,
           what="query send to first non-empty result: wall ms on net, "
                "simulated ms over the probes on sim (tick-bound)"),
    Metric("query_first_match_ms_p95", "ms", "lower", 0.15,
           what="net only (sim has too few probes for a tail)"),
    Metric("failed_share", "ratio", "lower", 0.001, absolute=True,
           what="failed ÷ attempted checked operations"),
)


def _per_layer() -> Tuple[Metric, ...]:
    out: List[Metric] = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower"))
        out.append(Metric(f"{layer}.share", "ratio", "lower"))
        out.append(Metric(f"{layer}.calls", "count", "lower"))
    for name, unit, better in (
        ("sim.engine.events", "count", "lower"),
        ("sim.engine.us_per_event", "us", "lower"),
        ("sim.network.hops", "count", "lower"),
        ("sim.network.us_per_hop", "us", "lower"),
        ("chord.routing.us_per_lookup", "us", "lower"),
        ("chord.routing.cache_hit_rate", "ratio", "higher"),
        ("core.runtime.delivered", "count", "lower"),
        ("core.runtime.us_per_delivery", "us", "lower"),
        ("core.index.scans", "count", "lower"),
        ("core.index.us_per_scan", "us", "lower"),
        ("core.index.rows_scanned", "count", "lower"),
        ("core.index.scan_selectivity", "ratio", "higher"),
        ("core.index.rebuild_ratio", "ratio", "lower"),
        ("core.index.us_per_add", "us", "lower"),
        ("streams.values", "count", "higher"),
        ("streams.us_per_value", "us", "lower"),
        ("core.mbr.us_per_add", "us", "lower"),
        ("core.reliable.tracked", "count", "lower"),
        ("core.reliable.retransmissions", "count", "lower"),
        ("core.reliable.dead_letters", "count", "lower"),
        ("core.replication.pushes", "count", "lower"),
        ("core.replication.read_repairs", "count", "lower"),
        ("core.replication.handoffs_drained", "count", "lower"),
        ("sim.faults.drops", "count", "lower"),
        ("sim.network.duplicates_suppressed", "count", "lower"),
        ("chord.ring.build_s", "s", "lower"),
        ("workload.attach_s", "s", "lower"),
        ("workload.warmup_s", "s", "lower"),
        ("mem.kb_per_node", "kB", "lower"),
        ("net.wire.encode_us", "us", "lower"),
        ("net.wire.decode_us", "us", "lower"),
        ("net.wire.bytes_per_msg", "B", "lower"),
        ("net.wire.frames", "count", "lower"),
        ("net.peer.drain_s", "s", "lower"),
        ("net.peer.msgs_per_value", "ratio", "lower"),
        ("workload.gen_late_ms_p99", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ):
        out.append(Metric(name, unit, better))
    return tuple(out)


#: reported by every workload from a traced run (0 where a layer never runs)
PER_LAYER: Tuple[Metric, ...] = _per_layer()

_LOSS_FREE_ZERO = (
    "sim.faults.calls", "chord.stabilize.calls", "net.wire.calls", "net.peer.calls",
    "core.reliable.tracked", "core.reliable.retransmissions", "core.reliable.dead_letters",
    "core.replication.pushes", "core.replication.read_repairs",
    "core.replication.handoffs_drained", "sim.faults.drops",
    "sim.network.duplicates_suppressed",
)
#: per-layer metrics that must read 0 on a workload (checked in traced
#: runs): a layer the workload bypasses was never entered, a mechanism
#: that is off did no work.  The entry points of an inert mechanism
#: (``ReliableSender.track``, ``ReplicationManager.note_primary``) are
#: still called and return at their guard, so for those the work
#: counters are checked, not the call counts.
MUST_BE_ZERO: Dict[str, Tuple[str, ...]] = {
    "fig6a_n200": _LOSS_FREE_ZERO,
    "query_storm_n32": _LOSS_FREE_ZERO,
    "ingest_w256_n64": _LOSS_FREE_ZERO,
    "scale_n5000": _LOSS_FREE_ZERO,
    "lossy_repl_n64": ("net.wire.calls", "net.peer.calls"),
    "net_loopback_n4": (
        "sim.engine.calls", "sim.network.calls", "sim.faults.calls", "chord.dht.calls",
        "chord.stabilize.calls", "core.reliable.tracked", "core.replication.pushes",
    ),
}


@dataclass(frozen=True)
class SimWorkload:
    """One simulator workload; ``config`` is built lazily by :func:`sim_workloads`."""

    name: str
    n_nodes: int
    config: object
    #: simulated ms per timed slice, about 50 ms on the reference host:
    #: short, so that some slices fall between a neighbour's bursts, but
    #: holding some forty notification ticks, so that slices are alike
    #: (on 32 nodes that takes the whole period: each node ticks once)
    slice_ms: float
    warmup_extra_ms: float
    hit_fraction: float = 0.5
    probes: int = N_PROBES
    #: (fail/s, join/s); also attaches the stabilizer
    churn: Optional[Tuple[float, float]] = None
    #: recall must be exactly 1.0 over a non-empty expected set
    exact_recall: bool = False


WORKLOAD_WHY: Dict[str, str] = {
    "fig6a_n200": "the paper's Sec. V sweep point at N=200: engine, network hop and Chord "
                  "routing are the largest share of the work, the index a fifth",
    "query_storm_n32": "about 4,000 standing subscriptions over 3,400 stored MBRs: the "
                       "index scan is most of the run, the network a tenth",
    "ingest_w256_n64": "write-side twin of query_storm: sliding DFT, feature layout and MBR "
                       "batching dominate, with few messages and few scans",
    "lossy_repl_n64": "the only workload where reliability, replication, fault injection "
                      "and stabilization run, under 5% loss and churn",
    "scale_n5000": "N=5000 ring: set-up time and peak RSS are the headline, and node "
                   "state no longer fits the CPU cache",
    "net_loopback_n4": "four asyncio peers over 127.0.0.1: the JSON wire codec and peer I/O "
                       "are the largest share, the simulator is not involved",
}


def sim_workloads(smoke: bool = False) -> Dict[str, SimWorkload]:
    """The five simulator workloads, keyed by name.

    ``smoke`` shrinks what ``--seconds`` cannot: ring size, warm-up and
    the probe phase, so that a pass over every workload takes seconds.
    """
    from repro.core.config import MiddlewareConfig, WorkloadConfig

    rows = (
        SimWorkload(
            "fig6a_n200", 200,
            MiddlewareConfig(batch_size=1),
            slice_ms=400.0, warmup_extra_ms=5_000.0, exact_recall=True,
        ),
        SimWorkload(
            "query_storm_n32", 32,
            MiddlewareConfig(
                batch_size=1,
                query_radius=0.4,
                workload=WorkloadConfig(
                    qrate_per_s=40.0, nper_ms=500.0, bspan_ms=20_000.0,
                    qmin_ms=5_000.0, qmax_ms=10_000.0,
                ),
            ),
            slice_ms=500.0, warmup_extra_ms=10_000.0,
            hit_fraction=0.9, exact_recall=True,
        ),
        SimWorkload(
            "ingest_w256_n64", 64,
            MiddlewareConfig(
                window_size=256, k=8, batch_size=50,
                workload=WorkloadConfig(pmin_ms=5.0, pmax_ms=10.0, qrate_per_s=0.2),
            ),
            slice_ms=250.0, warmup_extra_ms=2_000.0,
        ),
        SimWorkload(
            "lossy_repl_n64", 64,
            MiddlewareConfig(
                window_size=32, k=2, batch_size=2,
                reliable_delivery=True, refresh_period_ms=2_000.0,
                loss_rate=0.05, duplicate_rate=0.01, replication_factor=3,
                # short-lived queries, so that their population is steady
                # by the end of the warm-up and the slices are alike
                workload=WorkloadConfig(
                    qrate_per_s=2.0, nper_ms=500.0, qmin_ms=5_000.0, qmax_ms=10_000.0,
                ),
            ),
            slice_ms=300.0, warmup_extra_ms=10_000.0,
            churn=(0.2, 0.2),
        ),
        SimWorkload(
            "scale_n5000", 5_000,
            MiddlewareConfig(
                window_size=16, k=2, batch_size=1,
                workload=WorkloadConfig(qrate_per_s=0.5),
            ),
            slice_ms=10.0, warmup_extra_ms=1_000.0,
            # a query of useful radius needs tens of simulated seconds to
            # spread over a 5000-node ring; the run simulates about two
            probes=0,
        ),
    )
    if smoke:
        rows = tuple(
            replace(w, n_nodes=min(w.n_nodes, 500),
                    warmup_extra_ms=w.warmup_extra_ms / 10.0, probes=0)
            for w in rows
        )
    return {w.name: w for w in rows}


NET_WORKLOAD = "net_loopback_n4"
NET_NODES = 4
#: generator connections (closed-loop clients); refused above nproc
NET_CONNECTIONS = 2
#: closed-loop clients multiplexed on each connection
NET_CLIENTS_PER_CONNECTION = 4
NET_STREAMS_PER_CONNECTION = 32
NET_VALUES_PER_PUBLISH = 4
NET_OPEN_LOOP_PUBLISH_PER_S = 250.0
NET_QUERY_PERIOD_S = 0.1
NET_QUERY_RADIUS = 0.3
#: a query still unmatched after this long stops being polled and lowers
#: ``query_recall``; it is not a failed operation, because on a shared
#: host the wall clock decides it, not the program
NET_QUERY_TIMEOUT_S = 5.0
NET_POLL_PERIOD_S = 0.005
NET_BSPAN_MS = 2_000.0
#: MBR and query lifespan of the host whose placements and answers are
#: compared with the simulator's: nothing may expire however slow the host
NET_CHECK_LIFESPAN_MS = 3_600_000.0


def net_config(bspan_ms: Optional[float] = None):
    """The peer configuration of ``net_loopback_n4``."""
    from repro.core.config import MiddlewareConfig, WorkloadConfig

    return MiddlewareConfig(
        m=32, window_size=32, k=2, batch_size=2, hop_delay_ms=0.0,
        # a 2 s MBR lifespan brings the index to its steady size within
        # each phase instead of growing through all of it
        workload=WorkloadConfig(
            qrate_per_s=0.0, nper_ms=50.0, bspan_ms=bspan_ms or NET_BSPAN_MS
        ),
    )


WORKLOAD_NAMES: Tuple[str, ...] = tuple(WORKLOAD_WHY)
#: the workloads BENCHMARK.json names.  ``scale_n5000`` is run by this
#: suite only: its 12 s set-up, on a host that at times runs 3x slower,
#: does not fit the time the driver gives 4 + 22 runs per workload
DRIVER_WORKLOADS: Tuple[str, ...] = tuple(n for n in WORKLOAD_NAMES if n != "scale_n5000")
