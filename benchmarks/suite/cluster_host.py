"""Child process of ``net_loopback_n4``: four ``PeerNode``s on one event loop.

The peers listen on ephemeral 127.0.0.1 ports and talk to each other
over real TCP sockets, so the JSON wire codec and asyncio stream I/O
are on the path; the load generator lives in the parent (``netgen.py``)
and reaches them through the client RPC frames.  Traffic crosses the
host's loopback interface, not a real link.

Control protocol, one line each way on stdin/stdout:

``ready`` (sent first)  ``{"ports": [...]}``
``snapshot``            cluster-wide message ledger, values ingested,
                        peak RSS, CPU seconds, the samples taken since the
                        last snapshot and (traced) span and op-counter totals
``reset``               zero the span and op-counter totals
``stop`` / EOF          depart and exit

Every ``SAMPLE_PERIOD_S`` the event loop notes (monotonic time, CPU
seconds of this process, values ingested): the generator sees only
replies, and the throughput of a busy host is values per CPU second
over such short intervals (see ``report.sliced``).  With 25 ms samples
every other one held the peers' notification ticks and ran at a third
of the rate of its neighbours.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from spec import NET_NODES, net_config
from trace import Tracer

from repro.net.peer import PeerNode
from repro.perf.counters import OpCounters, install as install_counters, uninstall as uninstall_counters


#: one notification period, so that every sample holds one tick of every peer
SAMPLE_PERIOD_S = net_config().workload.nper_ms / 1000.0


def values_ingested(peers: List[PeerNode]) -> int:
    return sum(src.values_ingested for p in peers for src in p.app.sources.values())


def snapshot(peers: List[PeerNode], tracer: Optional[Tracer], ops: Optional[OpCounters],
             samples: List[List[float]]) -> Dict[str, Any]:
    sends: Dict[str, int] = {}
    delivered: Dict[str, List[int]] = {}  # kind -> [count, hop sum]
    for peer in peers:
        stats = peer.transport.stats
        for kind, n in stats.sends_by_kind.items():
            sends[kind] = sends.get(kind, 0) + n
        for kind, (hop_sum, count) in stats.hops_by_kind.items():
            row = delivered.setdefault(kind, [0, 0])
            row[0] += count
            row[1] += hop_sum
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc: Dict[str, Any] = {
        "sends": sends,
        "delivered": delivered,
        "values": values_ingested(peers),
        "peak_rss_kb": usage.ru_maxrss,
        "cpu_s": time.process_time(),
        "samples": samples[:],
    }
    del samples[:]
    if tracer is not None:
        doc["trace"] = tracer.summary()
        doc["ops"] = ops.snapshot() if ops is not None else {}
    return doc


async def serve(args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
    loop = asyncio.get_running_loop()
    config = net_config(args.bspan_ms)
    peers: List[PeerNode] = []
    samples: List[List[float]] = []

    def sample() -> None:
        samples.append([time.monotonic(), time.process_time(), values_ingested(peers)])
        loop.call_later(SAMPLE_PERIOD_S, sample)

    ops = install_counters() if tracer is not None else None
    try:
        for i in range(NET_NODES):
            peer = PeerNode(f"dc-{i}", "127.0.0.1", 0, config, seed=args.seed)
            peer.log = lambda line: None
            await peer.start(("127.0.0.1", peers[0].port) if peers else None)
            peers.append(peer)
        while not all(len(p.members) == NET_NODES for p in peers):
            await asyncio.sleep(0.01)
        print(json.dumps({"ports": [p.port for p in peers]}), flush=True)
        sample()
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if command == "snapshot":
                print(json.dumps(snapshot(peers, tracer, ops, samples)), flush=True)
            elif command == "reset":
                if tracer is not None:
                    tracer.reset()
                if ops is not None:
                    ops.reset()
                print("{}", flush=True)
            else:  # "stop", or EOF because the parent went away
                return
    finally:
        if ops is not None:
            uninstall_counters()
        for peer in reversed(peers):
            await peer.stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--bspan-ms", type=float, default=None,
                        help="MBR lifespan, when not the workload's own")
    args = parser.parse_args(argv)
    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        asyncio.run(serve(args, tracer))
        if tracer is not None and args.trace_out:
            tracer.dump_raw(args.trace_out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
