"""Command-line interface: run demos and regenerate paper experiments.

Usage (also via ``python -m repro``)::

    python -m repro table1
    python -m repro demo --nodes 20 --radius 0.2 --duration 15
    python -m repro load --nodes 50 100 --measure 10
    python -m repro overhead --nodes 50 100 --radius 0.2
    python -m repro hops --nodes 50 100
    python -m repro distribution --nodes 100
    python -m repro baselines --nodes 50
    python -m repro lossy --nodes 50 --loss 0.05 --churn 0.1 --duration 20
    python -m repro lint src
    python -m repro protocol [--json]
    python -m repro node --listen 127.0.0.1:7000 [--join HOST:PORT]
    python -m repro client --connect 127.0.0.1:7000 status

The experiment subcommands mirror the benchmark suite
(``pytest benchmarks/ --benchmark-only``) but let you pick node counts
and measurement lengths interactively.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .bench.harness import SweepCache
from .bench.report import format_histogram, format_series, format_table
from .core.config import TABLE_I, MiddlewareConfig, WorkloadConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed data-stream indexing over content-based "
        "routing (IPDPS 2005 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the paper's Table I parameters")

    demo = sub.add_parser("demo", help="run a small end-to-end demo")
    demo.add_argument("--nodes", type=int, default=20)
    demo.add_argument("--radius", type=float, default=0.2)
    demo.add_argument("--duration", type=float, default=15.0, help="seconds")
    demo.add_argument("--seed", type=int, default=7)

    for name, helptext in (
        ("load", "Fig. 6(a): per-node message load components"),
        ("overhead", "Fig. 7: message overhead per input event"),
        ("hops", "Fig. 8: hops per message type"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--nodes", type=int, nargs="+", default=[50, 100])
        p.add_argument("--radius", type=float, default=0.1)
        p.add_argument("--measure", type=float, default=10.0, help="seconds")
        p.add_argument("--batch", type=int, default=1, help="MBR batch size w")
        p.add_argument("--seed", type=int, default=0)

    dist = sub.add_parser(
        "distribution", help="Fig. 6(b): load distribution across nodes"
    )
    dist.add_argument("--nodes", type=int, default=100)
    dist.add_argument("--measure", type=float, default=10.0)
    dist.add_argument("--batch", type=int, default=1)
    dist.add_argument("--seed", type=int, default=0)

    base = sub.add_parser(
        "baselines", help="Sec. IV-A: compare against centralized & flooding"
    )
    base.add_argument("--nodes", type=int, default=50)
    base.add_argument("--measure", type=float, default=10.0)
    base.add_argument("--seed", type=int, default=0)

    lossy = sub.add_parser(
        "lossy",
        help="lossy-network scenario: ack/retry delivery and soft-state "
        "refresh under message loss, duplication and churn",
    )
    lossy.add_argument("--nodes", type=int, default=50)
    lossy.add_argument("--loss", type=float, default=0.05, help="per-hop loss rate")
    lossy.add_argument(
        "--duplicate", type=float, default=0.01, help="per-hop duplication rate"
    )
    lossy.add_argument(
        "--churn", type=float, default=0.1, help="fail AND join events/s (0 disables)"
    )
    lossy.add_argument("--radius", type=float, default=0.3)
    lossy.add_argument("--duration", type=float, default=20.0, help="seconds")
    lossy.add_argument(
        "--refresh", type=float, default=2.0,
        help="soft-state refresh period in seconds (0 disables healing)",
    )
    lossy.add_argument("--seed", type=int, default=7)
    lossy.add_argument(
        "--replication", type=int, default=1, metavar="R",
        help="replicas per stored MBR, counting the primary "
        "(1 disables replication; DESIGN.md §10)",
    )
    lossy.add_argument(
        "--consistency", choices=("eventual", "quorum"), default="eventual",
        help="query read mode: first answer wins, or wait for "
        "ceil((R+1)/2) agreeing replicas with read repair",
    )
    lossy.add_argument(
        "--vnodes", type=int, default=1, metavar="V",
        help="ring tokens (virtual nodes) per physical data center "
        "(1 disables; DESIGN.md §13)",
    )
    lossy.add_argument(
        "--shed", type=float, default=0.0, metavar="RATE",
        help="admission control: per-holder token-bucket publish budget "
        "in MBRs/s (0 disables; sheds answer with LoadShed/Backpressure)",
    )
    lossy.add_argument(
        "--check-invariants",
        action="store_true",
        help="after the run, stabilize the ring and verify the ring / "
        "index-placement / message-conservation invariants "
        "(exit 1 on violation)",
    )

    lint = sub.add_parser(
        "lint",
        help="simlint: static determinism & protocol checks (DESIGN.md §7)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    lint.add_argument(
        "--baseline",
        default="simlint-baseline.txt",
        help="baseline file of grandfathered findings",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--prune-baseline",
        action="store_true",
        help="fail if the baseline lists findings no longer emitted "
        "(baseline hygiene; combine with --write to rewrite it)",
    )
    lint.add_argument(
        "--write",
        action="store_true",
        help="with --prune-baseline: rewrite the baseline keeping only "
        "still-emitted findings",
    )

    proto = sub.add_parser(
        "protocol",
        help="print the message-kind x role-handler table from the live "
        "protocol registry (DESIGN.md §8)",
    )
    proto.add_argument(
        "--json",
        action="store_true",
        help="machine-readable registry dump (kind, fields, field codecs, "
        "dedup/ack/sender metadata) — the wire-schema pin for net/wire.py",
    )

    flow = sub.add_parser(
        "flow",
        help="simflow: whole-program protocol-flow analysis — the "
        "role×kind send/handle/ack graph and the F001-F005 checks "
        "(DESIGN.md §11)",
    )
    flow.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="source roots to analyze (default: src)",
    )
    flow.add_argument(
        "--baseline",
        default="flow-baseline.txt",
        help="baseline file of grandfathered flow findings",
    )
    flow.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    flow.add_argument(
        "--dot",
        metavar="FILE",
        help="also write the message-flow graph in Graphviz DOT form",
    )
    flow.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero on findings not covered by the baseline",
    )

    rs = sub.add_parser("ring-stats", help="Chord ring diagnostics")
    rs.add_argument("--nodes", type=int, default=100)
    rs.add_argument("--m", type=int, default=32)
    rs.add_argument("--samples", type=int, default=500)

    node = sub.add_parser(
        "node",
        help="run one data center as a real OS process: the full role "
        "stack over asyncio TCP framing (DESIGN.md §12)",
    )
    node.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="address to bind (port 0 picks an ephemeral port)",
    )
    node.add_argument(
        "--join", default=None, metavar="HOST:PORT",
        help="existing cluster member to join via",
    )
    node.add_argument(
        "--name", default=None,
        help="node name hashed onto the ring (default: dc-<port>); use "
        "dc-0..dc-N to mirror a sim reference deployment",
    )
    node.add_argument("--m", type=int, default=32, help="ring identifier bits")
    node.add_argument("--window", type=int, default=16, help="DFT window size")
    node.add_argument("--batch", type=int, default=2, help="MBR batch size w")
    node.add_argument("--k", type=int, default=2, help="feature coefficients")
    node.add_argument(
        "--nper", type=float, default=500.0, help="notification period (ms)"
    )
    node.add_argument("--seed", type=int, default=0, help="RNG seed (retry jitter)")

    client = sub.add_parser(
        "client",
        help="drive a running `repro node` cluster: publish values, post "
        "similarity queries, fetch results and status",
    )
    client.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="any cluster member's listen address",
    )
    client.add_argument(
        "--timeout", type=float, default=10.0, help="RPC timeout (seconds)"
    )
    csub = client.add_subparsers(dest="action", required=True)
    pub = csub.add_parser("publish", help="ingest values into a stream")
    pub.add_argument("--stream", required=True, help="stream id")
    pub.add_argument(
        "--values", required=True,
        help="comma-separated raw values (one window or more)",
    )
    query = csub.add_parser("query", help="post a similarity query and wait")
    query.add_argument(
        "--pattern", required=True,
        help="comma-separated pattern (exactly one window long)",
    )
    query.add_argument("--radius", type=float, default=0.2)
    query.add_argument("--lifespan", type=float, default=60_000.0, help="ms")
    query.add_argument(
        "--wait", type=float, default=5.0,
        help="seconds to poll for results before printing them",
    )
    csub.add_parser("status", help="membership, held index entries, streams")

    return parser


def _sweep(args) -> SweepCache:
    config = MiddlewareConfig(batch_size=args.batch)
    return SweepCache(
        config=config,
        seed=args.seed,
        measure_ms=args.measure * 1000.0,
        warmup_extra_ms=3_000.0,
    )


def cmd_table1(_args, out) -> int:
    print(
        format_table(
            "Table I: parameters used in different experiments",
            ["parameter", "value"],
            [list(r) for r in TABLE_I.as_table()],
        ),
        file=out,
    )
    return 0


def cmd_demo(args, out) -> int:
    from .core.queries import SimilarityQuery
    from .core.system import StreamIndexSystem

    system = StreamIndexSystem(args.nodes, seed=args.seed)
    system.attach_random_walk_streams()
    system.warmup()
    donor_app = system.app(min(3, args.nodes - 1))
    donor = next(iter(donor_app.sources.values()))
    client = system.app(0)
    qid = client.post_similarity_query(
        SimilarityQuery(
            pattern=donor.extractor.window.values(),
            radius=args.radius,
            lifespan_ms=args.duration * 1000.0 + 5_000.0,
        )
    )
    system.run(args.duration * 1000.0)
    matches = client.similarity_results[qid]
    print(
        f"{args.nodes} nodes, radius {args.radius}: "
        f"{len(matches)} matching stream(s)",
        file=out,
    )
    for m in sorted(matches, key=lambda m: m.distance_bound):
        print(f"  {m.stream_id:<12} distance <= {m.distance_bound:.4f}", file=out)
    stats = system.network.stats
    print(
        f"messages: {sum(stats.sends_by_kind.values())}, "
        f"mean response latency {stats.mean_latency('response'):.0f} ms",
        file=out,
    )
    return 0


def cmd_load(args, out) -> int:
    sweep = _sweep(args)
    series = sweep.load_series(args.nodes, radius=args.radius)
    print(
        format_series(
            "Fig. 6(a): average load of messages on a node (per second)",
            "N",
            args.nodes,
            series,
        ),
        file=out,
    )
    return 0


def cmd_overhead(args, out) -> int:
    sweep = _sweep(args)
    series = sweep.overhead_series(args.nodes, radius=args.radius)
    print(
        format_series(
            f"Fig. 7: message overhead per input event (radius {args.radius})",
            "N",
            args.nodes,
            series,
        ),
        file=out,
    )
    return 0


def cmd_hops(args, out) -> int:
    sweep = _sweep(args)
    series = sweep.hop_series(args.nodes, radius=args.radius)
    print(
        format_series(
            "Fig. 8: average number of hops traversed by a request",
            "N",
            args.nodes,
            series,
        ),
        file=out,
    )
    return 0


def cmd_distribution(args, out) -> int:
    config = MiddlewareConfig(batch_size=args.batch)
    sweep = SweepCache(
        config=config,
        seed=args.seed,
        measure_ms=args.measure * 1000.0,
        warmup_extra_ms=3_000.0,
    )
    run = sweep.run(args.nodes)
    dist = run.metrics.load_distribution()
    counts, edges = np.histogram(dist, bins=8)
    print(
        format_histogram(
            f"Fig. 6(b): load across nodes (N={args.nodes}, msgs/s)", counts, edges
        ),
        file=out,
    )
    print(
        f"mean={dist.mean():.2f}  p95={np.percentile(dist, 95):.2f}  "
        f"max={dist.max():.2f}",
        file=out,
    )
    return 0


def cmd_baselines(args, out) -> int:
    from .baselines import CentralizedIndexSystem, FloodingIndexSystem
    from .core.queries import SimilarityQuery

    rows = []
    config = MiddlewareConfig(batch_size=1)
    sweep = SweepCache(
        config=config, seed=args.seed, measure_ms=args.measure * 1000.0,
        warmup_extra_ms=3_000.0,
    )
    dist_run = sweep.run(args.nodes)
    dist_loads = dist_run.metrics.load_distribution()
    rows.append(
        ["distributed", float(dist_loads.mean()), float(dist_loads.max())]
    )
    for label, cls in (
        ("centralized", CentralizedIndexSystem),
        ("flooding", FloodingIndexSystem),
    ):
        system = cls(args.nodes, config, seed=args.seed)
        system.attach_random_walk_streams()
        system.warmup()
        system.reset_stats()
        rng = system.rngs.get("cli-queries")
        for _ in range(5):
            donor = system.app(int(rng.integers(args.nodes)))
            src = next(iter(donor.sources.values()))
            if src.extractor.ready:
                system.post_similarity_query(
                    system.app(int(rng.integers(args.nodes))),
                    SimilarityQuery(
                        pattern=src.extractor.window.values(),
                        radius=0.1,
                        lifespan_ms=8_000.0,
                    ),
                )
        system.run(args.measure * 1000.0)
        loads = np.array(
            sorted(system.network.stats.load_by_node().values())
        ) / args.measure
        rows.append([label, float(loads.mean()), float(loads.max())])
    print(
        format_table(
            f"Sec. IV-A baselines (N={args.nodes}): per-node load (msgs/s)",
            ["architecture", "mean", "max (hottest node)"],
            rows,
        ),
        file=out,
    )
    return 0


def cmd_lossy(args, out) -> int:
    from .core.queries import SimilarityQuery
    from .core.system import StreamIndexSystem
    from .workload import ChurnWorkload

    config = MiddlewareConfig(
        window_size=64,
        batch_size=2,
        reliable_delivery=True,
        refresh_period_ms=args.refresh * 1000.0,
        loss_rate=args.loss,
        duplicate_rate=args.duplicate,
        replication_factor=args.replication,
        consistency=args.consistency,
        virtual_nodes=args.vnodes,
        admission_control=args.shed > 0,
        admission_rate_per_s=args.shed if args.shed > 0 else 20.0,
        workload=WorkloadConfig(qrate_per_s=0.0),
    )
    system = StreamIndexSystem(
        args.nodes, config, seed=args.seed, with_stabilizer=True
    )
    system.attach_random_walk_streams()
    system.warmup()

    client = system.app(0)
    donor_app = system.app(min(4, args.nodes - 1))
    donor = next(iter(donor_app.sources.values()))
    churn = None
    if args.churn > 0:
        churn = ChurnWorkload(
            system,
            fail_rate_per_s=args.churn,
            join_rate_per_s=args.churn,
            protect=[client.node_id, donor_app.node_id],
        ).start()

    system.reset_stats()
    qid = client.post_similarity_query(
        SimilarityQuery(
            pattern=donor.extractor.window.values(),
            radius=args.radius,
            lifespan_ms=args.duration * 1000.0 + 5_000.0,
        )
    )
    system.run(args.duration * 1000.0)
    if churn is not None:
        churn.stop()

    stats = system.network.stats
    matches = client.similarity_results[qid]
    rows = [
        ["availability (acked/attempted)", f"{stats.delivery_ratio():.4f}"],
        [
            "eventual delivery (settled sends)",
            f"{system.eventual_delivery_ratio():.4f}",
        ],
        ["reliable sends", sum(stats.reliable_sends.values())],
        ["retransmissions", sum(stats.retransmissions.values())],
        ["dead letters", sum(stats.dead_letters.values())],
        ["duplicates suppressed", sum(stats.duplicates_suppressed.values())],
        ["matching streams", len(matches)],
    ]
    for reason, count in sorted(stats.drops_by_reason().items()):
        rows.append([f"drops [{reason}]", count])
    if churn is not None:
        rows.append(["failures / joins", f"{churn.failures} / {churn.joins}"])
    if args.vnodes > 1:
        rows.extend(
            [
                ["tokens / physical nodes", (
                    f"{len(system.ring)} / {system.n_physical}"
                )],
                ["load skew (max/mean, physical)", (
                    f"{system.load_skew_ratio():.3f}"
                )],
            ]
        )
    if args.shed > 0:
        rows.extend(
            [
                ["publishes shed", sum(stats.publishes_shed.values())],
                ["backpressure advisories", sum(
                    stats.backpressure_signals.values()
                )],
                ["source throttles", sum(stats.source_throttles.values())],
            ]
        )
    if args.replication > 1:
        rows.extend(
            [
                ["replica pushes", sum(
                    v for (k, v) in stats.sends_by_kind.items() if k == "replica"
                )],
                ["replica copies held", system.replica_count()],
                ["replica divergence", f"{system.replica_divergence():.4f}"],
                ["handoffs enqueued / drained", (
                    f"{sum(stats.handoffs_enqueued.values())} / "
                    f"{sum(stats.handoffs_drained.values())}"
                )],
                ["handoff backlog", system.handoff_backlog()],
                ["read repairs", sum(stats.read_repairs.values())],
            ]
        )
    print(
        format_table(
            f"Lossy network (N={args.nodes}, loss={args.loss}, "
            f"dup={args.duplicate}, churn={args.churn}/s, "
            f"r={args.replication}/{args.consistency}, "
            f"v={args.vnodes}, "
            f"{args.duration:.0f}s)",
            ["metric", "value"],
            rows,
        ),
        file=out,
    )
    if getattr(args, "check_invariants", False):
        return _settle_and_check(system, out)
    return 0


def _settle_and_check(system, out) -> int:
    """Stabilize, let churn-era soft state expire, then sweep invariants.

    MBRs published while the ring was churning may sit on nodes that are
    no longer their owners; that is expected soft-state staleness, healed
    by BSPAN expiry plus refresh.  So: converge the ring first, then run
    one lifespan (plus slack) of simulated time so the stale entries
    expire while fresh publishes land on the exact ring — after which
    every invariant must hold.
    """
    from .analysis import check_invariants

    if system.stabilizer is not None:
        try:
            rounds = system.stabilizer.stabilize_until_converged()
            print(f"ring converged in {rounds} stabilization round(s)", file=out)
        except RuntimeError as exc:
            print(f"invariants FAILED: {exc}", file=out)
            return 1
    system.run(system.config.workload.bspan_ms + 1_000.0)
    report = check_invariants(system)
    print(report.summary(), file=out)
    return 0 if report.ok else 1


def cmd_lint(args, out) -> int:
    from .analysis import (
        format_finding,
        lint_paths,
        load_baseline,
        split_baselined,
        stale_entries,
        write_baseline,
    )

    findings = lint_paths(args.paths)
    if args.write_baseline:
        write_baseline(findings, args.baseline)
        print(
            f"wrote {len(findings)} finding(s) to {args.baseline}", file=out
        )
        return 0
    baseline = load_baseline(args.baseline)
    if args.prune_baseline:
        stale = stale_entries(findings, baseline)
        if not stale:
            print(
                f"simlint: baseline {args.baseline} is tight "
                f"({sum(baseline.values())} entr(ies), none stale)",
                file=out,
            )
            return 0
        if args.write:
            _, grandfathered = split_baselined(findings, baseline)
            write_baseline(grandfathered, args.baseline)
            print(
                f"simlint: pruned {len(stale)} stale entr(ies) from "
                f"{args.baseline} ({len(grandfathered)} kept)",
                file=out,
            )
            return 0
        for entry in stale:
            print(f"stale: {entry}", file=out)
        print(
            f"simlint: {len(stale)} baseline entr(ies) no longer "
            f"emitted — rerun with --prune-baseline --write",
            file=out,
        )
        return 1
    fresh, grandfathered = split_baselined(findings, baseline)
    for finding in fresh:
        print(format_finding(finding), file=out)
    suffix = f" ({len(grandfathered)} baselined)" if grandfathered else ""
    if fresh:
        print(f"simlint: {len(fresh)} finding(s){suffix}", file=out)
        return 1
    print(f"simlint: clean{suffix}", file=out)
    return 0


def protocol_registry_dump() -> list:
    """The payload registry as JSON-able rows (declaration order).

    The machine-readable twin of the ``repro protocol`` table: one row
    per payload with its class name, accounting kind, dataclass field
    names in wire order, each field's binary codec (``"i64"``,
    ``"mbr"``, ``"dict[i64,list[tuple[str,f64]]]"``, ...), and
    delivery/flow metadata.  ``net/wire.py`` derives its codec table
    from the same registry, so this dump doubles as the wire-schema pin.
    """
    import dataclasses as _dc

    from .core.protocol import registry_items
    from .core.runtime import DEFAULT_SERVICES
    from .net.wire import codec_table

    codecs = codec_table()

    handler_of = {}
    for service_cls in DEFAULT_SERVICES:
        for payload_type, method_name in service_cls.handlers():
            handler_of[payload_type] = (
                service_cls.role,
                f"{service_cls.__name__}.{method_name}",
            )
    rows = []
    for payload_type, spec in registry_items():
        role, handler = handler_of.get(
            payload_type, ("(runtime)", "NodeRuntime.deliver")
        )
        rows.append(
            {
                "payload": payload_type.__name__,
                "kind": spec.kind,
                "fields": [f.name for f in _dc.fields(payload_type)],
                "codecs": list(codecs[payload_type.__name__].codecs),
                "dedup": spec.dedup,
                "ack_on_delivery": spec.ack_on_delivery,
                "ack_kinds": sorted(spec.ack_kinds),
                "senders": sorted(spec.senders),
                "response": spec.response,
                "flow": spec.flow,
                "role": role,
                "handler": handler,
            }
        )
    return rows


def cmd_protocol(args, out) -> int:
    """Render the protocol registry and role dispatch as one table.

    Generated from the live registry, so it cannot drift from the code:
    the same metadata drives runtime dedup/ack policy, the delivery
    invariant checker, simlint D007 and the net/wire.py codec table.
    """
    from .core.protocol import registry_items
    from .core.runtime import DEFAULT_SERVICES

    if getattr(args, "json", False):
        import json as _json

        from .net.wire import WIRE_VERSION

        print(
            _json.dumps(
                {"wire_version": WIRE_VERSION, "payloads": protocol_registry_dump()},
                indent=2,
            ),
            file=out,
        )
        return 0

    handler_of = {}
    for service_cls in DEFAULT_SERVICES:
        for payload_type, method_name in service_cls.handlers():
            handler_of[payload_type] = (
                service_cls.role,
                f"{service_cls.__name__}.{method_name}",
            )
    rows = []
    for payload_type, spec in registry_items():
        role, handler = handler_of.get(payload_type, ("(runtime)", "NodeRuntime.deliver"))
        rows.append(
            [
                payload_type.__name__,
                spec.kind,
                "yes" if spec.dedup else "no",
                ",".join(sorted(spec.ack_kinds)) if spec.ack_kinds else "-",
                ",".join(sorted(spec.senders)) if spec.senders else "-",
                role,
                handler,
            ]
        )
    print(
        format_table(
            "Protocol registry: payload delivery policy and role dispatch",
            ["payload", "kind", "dedup", "ack on kinds", "senders", "role", "handler"],
            rows,
        ),
        file=out,
    )
    return 0


def cmd_flow(args, out) -> int:
    """simflow: static protocol-flow table, DOT export and F checks."""
    from pathlib import Path as _Path

    from .analysis import (
        analyze_flow,
        format_finding,
        load_baseline,
        render_flow_table,
        split_baselined,
        write_baseline,
    )

    graph, findings = analyze_flow(args.paths)
    print(render_flow_table(graph), file=out)
    print(
        f"\nflow graph: {len(graph.payloads)} payload type(s), "
        f"{len(graph.sends)} send site(s), "
        f"{len(graph.handlers)} handler(s)",
        file=out,
    )
    if args.dot:
        _Path(args.dot).write_text(graph.to_dot())
        print(f"wrote flow graph to {args.dot}", file=out)
    if args.write_baseline:
        write_baseline(findings, args.baseline)
        print(
            f"wrote {len(findings)} finding(s) to {args.baseline}", file=out
        )
        return 0
    fresh, grandfathered = split_baselined(
        findings, load_baseline(args.baseline)
    )
    for finding in fresh:
        print(format_finding(finding), file=out)
    suffix = f" ({len(grandfathered)} baselined)" if grandfathered else ""
    if fresh:
        print(f"simflow: {len(fresh)} finding(s){suffix}", file=out)
        return 1 if args.check else 0
    print(f"simflow: clean{suffix}", file=out)
    return 0


def cmd_ring_stats(args, out) -> int:
    from .chord import ChordRing, RingAnalyzer

    ring = ChordRing(m=args.m)
    for i in range(args.nodes):
        ring.create_node(f"dc-{i}")
    ring.build()
    analyzer = RingAnalyzer(ring)
    arcs = analyzer.arc_stats()
    fingers = analyzer.finger_health()
    paths = analyzer.path_profile(samples=args.samples)
    rows = [
        ["nodes", arcs.n_nodes],
        ["arc mean", arcs.mean],
        ["arc max/mean", arcs.max_over_mean],
        ["finger accuracy", fingers.accuracy],
        ["lookup hops mean", paths.mean],
        ["lookup hops p95", paths.p95],
        ["lookup hops max", paths.maximum],
        ["0.5*log2(N)", 0.5 * float(np.log2(max(2, args.nodes)))],
    ]
    print(
        format_table(f"Chord ring diagnostics (N={args.nodes}, m={args.m})",
                     ["metric", "value"], rows),
        file=out,
    )
    return 0


def cmd_node(args, out) -> int:
    """Boot one peer process (blocks until SIGINT/SIGTERM)."""
    del out  # the peer logs to stderr; stdout stays clean
    from .net.peer import parse_addr, run_node

    name = args.name
    if name is None:
        name = f"dc-{parse_addr(args.listen)[1]}"
    config = MiddlewareConfig(
        m=args.m,
        window_size=args.window,
        batch_size=args.batch,
        k=args.k,
        hop_delay_ms=0.0,
        workload=WorkloadConfig(qrate_per_s=0.0, nper_ms=args.nper),
    )
    return run_node(
        args.listen, join=args.join, name=name, config=config, seed=args.seed
    )


def cmd_client(args, out) -> int:
    """One-shot RPCs against a running peer; prints the reply as JSON."""
    import json as _json
    import time as _time

    from .net.peer import request

    def rpc(obj):
        return request(args.connect, obj, timeout=args.timeout)

    if args.action == "publish":
        values = [float(v) for v in args.values.split(",") if v.strip()]
        reply = rpc({"t": "publish", "stream_id": args.stream, "values": values})
    elif args.action == "query":
        pattern = [float(v) for v in args.pattern.split(",") if v.strip()]
        reply = rpc(
            {
                "t": "query",
                "pattern": pattern,
                "radius": args.radius,
                "lifespan_ms": args.lifespan,
            }
        )
        if reply.get("t") == "ok":
            qid = reply["query_id"]
            deadline = _time.monotonic() + args.wait
            reply = {"t": "results", "query_id": qid, "matches": []}
            while _time.monotonic() < deadline:
                reply = rpc({"t": "results", "query_id": qid})
                if reply.get("matches"):
                    break
                _time.sleep(0.25)
    else:  # status
        reply = rpc({"t": "status"})
    print(_json.dumps(reply, indent=2), file=out)
    return 0 if reply.get("t") != "error" else 1


_COMMANDS = {
    "table1": cmd_table1,
    "demo": cmd_demo,
    "load": cmd_load,
    "overhead": cmd_overhead,
    "hops": cmd_hops,
    "distribution": cmd_distribution,
    "baselines": cmd_baselines,
    "lossy": cmd_lossy,
    "lint": cmd_lint,
    "protocol": cmd_protocol,
    "flow": cmd_flow,
    "ring-stats": cmd_ring_stats,
    "node": cmd_node,
    "client": cmd_client,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed the pipe: not an error.
        try:
            sys.stderr.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
