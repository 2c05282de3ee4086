"""Sharded ring simulation: one scenario, many worker processes.

This module parallelises *within* one scenario by partitioning the
Chord ring across ``K`` forked workers.  The design is
conservative parallel discrete-event simulation with a fixed lookahead:

* Every worker builds the **full deterministic replica** of the system
  (same seed, same RNG draw order) but *executes* only the nodes whose
  ring-order index hashes to its shard (``index % K``).  Periodic duties
  of non-owned nodes are cancelled via
  :meth:`repro.core.system.StreamIndexSystem.restrict_to`; originations
  (stream registration, MBR publishes, query posts) are gated at the
  service layer by ``system.executes(node_id)``.  RNG substreams still
  advance in lockstep on every replica, so all shards agree bit-for-bit
  on what every node *would* do.

* Cross-shard sends are not scheduled locally: the network's
  :class:`~repro.sim.network.ShardPartition` seam exports them (already
  stamped with their delivery time).  Because every physical hop costs
  at least ``hop_delay_ms``, the coordinator can run all workers to a
  time barrier every ``hop_delay_ms`` of simulated time, then merge the
  exported messages in exact ``(deliver_time, shard, seq)`` total order
  and hand each to its owner for the next window — no export can ever
  arrive inside the window that produced it (the lookahead guarantee).

* Message accounting merges exactly: integer counters are
  order-independent sums; the float hop/latency accumulator tables are
  **replayed** from per-shard delivery logs in merged time order, so
  the sharded run reproduces the single-process stats CSV byte for
  byte.  ``--check`` re-runs the scenario serially in-process and
  compares the two CSVs.

Envelope: sharding (K > 1) requires a loss/duplication/jitter-free
network (the fault injector rewrites delays, breaking the lookahead
bound) and no cluster hierarchy (its send continuations are not
exportable).  The ``lossy_seed11`` scenario therefore always runs at
K = 1, where the windowed run is trivially identical to the serial one;
it is kept in the suite as the regression witness that the barrier
protocol itself does not disturb the event ledger.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from heapq import merge as _heap_merge
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.export import stats_to_csv_string
from ..sim.network import Message, MessageStats

__all__ = [
    "ShardEnvelopeError",
    "ShardRunResult",
    "SCENARIOS",
    "run_scenario_sharded",
    "run_scenario_serial",
    "run_shard_suite",
]


class ShardEnvelopeError(RuntimeError):
    """A system configuration or message violates the sharding envelope."""


# ----------------------------------------------------------------------
# scenario definitions
# ----------------------------------------------------------------------
class _Fig6aScenario:
    """The Fig. 6(a) load point: N=50, Table I workload, ``batch_size=1``."""

    name = "fig6a"
    shardable = True
    barrier_ms = 50.0  # == MiddlewareConfig.hop_delay_ms default

    def build(self, quick: bool):
        from ..core.config import MiddlewareConfig
        from ..core.system import StreamIndexSystem

        return StreamIndexSystem(50, MiddlewareConfig(batch_size=1), seed=0)

    def attach(self, system) -> Any:
        from ..workload.generator import QueryWorkload

        system.attach_random_walk_streams()
        workload = QueryWorkload(system)
        workload.start()
        return workload

    def warmup_until(self, system, quick: bool) -> float:
        wl = system.config.workload
        fill = (system.config.window_size + system.config.batch_size) * wl.pmax_ms
        return fill + (2_000.0 if quick else 5_000.0)

    def measure_ms(self, quick: bool) -> float:
        return 4_000.0 if quick else 15_000.0

    def pre_reset(self, system, quick: bool) -> None:
        pass

    def post_reset(self, system, quick: bool) -> None:
        pass


class _LossySeed11Scenario:
    """The lossy churn pin (the scenario of ``tests/integration/test_determinism.py``).

    Not shardable: the fault injector's loss/duplication decisions apply
    at ``hop`` time on the sending shard, but its jittered duplicate
    delays and the churn workload's node failures would break the
    fixed-lookahead barrier contract.  Runs at K = 1 as the witness that
    windowed execution is byte-identical to serial execution.
    """

    name = "lossy_seed11"
    shardable = False
    barrier_ms = 50.0

    def build(self, quick: bool):
        from ..core.config import MiddlewareConfig, WorkloadConfig
        from ..core.system import StreamIndexSystem

        config = MiddlewareConfig(
            m=16,
            window_size=16,
            k=2,
            batch_size=2,
            reliable_delivery=True,
            refresh_period_ms=2_000.0,
            loss_rate=0.05,
            duplicate_rate=0.01,
            workload=WorkloadConfig(
                pmin_ms=100.0,
                pmax_ms=150.0,
                bspan_ms=5_000.0,
                qrate_per_s=0.0,
                nper_ms=500.0,
            ),
        )
        return StreamIndexSystem(16, config, seed=11, with_stabilizer=True)

    def attach(self, system) -> Any:
        system.attach_random_walk_streams()
        return None

    def warmup_until(self, system, quick: bool) -> float:
        wl = system.config.workload
        fill = (system.config.window_size + system.config.batch_size) * wl.pmax_ms
        return fill + 2_000.0  # system.warmup() default extra

    def measure_ms(self, quick: bool) -> float:
        return 4_000.0 if quick else 8_000.0

    def pre_reset(self, system, quick: bool) -> None:
        from ..workload import ChurnWorkload

        client = system.app(0)
        donor_app = system.app(4)
        self._churn = ChurnWorkload(
            system,
            fail_rate_per_s=0.2,
            join_rate_per_s=0.2,
            protect=[client.node_id, donor_app.node_id],
        ).start()

    def post_reset(self, system, quick: bool) -> None:
        from ..core.queries import SimilarityQuery

        client = system.app(0)
        donor = next(iter(system.app(4).sources.values()))
        if not system.executes(client.node_id):
            return
        client.post_similarity_query(
            SimilarityQuery(
                pattern=donor.extractor.window.values(),
                radius=0.4,
                lifespan_ms=self.measure_ms(quick) + 5_000.0,
            )
        )


SCENARIOS: Dict[str, type] = {
    _Fig6aScenario.name: _Fig6aScenario,
    _LossySeed11Scenario.name: _LossySeed11Scenario,
}


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: continuation tags for the two exportable hop callbacks
_CONT_ROUTE = "route"
_CONT_DIRECT = "direct"

#: export entry: (deliver_time, seq, dst_node_id, continuation, msg_fields)
_Export = Tuple[float, int, int, Tuple[Any, ...], Tuple[Any, ...]]
#: injection entry (coordinator-side export, shard column added/removed)
_Injection = Tuple[float, int, Tuple[Any, ...], Tuple[Any, ...]]


class _WorkerPartition:
    """The :class:`~repro.sim.network.ShardPartition` of one worker.

    Collects exported hops in an outbox the worker drains at every
    barrier; assigns a per-worker monotonic sequence number so the
    coordinator can impose the ``(deliver_time, shard, seq)`` total
    order on simultaneous cross-shard messages.
    """

    def __init__(self, owned: frozenset, overlay) -> None:
        self.owned = owned
        self._route_step = overlay._route_step.__func__
        self._direct_arrive = overlay._direct_arrive.__func__
        self.outbox: List[_Export] = []
        self._seq = 0

    def is_local(self, node_id: int) -> bool:
        return node_id in self.owned

    def export(self, deliver_time, dst, on_arrival, cb_args, msg) -> None:
        func = getattr(on_arrival, "__func__", None)
        if func is self._route_step:
            _nxt, base_kind, transit_kind, on_delivered, first = cb_args
            if on_delivered is not None:
                raise ShardEnvelopeError(
                    "cannot export a routed hop with an on_delivered callback"
                )
            cont = (_CONT_ROUTE, base_kind, transit_kind, bool(first))
        elif func is self._direct_arrive:
            _dst, base_kind, on_delivered = cb_args
            if on_delivered is not None:
                raise ShardEnvelopeError(
                    "cannot export a direct hop with an on_delivered callback"
                )
            cont = (_CONT_DIRECT, base_kind)
        else:
            raise ShardEnvelopeError(
                f"unexportable hop continuation {on_arrival!r}"
            )
        fields = (
            msg.kind,
            msg.payload,
            msg.origin,
            msg.dest_key,
            msg.hops,
            msg.born,
            msg.root_id,
            msg.tag,
        )
        self.outbox.append((deliver_time, self._seq, dst, cont, fields))
        self._seq += 1


class _DeliveryLogStats(MessageStats):
    """A ledger that also logs every delivery for ordered replay.

    The float accumulator tables are order-sensitive; the coordinator
    discards each worker's own tables and rebuilds them by replaying
    the merged logs, so the worker only has to remember the facts.
    """

    def __init__(self) -> None:
        super().__init__()
        #: (time, kind, hops, latency) per delivered logical message,
        #: in execution order (nondecreasing time)
        self.delivery_log: List[Tuple[float, str, int, float]] = []

    def record_delivery(self, msg: Message, now: float) -> None:
        self.delivery_log.append((now, msg.kind, msg.hops, now - msg.born))
        super().record_delivery(msg, now)


def _require_shardable(system) -> None:
    """Reject configurations whose semantics escape the barrier model."""
    reasons = []
    if system.fault_injector is not None:
        reasons.append("fault injector active (jittered delays break lookahead)")
    if system.hierarchy_index is not None:
        reasons.append("cluster hierarchy active (unexportable continuations)")
    if system.stabilizer is not None:
        reasons.append("stabilizer active (membership changes are not replicated)")
    if reasons:
        raise ShardEnvelopeError(
            "scenario cannot run with more than one shard: " + "; ".join(reasons)
        )


def _inject(system, entries: Sequence[_Injection]) -> None:
    """Schedule imported cross-shard arrivals, in the coordinator's order."""
    network = system.network
    overlay = system.overlay
    ring = system.ring
    sim = system.sim
    for deliver_time, dst, cont, fields in entries:
        kind, payload, origin, dest_key, hops, born, root_id, tag = fields
        msg = Message(
            kind=kind,
            payload=payload,
            origin=origin,
            dest_key=dest_key,
            hops=hops,
            born=born,
            root_id=root_id,
            tag=tag,
        )
        node = ring.node(dst)
        if cont[0] == _CONT_ROUTE:
            _, base_kind, transit_kind, first = cont
            fn = overlay._route_step
            cb_args: Tuple[Any, ...] = (node, base_kind, transit_kind, None, first)
        else:
            _, base_kind = cont
            fn = overlay._direct_arrive
            cb_args = (node, base_kind, None)
        sim.schedule_at(deliver_time, network._arrive, dst, fn, cb_args, msg)


def _shard_worker(conn, scenario_name: str, quick: bool, shard: int, nshards: int) -> None:
    """One shard's process: build the replica, then serve barrier commands."""
    try:
        scenario = SCENARIOS[scenario_name]()
        system = scenario.build(quick)
        if nshards > 1:
            _require_shardable(system)
        ids = list(system.ring.node_ids)
        owned = frozenset(ids[i] for i in range(len(ids)) if i % nshards == shard)
        system.restrict_to(owned)
        partition = _WorkerPartition(owned, system.overlay)
        system.network.partition = partition
        _workload = scenario.attach(system)  # keep workload alive for the run
        conn.send(("ready", ids))
    except Exception:  # pragma: no cover - startup failure path
        conn.send(("err", traceback.format_exc()))
        return
    try:
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "run":
                _, until, injections = cmd
                _inject(system, injections)
                system.sim.run(until=until)
                exports, partition.outbox = partition.outbox, []
                conn.send(("ok", exports))
            elif op == "pre_reset":
                scenario.pre_reset(system, quick)
                conn.send(("ok", None))
            elif op == "reset":
                stats = _DeliveryLogStats()
                stats.in_flight_at_reset = system.network.in_flight
                system.network.stats = stats
                conn.send(("ok", None))
            elif op == "post_reset":
                scenario.post_reset(system, quick)
                conn.send(("ok", None))
            elif op == "stats":
                st = system.network.stats
                log = getattr(st, "delivery_log", [])
                conn.send(("ok", (st.to_snapshot(), log, system.sim.events_processed)))
            elif op == "quit":
                conn.send(("ok", None))
                return
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown shard command {op!r}")
    except Exception:
        conn.send(("err", traceback.format_exc()))


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
class ShardRunResult:
    """Outcome of one sharded (or serial reference) scenario run."""

    def __init__(
        self,
        name: str,
        jobs: int,
        csv: str,
        events: List[int],
        wall_s: float,
    ) -> None:
        self.name = name
        self.jobs = jobs
        self.csv = csv
        self.events = events
        self.wall_s = wall_s

    @property
    def digest(self) -> str:
        """sha256 of the merged stats CSV (the determinism witness)."""
        return hashlib.sha256(self.csv.encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "stats_sha256": self.digest,
            "events_per_shard": self.events,
            "wall_s": round(self.wall_s, 3),
        }


def _merge_stats(
    snapshots: Sequence[Dict[str, Any]],
    logs: Sequence[Sequence[Tuple[float, str, int, float]]],
) -> MessageStats:
    """Combine per-shard ledgers into the serial-equivalent ledger.

    Integer counters (and the in-flight scalar) are plain sums; the
    order-sensitive float accumulator tables are rebuilt by replaying
    every shard's delivery log in merged ``(time, shard, log-index)``
    order, which matches the serial accumulation order up to
    simultaneous deliveries of the same kind (whose contributions are
    equal-valued and therefore order-independent).
    """
    merged = MessageStats.from_snapshot(snapshots[0])
    for snap in snapshots[1:]:
        merged.merge(MessageStats.from_snapshot(snap))
    merged.hops_by_kind = {}
    merged.latency_by_kind = {}
    streams = (
        ((now, s, i, kind, hops, latency) for i, (now, kind, hops, latency) in enumerate(log))
        for s, log in enumerate(logs)
    )
    for now, _s, _i, kind, hops, latency in _heap_merge(*streams):
        acc = merged.hops_by_kind.get(kind)
        if acc is None:
            acc = merged.hops_by_kind[kind] = [0, 0]
        acc[0] += hops
        acc[1] += 1
        lat = merged.latency_by_kind.get(kind)
        if lat is None:
            lat = merged.latency_by_kind[kind] = [0.0, 0]
        lat[0] += latency
        lat[1] += 1
    return merged


class _WorkerPool:
    """The coordinator's handle on the forked shard processes."""

    def __init__(self, scenario_name: str, quick: bool, jobs: int) -> None:
        ctx = get_context("fork")
        self.conns = []
        self.procs = []
        for shard in range(jobs):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(child, scenario_name, quick, shard, jobs),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)
        self.node_ids: List[int] = self._recv(0)
        for shard in range(1, jobs):
            self._recv(shard)

    def _recv(self, shard: int):
        status, value = self.conns[shard].recv()
        if status not in ("ok", "ready"):
            raise RuntimeError(f"shard {shard} failed:\n{value}")
        return value

    def broadcast(self, *cmd) -> List[Any]:
        for conn in self.conns:
            conn.send(cmd)
        return [self._recv(s) for s in range(len(self.conns))]

    def step(self, until: float, pending: List[List[_Injection]]) -> List[List[_Export]]:
        for shard, conn in enumerate(self.conns):
            conn.send(("run", until, pending[shard]))
        return [self._recv(s) for s in range(len(self.conns))]

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("quit",))
            except (BrokenPipeError, OSError):
                pass
        for shard, conn in enumerate(self.conns):
            try:
                self._recv(shard)
            except (EOFError, OSError, RuntimeError):
                pass
            conn.close()
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()


def run_scenario_sharded(
    name: str, *, quick: bool = False, jobs: int = 2
) -> ShardRunResult:
    """Run one scenario across ``jobs`` shard processes; merge the ledger."""
    import time as _time

    scenario_cls = SCENARIOS.get(name)
    if scenario_cls is None:
        raise ValueError(f"unknown shard scenario {name!r} (have {sorted(SCENARIOS)})")
    scenario = scenario_cls()
    effective_jobs = jobs if scenario.shardable else 1
    t0 = _time.perf_counter()
    pool = _WorkerPool(name, quick, effective_jobs)
    try:
        owner = {
            node_id: i % effective_jobs for i, node_id in enumerate(pool.node_ids)
        }
        # warmup_until only reads `.config`; building a whole system in
        # the coordinator just for the time bound would be wasteful
        warmup_end = scenario.warmup_until(
            _ConfigOnly(_scenario_config(scenario)), quick
        )
        measure_end = warmup_end + scenario.measure_ms(quick)
        barrier = scenario.barrier_ms

        pending: List[List[_Injection]] = [[] for _ in range(effective_jobs)]

        def advance(start: float, end: float) -> None:
            nonlocal pending
            t = start
            while t < end:
                t = min(t + barrier, end)
                replies = pool.step(t, pending)
                merged: List[Tuple[float, int, int, int, Tuple, Tuple]] = []
                for shard, exports in enumerate(replies):
                    for deliver_time, seq, dst, cont, fields in exports:
                        merged.append((deliver_time, shard, seq, dst, cont, fields))
                merged.sort(key=lambda e: (e[0], e[1], e[2]))
                pending = [[] for _ in range(effective_jobs)]
                for deliver_time, _shard, _seq, dst, cont, fields in merged:
                    pending[owner[dst]].append((deliver_time, dst, cont, fields))

        advance(0.0, warmup_end)
        pool.broadcast("pre_reset")
        pool.broadcast("reset")
        pool.broadcast("post_reset")
        advance(warmup_end, measure_end)
        replies = pool.broadcast("stats")
    finally:
        pool.close()
    snapshots = [r[0] for r in replies]
    logs = [r[1] for r in replies]
    events = [r[2] for r in replies]
    merged_stats = _merge_stats(snapshots, logs)
    csv = stats_to_csv_string(merged_stats)
    return ShardRunResult(name, effective_jobs, csv, events, _time.perf_counter() - t0)


class _ConfigOnly:
    """Just enough of a system for ``warmup_until``: the config."""

    def __init__(self, config) -> None:
        self.config = config


def _scenario_config(scenario):
    """The MiddlewareConfig a scenario's ``build`` would use."""
    from ..core.config import MiddlewareConfig, WorkloadConfig

    if scenario.name == "fig6a":
        return MiddlewareConfig(batch_size=1)
    if scenario.name == "lossy_seed11":
        return MiddlewareConfig(
            m=16,
            window_size=16,
            k=2,
            batch_size=2,
            reliable_delivery=True,
            refresh_period_ms=2_000.0,
            loss_rate=0.05,
            duplicate_rate=0.01,
            workload=WorkloadConfig(
                pmin_ms=100.0,
                pmax_ms=150.0,
                bspan_ms=5_000.0,
                qrate_per_s=0.0,
                nper_ms=500.0,
            ),
        )
    raise ValueError(f"no config probe for scenario {scenario.name!r}")


def run_scenario_serial(name: str, *, quick: bool = False) -> ShardRunResult:
    """The single-process reference run ``--check`` compares against."""
    import time as _time

    scenario_cls = SCENARIOS.get(name)
    if scenario_cls is None:
        raise ValueError(f"unknown shard scenario {name!r} (have {sorted(SCENARIOS)})")
    scenario = scenario_cls()
    t0 = _time.perf_counter()
    system = scenario.build(quick)
    _workload = scenario.attach(system)  # noqa: F841 - keep alive
    system.sim.run(until=scenario.warmup_until(system, quick))
    scenario.pre_reset(system, quick)
    system.reset_stats()
    scenario.post_reset(system, quick)
    system.run(scenario.measure_ms(quick))
    csv = stats_to_csv_string(system.network.stats)
    return ShardRunResult(
        name, 1, csv, [system.sim.events_processed], _time.perf_counter() - t0
    )


# ----------------------------------------------------------------------
# suite driver (the `repro shard` command)
# ----------------------------------------------------------------------
def run_shard_suite(
    *,
    scenarios: Optional[Sequence[str]] = None,
    jobs: int = 2,
    quick: bool = False,
    check: bool = False,
    output: Optional[str] = None,
    echo=print,
) -> int:
    """Run the sharded scenarios; optionally verify against serial runs.

    Returns a process exit code: 0 on success, 1 on a determinism
    mismatch (`--check`).
    """
    names = list(scenarios) if scenarios else list(SCENARIOS)
    report: Dict[str, Any] = {
        "profile": "quick" if quick else "full",
        "jobs_requested": jobs,
        "scenarios": {},
    }
    failed = False
    for name in names:
        result = run_scenario_sharded(name, quick=quick, jobs=jobs)
        entry = result.to_dict()
        note = "" if result.jobs == jobs else f" (forced jobs={result.jobs}: not shardable)"
        echo(
            f"shard: {name} jobs={result.jobs} sha256={result.digest[:16]}… "
            f"in {result.wall_s:.1f}s{note}"
        )
        if check:
            serial = run_scenario_serial(name, quick=quick)
            entry["serial_sha256"] = serial.digest
            entry["match"] = serial.csv == result.csv
            if entry["match"]:
                echo(f"shard: {name} matches the serial run byte-for-byte")
            else:
                failed = True
                echo(
                    f"shard: MISMATCH for {name}: sharded {result.digest} "
                    f"!= serial {serial.digest}"
                )
        report["scenarios"][name] = entry
    if output:
        Path(output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        echo(f"shard: wrote {output}")
    return 1 if failed else 0
