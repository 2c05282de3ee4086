"""System assembly: simulator + Chord ring + middleware on every node.

:class:`StreamIndexSystem` is the entry point users of the library
interact with: it builds the simulated network, the Chord overlay, and
one :class:`~repro.core.runtime.NodeRuntime` per data center,
wires up the periodic NPER notification processes, and exposes stream
attachment, query posting and metric extraction.

Typical use::

    system = StreamIndexSystem(n_nodes=50, seed=7)
    system.attach_random_walk_streams()
    system.warmup()
    client = system.app(0)
    qid = client.post_similarity_query(query)
    system.run(30_000.0)
    matches = client.similarity_results[qid]
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..chord.dht import DhtOverlay
from ..chord.ring import ChordRing
from ..chord.stabilize import Stabilizer
from ..chord.vnodes import max_mean_ratio, vnode_names
from ..net.transport import SimTransport
from ..sim.engine import Simulator
from ..sim.faults import FaultInjector
from ..sim.network import MessageStats, Network
from ..sim.process import PeriodicProcess, StreamClock
from ..sim.rng import RngRegistry
from ..streams.generators import RandomWalkGenerator
from .config import MiddlewareConfig
from .mapping import LinearKeyMapper
from .metrics import FigureMetrics
from .multicast import RangeMulticast
from .placement import ContentPlacement
from .runtime import NodeRuntime

__all__ = ["StreamIndexSystem"]


class StreamIndexSystem:
    """A complete simulated deployment of the indexing middleware.

    Parameters
    ----------
    n_nodes:
        Number of data centers.
    config:
        Middleware + Table I workload configuration.
    seed:
        Root seed for all randomness (node placement is deterministic
        from node names; streams/queries use named substreams).
    mapper:
        Feature-to-key mapper; defaults to the paper's Eq. 6 linear map.
    with_stabilizer:
        Attach the churn/maintenance protocol (needed only for dynamic
        membership experiments; static experiments skip its event load).

    Subclasses change what the deployment is through two class
    attributes: :attr:`placement_class` decides which nodes hold an MBR
    and a subscription, :attr:`transport_class` how far a message
    travels.  The Sec. IV-A strawmen (:mod:`repro.baselines`) set both.
    """

    #: where MBRs and subscriptions are held (``system.placement``)
    placement_class = ContentPlacement
    #: the fabric the runtimes send through (``system.transport``)
    transport_class = SimTransport

    def __init__(
        self,
        n_nodes: int,
        config: Optional[MiddlewareConfig] = None,
        *,
        seed: int = 0,
        mapper=None,
        with_stabilizer: bool = False,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.config = config if config is not None else MiddlewareConfig()
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        cfg = self.config
        # both rates at zero keep the paper's perfect fabric
        self.fault_injector: Optional[FaultInjector] = None
        if cfg.loss_rate or cfg.duplicate_rate:
            self.fault_injector = FaultInjector(
                cfg.loss_rate, cfg.duplicate_rate, self.rngs.get("faults")
            )
        self.network = Network(
            self.sim,
            hop_delay_ms=self.config.hop_delay_ms,
            injector=self.fault_injector,
            liveness=self._node_alive,
        )
        self.ring = ChordRing(m=self.config.m)
        # DESIGN.md §13: at virtual_nodes = 1 every physical node has
        # exactly one token named after itself, so ids match a build
        # without vnodes.
        for i in range(n_nodes):
            self.ring.create_virtual_nodes(f"dc-{i}", self.config.virtual_nodes)
        self.ring.build()
        self.overlay = DhtOverlay(self.ring, self.network)
        self.mapper = mapper if mapper is not None else LinearKeyMapper(self.ring.space)
        self.placement = self.placement_class(self)
        self.multicast = RangeMulticast(self.overlay, self.config.multicast)
        #: the Transport seam: dispatch/reliability/roles send and read
        #: the clock through this, never through Network directly
        self.transport = self.transport_class(
            sim=self.sim,
            network=self.network,
            overlay=self.overlay,
            multicast=self.multicast,
        )
        self.stabilizer: Optional[Stabilizer] = None
        if with_stabilizer:
            self.stabilizer = Stabilizer(self.sim, self.ring)
            self.stabilizer.bootstrap_ring(list(self.ring))
            # anti-entropy / hinted-handoff (§10) piggybacks on the
            # per-node stabilization round; the hook stays None at r = 1
            # so default runs are byte-identical
            if self.config.replication_factor > 1:
                self.stabilizer.on_round = self._replication_round

        self.apps: Dict[int, NodeRuntime] = {}
        self._app_order: List[NodeRuntime] = []
        self._nper_procs: List[PeriodicProcess] = []
        self._refresh_procs: List[PeriodicProcess] = []
        self._stream_procs: List[StreamClock] = []
        for node in self.ring:
            app = NodeRuntime(node, self)
            self.apps[node.node_id] = app
            self._app_order.append(app)
            self.overlay.register_app(node, app)
            self._start_app_processes(app)

    # ------------------------------------------------------------------
    def _node_alive(self, node_id: int) -> bool:
        """Whether messages arriving at ``node_id`` find a live node."""
        app = self.apps.get(node_id)
        return app is not None and app.node.alive

    def _start_app_processes(self, app: NodeRuntime) -> None:
        """Attach the periodic NPER (and, if enabled, refresh) processes."""
        rng = self.rngs.get("nper-phase")
        nper = self.config.workload.nper_ms
        proc = PeriodicProcess(
            self.sim,
            nper,
            app.on_notification_tick,
            phase=float(rng.uniform(0.0, nper)),
        )
        proc.start()
        self._nper_procs.append(proc)
        period = self.config.refresh_period_ms
        if period > 0:
            rng_r = self.rngs.get("refresh-phase")
            rproc = PeriodicProcess(
                self.sim,
                period,
                app.on_refresh_tick,
                phase=float(rng_r.uniform(0.0, period)),
            )
            rproc.start()
            self._refresh_procs.append(rproc)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of live ring members (tokens; equals data centers at v=1)."""
        return len(self.ring)

    @property
    def n_physical(self) -> int:
        """Number of live physical data centers (DESIGN.md §13).

        Equals :attr:`n_nodes` without virtual nodes; under them, each
        physical node contributes ``virtual_nodes`` ring members.
        """
        return len({node.physical_name for node in self.ring})

    def physical_load(self) -> Dict[str, float]:
        """Messages received per *physical* node over the measured window.

        Aggregates :meth:`MessageStats.load_by_node` (a per-token count)
        by physical name — the load distribution the §13 max/mean skew
        metric and the Zipf-hotkey bench are computed over.  Crashed
        nodes stay in :attr:`apps`, so their load stays visible.
        """
        per_token = self.network.stats.load_by_node()
        load: Dict[str, float] = {}
        for node_id, app in self.apps.items():
            phys = app.node.physical_name
            load[phys] = load.get(phys, 0.0) + per_token.get(node_id, 0)
        return load

    def load_skew_ratio(self) -> float:
        """Max/mean per-physical load ratio (1.0 = perfectly even)."""
        return max_mean_ratio(self.physical_load())

    def app(self, index: int) -> NodeRuntime:
        """The middleware app of the ``index``-th data center (ring order).

        Nodes are indexed by their position on the identifier circle
        (ascending Chord id), which is how :meth:`all_apps` enumerates
        them too; nodes added later via :meth:`join_node` append at the
        end regardless of identifier.
        """
        return self._app_order[index]

    def app_by_id(self, node_id: int) -> NodeRuntime:
        """The middleware app at a given Chord identifier."""
        return self.apps[node_id]

    @property
    def all_apps(self) -> List[NodeRuntime]:
        """All middleware apps, in ring (ascending identifier) order."""
        return list(self._app_order)

    # ------------------------------------------------------------------
    # dynamic membership
    # ------------------------------------------------------------------
    def join_node(self, name: str) -> NodeRuntime:
        """Add a new data center at runtime (requires the stabilizer).

        The node joins through an arbitrary live bootstrap node, the
        stabilization protocol integrates it into the ring, and a fresh
        middleware app (with its NPER process) is attached.  Returns the
        new app, ready for :meth:`attach_stream`.
        """
        if self.stabilizer is None:
            raise RuntimeError("join_node requires with_stabilizer=True")
        from ..chord.hashing import node_identifier
        from ..chord.node import ChordNode

        # All v tokens of the physical node join as one unit (§13): ids
        # are derived before any join so sibling tokens salt against
        # each other, then the stabilizer integrates them sequentially.
        existing = set(self.ring.node_ids) | set(self.apps)
        nodes = []
        for token in vnode_names(name, self.config.virtual_nodes):
            node_id = node_identifier(token, self.ring.space)
            salt = 0
            while node_id in existing:
                salt += 1
                node_id = node_identifier(f"{token}#{salt}", self.ring.space)
            existing.add(node_id)
            nodes.append(
                ChordNode(token, node_id, self.ring.space, physical_name=name)
            )
        bootstrap = next(iter(self.ring))
        self.stabilizer.join_physical(nodes, bootstrap)
        first: Optional[NodeRuntime] = None
        for node in nodes:
            app = NodeRuntime(node, self)
            self.apps[node.node_id] = app
            self._app_order.append(app)
            self.overlay.register_app(node, app)
            self._start_app_processes(app)
            if first is None:
                first = app
        return first

    def fail_node(self, app: NodeRuntime) -> None:
        """Crash a data center: it vanishes without notice.

        Its stream processes stop, its app is detached, its pending
        retransmissions die with it, and the ring routes around it once
        stabilization notices.
        """
        if self.stabilizer is None:
            raise RuntimeError("fail_node requires with_stabilizer=True")
        # A physical crash takes all of the data center's tokens down in
        # the same instant (§13); at virtual_nodes = 1 the group is just
        # the one node and this is byte-identical to failing it alone.
        group = [
            a
            for a in self._app_order
            if a.node.physical_name == app.node.physical_name and a.node.alive
        ]
        if not group:
            group = [app]
        self.stabilizer.fail_physical([a.node for a in group])
        for a in group:
            self.overlay.unregister_app(a.node)
            a.reliable.cancel_all()
            for src in a.sources.values():
                if src.clock is not None:
                    src.clock.stop()

    # ------------------------------------------------------------------
    # stream attachment
    # ------------------------------------------------------------------
    def attach_stream(
        self,
        app: NodeRuntime,
        stream_id: str,
        generator: Callable[[], float],
        *,
        period_ms: Optional[float] = None,
        start_ms: Optional[float] = None,
    ) -> None:
        """Attach a stream to a data center and start its arrival process.

        The period defaults to a uniform draw from [PMIN, PMAX] as in
        Table I; it stays fixed for the stream's lifetime.  ``start_ms``
        pins the first arrival's offset instead of the default random
        phase — flash-crowd workloads use it to turn cohorts of streams
        on mid-run.
        """
        wl = self.config.workload
        if period_ms is None:
            rng = self.rngs.get("stream-period")
            period_ms = float(rng.uniform(wl.pmin_ms, wl.pmax_ms))
        src = app.attach_stream(stream_id, generator)
        rng_phase = self.rngs.get("stream-phase")
        phase = float(rng_phase.uniform(0.0, period_ms))
        if start_ms is not None:
            phase = float(start_ms)
        src.clock = StreamClock(
            self.sim,
            period_ms,
            partial(app.on_stream_value, stream_id),
            src.arrivals_to_close,
            phase=phase,
        ).start()
        self._stream_procs.append(src.clock)

    def attach_random_walk_streams(self, *, step: float = 1.0) -> None:
        """The paper's default workload: one random-walk stream per data center.

        Streams attach per *physical* node (to its first token, in ring
        order) — a data center sources one stream regardless of how many
        ring identifiers it owns, so the Table I workload intensity is
        independent of ``virtual_nodes``.
        """
        seen = set()
        idx = 0
        for app in self._app_order:
            phys = app.node.physical_name
            if phys in seen:
                continue
            seen.add(phys)
            gen = RandomWalkGenerator(self.rngs.fork("stream", idx), step=step)
            self.attach_stream(app, f"stream-{idx}", gen.next_value)
            idx += 1

    # ------------------------------------------------------------------
    # execution & measurement
    # ------------------------------------------------------------------
    def run(self, duration_ms: float) -> None:
        """Advance simulated time by ``duration_ms``."""
        self.sim.run(until=self.sim.now + duration_ms)

    def warmup(self, extra_ms: float = 2_000.0) -> None:
        """Run long enough for every window to fill and first MBRs to flow.

        Measurement runs should call :meth:`reset_stats` afterwards so
        the figures exclude the fill-up transient.
        """
        wl = self.config.workload
        fill = (self.config.window_size + self.config.batch_size) * wl.pmax_ms
        self.run(fill + extra_ms)

    def reset_stats(self) -> None:
        """Discard all message counters (start of the measured interval).

        Messages still travelling keep flying and will be received into
        the fresh ledger; recording their count lets the message
        conservation invariant balance across the reset.
        """
        self.network.stats = MessageStats()
        self.network.stats.in_flight_at_reset = self.network.in_flight

    def pending_reliable(self) -> int:
        """Reliable sends of the current stats epoch still awaiting an ack.

        Sends recorded before the last :meth:`reset_stats` are charged to
        the old ledger, so they are not subtracted from this one's
        attempts.
        """
        stats = self.network.stats
        return sum(app.reliable.pending_in(stats) for app in self.apps.values())

    # ------------------------------------------------------------------
    # replication (DESIGN.md §10)
    # ------------------------------------------------------------------
    def _replication_round(self, node) -> None:
        """Stabilizer hook: run one anti-entropy round on one node."""
        app = self.apps.get(node.node_id)
        if app is not None and app.node.alive:
            app.holder.replication.on_round(self.sim.now)

    def handoff_backlog(self) -> int:
        """Hinted handoffs queued but not yet delivered, system-wide."""
        return sum(
            app.holder.replication.handoff_backlog()
            for app in self.apps.values()
            if app.node.alive
        )

    def replica_divergence(self) -> float:
        """Fraction of live replica placements short of ``r - 1`` acks.

        0.0 means every live MBR whose span was replicated has all its
        replicas confirmed (anti-entropy has converged); 1.0 means no
        placement is fully confirmed.  Always 0.0 at r = 1.
        """
        now = self.sim.now
        live = 0
        unconfirmed = 0
        for app in self.apps.values():
            if not app.node.alive:
                continue
            mgr = app.holder.replication
            live += mgr.live_placements(now)
            unconfirmed += mgr.unconfirmed_placements(now)
        return unconfirmed / live if live else 0.0

    def replica_count(self) -> int:
        """Unexpired replica copies held across all live nodes."""
        now = self.sim.now
        return sum(
            app.holder.replication.live_replica_count(now)
            for app in self.apps.values()
            if app.node.alive
        )

    def eventual_delivery_ratio(self) -> float:
        """Acked fraction of settled reliable sends (see ``MessageStats``).

        Excludes sends still awaiting an ack at call time and sends whose
        originator crashed, so the complement is the dead-letter rate.
        """
        return self.network.stats.eventual_delivery_ratio(self.pending_reliable())

    def figure_metrics(self, duration_ms: float) -> FigureMetrics:
        """Figure-ready metrics over the last ``duration_ms`` of activity.

        Normalised per *physical* data center (the paper's per-node
        figures); identical to per-token normalisation at v = 1.
        """
        return FigureMetrics(
            stats=self.network.stats,
            n_nodes=self.n_physical,
            duration_ms=duration_ms,
        )
