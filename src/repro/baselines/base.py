"""Shared scaffolding for the baseline (strawman) architectures.

Sec. IV-A motivates the content-based design by dismissing two obvious
alternatives:

* storing every stream's data at one **centralized** data center, which
  concentrates the entire system's message load (and is a single point
  of failure);
* storing each stream **locally** and **flooding** every similarity
  query to all data centers.

Both are implemented here on the same simulator, message network,
stream pipeline, and Table I workload as the real middleware, so their
figure metrics are directly comparable.  Baselines exchange messages
point-to-point (one hop — they do not need an overlay), which if
anything *flatters* them: the comparison is about load distribution and
message counts, not routing stretch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.config import MiddlewareConfig
from ..core.index import LocalIndex
from ..core.mbr import MBR, MBRBatcher
from ..core.metrics import FigureMetrics
from ..core.protocol import KIND, MbrPublish, ResponsePush, SimilaritySubscribe
from ..core.queries import SimilarityMatch, SimilarityQuery
from ..core.roles.base import DispatchTable, RoleService, handles
from ..sim.engine import Simulator
from ..sim.network import Message, MessageStats, Network
from ..sim.process import PeriodicProcess
from ..sim.rng import RngRegistry
from ..streams.features import IncrementalFeatureExtractor
from ..streams.generators import RandomWalkGenerator

__all__ = ["BaselineClientRole", "BaselineIndexRole", "BaselineNode", "BaselineSystem"]


@dataclass
class _Source:
    stream_id: str
    extractor: IncrementalFeatureExtractor
    batcher: MBRBatcher
    generator: Callable[[], float]
    mbrs_published: int = 0


class BaselineIndexRole(RoleService):
    """The reduced index-holder role of a baseline data center.

    Same declarative dispatch as the real middleware, but no range
    spans, no aggregation hand-off, no hierarchy feed: baselines store
    what they are sent and nothing more.
    """

    role = "index-holder"

    @handles(MbrPublish)
    def on_mbr(self, message: Message, payload: MbrPublish) -> None:
        node = self.runtime
        node.index.add_mbr(
            payload.mbr, expires=self.system.sim.now + payload.lifespan_ms
        )

    @handles(SimilaritySubscribe)
    def on_similarity_subscribe(
        self, message: Message, payload: SimilaritySubscribe
    ) -> None:
        node = self.runtime
        node.index.add_similarity_sub(
            payload, expires=self.system.sim.now + payload.lifespan_ms
        )


class BaselineClientRole(RoleService):
    """The reduced client role of a baseline data center."""

    role = "client"

    @handles(ResponsePush)
    def on_response(self, message: Message, payload: ResponsePush) -> None:
        node = self.runtime
        bucket = node.similarity_results.setdefault(payload.query_id, [])
        for stream_id, dist in payload.similarity:
            bucket.append(
                SimilarityMatch(
                    query_id=payload.query_id,
                    stream_id=stream_id,
                    distance_bound=dist,
                    reported_by=message.origin,
                    time=self.system.sim.now,
                )
            )


class BaselineNode:
    """A data center in a baseline architecture.

    Provides the same stream-source pipeline as the real middleware
    (incremental features, MBR batching) and a local index; what happens
    to a finished MBR or a posted query is decided by the owning
    :class:`BaselineSystem` subclass.  Delivery uses the same
    declarative ``@handles`` dispatch as the real middleware, with the
    reduced role set above (the node itself acts as the services'
    runtime — baselines have no overlay, dedup or reliability layer).
    """

    def __init__(self, node_id: int, system: "BaselineSystem") -> None:
        self.node_id = node_id
        self.system = system
        self.index = LocalIndex()
        self.sources: Dict[str, _Source] = {}
        self.similarity_results: Dict[int, List[SimilarityMatch]] = {}
        self.dispatch = DispatchTable()
        self.dispatch.add_service(BaselineIndexRole(self))
        self.dispatch.add_service(BaselineClientRole(self))

    def attach_stream(self, stream_id: str, generator: Callable[[], float]) -> None:
        """Attach a locally sourced stream."""
        cfg = self.system.config
        if stream_id in self.sources:
            raise ValueError(f"stream {stream_id!r} already attached")
        self.sources[stream_id] = _Source(
            stream_id=stream_id,
            extractor=IncrementalFeatureExtractor(
                cfg.window_size, cfg.k, mode=cfg.normalization
            ),
            batcher=MBRBatcher(stream_id, cfg.batch_size),
            generator=generator,
        )

    def on_stream_value(self, stream_id: str) -> None:
        """Ingest the next value; hand finished MBRs to the system policy."""
        src = self.sources[stream_id]
        feature = src.extractor.push(src.generator())
        if feature is None:
            return
        mbr = src.batcher.add(feature, now=self.system.sim.now)
        if mbr is not None:
            src.mbrs_published += 1
            self.system.network.stats.record_origination(KIND.MBR)
            self.system.handle_mbr(self, mbr)

    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        """Point-to-point delivery upcall: dispatch by payload type.

        Unhandled payloads are counted (and traced, when a tracer is
        attached) rather than silently dropped, mirroring the real
        runtime's unknown-payload fallback.
        """
        payload = message.payload
        handler = self.dispatch.lookup(type(payload))
        if handler is None:
            self.system.network.stats.record_unknown_payload(message.kind)
            tracer = self.system.network.tracer
            if tracer is not None:
                tracer.record_unknown(self.system.sim.now, self.node_id, message)
            return
        handler(message, payload)

    def on_notification_tick(self) -> None:
        """NPER duties: purge and report new candidates straight to clients."""
        now = self.system.sim.now
        self.index.purge(now)
        for stored, candidates in self.index.new_candidates(now):
            if not candidates:
                continue
            payload = ResponsePush(
                client_id=stored.sub.client_id,
                query_id=stored.sub.query_id,
                similarity=candidates,
            )
            self.system.network.stats.record_origination(KIND.RESPONSE)
            self.system.send(self, stored.sub.client_id, KIND.RESPONSE, payload)


class BaselineSystem:
    """Common orchestration for baseline deployments.

    Subclasses override :meth:`handle_mbr` and
    :meth:`post_similarity_query` to define the architecture.
    """

    def __init__(
        self,
        n_nodes: int,
        config: Optional[MiddlewareConfig] = None,
        *,
        seed: int = 0,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.config = config if config is not None else MiddlewareConfig()
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.network = Network(self.sim, hop_delay_ms=self.config.hop_delay_ms)
        self._apps = [BaselineNode(i, self) for i in range(n_nodes)]
        self._stream_procs: List[PeriodicProcess] = []
        rng = self.rngs.get("nper-phase")
        nper = self.config.workload.nper_ms
        for app in self._apps:
            PeriodicProcess(
                self.sim,
                nper,
                app.on_notification_tick,
                phase=float(rng.uniform(0.0, nper)),
            ).start()

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of data centers."""
        return len(self._apps)

    def app(self, index: int) -> BaselineNode:
        """The ``index``-th data center."""
        return self._apps[index]

    @property
    def all_apps(self) -> List[BaselineNode]:
        """All data centers."""
        return list(self._apps)

    # ------------------------------------------------------------------
    def attach_stream(
        self,
        app: BaselineNode,
        stream_id: str,
        generator: Callable[[], float],
        *,
        period_ms: Optional[float] = None,
    ) -> None:
        """Attach a stream with a Table I period, as in the real system."""
        wl = self.config.workload
        if period_ms is None:
            period_ms = float(
                self.rngs.get("stream-period").uniform(wl.pmin_ms, wl.pmax_ms)
            )
        app.attach_stream(stream_id, generator)
        proc = PeriodicProcess(
            self.sim,
            period_ms,
            lambda a=app, s=stream_id: a.on_stream_value(s),
            phase=float(self.rngs.get("stream-phase").uniform(0.0, period_ms)),
        )
        proc.start()
        self._stream_procs.append(proc)

    def attach_random_walk_streams(self, *, step: float = 1.0) -> None:
        """One random-walk stream per node, matching the paper's workload."""
        for i, app in enumerate(self._apps):
            gen = RandomWalkGenerator(self.rngs.fork("stream", i), step=step)
            self.attach_stream(app, f"stream-{i}", gen.next_value)

    # ------------------------------------------------------------------
    def send(self, src: BaselineNode, dst_id: int, kind: str, payload) -> None:
        """One-hop point-to-point message with standard accounting."""
        dst = self._apps[dst_id]
        msg = Message(
            kind=kind, payload=payload, origin=src.node_id, dest_key=dst_id
        )
        msg.born = self.sim.now
        if dst is src:
            self.network.record_delivery(dst_id, msg)
            dst.receive(msg)
            return
        self.network.hop(
            src.node_id,
            dst_id,
            msg,
            lambda m: (
                self.network.record_delivery(dst_id, m),
                dst.receive(m),
            ),
        )

    # ------------------------------------------------------------------
    def run(self, duration_ms: float) -> None:
        """Advance simulated time."""
        self.sim.run(until=self.sim.now + duration_ms)

    def warmup(self, extra_ms: float = 2_000.0) -> None:
        """Run until windows are full (same protocol as the real system)."""
        wl = self.config.workload
        fill = (self.config.window_size + self.config.batch_size) * wl.pmax_ms
        self.run(fill + extra_ms)

    def reset_stats(self) -> None:
        """Discard counters at the start of the measured interval."""
        self.network.stats = MessageStats()

    def figure_metrics(self, duration_ms: float) -> FigureMetrics:
        """Figure-ready metrics (same schema as the real middleware)."""
        return FigureMetrics(
            stats=self.network.stats, n_nodes=self.n_nodes, duration_ms=duration_ms
        )

    # ------------------------------------------------------------------
    # architecture-specific policy
    # ------------------------------------------------------------------
    def handle_mbr(self, source: BaselineNode, mbr: MBR) -> None:
        """What to do with a finished MBR (override)."""
        raise NotImplementedError

    def post_similarity_query(self, app: BaselineNode, query: SimilarityQuery) -> int:
        """Install a similarity query (override); returns the query id."""
        raise NotImplementedError
