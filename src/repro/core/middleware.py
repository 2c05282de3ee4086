"""The distributed stream-indexing middleware node (Sec. IV).

One :class:`StreamIndexNode` runs at every data center.  It plays four
roles simultaneously, mirroring Fig. 5:

* **stream source** — ingests local sensor values, maintains the
  incremental DFT summary, batches feature vectors into MBRs
  (Sec. IV-G) and routes each MBR by content to its key range;
* **index holder** — stores MBRs routed to it, matches them against the
  similarity subscriptions it holds, and periodically reports detected
  candidates to each query's aggregation (middle) node;
* **aggregator** — for queries whose middle key it owns, merges
  candidate reports and periodically pushes responses to the client
  (Sec. IV-F);
* **client** — posts similarity and inner-product queries on behalf of
  local users and collects the responses.

Each role is its own service in :mod:`repro.core.roles`, composed by a
:class:`~repro.core.runtime.NodeRuntime` that owns the cross-cutting
machinery (typed dispatch, dedup, acks, reliable delivery, tick
fan-out).  This class is the thin façade over that composition — the
stable construction point and public surface that systems, benchmarks
and tests program against.

Inner-product queries follow Sec. IV-D: the stream id is hashed with a
second function ``h2`` onto the ring as a location service; the query is
forwarded to the stream's source, which answers from the summary via
the Eq. 7 inverse transform.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..chord.node import ChordNode
from ..sim.network import Message
from .queries import InnerProductQuery, InnerProductResult, SimilarityMatch, SimilarityQuery
from .roles import AggregatorEntry, SourceState
from .runtime import NodeRuntime

__all__ = ["StreamIndexNode", "SourceState", "AggregatorEntry"]


class StreamIndexNode:
    """The middleware application running at one data center.

    Construction is done by :class:`repro.core.system.StreamIndexSystem`,
    which wires every node to the shared simulator, overlay, key mapper
    and multicast helper.  All state lives in the role services; the
    properties below expose each role's store under the historical
    names so existing callers keep working unchanged.
    """

    def __init__(self, node: ChordNode, system) -> None:
        self.node = node
        self.system = system
        self.cfg = system.config
        self.runtime = NodeRuntime(node, system)

    # ------------------------------------------------------------------
    # role state, under the historical names
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """This data center's Chord identifier."""
        return self.node.node_id

    @property
    def reliable(self):
        """The ack/retry state machine (no-op unless reliability is on)."""
        return self.runtime.reliable

    @property
    def index(self):
        """The index-holder role's local store."""
        return self.runtime.holder.index

    @property
    def sources(self) -> Dict[str, SourceState]:
        """The source role's per-stream state."""
        return self.runtime.source.sources

    @property
    def aggregators(self) -> Dict[int, AggregatorEntry]:
        """The aggregator role's per-query state."""
        return self.runtime.aggregator.aggregators

    @property
    def similarity_results(self) -> Dict[int, List[SimilarityMatch]]:
        """The client role's similarity-result buckets."""
        return self.runtime.client.similarity_results

    @property
    def inner_product_results(self) -> Dict[int, List[InnerProductResult]]:
        """The client role's inner-product-result buckets."""
        return self.runtime.client.inner_product_results

    @property
    def locate_cache(self) -> Dict[str, int]:
        """The client role's stream-id -> source-node cache (Sec. IV-D)."""
        return self.runtime.client.locate_cache

    # ------------------------------------------------------------------
    # stream source role
    # ------------------------------------------------------------------
    def attach_stream(self, stream_id: str, generator: Callable[[], float]) -> SourceState:
        """Make this data center the source of ``stream_id``."""
        return self.runtime.source.attach_stream(stream_id, generator)

    def on_stream_value(self, stream_id: str) -> None:
        """Ingest the next value of a locally attached stream."""
        self.runtime.source.on_stream_value(stream_id)

    # ------------------------------------------------------------------
    # client role
    # ------------------------------------------------------------------
    def post_similarity_query(self, query: SimilarityQuery) -> int:
        """Post a continuous similarity query (Sec. IV-E); returns its id."""
        return self.runtime.client.post_similarity_query(query)

    def post_inner_product_query(self, query: InnerProductQuery) -> int:
        """Post a continuous inner-product query (Sec. IV-D); returns its id."""
        return self.runtime.client.post_inner_product_query(query)

    def verify_similarity(
        self,
        query: SimilarityQuery,
        matches,
        on_verified: Callable[[List[Tuple[str, float]]], None],
    ) -> None:
        """Refine index candidates to exact matches over the network."""
        self.runtime.client.verify_similarity(query, matches, on_verified)

    # ------------------------------------------------------------------
    # DHT application upcall and periodic ticks
    # ------------------------------------------------------------------
    def deliver(self, node: ChordNode, message: Message) -> None:
        """Dispatch a delivered overlay message by payload type."""
        self.runtime.deliver(node, message)

    def on_notification_tick(self) -> None:
        """The NPER-periodic duties: purge, detect, report, respond, push."""
        self.runtime.on_notification_tick()

    def on_refresh_tick(self) -> None:
        """Soft-state healing: periodically re-assert what should exist."""
        self.runtime.on_refresh_tick()
