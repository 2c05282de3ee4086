"""Translation of raw message counters into the paper's figures.

The network layer counts sends/receives/hops per message kind
(:class:`repro.sim.network.MessageStats`); this module groups those
counters into exactly the series the paper plots:

* **Fig. 6(a)** — average per-node message load per second, split into
  seven components (a-g);
* **Fig. 6(b)** — the distribution of total load across nodes;
* **Fig. 7**   — message overhead: additional messages per input event
  (new MBR / new query / new response);
* **Fig. 8**   — average hops traversed per message type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..sim.network import MessageStats
from .protocol import KIND

__all__ = ["FigureMetrics", "LOAD_COMPONENTS", "OVERHEAD_COMPONENTS", "HOP_COMPONENTS"]


#: Fig. 6(a) legend → the message kinds counted under it.
LOAD_COMPONENTS: Dict[str, List[str]] = {
    "MBRs": [KIND.MBR],
    "MBRs internal": [KIND.MBR_SPAN],
    "MBRs in transit": [KIND.MBR_TRANSIT],
    "Queries": [KIND.QUERY, KIND.QUERY_SPAN, KIND.QUERY_TRANSIT],
    "Responses": [KIND.RESPONSE],
    "Responses internal": [KIND.NEIGHBOR_INFO, KIND.NEIGHBOR_TRANSIT],
    "Responses in transit": [KIND.RESPONSE_TRANSIT],
}

#: Fig. 7 legend → (overhead kinds, the origination kind they amortise over).
OVERHEAD_COMPONENTS: Dict[str, tuple] = {
    "MBR messages": ([KIND.MBR_SPAN], KIND.MBR),
    "MBR messages in transit": ([KIND.MBR_TRANSIT], KIND.MBR),
    "Query messages": ([KIND.QUERY_SPAN], KIND.QUERY),
    "Query messages in transit": ([KIND.QUERY_TRANSIT], KIND.QUERY),
    "Response messages": ([KIND.NEIGHBOR_INFO, KIND.NEIGHBOR_TRANSIT], KIND.RESPONSE),
    "Response messages in transit": ([KIND.RESPONSE_TRANSIT], KIND.RESPONSE),
}

#: Fig. 8 legend → the kind whose delivered-hop average is reported.
HOP_COMPONENTS: Dict[str, str] = {
    "MBR messages": KIND.MBR,
    "Internal MBR messages": KIND.MBR_SPAN,
    "Query messages": KIND.QUERY,
    "Internal query messages": KIND.QUERY_SPAN,
    "Response messages": KIND.RESPONSE,
}


@dataclass
class FigureMetrics:
    """Figure-ready views over one experiment's :class:`MessageStats`.

    Parameters
    ----------
    stats:
        The raw counters collected during the run.
    n_nodes:
        Number of data centers in the system.
    duration_ms:
        Measured simulated time span.
    """

    stats: MessageStats
    n_nodes: int
    duration_ms: float

    # ------------------------------------------------------------------
    def load_components(self) -> Dict[str, float]:
        """Fig. 6(a): messages per node per second, by component."""
        seconds = self.duration_ms / 1000.0
        if seconds <= 0 or self.n_nodes <= 0:
            raise ValueError("need positive duration and node count")
        out: Dict[str, float] = {}
        for label, kinds in LOAD_COMPONENTS.items():
            total = sum(self.stats.sends_by_kind.get(k, 0) for k in kinds)
            out[label] = total / self.n_nodes / seconds
        return out

    def total_load(self) -> float:
        """Total (all components) messages per node per second."""
        return float(sum(self.load_components().values()))

    # ------------------------------------------------------------------
    def load_distribution(self) -> np.ndarray:
        """Fig. 6(b): per-node message load (sends+receives per second).

        Nodes that saw no traffic still appear with load 0, which only
        happens in degenerate workloads.
        """
        seconds = self.duration_ms / 1000.0
        per_node = self.stats.load_by_node()
        return np.array(
            sorted(per_node.get(n, 0) / seconds for n in self._all_nodes(per_node))
        )

    def _all_nodes(self, per_node: Dict[int, int]) -> List[int]:
        return list(per_node.keys())

    def load_histogram(self, bins: int = 8) -> tuple:
        """Histogram of the load distribution (counts, edges)."""
        dist = self.load_distribution()
        counts, edges = np.histogram(dist, bins=bins)
        return counts, edges

    # ------------------------------------------------------------------
    def overhead_components(self) -> Dict[str, float]:
        """Fig. 7: additional messages sent per input event, by component.

        Components whose origination kind never occurred report 0.
        """
        out: Dict[str, float] = {}
        for label, (kinds, per) in OVERHEAD_COMPONENTS.items():
            events = self.stats.originations.get(per, 0)
            total = sum(self.stats.sends_by_kind.get(k, 0) for k in kinds)
            out[label] = total / events if events else 0.0
        return out

    # ------------------------------------------------------------------
    def hop_components(self) -> Dict[str, float]:
        """Fig. 8: average hops per delivered message, by message type."""
        return {
            label: self.stats.mean_hops(kind) for label, kind in HOP_COMPONENTS.items()
        }

    def latency_components(self) -> Dict[str, float]:
        """Average end-to-end delivery latency (ms) per message type."""
        return {
            label: self.stats.mean_latency(kind)
            for label, kind in HOP_COMPONENTS.items()
        }

    # ------------------------------------------------------------------
    # fault-model / delivery-robustness views
    # ------------------------------------------------------------------
    def delivery_ratio(self, kind: str = None) -> float:
        """Acked fraction of reliably-sent payloads (1.0 when none sent)."""
        return self.stats.delivery_ratio(kind)

    def availability(self) -> float:
        """Overall eventual-delivery availability of reliable traffic.

        The fraction of reliably-tracked payloads that were eventually
        acknowledged (possibly after retransmissions); the complement is
        the dead-letter rate.  1.0 on a lossless fabric or when
        reliable delivery is disabled.
        """
        return self.stats.delivery_ratio(None)

    def reliability_summary(self) -> Dict[str, float]:
        """Scalar robustness counters for harness bundles and CSV export."""
        s = self.stats
        return {
            "availability": self.availability(),
            "reliable_sends": float(sum(s.reliable_sends.values())),
            "reliable_acked": float(sum(s.reliable_acked.values())),
            "retransmissions": float(sum(s.retransmissions.values())),
            "dead_letters": float(sum(s.dead_letters.values())),
            "reliable_cancelled": float(sum(s.reliable_cancelled.values())),
            "drops": float(s.total_drops()),
            "duplicates_injected": float(sum(s.duplicates_by_kind.values())),
            "duplicates_suppressed": float(sum(s.duplicates_suppressed.values())),
            "unknown_payloads": float(sum(s.unknown_payloads.values())),
        }

    def replication_summary(self) -> Dict[str, float]:
        """Replication-plane counters (DESIGN.md §10), all 0 at r = 1.

        ``replica_pushes`` / ``replica_acks`` are physical sends of the
        replica kinds, ``handoff_*`` are the hinted-handoff queue's
        enqueue/drain totals, and ``read_repairs`` counts the digest
        pulls issued by quorum aggregators.
        """
        s = self.stats
        return {
            "replica_pushes": float(s.sends_by_kind.get("replica", 0)),
            "replica_acks": float(s.sends_by_kind.get("replica_ack", 0)),
            "handoffs": float(s.sends_by_kind.get("handoff", 0)),
            "handoffs_enqueued": float(sum(s.handoffs_enqueued.values())),
            "handoffs_drained": float(sum(s.handoffs_drained.values())),
            "read_repairs": float(sum(s.read_repairs.values())),
        }

    def load_balance_summary(self) -> Dict[str, float]:
        """Load-balancing-plane counters (DESIGN.md §13).

        All 0 with ``virtual_nodes=1`` and ``admission_control=False``.  ``max_mean_load_ratio`` is the §13
        skew metric over the *token* load map (per-physical aggregation
        needs the system's :class:`~repro.chord.vnodes.VirtualNodeMap`
        and is reported by ``StreamIndexSystem.load_skew_ratio``).
        """
        s = self.stats
        per_node = s.load_by_node()
        mean = (sum(per_node.values()) / len(per_node)) if per_node else 0.0
        ratio = (max(per_node.values()) / mean) if mean > 0 else 0.0
        return {
            "publishes_shed": float(sum(s.publishes_shed.values())),
            "shed_notices": float(s.sends_by_kind.get("shed", 0)),
            "backpressure_signals": float(sum(s.backpressure_signals.values())),
            "source_throttles": float(sum(s.source_throttles.values())),
            "max_mean_load_ratio": float(ratio),
        }

    def drop_reasons(self) -> Dict[str, int]:
        """Total drops by reason (loss, link_loss, outage, dead_dest)."""
        return dict(self.stats.drops_by_reason())

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Everything at once, for harness result bundles."""
        return {
            "load": self.load_components(),
            "overhead": self.overhead_components(),
            "hops": self.hop_components(),
            "latency_ms": self.latency_components(),
            "total_load": self.total_load(),
            "reliability": self.reliability_summary(),
            "replication": self.replication_summary(),
            "load_balance": self.load_balance_summary(),
        }
