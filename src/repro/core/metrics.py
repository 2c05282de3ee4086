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

    # ------------------------------------------------------------------
    def load_distribution(self) -> np.ndarray:
        """Fig. 6(b): per-node message load (sends+receives per second).

        Sorted ascending.  Only nodes that sent or received at least one
        message appear: a silent node has no entry, not a 0.
        """
        seconds = self.duration_ms / 1000.0
        return np.array(sorted(v / seconds for v in self.stats.load_by_node().values()))

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
