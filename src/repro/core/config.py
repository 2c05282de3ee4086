"""Configuration: the paper's Table I workload plus middleware knobs.

Table I of the paper fixes the workload and runtime parameters used in
every experiment:

====== ======= =====================================================
name   value   meaning
====== ======= =====================================================
PMIN   150 ms  minimum stream period (per-stream, uniform)
PMAX   250 ms  maximum stream period
BSPAN  5000 ms lifespan of a stored MBR
QRATE  2 q/s   Poisson arrival rate of queries (system-wide)
QMIN   20 s    minimum query lifespan (uniform)
QMAX   100 s   maximum query lifespan
NPER   2 s     period of notification / response exchanges
====== ======= =====================================================

plus a constant 50 ms per-hop routing delay in the Chord simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

__all__ = ["WorkloadConfig", "MiddlewareConfig", "TABLE_I"]


@dataclass(frozen=True)
class WorkloadConfig:
    """The paper's Table I parameters (all times in ms unless noted)."""

    pmin_ms: float = 150.0
    pmax_ms: float = 250.0
    bspan_ms: float = 5000.0
    qrate_per_s: float = 2.0
    qmin_ms: float = 20_000.0
    qmax_ms: float = 100_000.0
    nper_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.pmin_ms <= 0 or self.pmax_ms < self.pmin_ms:
            raise ValueError("need 0 < PMIN <= PMAX")
        if self.qmin_ms <= 0 or self.qmax_ms < self.qmin_ms:
            raise ValueError("need 0 < QMIN <= QMAX")
        if self.bspan_ms <= 0 or self.nper_ms <= 0 or self.qrate_per_s < 0:
            raise ValueError("BSPAN, NPER must be positive; QRATE non-negative")

    def as_table(self) -> Tuple[Tuple[str, str], ...]:
        """The (name, value) rows of Table I, formatted as in the paper."""
        return (
            ("PMIN", f"{self.pmin_ms:.0f}ms"),
            ("PMAX", f"{self.pmax_ms:.0f}ms"),
            ("BSPAN", f"{self.bspan_ms:.0f}ms"),
            ("QRATE", f"{self.qrate_per_s:.0f}q/sec"),
            ("QMIN", f"{self.qmin_ms / 1000:.0f}sec"),
            ("QMAX", f"{self.qmax_ms / 1000:.0f}sec"),
            ("NPER", f"{self.nper_ms / 1000:.0f}sec"),
        )


TABLE_I = WorkloadConfig()
"""The exact parameter set of the paper's Table I."""


@dataclass(frozen=True)
class MiddlewareConfig:
    """Knobs of the distributed indexing middleware itself.

    Attributes
    ----------
    m:
        Chord identifier bits.
    window_size:
        Sliding window length ``n`` per stream.
    k:
        Non-DC DFT coefficients kept per summary.
    normalization:
        ``"z"`` (correlation semantics), ``"unit"`` (subsequence), or
        ``"none"``.
    batch_size:
        ``w``: feature vectors grouped into one MBR before routing
        (Sec. IV-G).
    query_radius:
        Default similarity-query radius ε (the paper uses 0.1 for most
        experiments, 0.2 in Fig. 7(b)).
    multicast:
        ``"sequential"`` — send to the low key and forward via
        successors (the basic scheme every DHT supports); or
        ``"bidirectional"`` — send to the middle key and spread both
        ways (the Sec. IV-C/VI extension that halves propagation delay).
    hop_delay_ms:
        Constant per-hop routing latency (non-negative).
    adaptive_mbr:
        Use the Sec. VI-A adaptive precision batcher (with its own
        default width cap and target span) instead of plain count
        batching.
    hierarchy:
        Enable the Sec. VI-B cluster hierarchy: queries with radius
        above ``hierarchy_radius_threshold`` are served as one-shot
        probes via a leader climb (O(log N) contacts) instead of being
        replicated across the key range.  Bottom clusters hold 4
        nodes and the level-0 update-suppression margin is 0.02.
    reliable_delivery:
        Acknowledge critical control-plane messages (MBR publishes,
        subscribes, registrations, window requests) and retransmit on
        timeout.  Off by default: the paper's fabric is lossless, so
        acks would only add traffic to the reproduced figures.  The
        timeouts and retry budget are constants of
        :mod:`repro.core.reliable`.
    refresh_period_ms:
        Soft-state healing period: sources periodically re-register
        streams, re-publish their freshest unexpired MBR, and clients
        re-disseminate live subscriptions.  0 disables refresh.
    replication_factor:
        ``r``: number of copies of every stored MBR, counting the
        primary (DESIGN.md §10).  The last index holder of a publish
        span pushes ``r - 1`` replicas onto its successor list, and
        stabilization rounds run anti-entropy / hinted-handoff repair.
        The default of 1 keeps replication fully inert — byte-identical
        behaviour to a build without the subsystem.
    consistency:
        Query read mode: ``"eventual"`` (first answer wins — the
        paper's semantics) or ``"quorum"`` (a match is released only
        once ``ceil((r + 1) / 2)`` replica holders report the same
        version of the stream's MBR; stale reporters get read-repaired).
    loss_rate / duplicate_rate:
        The network's fault model: when either is non-zero the system
        attaches a :class:`~repro.sim.faults.FaultInjector` that drops /
        duplicates each hop with these probabilities.  Every surviving
        copy still takes ``hop_delay_ms``.
    virtual_nodes:
        ``v``: ring identifiers (tokens) owned by every physical data
        center (DESIGN.md §13).  Each token is a full Chord node with
        its own successor/finger state, so a physical node's share of
        the key circle is the union of ``v`` independent arcs — the
        classic virtual-node answer to hash-placement skew.  The
        default of 1 keeps the subsystem fully inert: node ids, event
        order and stats stay byte-identical to a build without it.
    admission_control:
        Enable per-holder token-bucket admission control: MBR publishes
        beyond the bucket rate are shed (``LoadShed`` back to the
        source, which re-publishes after a throttle interval) and a
        rate-limited ``Backpressure`` advisory slows the source's
        publish cadence.  Reliability is unaffected — sheds happen
        after the delivery ack, so ``eventual_delivery_ratio`` stays 1.
    admission_rate_per_s:
        Token-bucket refill rate: MBR publishes per second a holder
        accepts sustained.
    workload:
        The Table I parameters.
    """

    m: int = 32
    window_size: int = 128
    k: int = 2
    normalization: str = "z"
    batch_size: int = 10
    query_radius: float = 0.1
    multicast: str = "sequential"
    hop_delay_ms: float = 50.0
    adaptive_mbr: bool = False
    hierarchy: bool = False
    hierarchy_radius_threshold: float = 0.25
    reliable_delivery: bool = False
    refresh_period_ms: float = 0.0
    replication_factor: int = 1
    consistency: str = "eventual"
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    virtual_nodes: int = 1
    admission_control: bool = False
    admission_rate_per_s: float = 20.0
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __post_init__(self) -> None:
        if self.multicast not in ("sequential", "bidirectional"):
            raise ValueError(f"unknown multicast strategy {self.multicast!r}")
        if self.normalization not in ("z", "unit", "none"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.query_radius <= 2.0):
            raise ValueError("query_radius must be in (0, 2]")
        if not (1 <= self.k < self.window_size):
            raise ValueError("need 1 <= k < window_size")
        if self.hop_delay_ms < 0:
            raise ValueError("hop_delay_ms must be non-negative")
        if not (0.0 < self.hierarchy_radius_threshold <= 2.0):
            raise ValueError("hierarchy_radius_threshold must be in (0, 2]")
        if self.refresh_period_ms < 0:
            raise ValueError("refresh_period_ms must be non-negative")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.consistency not in ("eventual", "quorum"):
            raise ValueError(f"unknown consistency mode {self.consistency!r}")
        for name, rate in (("loss_rate", self.loss_rate),
                           ("duplicate_rate", self.duplicate_rate)):
            if not (0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        if self.admission_rate_per_s <= 0:
            raise ValueError("admission_rate_per_s must be positive")

    @property
    def duplicates_possible(self) -> bool:
        """Whether any mechanism can deliver one logical payload twice.

        Receive-side dedup (``NodeRuntime._note_delivery``) only has
        work to do when some path can replay a ``(origin, delivery_id)``
        pair at the same node: network duplicate injection, reliable
        retransmission after loss, multi-token span ownership (virtual
        nodes), or replica re-pushes.  With every one of those off, the
        seen-set can never hit and tracking it is pure memory overhead
        — at N = 5000 it was tens of MB of tuples that could never
        match (PERFORMANCE.md §11).
        """
        return (
            self.reliable_delivery
            or self.loss_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.virtual_nodes > 1
            or self.replication_factor > 1
        )

    def with_(self, **changes) -> "MiddlewareConfig":
        """A modified copy (convenience over :func:`dataclasses.replace`)."""
        return replace(self, **changes)
