"""Runtime invariants: ring health, index placement, message conservation.

Complementing the static rules, these predicates check properties only a
*running* system exhibits:

* **Ring health** (:func:`check_ring`) — every live node's successor and
  predecessor match the ground-truth ring order, finger ``i`` points at
  the true successor of ``n + 2**i``, and key-space ownership partitions
  the circle (each node owns exactly ``(predecessor, self]``).
* **Index placement** (:func:`check_index_placement`) — every live
  (non-expired) MBR sits on a node whose ownership arc intersects the
  MBR's routing key range, i.e. content-based routing delivered each
  summary where a range query would look for it.
* **Message conservation** (:func:`check_message_conservation`) — every
  physical transmission is accounted for exactly once:
  ``sends + duplicates + in_flight_at_reset ==
  receives + drops + in_flight``.
* **Delivery policy** (:func:`check_delivery_policy`) — every node's
  dispatch table covers the whole protocol registry (each registered
  payload type has exactly one role handler; ``Ack`` is consumed by the
  runtime itself), and the receive-side dedup memory respects its
  configured bound.  Runtime, registry and dispatch must agree — the
  same single-source-of-truth property simlint D007 enforces
  statically.

:func:`check_invariants` bundles all three over a
:class:`~repro.core.system.StreamIndexSystem`; :func:`assert_invariants`
raises with a readable summary, for tests and the ``--check-invariants``
CLI flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..chord.ring import ChordRing
    from ..core.system import StreamIndexSystem
    from ..sim.network import Network

__all__ = [
    "Violation",
    "InvariantReport",
    "check_ring",
    "check_physical_ownership",
    "check_index_placement",
    "check_message_conservation",
    "check_delivery_policy",
    "check_replica_placement",
    "check_invariants",
    "assert_invariants",
    "InvariantError",
]


class InvariantError(AssertionError):
    """Raised by :func:`assert_invariants` when a check fails."""


@dataclass(frozen=True)
class Violation:
    """One failed invariant.

    Attributes
    ----------
    check:
        Which checker found it: ``"ring"``, ``"index"``, ``"messages"``.
    subject:
        The entity involved, e.g. ``"N1234"`` or ``"stream-3"``.
    message:
        What is wrong, with the expected and observed values.
    """

    check: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"


@dataclass
class InvariantReport:
    """Outcome of an invariant sweep.

    ``checks_run`` counts individual predicates evaluated, so an
    all-clear report still shows the sweep did real work.
    """

    violations: List[Violation] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        """Whether every evaluated predicate held."""
        return not self.violations

    def summary(self, limit: int = 20) -> str:
        """Human-readable multi-line outcome."""
        if self.ok:
            return f"invariants OK ({self.checks_run} checks)"
        head = (
            f"{len(self.violations)} invariant violation(s) "
            f"in {self.checks_run} checks:"
        )
        lines = [head] + [f"  {v}" for v in self.violations[:limit]]
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# ring health
# ----------------------------------------------------------------------
def check_ring(
    ring: "ChordRing", *, fingers: bool = True
) -> InvariantReport:
    """Check every live node's routing state against ring ground truth.

    With ``fingers=False`` only the correctness-critical successor /
    predecessor / ownership invariants are checked — fingers are an
    optimisation and legitimately lag behind during active churn.
    """
    report = InvariantReport()
    ids = ring.node_ids
    n = len(ids)
    if n == 0:
        report.checks_run += 1
        report.violations.append(
            Violation("ring", "ring", "ring has no live members")
        )
        return report

    for idx, node_id in enumerate(ids):
        node = ring.node(node_id)
        label = f"N{node_id}"
        true_succ = ring.node(ids[(idx + 1) % n])
        true_pred = ring.node(ids[(idx - 1) % n])

        report.checks_run += 1
        if node.successor is not true_succ:
            got = f"N{node.successor.node_id}" if node.successor else "None"
            report.violations.append(
                Violation(
                    "ring",
                    label,
                    f"successor is {got}, expected N{true_succ.node_id}",
                )
            )
        report.checks_run += 1
        if node.predecessor is not true_pred:
            got = f"N{node.predecessor.node_id}" if node.predecessor else "None"
            report.violations.append(
                Violation(
                    "ring",
                    label,
                    f"predecessor is {got}, expected N{true_pred.node_id}",
                )
            )

        # ownership partition: exactly the arc (predecessor, self]
        report.checks_run += 1
        if not node.owns_key(node.node_id):
            report.violations.append(
                Violation("ring", label, "node does not own its own identifier")
            )
        if n > 1:
            probe = (true_pred.node_id + 1) % ring.space.size
            report.checks_run += 1
            if not node.owns_key(probe):
                report.violations.append(
                    Violation(
                        "ring",
                        label,
                        f"node does not own key {probe} at the start of its arc",
                    )
                )
            report.checks_run += 1
            if node.owns_key(true_pred.node_id):
                report.violations.append(
                    Violation(
                        "ring",
                        label,
                        f"node claims key {true_pred.node_id}, owned by its "
                        "predecessor",
                    )
                )
            report.checks_run += 1
            if true_succ.owns_key(node.node_id):
                report.violations.append(
                    Violation(
                        "ring",
                        label,
                        f"successor N{true_succ.node_id} also claims key "
                        f"{node.node_id}",
                    )
                )

        if fingers:
            for i in range(ring.space.m):
                report.checks_run += 1
                expected = ring.successor_of_key(node.finger_start(i))
                if node.fingers[i] is not expected:
                    got = (
                        f"N{node.fingers[i].node_id}"
                        if node.fingers[i] is not None
                        else "None"
                    )
                    report.violations.append(
                        Violation(
                            "ring",
                            label,
                            f"finger[{i}] is {got}, expected "
                            f"N{expected.node_id}",
                        )
                    )
    return report


# ----------------------------------------------------------------------
# per-physical ownership (virtual nodes, DESIGN.md §13)
# ----------------------------------------------------------------------
def check_physical_ownership(ring: "ChordRing") -> InvariantReport:
    """Check that per-physical token arcs partition the circle.

    Under virtual nodes a physical node's ownership is the *union* of
    its tokens' ``(predecessor, self]`` arcs.  Aggregated per physical
    node, those unions must still partition the identifier circle:
    every physical node's arc widths sum to a positive share, and the
    shares of all physical nodes sum to exactly ``2**m``.  Each token
    must also carry a stable ``physical_name`` and never be counted
    under two physical nodes (the naming scheme in
    :mod:`repro.chord.vnodes` guarantees this; the check catches
    hand-built rings that violate it).  Without virtual nodes every
    physical group has exactly one token and this reduces to the
    ownership-partition clause of :func:`check_ring`.
    """
    from ..chord.vnodes import VirtualNodeMap

    report = InvariantReport()
    ids = ring.node_ids
    n = len(ids)
    if n == 0:
        report.checks_run += 1
        report.violations.append(
            Violation("ring", "ring", "ring has no live members")
        )
        return report

    vmap = VirtualNodeMap()
    for node in ring:
        vmap.register(node)
    size = ring.space.size
    arc_width = {}
    for idx, node_id in enumerate(ids):
        pred_id = ids[(idx - 1) % n]
        # a single-token ring owns the full circle, not a zero arc
        width = (node_id - pred_id) % size or size
        arc_width[node_id] = width

    total = 0
    for phys in vmap.physical_names():
        tokens = vmap.tokens_of(phys)
        report.checks_run += 1
        live = [t for t in tokens if t in arc_width]
        if not live:
            report.violations.append(
                Violation(
                    "ring", phys, "physical node has no live tokens on the ring"
                )
            )
            continue
        share = sum(arc_width[t] for t in live)
        total += share
        report.checks_run += 1
        if not (0 < share <= size):
            report.violations.append(
                Violation(
                    "ring",
                    phys,
                    f"aggregated arc share {share} outside (0, {size}]",
                )
            )
        # every live token of this physical group reports the same owner
        for t in live:
            report.checks_run += 1
            owner = ring.node(t).physical_name
            if owner != phys:
                report.violations.append(
                    Violation(
                        "ring",
                        f"N{t}",
                        f"token registered under {phys!r} but carries "
                        f"physical_name {owner!r}",
                    )
                )

    report.checks_run += 1
    if total != size:
        report.violations.append(
            Violation(
                "ring",
                "ring",
                f"per-physical arc shares sum to {total}, expected {size} "
                "(ownership does not partition the circle)",
            )
        )
    return report


# ----------------------------------------------------------------------
# index placement
# ----------------------------------------------------------------------
def check_index_placement(
    system: "StreamIndexSystem", *, now: Optional[float] = None
) -> InvariantReport:
    """Check each live MBR sits inside its holder's routed key range.

    Content-based routing (Eq. 6) sends an MBR whose first-coordinate
    interval maps to keys ``[klow, khigh]`` to every node covering that
    range; a stored MBR on a node outside the covering set would be
    invisible to exactly the queries it should answer.  Expired MBRs are
    ignored: soft state left behind by churn is *expected* to be stale
    until BSPAN retires it.
    """
    report = InvariantReport()
    now = system.sim.now if now is None else now
    ring = system.ring
    mapper = system.mapper
    for app in system.all_apps:
        if not app.node.alive:
            continue
        holder = app.node
        for stored in app.index.live_mbrs(now):
            report.checks_run += 1
            vlow, vhigh = stored.mbr.first_coordinate_interval
            klow, khigh = mapper.key_range(vlow, vhigh)
            covering = ring.nodes_covering_range(klow, khigh)
            if holder not in covering:
                names = ", ".join(f"N{c.node_id}" for c in covering)
                report.violations.append(
                    Violation(
                        "index",
                        f"N{holder.node_id}",
                        f"holds MBR of {stored.mbr.stream_id!r} with key "
                        f"range [{klow}, {khigh}] covered by [{names}]",
                    )
                )
    return report


# ----------------------------------------------------------------------
# message conservation
# ----------------------------------------------------------------------
def check_message_conservation(network: "Network") -> InvariantReport:
    """Check that every transmission is accounted exactly once.

    The network's books must balance::

        sends + duplicates + in_flight_at_reset
            == receives + drops + in_flight_now

    where ``in_flight_at_reset`` covers messages already travelling when
    ``reset_stats()`` swapped the counters (their receives land in the
    new ledger without a matching send) and ``in_flight_now`` covers
    messages still travelling at check time.  An imbalance means some
    path sends or consumes messages without going through
    :meth:`Network.hop` — traffic escaping the paper's figures.
    """
    report = InvariantReport()
    stats = network.stats
    sends = sum(stats.sends_by_kind.values())
    receives = sum(stats.receives.values())
    drops = stats.total_drops()
    duplicates = sum(stats.duplicates_by_kind.values())
    in_flight = network.in_flight
    carried = stats.in_flight_at_reset

    report.checks_run += 1
    lhs = sends + duplicates + carried
    rhs = receives + drops + in_flight
    if lhs != rhs:
        report.violations.append(
            Violation(
                "messages",
                "network",
                f"conservation broken: sends({sends}) + duplicates"
                f"({duplicates}) + carried({carried}) = {lhs} but "
                f"receives({receives}) + drops({drops}) + "
                f"in_flight({in_flight}) = {rhs}",
            )
        )
    report.checks_run += 1
    if in_flight < 0:
        report.violations.append(
            Violation(
                "messages", "network", f"negative in-flight count {in_flight}"
            )
        )
    return report


# ----------------------------------------------------------------------
# replica placement (DESIGN.md §10)
# ----------------------------------------------------------------------
def check_replica_placement(
    system: "StreamIndexSystem", *, now: Optional[float] = None
) -> InvariantReport:
    """Check every live MBR has its ``r - 1`` successor replicas.

    For each live primary MBR held by its span's *last* covering node,
    the first ``r - 1`` live non-covering successors (the replication
    targets) must each hold a same-version copy — as a replica, or as
    a primary if a handoff promoted it.  Only meaningful at quiescence:
    the ring must be stabilized and at least one anti-entropy round plus
    its acks must have drained, otherwise in-flight pushes legitimately
    show up as missing copies.  Trivially clean at r = 1.
    """
    report = InvariantReport()
    if system.config.replication_factor <= 1:
        return report
    now = system.sim.now if now is None else now
    # MBRs younger than one repair cycle (two stabilization rounds for
    # the anti-entropy re-push, the ack cooldown, plus flight time) may
    # legitimately still have their replica pushes in the air — the
    # invariant is about *converged* placements, not in-flight ones.
    from ..core.replication import REPUSH_COOLDOWN_HOPS

    period = system.stabilizer.period_ms if system.stabilizer else 500.0
    grace = 2.0 * period + (REPUSH_COOLDOWN_HOPS + 2.0) * system.config.hop_delay_ms
    bspan = system.config.workload.bspan_ms
    for app in system.all_apps:
        if not app.node.alive:
            continue
        mgr = app.runtime.holder.replication
        for stored in app.index.live_mbrs(now):
            age = bspan - (stored.expires - now)
            if age < grace:
                continue
            vlow, vhigh = stored.mbr.first_coordinate_interval
            klow, khigh = system.mapper.key_range(vlow, vhigh)
            if not mgr.is_last_holder(klow, khigh):
                continue
            for target in mgr.replica_targets(klow, khigh):
                target_app = system.apps.get(target.node_id)
                report.checks_run += 1
                if target_app is None or not target_app.node.alive:
                    report.violations.append(
                        Violation(
                            "replication",
                            f"N{app.node_id}",
                            f"replica target N{target.node_id} for "
                            f"{stored.mbr.stream_id!r} has no live app",
                        )
                    )
                    continue
                peer = target_app.runtime.holder
                held = any(
                    entry.expires == stored.expires
                    for entry in peer.replication.store.get(
                        stored.mbr.stream_id, ()
                    )
                ) or any(
                    copy.expires == stored.expires
                    for copy in peer.index._mbrs.get(stored.mbr.stream_id, ())
                )
                if not held:
                    report.violations.append(
                        Violation(
                            "replication",
                            f"N{app.node_id}",
                            f"successor N{target.node_id} holds no copy of "
                            f"{stored.mbr.stream_id!r} version "
                            f"{stored.expires!r}",
                        )
                    )
    return report


# ----------------------------------------------------------------------
# delivery policy
# ----------------------------------------------------------------------
def check_delivery_policy(system: "StreamIndexSystem") -> InvariantReport:
    """Check dispatch tables and dedup state against the protocol registry.

    Every payload type registered in
    :data:`~repro.core.protocol.PAYLOAD_REGISTRY` must have a role
    handler on every live node (``Ack`` excepted — the runtime consumes
    acks before dispatch), otherwise a protocol message would fall into
    the unknown-payload fallback on some nodes but not others.  The
    dedup seen-set must stay within ``DEDUP_SEEN_LIMIT`` and in
    sync with its FIFO eviction queue.
    """
    from ..core.protocol import Ack, PAYLOAD_REGISTRY
    from ..core.runtime import DEDUP_SEEN_LIMIT

    report = InvariantReport()
    for app in system.all_apps:
        if not app.node.alive:
            continue
        runtime = app.runtime
        label = f"N{app.node_id}"
        for payload_type in PAYLOAD_REGISTRY:
            if payload_type is Ack:
                continue
            report.checks_run += 1
            if runtime.dispatch.lookup(payload_type) is None:
                report.violations.append(
                    Violation(
                        "delivery",
                        label,
                        f"registered payload {payload_type.__name__} has no "
                        "role handler",
                    )
                )
        report.checks_run += 1
        seen = len(runtime._seen_deliveries)
        order = len(runtime._seen_order)
        if seen != order or seen > DEDUP_SEEN_LIMIT:
            report.violations.append(
                Violation(
                    "delivery",
                    label,
                    f"dedup memory inconsistent: {seen} ids vs {order} in "
                    f"FIFO order, limit {DEDUP_SEEN_LIMIT}",
                )
            )
    return report


# ----------------------------------------------------------------------
# combined sweep
# ----------------------------------------------------------------------
def _merge(into: InvariantReport, part: InvariantReport) -> None:
    into.violations.extend(part.violations)
    into.checks_run += part.checks_run


def check_invariants(
    system: "StreamIndexSystem",
    *,
    fingers: bool = True,
    index: bool = True,
    messages: bool = True,
    delivery: bool = True,
    replication: bool = True,
) -> InvariantReport:
    """Run the full invariant sweep over a system.

    The ring must be in (or have been stabilized back to) its converged
    state; under *active* churn pass ``fingers=False`` and expect index
    placement to hold only for MBRs published since convergence (stale
    ones expire within BSPAN — run the system forward before checking).
    The replica-placement check (skipped automatically at r = 1)
    additionally needs a post-churn anti-entropy round to have drained.
    """
    report = check_ring(system.ring, fingers=fingers)
    _merge(report, check_physical_ownership(system.ring))
    if index:
        _merge(report, check_index_placement(system))
    if messages:
        _merge(report, check_message_conservation(system.network))
    if delivery:
        _merge(report, check_delivery_policy(system))
    if replication:
        _merge(report, check_replica_placement(system))
    return report


def assert_invariants(
    system: "StreamIndexSystem", *, fingers: bool = True
) -> InvariantReport:
    """Raise :class:`InvariantError` if any invariant fails; else report."""
    report = check_invariants(system, fingers=fingers)
    if not report.ok:
        raise InvariantError(report.summary())
    return report
