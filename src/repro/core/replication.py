"""Successor-list replication of MBR index state (DESIGN.md §10).

The paper heals index loss with soft-state refresh alone, so every
node departure opens a recall hole until the next refresh epoch.  This
module closes that hole with the classic Chord durability recipe: the
*last* index holder of each publish span pushes ``r - 1`` replicas of
the stored MBR onto its successor list, stabilization rounds run
anti-entropy repair on unconfirmed placements, and hinted handoff
re-delivers orphaned copies to whichever node inherits a dead owner's
arc.

Design contract (all of it enforced by tests):

* **Inert at r = 1.**  Every entry point returns immediately when
  ``replication_factor == 1``: no message, no RNG draw, no scheduled
  event, no counter — a default-config run is byte-identical to a
  build without this module (the determinism digest pins this).
* **Placement rule.**  Only the last covering node of a span
  replicates (the span walk's ``walked >= width`` test), so each MBR
  gains exactly ``r - 1`` extra copies, on the first ``r - 1`` live
  successors that are not themselves primaries of the span.
* **Version token.**  A copy's version is its absolute expiry time in
  ms.  Soft-state refresh re-publishes with the *remaining* lifespan,
  so the absolute expiry — unlike a sequence number — is stable across
  refreshes of the same MBR and totally ordered across generations.
* **Replicas live outside the primary index.**  The replica store is
  separate from :class:`~repro.core.index.LocalIndex`, so the
  index-placement invariant ("primaries only on covering nodes")
  stays checkable; replica copies are matched against the node's own
  primary query subscriptions at report time.

The manager is driven by :class:`~repro.core.roles.holder.
IndexHolderService` (message handlers) and by the stabilizer's
per-node ``on_round`` hook (anti-entropy / handoff duties).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from ..sim.network import Message
from .index import Candidates, DeltaMatcher, StoredSimilaritySub
from .mbr import MBR
from .protocol import (
    KIND,
    HintedHandoff,
    ReplicaAck,
    ReplicaDigestPull,
    ReplicaPublish,
    next_delivery_id,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..chord.node import ChordNode
    from .roles.holder import IndexHolderService

__all__ = ["ReplicaEntry", "ReplicationManager", "quorum_threshold"]

#: sender attribution for the ``repro flow`` static analyzer: the
#: replication manager acts on behalf of its owning index holder, so
#: every replica push / ack / handoff it emits is index-holder traffic
FLOW_ROLE = "index-holder"

#: Anti-entropy re-push cooldown, in units of the per-hop delay: long
#: enough for a push + ack round trip plus routing slack, short enough
#: that a lost replica heals within a couple of stabilization rounds.
REPUSH_COOLDOWN_HOPS = 8.0


def quorum_threshold(replication_factor: int) -> int:
    """``⌈(r + 1) / 2⌉`` — agreeing copies needed for a quorum read.

    r = 1 gives 1 (quorum degenerates to eventual), r = 2 and r = 3
    give 2: a majority of the replica set including the primary.
    """
    return (replication_factor + 2) // 2


@dataclass
class ReplicaEntry:
    """One replicated MBR copy held on behalf of ``owner_id``.

    ``hinted`` flags that the owner died and the copy has already been
    handed off to the arc's new owner — the entry keeps serving queries
    either way, the flag only stops repeated handoffs.
    """

    mbr: MBR
    source_id: int
    low_key: int
    high_key: int
    owner_id: int
    expires: float
    hinted: bool = False


@dataclass
class _Placement:
    """Outbound bookkeeping the primary keeps per replicated MBR."""

    mbr: MBR
    source_id: int
    low_key: int
    high_key: int
    expires: float
    confirmed: Set[int] = field(default_factory=set)
    last_push_ms: float = float("-inf")


class ReplicationManager:
    """Per-holder replica sets over the stabilizer's successor list."""

    def __init__(self, holder: "IndexHolderService") -> None:
        self._holder = holder
        #: stream id -> replica copies held for other owners
        self.store: Dict[str, List[ReplicaEntry]] = {}
        #: (stream id, version) -> outbound placement awaiting acks
        self.outbound: Dict[Tuple[str, float], _Placement] = {}
        #: replica entries whose owner died, queued for handoff
        self.hints: List[ReplicaEntry] = []
        #: lifetime counters for the replication metrics section
        self.read_repairs_served = 0
        #: the detect step over the replica store, through the index's
        #: kernel; ``d <= radius + 1e-12`` accepts, as ``MBR.intersects_ball``
        self._matcher = DeltaMatcher(self.store, slack=1e-12)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._holder.cfg.replication_factor > 1

    @property
    def _node(self) -> "ChordNode":
        return self._holder.node

    @property
    def _now(self) -> float:
        return self._holder.transport.now

    def is_last_holder(self, low_key: int, high_key: int) -> bool:
        """The span walk's termination test: does this node own the
        range's high end (and therefore replicate on its behalf)?"""
        size = self._node.space.size
        width = (high_key - low_key) % size
        walked = (self._node.node_id - low_key) % size
        return walked >= width

    def replica_targets(self, low_key: int, high_key: int) -> List["ChordNode"]:
        """First ``r - 1`` live successors that are not span primaries.

        A successor whose id falls strictly inside the span walk
        already stores the MBR as a primary (it received the span
        copy), so replicating to it would not add durability.
        """
        node = self._node
        size = node.space.size
        width = (high_key - low_key) % size
        want = self._holder.cfg.replication_factor - 1
        out: List["ChordNode"] = []
        seen = {node.node_id}
        for succ in node.successor_list:
            if len(out) >= want:
                break
            if succ is None or not succ.alive or succ.node_id in seen:
                continue
            seen.add(succ.node_id)
            if (succ.node_id - low_key) % size < width:
                continue  # already a primary holder of this span
            out.append(succ)
        return out

    def version_of(self, stream_id: str, now: float) -> float:
        """Freshest version (absolute expiry, ms) this node holds for a
        stream, across primary and replica copies; ``-inf`` if none."""
        best = float("-inf")
        for stored in self._holder.index._mbrs.get(stream_id, ()):
            if stored.expires > now:
                best = max(best, stored.expires)
        for entry in self.store.get(stream_id, ()):
            if entry.expires > now:
                best = max(best, entry.expires)
        return best

    # ------------------------------------------------------------------
    # outbound: primary-side placement
    # ------------------------------------------------------------------
    def note_primary(
        self,
        mbr: MBR,
        *,
        source_id: int,
        low_key: int,
        high_key: int,
        expires: float,
    ) -> None:
        """Record a freshly stored primary copy and push its replicas.

        Called by the holder after every primary install (publish span
        delivery or handoff adoption); only the span's last holder
        acts, everyone else returns immediately.
        """
        if not self.enabled:
            return
        if not self.is_last_holder(low_key, high_key):
            return
        key = (mbr.stream_id, expires)
        placement = self.outbound.get(key)
        if placement is None:
            placement = _Placement(
                mbr=mbr,
                source_id=source_id,
                low_key=low_key,
                high_key=high_key,
                expires=expires,
            )
            self.outbound[key] = placement
        self._push(placement)

    def _push(self, placement: _Placement) -> None:
        """Send :class:`ReplicaPublish` to every unconfirmed target."""
        node = self._node
        pushed = False
        for target in self.replica_targets(placement.low_key, placement.high_key):
            if target.node_id in placement.confirmed:
                continue
            payload = ReplicaPublish(
                mbr=placement.mbr,
                source_id=placement.source_id,
                low_key=placement.low_key,
                high_key=placement.high_key,
                owner_id=node.node_id,
                expires_ms=placement.expires,
                delivery_id=next_delivery_id(),
            )
            msg = Message(
                kind=KIND.REPLICA,
                payload=payload,
                origin=node.node_id,
                dest_key=target.node_id,
            )
            self._holder.transport.send_direct(node, target, msg)
            pushed = True
        if pushed:
            placement.last_push_ms = self._now

    def _targets_confirmed(self, placement: _Placement) -> bool:
        """Whether every *current* replica target has confirmed."""
        return all(
            t.node_id in placement.confirmed
            for t in self.replica_targets(placement.low_key, placement.high_key)
        )

    def on_ack(self, payload: ReplicaAck) -> None:
        """A replica holder confirmed a placement."""
        placement = self.outbound.get((payload.stream_id, payload.expires_ms))
        if placement is not None:
            placement.confirmed.add(payload.holder_id)

    # ------------------------------------------------------------------
    # inbound: replica-side storage
    # ------------------------------------------------------------------
    def install_replica(self, payload: ReplicaPublish) -> None:
        """Store (idempotently) a pushed copy and confirm placement.

        The ack is sent even for an already-held version so that a
        lost ack heals on the owner's next anti-entropy re-push.
        """
        entries = self.store.setdefault(payload.mbr.stream_id, [])
        for entry in entries:
            if entry.expires == payload.expires_ms:
                entry.owner_id = payload.owner_id
                entry.hinted = False
                break
        else:
            entry = ReplicaEntry(
                mbr=payload.mbr,
                source_id=payload.source_id,
                low_key=payload.low_key,
                high_key=payload.high_key,
                owner_id=payload.owner_id,
                expires=payload.expires_ms,
            )
            entries.append(entry)
            self._matcher.added(entry)
        node = self._node
        ack = ReplicaAck(
            owner_id=payload.owner_id,
            holder_id=node.node_id,
            stream_id=payload.mbr.stream_id,
            expires_ms=payload.expires_ms,
            delivery_id=next_delivery_id(),
        )
        msg = Message(
            kind=KIND.REPLICA_ACK,
            payload=ack,
            origin=node.node_id,
            dest_key=payload.owner_id,
        )
        self._holder.transport.route(
            node, msg, transit_kind=KIND.REPLICA_TRANSIT
        )

    # ------------------------------------------------------------------
    # read repair
    # ------------------------------------------------------------------
    def serve_pull(self, payload: ReplicaDigestPull) -> None:
        """Push every copy newer than the puller's version to it.

        Sent by a quorum aggregator that saw this node report a fresh
        version while ``stale_id`` reported an old one; the stale node
        installs the pushed copies as replicas (idempotent receiver).
        """
        node = self._node
        now = self._now
        copies: List[Tuple[MBR, int, int, int, float]] = []
        for stored in self._holder.index._mbrs.get(payload.stream_id, ()):
            if stored.expires > now and stored.expires > payload.have_version_ms:
                copies.append(
                    (stored.mbr, -1, node.node_id, node.node_id, stored.expires)
                )
        for entry in self.store.get(payload.stream_id, ()):
            if entry.expires > now and entry.expires > payload.have_version_ms:
                copies.append(
                    (entry.mbr, entry.source_id, entry.low_key, entry.high_key, entry.expires)
                )
        # Primary copies carry this node's own id as the span keys: the
        # receiver stores them as plain replicas (it provably is not a
        # covering node for them, or it would hold the primary already).
        best: Dict[float, Tuple[MBR, int, int, int, float]] = {}
        for copy in copies:
            best[copy[4]] = copy
        for mbr, source_id, low_key, high_key, expires in best.values():
            push = ReplicaPublish(
                mbr=mbr,
                source_id=source_id,
                low_key=low_key,
                high_key=high_key,
                owner_id=node.node_id,
                expires_ms=expires,
                delivery_id=next_delivery_id(),
            )
            msg = Message(
                kind=KIND.REPLICA,
                payload=push,
                origin=node.node_id,
                dest_key=payload.stale_id,
            )
            self._holder.transport.route(
                node, msg, transit_kind=KIND.REPLICA_TRANSIT
            )
            self.read_repairs_served += 1

    # ------------------------------------------------------------------
    # hinted handoff
    # ------------------------------------------------------------------
    def install_handoff(self, payload: HintedHandoff, origin: int) -> None:
        """Adopt a handed-off copy: as primary if this node now owns
        the span's high end, as a replica otherwise (ring moved on)."""
        now = self._now
        if payload.expires_ms <= now:
            return
        if self._node.owns_key(payload.high_key % self._node.space.size):
            self._holder.index.add_mbr(payload.mbr, expires=payload.expires_ms)
            self.note_primary(
                payload.mbr,
                source_id=payload.source_id,
                low_key=payload.low_key,
                high_key=payload.high_key,
                expires=payload.expires_ms,
            )
            return
        entries = self.store.setdefault(payload.mbr.stream_id, [])
        for entry in entries:
            if entry.expires == payload.expires_ms:
                return
        entry = ReplicaEntry(
            mbr=payload.mbr,
            source_id=payload.source_id,
            low_key=payload.low_key,
            high_key=payload.high_key,
            owner_id=origin,
            expires=payload.expires_ms,
        )
        entries.append(entry)
        self._matcher.added(entry)

    def _scan_for_hints(self) -> None:
        """Queue a handoff for every replica whose owner died."""
        alive = self._holder.system._node_alive
        for entries in self.store.values():
            for entry in entries:
                if entry.hinted or alive(entry.owner_id):
                    continue
                entry.hinted = True
                self.hints.append(entry)
                self._holder._stats.record_handoff_enqueued(KIND.HANDOFF)

    def _drain_hints(self) -> None:
        """Deliver queued copies to whichever node inherited the arc.

        The dead owner was the span's last holder, i.e. it owned the
        range's high end — so the copy is routed to ``high_key`` and
        lands on the arc's current owner.  Tracked via the reliable
        sender (HintedHandoff is an acked kind); on give-up the entry
        is re-queued on a later round.
        """
        now = self._now
        while self.hints:
            entry = self.hints.pop()
            if entry.expires <= now:
                continue
            payload = HintedHandoff(
                mbr=entry.mbr,
                source_id=entry.source_id,
                low_key=entry.low_key,
                high_key=entry.high_key,
                expires_ms=entry.expires,
                delivery_id=next_delivery_id(),
            )

            def requeue(entry: ReplicaEntry = entry) -> None:
                entry.hinted = False

            self._holder.runtime.reliable_route(
                payload,
                kind=KIND.HANDOFF,
                transit_kind=KIND.HANDOFF_TRANSIT,
                dest_key=entry.high_key % self._node.space.size,
                on_give_up=requeue,
            )
            self._holder._stats.record_handoff_drained(KIND.HANDOFF)

    def handoff_backlog(self) -> int:
        """Queued-but-undelivered handoffs (availability metric)."""
        return len(self.hints)

    # ------------------------------------------------------------------
    # anti-entropy round (stabilizer hook)
    # ------------------------------------------------------------------
    def on_round(self, now: float) -> None:
        """Per-stabilization-round duties: purge, re-push, hand off."""
        if not self.enabled:
            return
        self.purge(now)
        cooldown = REPUSH_COOLDOWN_HOPS * self._holder.cfg.hop_delay_ms
        for placement in self.outbound.values():
            # judge confirmations against the *current* successor list:
            # a confirmation from a holder that since died (or fell off
            # the list) must not stop the re-push, or the copy count
            # silently drops below r
            if self._targets_confirmed(placement):
                continue
            if now - placement.last_push_ms < cooldown:
                continue
            self._push(placement)
        self._scan_for_hints()
        self._drain_hints()

    def purge(self, now: float) -> None:
        """Drop expired replica copies, placements, and hints."""
        self._matcher.purge(now)
        for key in [k for k, p in self.outbound.items() if p.expires <= now]:
            del self.outbound[key]
        self.hints = [e for e in self.hints if e.expires > now]

    # ------------------------------------------------------------------
    # query-side matching
    # ------------------------------------------------------------------
    def new_candidates(
        self, subs: List[StoredSimilaritySub], now: float
    ) -> List[Tuple[StoredSimilaritySub, Candidates]]:
        """Replica copies matching the *primary* subscriptions of this node.

        The replica-store twin of :meth:`LocalIndex.new_candidates`,
        through the same delta kernel, for the given ``subs`` in order.
        It shares each sub's ``reported`` set, so each (node, query,
        stream) pair is still forwarded at most once across primary and
        replica matches.
        """
        return self._matcher.match(subs, now)

    def live_replica_count(self, now: float) -> int:
        """Unexpired replica copies held (availability metric)."""
        return sum(
            1
            for entries in self.store.values()
            for entry in entries
            if entry.expires > now
        )

    def unconfirmed_placements(self, now: float) -> int:
        """Outbound placements with a current target still unconfirmed
        (the replica-divergence metric's numerator)."""
        return sum(
            1
            for placement in self.outbound.values()
            if placement.expires > now and not self._targets_confirmed(placement)
        )

    def live_placements(self, now: float) -> int:
        """Outbound placements still live (divergence denominator)."""
        return sum(1 for p in self.outbound.values() if p.expires > now)
