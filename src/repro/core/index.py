"""The per-data-center index structure.

Every data center stores (Sec. IV / Fig. 5):

* the **MBR store** — summaries routed to it by content, each with an
  expiry (BSPAN) after which it is dropped to avoid stale responses;
* **similarity subscriptions** — patterns whose key range covers this
  node, with their ε, aggregation point, and expiry;
* **inner-product subscriptions** — queries this node serves as the
  *source* of the queried stream;
* the **location registry** — ``stream_id → source node`` entries this
  node holds as part of the ``h2`` location service.

All lookups purge expired entries lazily; a periodic sweep bounds
memory between lookups.

Delta matching
--------------
Candidate detection (:meth:`LocalIndex.new_candidates`, once per NPER
tick for all subscriptions at once) is the hottest computation in the
simulator.  It is incremental and exact.  Stored boxes never change
(``add_mbr`` appends; a soft-state refresh is a new row), a
subscription's feature and radius never change, and a (query, stream)
match is reported once — so a (subscription, row) pair that fails at
one tick fails forever, and a tick only tests

* subscriptions already matched × rows added since the last tick, and
* subscriptions new since the last tick × every stored row.

:class:`DeltaMatcher` keeps the rows added since the last tick (in
arrival order) and which subscription objects it has matched.  Each of
the two products above is one ``subs × rows × dims`` broadcast of
``max(low−q, 0) + max(q−high, 0)`` over freshly stacked ``lows`` /
``highs`` arrays, cut into chunks of at most :data:`CHUNK_BYTES`.
Pairs whose largest clipped-distance component exceeds ε cannot
intersect the ball (the Euclidean norm of a non-negative vector is at
least its max component); only the survivors get the exact per-row
``sqrt(dot(d, d))``, which is bit-identical to the scalar
``MBR.mindist`` — so neither the batching nor the delta changes which
candidates match, their distances, or their order (streams come out in
store order).  No row arrays outlive a tick: kept between ticks they
cost 14 % more peak RSS on the write-heavy benchmark workload (see
PERFORMANCE.md §12).  The replica store of
:class:`~repro.core.replication.ReplicationManager` runs the same
kernel through its own matcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..perf import counters as _opc
from .mbr import MBR
from .protocol import InnerProductSubscribe, SimilaritySubscribe

__all__ = [
    "StoredMBR",
    "StoredSimilaritySub",
    "StoredInnerProductSub",
    "DeltaMatcher",
    "LocalIndex",
]

#: Largest kernel temporary, in bytes: a tick's ``subs × rows × dims``
#: float64 clipped-distance block is computed in chunks no larger.
CHUNK_BYTES = 1 << 20

#: Margin of the row-max prefilter: it absorbs the rounding of the
#: exact ``sqrt(dot(d, d))``, which can sit an ulp below the row max.
PREFILTER_MARGIN = 1e-9

#: ``(stream_id, distance)`` candidates of one query, in store order
Candidates = List[Tuple[str, float]]


@dataclass(slots=True)
class StoredMBR:
    """An MBR held by a data center until ``expires``."""

    mbr: MBR
    expires: float


@dataclass(slots=True)
class StoredSimilaritySub:
    """A similarity subscription installed at a range node."""

    sub: SimilaritySubscribe
    expires: float
    #: stream_ids already reported for this query by *this* node, to
    #: avoid re-reporting the same match every NPER tick
    reported: set = field(default_factory=set)


@dataclass(slots=True)
class StoredInnerProductSub:
    """An inner-product subscription installed at the stream's source."""

    sub: InnerProductSubscribe
    expires: float


class DeltaMatcher:
    """The detect step over one MBR store, testing each (sub, row) pair once.

    ``store`` maps stream id to its stored entries (anything with
    ``.mbr`` and ``.expires``); it is the source of truth and sets the
    output order.  While subscriptions exist, ``pending`` lists the
    entries added since the last :meth:`match` (in arrival order) and
    ``seen`` maps each query id to the subscription object that was
    matched against every row stored before them.  A distance is
    accepted when ``d <= radius + slack``.
    """

    __slots__ = ("store", "slack", "pending", "seen")

    def __init__(self, store: Dict[str, list], slack: float = 0.0) -> None:
        self.store = store
        self.slack = slack
        #: ``None`` while no subscription exists: nothing to track
        self.pending: Optional[list] = None
        self.seen: Dict[int, StoredSimilaritySub] = {}

    def added(self, entry) -> None:
        """Note an entry just added to the store."""
        if self.pending is not None:
            self.pending.append(entry)

    def removed(self, taken: List) -> None:
        """Note entries taken out of the store before they expired."""
        if self.pending and taken:
            gone = {id(e) for e in taken}
            self.pending = [e for e in self.pending if id(e) not in gone]

    def match(
        self, subs: List[StoredSimilaritySub], now: float
    ) -> List[Tuple[StoredSimilaritySub, Candidates]]:
        """One detect tick: each sub's new candidates, marked reported.

        Returns ``(stored, candidates)`` for every sub, in the given
        order.  A stream already in a sub's ``reported`` set is never a
        candidate again; the ones returned are added to it.
        """
        if not subs:
            self.pending = None
            self.seen = {}
            return []
        seen = self.seen
        old: List[int] = []
        new: List[int] = []
        for i, stored in enumerate(subs):
            (old if seen.get(stored.sub.query_id) is stored else new).append(i)
        found: List[Optional[Dict[str, float]]] = [None] * len(subs)
        if old and self.pending:
            self._scan(subs, old, self.pending, now, found)
        if new:
            rows = [e for entries in self.store.values() for e in entries]
            self._scan(subs, new, rows, now, found)
        self.pending = []
        if new or len(seen) != len(subs):
            self.seen = {s.sub.query_id: s for s in subs}
        rank: Optional[Dict[str, int]] = None
        out: List[Tuple[StoredSimilaritySub, Candidates]] = []
        for stored, hits in zip(subs, found):
            if not hits:
                out.append((stored, []))
                continue
            if rank is None:
                rank = {sid: r for r, sid in enumerate(self.store)}
            stored.reported.update(hits)
            out.append((stored, sorted(hits.items(), key=lambda kv: rank[kv[0]])))
        return out

    def _scan(
        self,
        subs: List[StoredSimilaritySub],
        group: List[int],
        rows: list,
        now: float,
        found: List[Optional[Dict[str, float]]],
    ) -> None:
        """Test ``subs[i]`` for each ``i`` in ``group`` against ``rows``."""
        chosen = [subs[i] for i in group]
        hits = self._kernel(
            rows,
            np.array([s.sub.feature for s in chosen], dtype=np.float64),
            np.array([s.sub.radius for s in chosen], dtype=np.float64),
            [s.reported for s in chosen],
            now,
        )
        for i, h in zip(group, hits):
            found[i] = h

    def probe(self, feature: np.ndarray, radius: float, now: float) -> Candidates:
        """One-shot scan of every row, with no reported-set bookkeeping."""
        rows = [e for entries in self.store.values() for e in entries]
        (hits,) = self._kernel(
            rows,
            np.asarray(feature, dtype=np.float64)[None, :],
            np.array([radius], dtype=np.float64),
            [()],
            now,
        )
        if not hits:
            return []
        rank = {sid: r for r, sid in enumerate(self.store)}
        return sorted(hits.items(), key=lambda kv: rank[kv[0]])

    def _kernel(
        self,
        rows: list,
        feats: np.ndarray,
        radii: np.ndarray,
        skips: Sequence,
        now: float,
    ) -> List[Optional[Dict[str, float]]]:
        """The kernel: best live distance per stream, for each query.

        Tests query ``j`` (``feats[j]``, ``radii[j]``) against the live
        entries of ``rows`` and returns ``{stream_id: best distance}``
        of the streams not in ``skips[j]`` that it matches (``None`` for
        no match) — exactly what the scalar loop over ``MBR.mindist``
        would: the clipped-distance block is the same elementwise
        arithmetic, the row-max prefilter only discards pairs whose
        distance provably exceeds the radius, and survivors get the
        identical per-row ``sqrt(dot(d, d))`` (``math.sqrt`` and
        ``np.sqrt`` are both the correctly rounded IEEE square root).
        """
        out: List[Optional[Dict[str, float]]] = [None] * len(feats)
        rows = [e for e in rows if e.expires > now]
        if not rows:
            return out
        lows = np.array([e.mbr.low for e in rows], dtype=np.float64)
        highs = np.array([e.mbr.high for e in rows], dtype=np.float64)
        cut = radii + PREFILTER_MARGIN
        accept = (radii + self.slack).tolist()
        row_bytes = 8 * lows.shape[1]
        row_step = max(1, CHUNK_BYTES // row_bytes)
        dot, sqrt = np.dot, math.sqrt
        c = _opc.ACTIVE
        for r0 in range(0, len(rows), row_step):
            lo = lows[r0 : r0 + row_step]
            hi = highs[r0 : r0 + row_step]
            sub_step = max(1, CHUNK_BYTES // (row_bytes * len(lo)))
            for s0 in range(0, len(feats), sub_step):
                q = feats[s0 : s0 + sub_step, None, :]
                delta = np.maximum(lo - q, 0.0)
                delta += np.maximum(q - hi, 0.0)
                ok = delta.max(axis=2) <= cut[s0 : s0 + sub_step, None]
                if c is not None:
                    c.inc("index.rows_scanned", ok.size)
                si, ri = np.nonzero(ok)
                if not len(si):
                    continue
                for s, r, dr in zip(si.tolist(), ri.tolist(), delta[si, ri]):
                    j = s0 + s
                    sid = rows[r0 + r].mbr.stream_id
                    if sid in skips[j]:
                        continue
                    d = sqrt(dot(dr, dr))
                    if c is not None:
                        c.inc("index.rows_exact")
                    if d <= accept[j]:
                        best = out[j]
                        if best is None:
                            out[j] = {sid: d}
                        elif sid not in best or d < best[sid]:
                            best[sid] = d
        return out


class LocalIndex:
    """All query-relevant state of one data center."""

    def __init__(self) -> None:
        self._mbrs: Dict[str, List[StoredMBR]] = {}
        self.similarity_subs: Dict[int, StoredSimilaritySub] = {}
        self.inner_product_subs: Dict[int, StoredInnerProductSub] = {}
        self.registry: Dict[str, int] = {}
        #: the detect step over the MBR store (module docstring)
        self._matcher = DeltaMatcher(self._mbrs)
        self._dims = 0

    # ------------------------------------------------------------------
    # MBR store
    # ------------------------------------------------------------------
    def add_mbr(self, mbr: MBR, expires: float) -> None:
        """Store a summary MBR until its lifespan ends.

        Every stored box has one dimensionality: a box that differs
        from the ones held is refused with ``ValueError``.
        """
        dims = len(mbr.low)
        if self._mbrs and dims != self._dims:
            raise ValueError(
                f"MBR of {dims} dimensions in a store of {self._dims}-dimensional MBRs"
            )
        self._dims = dims
        entry = StoredMBR(mbr, expires)
        entries = self._mbrs.get(mbr.stream_id)
        if entries is None:
            self._mbrs[mbr.stream_id] = [entry]
        else:
            entries.append(entry)
        self._matcher.added(entry)

    def take_mbrs(self, predicate) -> List[StoredMBR]:
        """Remove and return stored MBRs matching ``predicate(entry)``.

        Entries the predicate rejects stay untouched.  No system path
        calls it today (DESIGN.md §13); it is kept, with the delta
        matcher mirroring it, because the reference benchmark's tracer
        wraps it by name.
        """
        taken: List[StoredMBR] = []
        for sid in list(self._mbrs):
            kept = [e for e in self._mbrs[sid] if not predicate(e)]
            if len(kept) != len(self._mbrs[sid]):
                taken.extend(e for e in self._mbrs[sid] if predicate(e))
                if kept:
                    self._mbrs[sid] = kept
                else:
                    del self._mbrs[sid]
        self._matcher.removed(taken)
        return taken

    def mbr_count(self, now: Optional[float] = None) -> int:
        """Number of stored (live, if ``now`` given) MBRs."""
        if now is None:
            return sum(len(v) for v in self._mbrs.values())
        return sum(1 for _ in self.live_mbrs(now))

    def live_mbrs(self, now: float) -> Iterator[StoredMBR]:
        """Iterate non-expired MBRs (does not purge)."""
        for entries in self._mbrs.values():
            for e in entries:
                if e.expires > now:
                    yield e

    def purge(self, now: float) -> int:
        """Drop expired MBRs and subscriptions; return how many went."""
        dropped = 0
        for sid in list(self._mbrs):
            kept = [e for e in self._mbrs[sid] if e.expires > now]
            if len(kept) != len(self._mbrs[sid]):
                dropped += len(self._mbrs[sid]) - len(kept)
            if kept:
                self._mbrs[sid] = kept
            else:
                del self._mbrs[sid]
        for qid in list(self.similarity_subs):
            if self.similarity_subs[qid].expires <= now:
                del self.similarity_subs[qid]
                dropped += 1
        for qid in list(self.inner_product_subs):
            if self.inner_product_subs[qid].expires <= now:
                del self.inner_product_subs[qid]
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def add_similarity_sub(self, sub: SimilaritySubscribe, expires: float) -> None:
        """Install (or refresh) a similarity subscription.

        A refresh keeps the ``reported`` bookkeeping (so soft-state
        re-disseminations don't cause re-reports of known matches) and
        never shortens the remaining lifetime.  A refresh that changes
        the feature or radius makes the sub new to the delta matcher,
        so it is tested against every stored row again.
        """
        cur = self.similarity_subs.get(sub.query_id)
        if cur is None:
            self.similarity_subs[sub.query_id] = StoredSimilaritySub(sub, expires)
            return
        expires = max(cur.expires, expires)
        if cur.sub.radius != sub.radius or (
            cur.sub.feature is not sub.feature
            and not np.array_equal(cur.sub.feature, sub.feature)
        ):
            self.similarity_subs[sub.query_id] = StoredSimilaritySub(sub, expires, cur.reported)
            return
        cur.sub = sub
        cur.expires = expires

    def add_inner_product_sub(self, sub: InnerProductSubscribe, expires: float) -> None:
        """Install an inner-product subscription at the source node."""
        self.inner_product_subs[sub.query.query_id] = StoredInnerProductSub(sub, expires)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def new_candidates(self, now: float) -> List[Tuple[StoredSimilaritySub, Candidates]]:
        """The detect step: every sub's not-yet-reported candidates.

        Returns ``(stored, [(stream_id, mindist), ...])`` for every
        similarity subscription, in ``similarity_subs`` order, and marks
        the returned streams reported so each (node, query, stream)
        match is forwarded at most once — matching the paper's
        "detected similarities" semantics where the middle node
        aggregates distinct candidates.
        """
        return self._matcher.match(list(self.similarity_subs.values()), now)

    def probe(self, feature: np.ndarray, radius: float, now: float) -> Candidates:
        """One-shot candidate scan (no reported-set bookkeeping)."""
        return self._matcher.probe(feature, radius, now)
