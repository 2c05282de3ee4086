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
the two products above is one broadcast over freshly stacked rows, laid
out dims first (``(2, dims, rows)`` bounds against ``(2, dims, subs)``
query planes) and cut into chunks of at most :data:`CHUNK_BYTES`; no
Python runs per pair or per survivor.  A prefilter keeps the pairs
whose largest ``low − q`` or ``q − high`` term is within ε (the
Euclidean norm of the clipped-distance vector is at least its largest
component, which is at least that term); the survivors' clipped
distances are gathered into one contiguous array and get
``sqrt(vecdot(d, d))``, whose inner loop is the same BLAS dot as the
scalar ``MBR.mindist`` — so neither the batching nor the delta changes
which candidates match or their distances.  The best distance per
(query, stream) is taken in numpy, and Python touches only the distinct
accepted pairs, to skip the ones already reported and to build the
candidate lists (streams in store order).  No row arrays outlive a
tick: kept between ticks they cost 14 % more peak RSS on the
write-heavy benchmark workload (see PERFORMANCE.md §12).  The replica
store of :class:`~repro.core.replication.ReplicationManager` runs the
same kernel through its own matcher.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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

#: Largest kernel temporary, in bytes: a tick's ``2 × dims × subs ×
#: rows`` float64 block of ``low − q`` and ``q − high`` terms is
#: computed in chunks no larger.
CHUNK_BYTES = 1 << 20

#: Margin of the prefilter: it absorbs the rounding of the exact
#: ``sqrt(dot(d, d))``, which can sit an ulp below the largest term.
PREFILTER_MARGIN = 1e-9

#: ``(stream_id, distance)`` candidates of one query, in store order
Candidates = List[Tuple[str, float]]

#: rows to test: bounds from :func:`_rows` and their streams' store ranks
Rows = Tuple[np.ndarray, Callable[[], np.ndarray]]


@dataclass(slots=True)
class StoredMBR:
    """An MBR held by a data center until ``expires``."""

    mbr: MBR
    expires: float


@dataclass(slots=True, eq=False)
class StoredSimilaritySub:
    """A similarity subscription installed at a range node.

    Compared and hashed by identity: the delta matcher tells the subs it
    has tested from new ones by object.
    """

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
    ``seen`` holds the subscription objects of the last match, each
    tested against every row stored before it.  A distance is accepted
    when ``d <= radius + slack``.  Entries enter the store through
    :meth:`added` and expired ones leave it through :meth:`purge`, so
    the matcher knows when no stored row can have expired: no entry
    kept by the last purge expires by ``purged_at``, and none added
    since expires before ``next_expiry``.
    """

    __slots__ = ("store", "slack", "pending", "seen", "purged_at", "next_expiry")

    def __init__(self, store: Dict[str, list], slack: float = 0.0) -> None:
        self.store = store
        self.slack = slack
        #: ``None`` while no subscription exists: nothing to track
        self.pending: Optional[list] = None
        self.seen: List[StoredSimilaritySub] = []
        self.purged_at = math.inf
        self.next_expiry = math.inf

    def added(self, entry) -> None:
        """Note an entry just added to the store."""
        if entry.expires < self.next_expiry:
            self.next_expiry = entry.expires
        if self.pending is not None:
            self.pending.append(entry)

    def removed(self, taken: List) -> None:
        """Note entries taken out of the store before they expired."""
        if self.pending and taken:
            gone = {id(e) for e in taken}
            self.pending = [e for e in self.pending if id(e) not in gone]

    def purge(self, now: float) -> int:
        """Drop the stored entries expired at ``now``; return how many went.

        Only a list that holds an expired entry is rebuilt.
        """
        store = self.store
        dropped = 0
        for sid, entries in list(store.items()):
            kept = [e for e in entries if e.expires > now]
            if len(kept) != len(entries):
                dropped += len(entries) - len(kept)
                if kept:
                    store[sid] = kept
                else:
                    del store[sid]
        self.purged_at = now
        self.next_expiry = math.inf
        return dropped

    def match(
        self, subs: List[StoredSimilaritySub], now: float
    ) -> List[Tuple[StoredSimilaritySub, Candidates]]:
        """One detect tick: each sub's new candidates, marked reported.

        Returns ``(stored, candidates)`` for every sub, in the given
        order.  A stream already in a sub's ``reported`` set is never a
        candidate again; the ones returned are added to it.
        """
        last, self.seen = self.seen, list(subs)
        if not subs:
            self.pending = None
            return []
        if len(last) == len(subs) and all(map(operator.is_, subs, last)):
            old, new = range(len(subs)), []
        else:
            known = list(map(set(last).__contains__, subs))
            old = list(compress(range(len(subs)), known))
            new = list(compress(range(len(subs)), map(operator.not_, known)))
        found = []
        if self.pending and old:
            found.append(self._scan(self._pending_rows(now), subs, old))
        if new:
            found.append(self._scan(self._stored_rows(now), subs, new))
        found = [hit for hit in found if hit is not None]
        self.pending = []
        out = [(stored, []) for stored in subs]
        if found:
            sids = list(self.store)
            for j, c, d in self._best(found, len(sids)):
                sid = sids[c]
                stored, hits = out[j]
                if sid not in stored.reported:
                    stored.reported.add(sid)
                    hits.append((sid, d))
        return out

    def probe(self, feature: np.ndarray, radius: float, now: float) -> Candidates:
        """One-shot scan of every row, with no reported-set bookkeeping."""
        rows = self._stored_rows(now)
        if rows is None:
            return []
        bounds, codes = rows
        feats = np.asarray(feature, dtype=np.float64)[None, :]
        _, r, dist = self._kernel(bounds, _planes(feats), np.array([radius], dtype=np.float64))
        if not len(r):
            return []
        sids = list(self.store)
        found = (np.zeros_like(r), codes()[r], dist)
        return [(sids[c], d) for _, c, d in self._best([found], len(sids))]

    def _stored_rows(self, now: float) -> Optional[Rows]:
        """Every live stored row, in store order: see :meth:`_scan`."""
        lists = self.store.values()
        bounds = [e.mbr.bounds for entries in lists for e in entries]
        if not bounds:
            return None
        lens = list(map(len, lists))
        live = None
        if now > self.purged_at or now >= self.next_expiry:
            live = np.array([e.expires for entries in lists for e in entries]) > now

        def codes() -> np.ndarray:
            ranks = np.repeat(np.arange(len(lens)), lens)
            return ranks if live is None else ranks[live]

        stacked = _rows(bounds)
        return (stacked if live is None else stacked[:, :, live]), codes

    def _pending_rows(self, now: float) -> Optional[Rows]:
        """The live rows added since the last tick: see :meth:`_scan`."""
        rows = [e for e in self.pending if e.expires > now]
        if not rows:
            return None

        def codes() -> np.ndarray:
            rank = {sid: r for r, sid in enumerate(self.store)}
            return np.array([rank[e.mbr.stream_id] for e in rows], dtype=np.intp)

        return _rows([e.mbr.bounds for e in rows]), codes

    def _scan(
        self, rows: Optional[Rows], subs: List[StoredSimilaritySub], group: Sequence[int]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Test ``subs[j]`` for each ``j`` in ``group`` against ``rows``.

        ``rows`` is ``(bounds, codes)``: the rows' bounds as from
        :func:`_rows`, and a function giving the store rank of each
        row's stream (called only once a pair is accepted); ``None`` is
        no rows.  Returns ``(j, code, distance)`` of every accepted
        pair, or ``None``.
        """
        if rows is None:
            return None
        bounds, codes = rows
        chosen = [subs[j].sub for j in group]
        feats = np.array([q.feature for q in chosen], dtype=np.float64)
        radii = np.array([q.radius for q in chosen], dtype=np.float64)
        s, r, dist = self._kernel(bounds, _planes(feats), radii)
        if not len(s):
            return None
        return np.asarray(group)[s], codes()[r], dist

    def _kernel(
        self, bounds: np.ndarray, planes: np.ndarray, radii: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel: ``(sub, row, distance)`` of every accepted pair.

        Tests query ``j`` (``planes[:, :, j]`` from :func:`_planes`,
        ``radii[j]``) against row ``r`` (``bounds[:, :, r]`` from
        :func:`_rows`) and accepts the pair whose MINDIST is at most
        ``radii[j] + slack``, exactly as the scalar ``MBR.mindist``
        would.  One broadcast add gives every pair's ``low − q`` and
        ``q − high`` (as ``low + (−q)`` and ``(−high) + q``, which IEEE
        arithmetic rounds identically), laid out with the longer of subs
        and rows last, so that each ufunc's inner loop runs along it.
        The prefilter keeps a pair when the largest of those ``2·dims``
        terms is within ``radius + PREFILTER_MARGIN``: that term is at
        most the pair's largest clipped distance, which is at most its
        MINDIST, so no match is lost.  Only the survivors are clipped,
        ``max(low−q, 0) + max(q−high, 0)``, into one contiguous
        ``(survivors, dims)`` array, and get ``sqrt(vecdot(d, d))``: its
        inner loop is the same BLAS dot as the scalar ``dot(d, d)``, so
        every distance is bit-identical.
        """
        dims, n_subs = planes.shape[1:]
        cut = radii + PREFILTER_MARGIN
        accept = radii + self.slack
        pair_bytes = 16 * dims
        row_step = max(1, CHUNK_BYTES // pair_bytes)
        c = _opc.ACTIVE
        hits: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for r0 in range(0, bounds.shape[2], row_step):
            b = bounds[:, :, r0 : r0 + row_step]
            n_rows = b.shape[2]
            sub_step = max(1, CHUNK_BYTES // (pair_bytes * n_rows))
            for s0 in range(0, n_subs, sub_step):
                q = planes[:, :, s0 : s0 + sub_step]
                rows_last = n_rows >= q.shape[2]
                if rows_last:  # (2, dims, subs, rows)
                    terms = b[:, :, None, :] + q[:, :, :, None]
                    bound = cut[s0 : s0 + sub_step, None]
                else:  # (2, dims, rows, subs)
                    terms = b[:, :, :, None] + q[:, :, None, :]
                    bound = cut[None, s0 : s0 + sub_step]
                ok = np.maximum.reduce(terms, axis=(0, 1)) <= bound
                idx = ok.ravel().nonzero()[0]
                if c is not None:
                    c.inc("index.rows_scanned", ok.size)
                    c.inc("index.rows_exact", len(idx))
                if not len(idx):
                    continue
                # (survivors, 2, dims), C order
                part = terms.reshape(2 * dims, -1).T[idx].reshape(-1, 2, dims)
                np.maximum(part, 0.0, out=part)
                delta = np.add.reduce(part, axis=1)
                dist = np.sqrt(np.vecdot(delta, delta))
                x, y = np.divmod(idx, ok.shape[1])
                si, ri = (x, y) if rows_last else (y, x)
                if s0:
                    si += s0
                if r0:
                    ri += r0
                keep = dist <= accept[si]
                hits.append((si[keep], ri[keep], dist[keep]))
        if not hits:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty, np.zeros(0)
        if len(hits) == 1:
            return hits[0]
        s, r, d = zip(*hits)
        return np.concatenate(s), np.concatenate(r), np.concatenate(d)

    @staticmethod
    def _best(found: list, n_codes: int) -> Iterator[Tuple[int, int, float]]:
        """``(j, code, distance)``: each accepted pair's best distance.

        ``found`` holds one or more :meth:`_scan` results.  One triple
        per distinct (query, stream), ordered by query, then by stream
        rank.
        """
        j, c, d = found[0] if len(found) == 1 else (np.concatenate(x) for x in zip(*found))
        key = j * n_codes + c
        order = np.lexsort((d, key))
        key, d = key[order], d[order]
        first = np.empty(len(key), dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        j, c = np.divmod(key[first], n_codes)
        return zip(j.tolist(), c.tolist(), d[first].tolist())


#: plane signs: rows stack as ``low``, ``−high`` and queries as ``−q``, ``q``
#: (a product with ±1 is exact, so ``low + (−q)`` is ``low − q``)
_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _rows(bounds: List[np.ndarray]) -> np.ndarray:
    """Stack rows' ``(2, dims)`` bounds as one ``(2, dims, rows)`` array.

    The planes are ``low`` and ``−high``, dims first.  Joining the
    arrays' bytes reads each one through the buffer protocol, with no
    Python per row; every MBR's bounds are a C-contiguous float64 array.
    """
    rows = np.frombuffer(b"".join(bounds), dtype=np.float64).reshape(len(bounds), 2, -1)
    return np.multiply(rows.transpose(1, 2, 0), _SIGNS, order="C")


def _planes(feats: np.ndarray) -> np.ndarray:
    """Queries' ``(n, dims)`` features as ``(2, dims, n)`` planes ``−q``, ``q``."""
    return np.multiply(feats.T, -_SIGNS, order="C")


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
        #: heap of ``(expires, query_id)``: every similarity sub has an
        #: entry no later than its expiry (a refresh is re-armed by purge)
        self._sub_expiry: List[Tuple[float, int]] = []

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
        dropped = self._matcher.purge(now)
        subs = self.similarity_subs
        heap = self._sub_expiry
        while heap and heap[0][0] <= now:
            _, qid = heapq.heappop(heap)
            stored = subs.get(qid)
            if stored is None:
                continue
            if stored.expires <= now:
                del subs[qid]
                dropped += 1
            else:  # refreshed since the entry was pushed
                heapq.heappush(heap, (stored.expires, qid))
        ips = self.inner_product_subs
        for qid in [qid for qid, stored in ips.items() if stored.expires <= now]:
            del ips[qid]
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
            heapq.heappush(self._sub_expiry, (expires, sub.query_id))
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
