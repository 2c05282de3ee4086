"""Asyncio peer process: the middleware's protocol brain over real sockets.

``python -m repro node --listen host:port [--join host:port]`` boots one
:class:`PeerNode` — an unchanged :class:`~repro.core.runtime.NodeRuntime`
(dispatch, reliability, the Fig. 5 and Sec. VI-B role services) whose
:class:`AsyncioTransport` sends each overlay message as one binary
frame (:mod:`repro.net.wire`) over TCP instead of simulated hops.

Architecture (DESIGN.md §12):

* **Full-membership mesh, one-hop content routing.**  Every peer keeps a
  local :class:`~repro.chord.ring.ChordRing` mirror of the membership
  (peers are named ``dc-0``, ``dc-1``, … so Chord identifiers match the
  sim reference exactly) and routes each message in a single TCP hop to
  the owner of its destination key.  Range multicast reuses the *same*
  :class:`~repro.core.multicast.RangeMulticast` walk logic over
  successor/predecessor edges of the mirror, with the transport itself
  as the fabric it walks.
* **Gossip-free membership.**  A newcomer sends ``join`` to its contact;
  the contact answers ``welcome`` (the full member list) and broadcasts
  ``peer-joined``; a departing peer broadcasts ``leave`` on SIGINT /
  SIGTERM.  Adequate for a LAN-scale cluster demo, deliberately simpler
  than the sim's stabilizer.
* **One writer per destination.**  Frames to a peer queue in that
  peer's bounded buffer (:data:`SEND_BUFFER_BYTES`) and one task per
  destination writes everything queued since it last ran — all the
  frames of one event-loop turn — in a single ``write``.  A neighbour
  that stops reading holds up only its own buffer: its connect and
  drain are bounded (:data:`CONNECT_TIMEOUT_S`, :data:`DRAIN_TIMEOUT_S`)
  and what overflows or is given up is counted in ``dropped_frames``.
  That is the lossy fabric the protocol already assumes (DESIGN.md §6):
  the reliable layer retransmits, soft state is refreshed or expires
  and is re-published.
* **Clients are not ring members.**  ``python -m repro client`` opens a
  short-lived connection and speaks the RPC frames (``publish``,
  ``query``, ``results``, ``status``) handled at the bottom of this
  module.

Determinism boundary: everything in this module runs on the wall clock
and real sockets, so it lives outside the simulator's byte-identity
contract (and outside simlint's D002 wall-clock ban).  The protocol
brain above the seam cannot tell the difference — that is the point.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..chord.node import ChordNode
from ..chord.ring import ChordRing
from ..core.config import MiddlewareConfig
from ..core.mapping import LinearKeyMapper
from ..core.multicast import RangeMulticast
from ..core.placement import ContentPlacement
from ..core.queries import SimilarityQuery
from ..core.runtime import NodeRuntime
from ..sim.network import Message, MessageStats
from ..sim.rng import RngRegistry
from . import wire

__all__ = ["AsyncioTransport", "PeerNode", "PeerSystem", "run_node", "request"]

Addr = Tuple[str, int]

#: Seconds a TCP connect may take before it is abandoned, so a
#: blackholed neighbour costs its queued frames, not the OS timeout.
CONNECT_TIMEOUT_S = 5.0

#: Seconds a write may wait for a neighbour to take it (``drain``)
#: before the connection is given up as stalled and aborted.
DRAIN_TIMEOUT_S = 5.0

#: Bytes of frames one destination may have queued behind its writer
#: task; a frame that does not fit is dropped and counted.
SEND_BUFFER_BYTES = 4 * 1024 * 1024


class _Link:
    """The send side of one destination: a frame buffer and its writer.

    ``ready`` is set while frames wait; ``idle`` is set while nothing is
    queued or being written (what a graceful stop waits for).
    """

    __slots__ = ("addr", "frames", "size", "ready", "idle", "task", "writer")

    def __init__(self, addr: Addr) -> None:
        self.addr = addr
        self.frames: List[bytes] = []
        self.size = 0
        self.ready = asyncio.Event()
        self.idle = asyncio.Event()
        self.idle.set()
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None


class AsyncioTransport:
    """The :class:`~repro.net.transport.Transport` surface over asyncio.

    Wall clock (``loop.time()`` in ms), ``loop.call_later`` timers, and
    one-hop framed-socket sends over the full-membership mesh.  It is
    also the fabric its :class:`RangeMulticast` walks (``ring``,
    ``route``, ``send_direct``), with the delivery semantics of
    :class:`~repro.chord.dht.DhtOverlay` — local deliveries synchronous,
    ``msg.kind`` as sent — except that every remote leg is one TCP frame
    to the responsible peer instead of a chain of simulated hops.  Owns
    a private :class:`MessageStats` so role services account exactly as
    they do in the sim.
    """

    def __init__(self, peer: "PeerNode") -> None:
        self._peer = peer
        self._multicast = RangeMulticast(self, peer.config.multicast)
        self._stats = MessageStats()

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        return self._peer.loop.time() * 1000.0

    def schedule(self, delay_ms: float, fn: Callable[..., None], *args: Any):
        return self._peer.loop.call_later(max(0.0, delay_ms) / 1000.0, fn, *args)

    # -- observability -------------------------------------------------
    @property
    def stats(self) -> MessageStats:
        return self._stats

    @property
    def tracer(self) -> None:
        return None

    # -- send primitives -----------------------------------------------
    @property
    def ring(self) -> ChordRing:
        """The peer's membership mirror (what range multicast walks)."""
        return self._peer.ring

    def route(self, node, msg, *, transit_kind, on_delivered=None) -> None:
        del transit_kind  # one-hop mesh: nothing travels in transit
        owner = self._peer.ring.successor_of_key(msg.dest_key)
        self.send_direct(node, owner, msg, on_delivered=on_delivered)

    def send_direct(self, node, target, msg, *, on_delivered=None) -> None:
        if msg.born == 0.0:
            msg.born = self.now
        if target.node_id == self._peer.node.node_id:
            # local delivery is synchronous and free, as in the sim
            self.deliver_local(msg)
            if on_delivered is not None:
                on_delivered(target, msg)
            return
        # remote completion callbacks would need an app-level reply;
        # nothing in the middleware uses them on remote legs
        msg.hops += 1
        self._stats.record_send(node.node_id, msg.kind)
        self._peer.send_message(target, msg)

    def disseminate(
        self, node, payload, *, kind, transit_kind, low_key, high_key, on_delivered=None
    ) -> Message:
        return self._multicast.disseminate(
            node,
            payload,
            kind=kind,
            transit_kind=transit_kind,
            low_key=low_key,
            high_key=high_key,
            on_delivered=on_delivered,
        )

    def continue_span(self, node, msg, *, low_key, high_key, span_kind) -> int:
        return self._multicast.continue_span(
            node, msg, low_key=low_key, high_key=high_key, span_kind=span_kind
        )

    # -- ingress -------------------------------------------------------
    def deliver_local(self, msg: Message) -> None:
        """Hand a message (local send or decoded frame) to the app."""
        self._stats.record_delivery(msg, self.now)
        self._peer.app.deliver(self._peer.node, msg)


class PeerSystem:
    """The slice of ``StreamIndexSystem`` a socket-backed node needs.

    :class:`~repro.core.runtime.NodeRuntime` and the role services read
    ``config`` / ``transport`` / ``rngs`` / ``placement`` / ``mapper`` /
    ``ring`` (this peer's membership mirror) from their system;
    everything else they consume goes through the Transport seam.
    """

    def __init__(self, peer: "PeerNode", seed: int = 0) -> None:
        self._peer = peer
        self.config = peer.config
        self.transport = peer.transport
        self.rngs = RngRegistry(seed)
        self.mapper = LinearKeyMapper(peer.ring.space)
        self.placement = ContentPlacement(self)
        self.ring = peer.ring

    def _node_alive(self, node_id: int) -> bool:
        return node_id in self._peer.ring.node_ids


class PeerNode:
    """One OS-process data center: server, membership, app, transport."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        config: Optional[MiddlewareConfig] = None,
        *,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.config = config if config is not None else MiddlewareConfig()
        if self.config.m > 63:
            raise ValueError(
                f"m={self.config.m}: the wire carries ring identifiers as int64, "
                "so a socket peer needs m <= 63"
            )
        self.ring = ChordRing(m=self.config.m)
        self.node = self.ring.create_node(name)
        self.ring.build()
        #: member name -> (host, port); always includes ourselves
        self.members: Dict[str, Addr] = {name: (host, port)}
        self._node_by_name: Dict[str, ChordNode] = {name: self.node}
        #: ring identifier -> address, for every member
        self._addr_of: Dict[int, Addr] = {self.node.node_id: (host, port)}
        self.transport = AsyncioTransport(self)
        self.system = PeerSystem(self, seed=seed)
        self.app = NodeRuntime(self.node, self.system)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._links: Dict[Addr, _Link] = {}
        #: every connection-serving and link-writer task still running
        self._tasks: set = set()
        self._tick_handle = None
        self._refresh_handle = None
        self._stopping = asyncio.Event()
        self._stream_feed: Dict[str, Deque[float]] = {}
        #: well-framed frames dropped as undecodable or malformed
        self.bad_frames = 0
        #: outgoing frames given up: buffer overflow, failed connect or drain
        self.dropped_frames = 0
        self.log: Callable[[str], None] = lambda line: print(
            line, file=sys.stderr, flush=True
        )

    # ------------------------------------------------------------------
    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        return self._loop

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _adopt_members(self, entries: List[List[Any]]) -> None:
        """Merge ``[name, host, port]`` rows and rebuild the ring mirror."""
        changed = False
        for name, host, port in entries:
            addr = (str(host), int(port))
            if self.members.get(name) != addr:
                self.members[name] = addr
                changed = True
            if name not in self._node_by_name:
                self._node_by_name[name] = self.ring.create_node(name)
            self._addr_of[self._node_by_name[name].node_id] = addr
        if changed or len(self._node_by_name) != len(self.ring):
            self.ring.build()

    def _drop_member(self, name: str) -> None:
        if name == self.name or name not in self.members:
            return
        addr = self.members.pop(name)
        node = self._node_by_name.pop(name)
        del self._addr_of[node.node_id]
        self.ring.remove(node)
        self.ring.build()
        link = self._links.pop(addr, None)
        if link is not None:
            link.task.cancel()  # its finally closes the connection
        self.log(f"[{self.name}] member {name} left ({len(self.members)} remain)")

    def _member_rows(self) -> List[List[Any]]:
        return [
            [name, host, port]
            for name, (host, port) in sorted(self.members.items())
        ]

    def _broadcast(self, obj: Dict[str, Any], *, exclude: Tuple[str, ...] = ()) -> None:
        for name, addr in self.members.items():
            if name == self.name or name in exclude:
                continue
            self.send_control(addr, obj)

    # ------------------------------------------------------------------
    # egress
    # ------------------------------------------------------------------
    def send_control(self, addr: Addr, obj: Dict[str, Any]) -> None:
        self._queue(addr, wire.encode_frame(obj))

    def send_message(self, dst: ChordNode, msg: Message) -> None:
        addr = self._addr_of.get(dst.node_id)
        if addr is None:
            self.log(f"[{self.name}] no address for node {dst.node_id}; dropped")
            return
        self._queue(addr, wire.encode_frame(wire.encode_message(msg)))

    def _queue(self, addr: Addr, frame: bytes) -> None:
        link = self._links.get(addr)
        if link is None:
            link = self._links[addr] = _Link(addr)
            link.task = self.loop.create_task(
                self._run_link(link), name=f"{self.name} -> {addr[0]}:{addr[1]}"
            )
            self._tasks.add(link.task)
            link.task.add_done_callback(self._tasks.discard)
        if link.size + len(frame) > SEND_BUFFER_BYTES:
            self.dropped_frames += 1
            return
        link.frames.append(frame)
        link.size += len(frame)
        link.idle.clear()
        link.ready.set()

    async def _run_link(self, link: _Link) -> None:
        """Writer task of one destination: one ``write`` per wake-up."""
        try:
            while True:
                await link.ready.wait()
                link.ready.clear()
                batch, link.frames, link.size = link.frames, [], 0
                try:
                    await self._write(link, b"".join(batch))
                except (OSError, asyncio.TimeoutError) as exc:
                    # lossy fabric semantics: the reliable layer retries,
                    # soft-state refresh heals the rest (a timeout is not
                    # an OSError before Python 3.11)
                    self.dropped_frames += len(batch)
                    if link.writer is not None:
                        link.writer.transport.abort()
                        link.writer = None
                    self.log(f"[{self.name}] send to {link.addr} failed: {exc!r}")
                if not link.frames:
                    link.idle.set()
        finally:
            if link.writer is not None:
                if link.writer.transport.get_write_buffer_size():
                    link.writer.transport.abort()  # a stalled reader
                else:
                    link.writer.close()

    async def _write(self, link: _Link, data: bytes) -> None:
        writer = link.writer
        if writer is None or writer.is_closing():
            _reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*link.addr), CONNECT_TIMEOUT_S
            )
            link.writer = writer
        writer.write(data)
        # drain() returns at once below the high-water mark; only wrap it
        # in a timeout (a task per call before Python 3.12) above it
        transport = writer.transport
        if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[1]:
            await asyncio.wait_for(writer.drain(), DRAIN_TIMEOUT_S)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = wire.FrameDecoder()
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for frame in decoder.feed(data):
                    try:
                        self._on_frame(frame, writer)
                    except (KeyError, TypeError, AttributeError, ValueError) as exc:
                        # a valid frame with garbage content: drop it,
                        # keep the connection (WireError is a ValueError)
                        self.bad_frames += 1
                        self.log(f"[{self.name}] dropped bad frame: {exc!r}")
        except asyncio.CancelledError:
            return  # node shutting down: close quietly
        except (OSError, wire.WireError) as exc:
            self.log(f"[{self.name}] connection error: {exc}")
        finally:
            writer.close()

    def _on_frame(self, frame: wire.Frame, writer: asyncio.StreamWriter) -> None:
        if isinstance(frame, bytes):
            self.transport.deliver_local(wire.decode_message(frame))
            return
        obj = frame
        kind = obj.get("t")
        if kind == "join":
            newcomer = obj["name"]
            self._adopt_members([[newcomer, obj["host"], obj["port"]]])
            self.log(f"[{self.name}] {newcomer} joined ({len(self.members)} members)")
            reply = {"t": "welcome", "members": self._member_rows(), "m": self.config.m}
            writer.write(wire.encode_frame(reply))
            self._broadcast(
                {"t": "peer-joined", "name": newcomer, "host": obj["host"], "port": obj["port"]},
                exclude=(newcomer,),
            )
        elif kind == "peer-joined":
            self._adopt_members([[obj["name"], obj["host"], obj["port"]]])
        elif kind == "leave":
            self._drop_member(obj["name"])
        elif kind in ("publish", "query", "results", "status"):
            writer.write(wire.encode_frame(self._client_rpc(kind, obj)))
        else:
            raise wire.WireError(f"unknown control frame type {kind!r}")

    # ------------------------------------------------------------------
    # client RPC surface
    # ------------------------------------------------------------------
    def _client_rpc(self, kind: str, obj: Dict[str, Any]) -> Dict[str, Any]:
        try:
            if kind == "publish":
                sid = str(obj["stream_id"])
                values = [float(v) for v in obj["values"]]
                feed = self._stream_feed.get(sid)
                if feed is None:
                    feed = self._stream_feed[sid] = deque()
                    self.app.attach_stream(sid, feed.popleft)
                feed.extend(values)
                for _ in range(len(values)):
                    self.app.on_stream_value(sid)
                return {"t": "ok", "stream_id": sid, "ingested": len(values)}
            if kind == "query":
                query = SimilarityQuery(
                    pattern=np.asarray(obj["pattern"], dtype=float),
                    radius=float(obj["radius"]),
                    lifespan_ms=float(obj.get("lifespan_ms", 60_000.0)),
                )
                qid = self.app.post_similarity_query(query)
                return {"t": "ok", "query_id": qid}
            if kind == "results":
                qid = int(obj["query_id"])
                matches = self.app.similarity_results.get(qid, [])
                return {
                    "t": "results",
                    "query_id": qid,
                    "matches": sorted(
                        {m.stream_id: round(m.distance_bound, 9) for m in matches}.items()
                    ),
                }
            # status
            return {
                "t": "status",
                "name": self.name,
                "node_id": self.node.node_id,
                "members": self._member_rows(),
                "held": sorted(self.app.index._mbrs.keys()),
                "streams": sorted(self.app.sources.keys()),
                "bad_frames": self.bad_frames,
                "dropped_frames": self.dropped_frames,
            }
        except Exception as exc:  # RPC errors go back to the client
            return {"t": "error", "error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    # periodic ticks
    # ------------------------------------------------------------------
    def _notification_tick(self) -> None:
        self.app.on_notification_tick()
        self._tick_handle = self.loop.call_later(
            self.config.workload.nper_ms / 1000.0, self._notification_tick
        )

    def _refresh_tick(self) -> None:
        self.app.on_refresh_tick()
        self._refresh_handle = self.loop.call_later(
            self.config.refresh_period_ms / 1000.0, self._refresh_tick
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, join: Optional[Addr] = None) -> None:
        """Bind the listener, optionally join a cluster, start ticks."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.port = bound[1]
        self.members[self.name] = (self.host, self.port)
        self._addr_of[self.node.node_id] = (self.host, self.port)
        if join is not None:
            await self._join_cluster(join)
        self._tick_handle = self.loop.call_later(
            self.config.workload.nper_ms / 1000.0, self._notification_tick
        )
        if self.config.refresh_period_ms > 0:
            self._refresh_handle = self.loop.call_later(
                self.config.refresh_period_ms / 1000.0, self._refresh_tick
            )
        self.log(
            f"[{self.name}] node {self.node.node_id} listening on "
            f"{self.host}:{self.port}"
        )

    async def _join_cluster(self, contact: Addr) -> None:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(*contact), CONNECT_TIMEOUT_S
        )
        writer.write(
            wire.encode_frame(
                {"t": "join", "name": self.name, "host": self.host, "port": self.port}
            )
        )
        await writer.drain()
        decoder = wire.FrameDecoder()
        while True:
            data = await reader.read(65536)
            if not data:
                raise ConnectionError(f"contact {contact} closed during join")
            frames = decoder.feed(data)
            if frames:
                welcome = frames[0]
                break
        writer.close()
        if welcome.get("t") != "welcome":
            raise ConnectionError(f"unexpected join reply {welcome.get('t')!r}")
        if welcome.get("m") != self.config.m:
            raise ConnectionError(
                f"ring size mismatch: contact m={welcome.get('m')}, ours {self.config.m}"
            )
        self._adopt_members(welcome["members"])
        self.log(f"[{self.name}] joined cluster of {len(self.members)}")

    async def stop(self, *, announce: bool = True) -> None:
        """Graceful depart: broadcast leave, flush, tear down."""
        if announce and len(self.members) > 1:
            self._broadcast({"t": "leave", "name": self.name})
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*(link.idle.wait() for link in self._links.values())),
                    timeout=0.1,
                )
            await asyncio.sleep(0.05)  # let writes flush
        for handle in (self._tick_handle, self._refresh_handle):
            if handle is not None:
                handle.cancel()
        self._links.clear()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopping.set()

    async def serve_forever(self, join: Optional[Addr] = None) -> None:
        await self.start(join)
        stop_requested = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                self.loop.add_signal_handler(signum, stop_requested.set)
        await stop_requested.wait()
        self.log(f"[{self.name}] departing")
        await self.stop()


# ----------------------------------------------------------------------
# CLI entry points (used by ``repro node`` / ``repro client``)
# ----------------------------------------------------------------------
def parse_addr(text: str) -> Addr:
    """``host:port`` -> tuple; host defaults to 127.0.0.1."""
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def run_node(
    listen: str,
    *,
    join: Optional[str] = None,
    name: str,
    config: Optional[MiddlewareConfig] = None,
    seed: int = 0,
) -> int:
    """Blocking entry point behind ``python -m repro node``."""
    host, port = parse_addr(listen)
    peer = PeerNode(name, host, port, config, seed=seed)
    try:
        asyncio.run(peer.serve_forever(parse_addr(join) if join else None))
    except KeyboardInterrupt:
        pass
    return 0


async def _request_async(addr: Addr, obj: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    reader, writer = await asyncio.wait_for(asyncio.open_connection(*addr), timeout)
    try:
        writer.write(wire.encode_frame(obj))
        await writer.drain()
        decoder = wire.FrameDecoder()
        while True:
            data = await asyncio.wait_for(reader.read(65536), timeout=timeout)
            if not data:
                raise ConnectionError(f"peer {addr} closed without replying")
            frames = decoder.feed(data)
            if frames:
                return frames[0]
    finally:
        writer.close()


def request(connect: str, obj: Dict[str, Any], *, timeout: float = 10.0) -> Dict[str, Any]:
    """One client RPC round trip against a running peer."""
    return asyncio.run(_request_async(parse_addr(connect), obj, timeout))
