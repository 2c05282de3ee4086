"""Cross-validation: a real asyncio loopback cluster vs the sim reference.

The tentpole guarantee of the transport seam is that the *same* role
services produce the *same* protocol behaviour whether they run inside
the deterministic simulator or as socket-connected peers.  This test
runs one scripted workload twice — once on a 3-node ``StreamIndexSystem``
(DhtOverlay) and once on a 3-node in-process asyncio cluster
(AsyncioTransport over 127.0.0.1) — and requires identical index
placements and identical similarity-query answers.

Node names are ``dc-0``..``dc-2`` on both sides, so the Chord
identifiers (hashes of the names) and therefore the key arcs are
identical by construction; everything downstream of that — MBR routing,
range replication, query spans, distance bounds — must line up on its
own.
"""

import asyncio
import math
import socket

from repro.core import MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.core.queries import SimilarityQuery
from repro.net import peer as peer_module
from repro.net import wire
from repro.net.peer import PeerNode

from .frames import malformed_bodies

BAD_BODIES = malformed_bodies()

N_NODES = 3
SEED = 0

#: scripted workload: three slow sine streams, one per node
VALUES = {f"s{i}": [math.sin(0.4 * j + i) for j in range(12)] for i in range(N_NODES)}
PUBLISHER = {"s0": "dc-0", "s1": "dc-1", "s2": "dc-2"}
PATTERN = VALUES["s1"][-8:]
RADIUS = 0.3


def make_config(**kw):
    return MiddlewareConfig(
        m=32,
        window_size=8,
        batch_size=2,
        k=2,
        hop_delay_ms=0.0,
        workload=WorkloadConfig(qrate_per_s=0.0, nper_ms=100.0),
        **kw,
    )


def normalize_answers(matches):
    """Query answers as comparable rows (stream id + rounded bound)."""
    return sorted({m.stream_id: round(m.distance_bound, 9) for m in matches}.items())


def reporters(matches, apps, qid):
    """Who the answers name as their aggregator, and who aggregates."""
    return {m.reported_by for m in matches}, {a.node_id for a in apps if qid in a.aggregator.aggregators}


def sim_reference(**kw):
    """Placements and query answers from the deterministic simulator."""
    system = StreamIndexSystem(N_NODES, make_config(**kw), seed=SEED)
    apps = {app.node.name: app for app in system.all_apps}
    for sid, name in sorted(PUBLISHER.items()):
        feed = iter(VALUES[sid])
        apps[name].attach_stream(sid, lambda feed=feed: next(feed))
        for _ in VALUES[sid]:
            apps[name].on_stream_value(sid)
        system.run(system.sim.now + 200.0)
    system.run(system.sim.now + 500.0)
    placements = {name: sorted(app.index._mbrs.keys()) for name, app in apps.items()}
    query = SimilarityQuery(pattern=list(PATTERN), radius=RADIUS, lifespan_ms=60_000.0)
    qid = apps["dc-0"].post_similarity_query(query)
    system.run(system.sim.now + 2_000.0)
    matches = apps["dc-0"].similarity_results.get(qid, [])
    return placements, normalize_answers(matches), reporters(matches, apps.values(), qid)


async def cluster_run(**kw):
    """The same workload over real sockets on 127.0.0.1."""
    peers = []
    try:
        seed_peer = PeerNode("dc-0", "127.0.0.1", 0, make_config(**kw), seed=SEED)
        await seed_peer.start(None)
        peers.append(seed_peer)
        for i in range(1, N_NODES):
            peer = PeerNode(f"dc-{i}", "127.0.0.1", 0, make_config(**kw), seed=SEED)
            await peer.start(("127.0.0.1", seed_peer.port))
            peers.append(peer)
        await asyncio.sleep(0.3)
        by_name = {p.name: p for p in peers}
        assert all(len(p.members) == N_NODES for p in peers), "membership"

        for sid, name in sorted(PUBLISHER.items()):
            feed = iter(VALUES[sid])
            peer = by_name[name]
            peer.app.attach_stream(sid, lambda feed=feed: next(feed))
            for _ in VALUES[sid]:
                peer.app.on_stream_value(sid)
            await asyncio.sleep(0.2)
        await asyncio.sleep(0.5)
        placements = {
            p.name: sorted(p.app.index._mbrs.keys()) for p in peers
        }
        query = SimilarityQuery(
            pattern=list(PATTERN), radius=RADIUS, lifespan_ms=60_000.0
        )
        qid = by_name["dc-0"].app.post_similarity_query(query)
        matches = []
        for _ in range(40):  # up to 10 s for results to stream back
            await asyncio.sleep(0.25)
            matches = by_name["dc-0"].app.similarity_results.get(qid, [])
            if matches:
                break
        who = reporters(matches, [p.app for p in peers], qid)
        return placements, normalize_answers(matches), who
    finally:
        for peer in reversed(peers):
            await peer.stop()


def test_loopback_cluster_matches_sim_reference():
    sim_placements, sim_answers, sim_who = sim_reference()
    net_placements, net_answers, net_who = asyncio.run(cluster_run())

    # the sim reference must be non-trivial or the comparison is vacuous
    assert any(streams for streams in sim_placements.values())
    assert sim_answers, "sim reference produced no query answers"

    assert net_placements == sim_placements
    assert net_answers == sim_answers
    # every answer names the node that aggregated it, in both runtimes
    reported_by, aggregators = sim_who
    assert reported_by == aggregators and len(aggregators) == 1
    assert net_who == sim_who


def test_loopback_cluster_runs_the_hierarchy_like_the_sim():
    """With ``hierarchy=True`` the radius-0.3 query (above the 0.25
    threshold) is served by the leader climb in both runtimes: no node
    holds a subscription, and the snapshot answers are the same."""
    sim_placements, sim_answers, sim_who = sim_reference(hierarchy=True)
    net_placements, net_answers, net_who = asyncio.run(cluster_run(hierarchy=True))

    assert sim_answers, "sim reference produced no query answers"
    assert net_placements == sim_placements
    assert net_answers == sim_answers
    # one-shot answers: no aggregator anywhere, in either runtime
    assert sim_who[1] == net_who[1] == set()


def test_departed_peer_leaves_membership():
    async def scenario():
        a = PeerNode("dc-0", "127.0.0.1", 0, make_config())
        await a.start(None)
        b = PeerNode("dc-1", "127.0.0.1", 0, make_config())
        await b.start(("127.0.0.1", a.port))
        await asyncio.sleep(0.2)
        assert set(a.members) == {"dc-0", "dc-1"}
        await b.stop()  # graceful depart broadcasts a leave
        await asyncio.sleep(0.2)
        members_after = set(a.members)
        ring_after = set(a.ring.node_ids)
        await a.stop()
        return members_after, ring_after

    members_after, ring_after = asyncio.run(scenario())
    assert members_after == {"dc-0"}
    assert len(ring_after) == 1


def test_garbage_frames_are_dropped_and_connection_keeps_serving():
    async def scenario():
        peer = PeerNode("dc-0", "127.0.0.1", 0, make_config())
        peer.log = lambda line: None
        await peer.start(None)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", peer.port)
            # well-framed, but an unknown type / missing every key
            writer.write(wire.encode_frame({"t": "msg"}))
            writer.write(wire.encode_frame({"t": "join"}))
            # well-framed message frames whose binary body is garbage
            for body in BAD_BODIES.values():
                writer.write(wire.encode_frame(body))
            writer.write(wire.encode_frame({"t": "status"}))
            await writer.drain()
            decoder = wire.FrameDecoder()
            replies = []
            while not replies:
                data = await asyncio.wait_for(reader.read(65536), timeout=5.0)
                assert data, "peer closed the connection"
                replies.extend(decoder.feed(data))
            writer.close()
            return replies[0]
        finally:
            await peer.stop()

    status = asyncio.run(scenario())
    assert status["t"] == "status" and status["name"] == "dc-0"
    assert status["bad_frames"] == 2 + len(BAD_BODIES)


def test_blackholed_connect_does_not_stall_egress(monkeypatch):
    """A connect that never completes times out; later frames still go out."""
    blackhole = ("127.0.0.1", 9)
    real_open_connection = asyncio.open_connection

    async def open_connection(host, port, **kw):
        if (host, port) == blackhole:
            await asyncio.Event().wait()  # SYN into the void: never answers
        return await real_open_connection(host, port, **kw)

    monkeypatch.setattr(peer_module, "CONNECT_TIMEOUT_S", 0.2)
    monkeypatch.setattr(asyncio, "open_connection", open_connection)

    async def scenario():
        received = asyncio.Queue()

        async def sink(reader, writer):
            decoder = wire.FrameDecoder()
            while data := await reader.read(65536):
                for frame in decoder.feed(data):
                    received.put_nowait(frame)
            writer.close()

        server = await asyncio.start_server(sink, "127.0.0.1", 0)
        good = ("127.0.0.1", server.sockets[0].getsockname()[1])
        peer = PeerNode("dc-0", "127.0.0.1", 0, make_config())
        peer.log = lambda line: None
        await peer.start(None)
        try:
            peer.send_control(blackhole, {"t": "status"})
            peer.send_control(good, {"t": "status", "marker": 1})
            return await asyncio.wait_for(received.get(), timeout=1.0)
        finally:
            await peer.stop()
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) == {"t": "status", "marker": 1}


def test_slow_neighbour_stalls_only_its_own_buffer(monkeypatch):
    """A destination that accepts and never reads costs only its frames."""
    monkeypatch.setattr(peer_module, "SEND_BUFFER_BYTES", 256 * 1024)
    monkeypatch.setattr(peer_module, "DRAIN_TIMEOUT_S", 30.0)

    async def scenario():
        # the kernel completes the handshake; nobody ever accepts or reads
        stalled_sock = socket.socket()
        stalled_sock.bind(("127.0.0.1", 0))
        stalled_sock.listen(1)
        stalled = stalled_sock.getsockname()
        received = asyncio.Queue()

        async def sink(reader, writer):
            decoder = wire.FrameDecoder()
            while data := await reader.read(65536):
                for frame in decoder.feed(data):
                    received.put_nowait(frame)
            writer.close()

        server = await asyncio.start_server(sink, "127.0.0.1", 0)
        healthy = ("127.0.0.1", server.sockets[0].getsockname()[1])
        peer = PeerNode("dc-0", "127.0.0.1", 0, make_config())
        peer.log = lambda line: None
        await peer.start(None)
        try:
            pad = "x" * 65536
            sent = 0
            while peer.dropped_frames == 0 and sent < 2000:
                peer.send_control(stalled, {"t": "status", "pad": pad})
                sent += 1
                await asyncio.sleep(0.001)  # the writer takes each frame
            dropped = peer.dropped_frames
            # more than the 4 frames the buffer holds: the writer moved
            # some into the kernel's socket buffers before it stalled
            assert dropped > 0 and sent > 4, f"{dropped} dropped of {sent}"

            for marker in range(3):
                peer.send_control(healthy, {"t": "status", "marker": marker})
                frame = await asyncio.wait_for(received.get(), timeout=2.0)
                assert frame == {"t": "status", "marker": marker}
            assert peer.dropped_frames == dropped  # nothing healthy was lost

            reader, writer = await asyncio.open_connection("127.0.0.1", peer.port)
            writer.write(wire.encode_frame({"t": "status"}))
            decoder = wire.FrameDecoder()
            replies = []
            while not replies:
                data = await asyncio.wait_for(reader.read(65536), timeout=5.0)
                assert data, "peer closed the connection"
                replies.extend(decoder.feed(data))
            writer.close()
            assert replies[0]["dropped_frames"] == dropped
        finally:
            await peer.stop()
            server.close()
            await server.wait_closed()
            stalled_sock.close()
        # the healthy sink's handler ends on EOF; the peer leaves nothing
        for _ in range(100):
            left = asyncio.all_tasks() - {asyncio.current_task()}
            if not left:
                break
            await asyncio.sleep(0.02)
        return left

    assert asyncio.run(scenario()) == set()


def test_drain_timeout_gives_up_a_stalled_connection(monkeypatch):
    """A write that cannot drain is dropped, counted and its socket aborted."""
    monkeypatch.setattr(peer_module, "DRAIN_TIMEOUT_S", 0.2)

    async def scenario():
        stalled_sock = socket.socket()
        stalled_sock.bind(("127.0.0.1", 0))
        stalled_sock.listen(1)
        stalled = stalled_sock.getsockname()
        peer = PeerNode("dc-0", "127.0.0.1", 0, make_config())
        lines = []
        peer.log = lines.append
        await peer.start(None)
        try:
            pad = "x" * 65536
            for _ in range(400):  # far more than the kernel's socket buffers
                peer.send_control(stalled, {"t": "status", "pad": pad})
                await asyncio.sleep(0.001)
                if peer._links[stalled].frames:
                    break  # the writer did not take it: blocked in drain
            assert peer._links[stalled].frames and peer.dropped_frames == 0
            stuck = peer._links[stalled].writer
            await asyncio.sleep(0.5)
            return peer.dropped_frames, stuck.transport.is_closing(), lines
        finally:
            await peer.stop()
            stalled_sock.close()

    dropped, aborted, lines = asyncio.run(scenario())
    assert dropped > 0 and aborted  # the next frame opens a new connection
    assert any("failed" in line and "TimeoutError" in line for line in lines)
