"""Load generator and checker of ``net_loopback_n4`` (runs in the parent).

One process, ``NET_CONNECTIONS`` persistent TCP connections to the
cluster host, speaking the client RPC frames (``publish`` / ``query`` /
``results`` / ``status``) through ``repro.net.wire``.  A host lives in
one of three modes:

measure  set-up, then the two timed phases.
         Set-up: spawn the host; every stream publishes a scripted
         prologue that fills its window; wait for the ledger to drain.
         Open loop on connection 0 at ``NET_OPEN_LOOP_PUBLISH_PER_S``,
         pipelined, each RPC timed from its write (see ``sleep_until``);
         on connection 1 one query per ``NET_QUERY_PERIOD_S`` whose
         pattern is the last window sent for a random stream, polled
         until it has a match.  Runs first, from the small index the
         prologue left.
         Closed loop: ``NET_CLIENTS_PER_CONNECTION`` clients share each
         connection, each publishing its own streams round-robin,
         ``NET_VALUES_PER_PUBLISH`` values per RPC, next RPC after the
         reply (two clients alone leave the host idle a fifth of the
         time, waiting for the generator); then wait until every remote
         send has arrived (the backlog).
setup    set-up only: one more sample of the set-up time.
check    set-up on a host where nothing expires, then the index
         placements and the answers to five scripted queries must equal
         a ``StreamIndexSystem`` fed the same values (as
         ``tests/net/test_loopback.py`` does for 3 nodes).  Kept apart
         from the measured host so that no wall-clock lifespan can
         decide a correctness check on a slow or stalled machine.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

import spec
from repro.core.queries import SimilarityQuery
from repro.core.system import StreamIndexSystem
from repro.net import wire

WINDOW = 32
#: values per stream in the scripted prologue: a full window plus two MBRs
PROLOGUE_VALUES = WINDOW + 4
#: (client, stream) whose last window the five scripted queries use
SCRIPTED_QUERIES = ((0, 0), (0, 3), (1, 1), (1, 5), (0, 7))
#: shares of --seconds given to the open-loop and the closed-loop phase
OPEN_SHARE, CLOSED_SHARE = 0.4, 0.6
#: how long a stalled host is waited for before the wait itself is a failure
PATIENCE_S = 60.0


class Host:
    """The cluster-host child process and its control channel."""

    def __init__(self, seed: int, trace: int, trace_out: Optional[str] = None,
                 bspan_ms: Optional[float] = None) -> None:
        cmd = [sys.executable, os.path.join(spec.SUITE_DIR, "cluster_host.py"),
               "--seed", str(seed), "--trace", str(trace)]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        if bspan_ms:
            cmd += ["--bspan-ms", repr(bspan_ms)]
        self.spawned_at = time.time()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.ports: List[int] = self._read()["ports"]

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"cluster host exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Conn:
    """One persistent, pipelined client connection (replies are FIFO)."""

    def __init__(self) -> None:
        self._waiting: Deque[asyncio.Future] = deque()
        self._reader_task: Optional[asyncio.Task] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self, port: int) -> "Conn":
        reader, self._writer = await asyncio.open_connection("127.0.0.1", port)
        self._reader_task = asyncio.get_running_loop().create_task(self._read(reader))
        return self

    async def _read(self, reader: asyncio.StreamReader) -> None:
        decoder = wire.FrameDecoder()
        while True:
            data = await reader.read(65536)
            if not data:
                break
            now = time.perf_counter()
            for obj in decoder.feed(data):
                self._waiting.popleft().set_result((obj, now))
        for fut in self._waiting:
            fut.set_exception(ConnectionError("peer closed the connection"))

    def send(self, obj: Dict[str, Any]) -> "asyncio.Future[Tuple[Dict[str, Any], float]]":
        """Write one frame; the future resolves to (reply, arrival time)."""
        fut = asyncio.get_running_loop().create_future()
        self._waiting.append(fut)
        self._writer.write(wire.encode_frame(obj))
        return fut

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        if self._reader_task is not None:
            await self._reader_task


class Feed:
    """Seeded random-walk values of one stream, remembering the last window."""

    def __init__(self, seed: int, client: int, index: int) -> None:
        self.stream_id = f"s{client}-{index}"
        self._rng = np.random.default_rng([seed, client, index])
        self._level = float(self._rng.uniform(20.0, 80.0))
        self._block: List[float] = []
        self.window: Deque[float] = deque(maxlen=WINDOW)

    def take(self, n: int) -> List[float]:
        if len(self._block) < n:
            steps = np.cumsum(self._rng.normal(size=4096)) + self._level
            self._level = float(steps[-1])
            self._block.extend(steps.tolist())
        out, self._block = self._block[:n], self._block[n:]
        self.window.extend(out)
        return out


async def sleep_until(due: float) -> None:
    """Sleep until ``due`` (``perf_counter`` time).

    The event loop's timer wakes about a millisecond late, more than the
    latency being measured.  Spinning through the last millisecond would
    remove that, but keeps the generator's core fully busy, and on a
    two-core host anything else that needs a CPU then preempts the
    system under test.  So the lateness is reported on its own
    (``workload.gen_late_ms_p99``) and RPCs are timed from the moment
    they were written: the writes are pipelined and never wait for the
    host, so a stall in the host delays no later send, only its replies.
    """
    wait = due - time.perf_counter()
    if wait > 0:
        await asyncio.sleep(wait)


def delivered_and_sent(snap: Dict[str, Any]) -> Tuple[int, int]:
    """Remote deliveries and remote sends of a host snapshot.

    Only remote legs are recorded as sends.  A span copy is always
    remote; a root message was delivered remotely iff it took its one
    hop, so its hop sum counts the remote deliveries.
    """
    delivered = 0
    for kind, (count, hop_sum) in snap["delivered"].items():
        delivered += count if kind.endswith("_span") else hop_sum
    return int(delivered), sum(snap["sends"].values())


def sim_reference(seed: int, prologue: Dict[str, List[float]], publisher: Dict[str, str],
                  patterns: List[List[float]]):
    """Placements and query answers of the simulator fed the prologue."""
    system = StreamIndexSystem(
        spec.NET_NODES, spec.net_config(spec.NET_CHECK_LIFESPAN_MS), seed=seed
    )
    apps = {app.node.name: app for app in system.all_apps}
    for sid, values in prologue.items():
        feed = iter(values)
        app = apps[publisher[sid]]
        app.attach_stream(sid, lambda feed=feed: next(feed))
        for _ in values:
            app.on_stream_value(sid)
        system.run(10.0)
    system.run(100.0)
    now = system.sim.now
    placements = {
        name: sorted({e.mbr.stream_id for e in app.index.live_mbrs(now)})
        for name, app in apps.items()
    }
    qids = [
        apps["dc-1"].post_similarity_query(
            SimilarityQuery(pattern=list(p), radius=spec.NET_QUERY_RADIUS,
                            lifespan_ms=spec.NET_CHECK_LIFESPAN_MS)
        )
        for p in patterns
    ]
    system.run(500.0)
    answers = [
        sorted({m.stream_id for m in apps["dc-1"].similarity_results.get(qid, [])})
        for qid in qids
    ]
    return placements, answers


async def _status(port: int) -> Dict[str, Any]:
    conn = await Conn().open(port)
    try:
        reply, _ = await conn.send({"t": "status"})
        return reply
    finally:
        await conn.close()


class Generator:
    """Drives one host through set-up and, unless ``setup_only``, both phases."""

    def __init__(self, host: Host, seed: int, seconds: float) -> None:
        self.host = host
        self.seed = seed
        self.seconds = seconds
        self.feeds = [
            [Feed(seed, c, j) for j in range(spec.NET_STREAMS_PER_CONNECTION)]
            for c in range(spec.NET_CONNECTIONS)
        ]
        self.conns: List[Conn] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.rng = np.random.default_rng([seed, 0x0E7])
        #: values and publishing peer of every stream's prologue
        self.prologue: Dict[str, List[float]] = {}
        self.publisher: Dict[str, str] = {}

    def _ok(self, reply: Dict[str, Any], expect: str) -> bool:
        self.attempted += 1
        if reply.get("t") != expect:
            self.failed += 1
            self.errors.append(str(reply)[:200])
            return False
        return True

    @staticmethod
    def _publish_frame(feed: Feed) -> Dict[str, Any]:
        return {"t": "publish", "stream_id": feed.stream_id,
                "values": feed.take(spec.NET_VALUES_PER_PUBLISH)}

    # ------------------------------------------------------------------
    async def setup(self) -> Dict[str, float]:
        """Connect, fill every window, wait for the ledger to drain."""
        for c in range(spec.NET_CONNECTIONS):
            self.conns.append(await Conn().open(self.host.ports[c]))
        for c, feeds in enumerate(self.feeds):
            for feed in feeds:
                sent: List[float] = []
                for _ in range(PROLOGUE_VALUES // spec.NET_VALUES_PER_PUBLISH):
                    frame = self._publish_frame(feed)
                    reply, _ = await self.conns[c].send(frame)
                    self._ok(reply, "ok")
                    sent.extend(frame["values"])
                self.prologue[feed.stream_id] = sent
                self.publisher[feed.stream_id] = f"dc-{c}"
        snap = await self._drain()
        return {"cpu_s": snap["cpu_s"], "wall_s": time.time() - self.host.spawned_at}

    async def check(self) -> Dict[str, Any]:
        """Same placements and answers as the simulator fed the same values."""
        patterns = [list(self.feeds[c][j].window) for c, j in SCRIPTED_QUERIES]
        want_placements, want_answers = sim_reference(
            self.seed, self.prologue, self.publisher, patterns)
        placements = {}
        for port in self.host.ports:
            status = await _status(port)
            placements[status["name"]] = status["held"]
        qids = []
        for pattern in patterns:
            reply, _ = await self.conns[1].send(
                {"t": "query", "pattern": pattern, "radius": spec.NET_QUERY_RADIUS,
                 "lifespan_ms": spec.NET_CHECK_LIFESPAN_MS}
            )
            qids.append(reply.get("query_id", -1))
        # answers only ever gain matches: wait for the expected ones, then
        # two more notification periods for any that should not be there
        give_up = time.perf_counter() + PATIENCE_S
        settled = False
        while True:
            answers = []
            for qid in qids:
                reply, _ = await self.conns[1].send({"t": "results", "query_id": qid})
                answers.append(sorted(sid for sid, _bound in reply.get("matches", [])))
            if settled or time.perf_counter() > give_up:
                break
            settled = answers == want_answers
            await asyncio.sleep(2.0 * spec.net_config().workload.nper_ms / 1000.0)
        ok = (placements == want_placements and answers == want_answers
              # equal, and not vacuously: something is placed and answered
              and any(want_placements.values()) and any(want_answers))
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append("placements or scripted answers differ from the simulator's")
        return {"reference_ok": ok, "placements": placements, "answers": answers,
                "want_placements": want_placements, "want_answers": want_answers}

    # ------------------------------------------------------------------
    async def _drain(self) -> Dict[str, Any]:
        """Poll the ledger until every remote send has arrived; the snapshot."""
        give_up = time.perf_counter() + PATIENCE_S
        samples: List[List[float]] = []
        while True:
            snap = await asyncio.to_thread(self.host.call, "snapshot")
            samples.extend(snap["samples"])
            delivered, sent = delivered_and_sent(snap)
            if delivered >= sent:
                break
            if time.perf_counter() > give_up:
                self.attempted += 1
                self.failed += 1
                self.errors.append(f"ledger not drained: {delivered} of {sent} remote sends arrived")
                break
            await asyncio.sleep(0.005)
        snap["samples"] = samples
        return snap

    async def closed_loop(self) -> Dict[str, Any]:
        duration = CLOSED_SHARE * self.seconds
        before = await self._drain()
        start = time.monotonic()  # the clock of the host's samples
        stop_at = start + duration
        last_reply = start

        async def client(c: int, k: int) -> None:
            nonlocal last_reply
            feeds = self.feeds[c][k::spec.NET_CLIENTS_PER_CONNECTION]
            i = 0
            while time.monotonic() < stop_at:
                reply, _ = await self.conns[c].send(self._publish_frame(feeds[i % len(feeds)]))
                self._ok(reply, "ok")
                last_reply = time.monotonic()
                i += 1

        await asyncio.gather(*(
            client(c, k)
            for c in range(spec.NET_CONNECTIONS)
            for k in range(spec.NET_CLIENTS_PER_CONNECTION)
        ))
        snap = await self._drain()
        drained_at = time.monotonic()
        # values per CPU second of the host over each sample interval that
        # lies within the loop (the host is saturated there, so its CPU
        # time is its wall time but for what the machine took away), once
        # the index has its steady size: one MBR lifespan into the loop
        ramp = min(spec.NET_BSPAN_MS / 1000.0, duration / 2.0)
        inside = [row for row in snap["samples"] if start + ramp <= row[0] <= stop_at]
        rates = [
            (v1 - v0) / (c1 - c0)
            for (_t0, c0, v0), (_t1, c1, v1) in zip(inside, inside[1:])
            if c1 > c0
        ]
        if not rates:  # a loop shorter than two samples (--smoke): its whole length
            rates = [(snap["values"] - before["values"]) / (snap["cpu_s"] - before["cpu_s"])]
        return {
            "duration_s": duration,
            "rates": rates,
            "drain_s": max(0.0, drained_at - last_reply),
            "host_busy": (snap["cpu_s"] - before["cpu_s"]) / (drained_at - start),
        }

    async def open_loop(self) -> Dict[str, Any]:
        duration = OPEN_SHARE * self.seconds
        before = await self._drain()
        start = time.perf_counter()
        latencies: List[float] = []
        lateness: List[float] = []
        first_match: List[float] = []
        recall_hits = 0
        queries: List[Tuple[int, str]] = []

        async def publisher() -> None:
            feeds = self.feeds[0]
            pending = []
            n = int(duration * spec.NET_OPEN_LOOP_PUBLISH_PER_S)
            for i in range(n):
                due = start + i / spec.NET_OPEN_LOOP_PUBLISH_PER_S
                await sleep_until(due)
                sent_at = time.perf_counter()
                lateness.append(sent_at - due)
                fut = self.conns[0].send(self._publish_frame(feeds[i % len(feeds)]))
                pending.append((sent_at, fut))
            for sent_at, fut in pending:
                reply, at = await fut
                if self._ok(reply, "ok"):
                    latencies.append(at - sent_at)

        async def one_query(feed: Feed) -> None:
            sent_at = time.perf_counter()
            reply, _ = await self.conns[1].send(
                {"t": "query", "pattern": list(feed.window), "radius": spec.NET_QUERY_RADIUS,
                 "lifespan_ms": 1000.0 * spec.NET_QUERY_TIMEOUT_S}
            )
            if not self._ok(reply, "ok"):
                return
            qid = reply["query_id"]
            queries.append((qid, feed.stream_id))
            while time.perf_counter() - sent_at < spec.NET_QUERY_TIMEOUT_S:
                reply, at = await self.conns[1].send({"t": "results", "query_id": qid})
                if reply.get("matches"):
                    first_match.append(at - sent_at)
                    return
                await asyncio.sleep(spec.NET_POLL_PERIOD_S)

        async def querier() -> None:
            tasks = []
            n = int(duration / spec.NET_QUERY_PERIOD_S)
            for i in range(n):
                await sleep_until(start + i * spec.NET_QUERY_PERIOD_S)
                feed = self.feeds[0][int(self.rng.integers(spec.NET_STREAMS_PER_CONNECTION))]
                tasks.append(asyncio.ensure_future(one_query(feed)))
            await asyncio.gather(*tasks)

        await asyncio.gather(publisher(), querier())
        elapsed = time.perf_counter() - start
        after = await self._drain()
        for qid, stream_id in queries:
            reply, _ = await self.conns[1].send({"t": "results", "query_id": qid})
            recall_hits += any(sid == stream_id for sid, _b in reply.get("matches", []))
        return {
            "elapsed_s": elapsed,
            # what the schedule offered, however late the generator ran
            "offered_s": duration,
            "publish_latency_s": latencies,
            "lateness_s": lateness,
            "first_match_s": first_match,
            "queries": len(queries),
            "recall_hits": recall_hits,
            "sends": sum(after["sends"].values()) - sum(before["sends"].values()),
        }

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()


async def _drive(host: Host, seed: int, seconds: float, mode: str) -> Dict[str, Any]:
    gen = Generator(host, seed, seconds)
    try:
        doc: Dict[str, Any] = {"setup": await gen.setup()}
        if mode == "check":
            doc["check"] = await gen.check()
        elif mode == "measure":
            await asyncio.to_thread(host.call, "reset")
            # fixed-rate phase first: it starts from the small index the
            # prologue left, not from the backlog of the closed loop
            doc["open"] = await gen.open_loop()
            doc["closed"] = await gen.closed_loop()
            doc["final"] = await asyncio.to_thread(host.call, "snapshot")
        doc.update(attempted=gen.attempted, failed=gen.failed, errors=gen.errors[:10])
        return doc
    finally:
        await gen.close()


def run_host(seed: int, seconds: float, trace: int = 0, mode: str = "measure",
             trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One cluster-host lifetime: spawn, drive, stop; raw facts as a dict."""
    if spec.NET_CONNECTIONS > (os.cpu_count() or 1):
        raise RuntimeError(
            f"{spec.NET_WORKLOAD} needs {spec.NET_CONNECTIONS} generator connections "
            f"but this host has {os.cpu_count()} CPU(s); the generator would "
            "compete with the system under test"
        )
    host = Host(seed, trace, trace_out,
                bspan_ms=spec.NET_CHECK_LIFESPAN_MS if mode == "check" else None)
    try:
        return asyncio.run(_drive(host, seed, seconds, mode))
    finally:
        host.stop()
