"""Malformed message bodies, one per way a binary body can be broken.

Shared by the codec tests (each must raise ``WireError``) and the
loopback test (each must be dropped without closing the connection).
"""

import random
import struct

import numpy as np

from repro.core.mbr import MBR
from repro.core.protocol import MbrPublish, WindowReply
from repro.net import wire
from repro.sim.network import Message


def window_reply_message() -> Message:
    payload = WindowReply(
        stream_id="s1", request_id=4, window=np.arange(3.0), source_id=9
    )
    return Message(kind="response", payload=payload, origin=9, dest_key=77)


def mbr_publish_message(low=(0.0, 1.0), high=(1.0, 2.0)) -> Message:
    payload = MbrPublish(
        mbr=MBR(np.asarray(low), np.asarray(high), stream_id="s1", count=2),
        source_id=3,
        low_key=10,
        high_key=20,
        lifespan_ms=1000.0,
    )
    return Message(kind="mbr", payload=payload, origin=3, dest_key=10)


def malformed_bodies() -> dict:
    """Name -> a message body that ``decode_message`` must refuse."""
    good = wire.encode_message(window_reply_message())
    tag = b"\x0bWindowReply"
    dtype_at = good.index(tag) + len(tag) + 4 + len(b"s1") + 8
    assert good[dtype_at : dtype_at + 1] == b"f"

    mbr = wire.encode_message(mbr_publish_message())
    # the MBR's low[1] (1.0) sits after d, low[0]; make it exceed high[1]
    low1 = mbr.index(struct.pack("<dd", 0.0, 1.0)) + 8
    inverted = mbr[:low1] + struct.pack("<d", 5.0) + mbr[low1 + 8 :]

    # the kind string "response" becomes invalid UTF-8
    kind_at = good.index(b"response")
    bad_utf8 = good[:kind_at] + b"\xff\xfe" + good[kind_at + 2 :]

    rng = random.Random(7)
    return {
        "truncated": good[:-5],
        "trailing bytes": good + b"\x00",
        "unknown payload tag": good.replace(tag, b"\x0bWindowReplx"),
        "unknown dtype code": good[:dtype_at] + b"z" + good[dtype_at + 1 :],
        "bad utf-8": bad_utf8,
        "mbr low > high": inverted,
        "random": bytes(rng.randrange(256) for _ in range(97)),
        "empty": b"",
    }
