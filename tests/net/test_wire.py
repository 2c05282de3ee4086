"""Round-trip and framing tests for the registry-driven binary wire format.

The round-trip tests are properties: instead of hand-writing one case
per payload class, Hypothesis strategies are derived for *every* type
in ``PAYLOAD_REGISTRY`` from its resolved dataclass field types, so a
payload added tomorrow is covered automatically, or fails loudly if no
codec can carry one of its field types.  Values must come back
bit-exact: floats are compared by their IEEE bytes (NaN, ±inf and -0.0
included) and arrays by dtype, shape and bytes.
"""

import dataclasses
import math
import struct
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mbr import MBR
from repro.core.protocol import (
    PAYLOAD_REGISTRY,
    Ack,
    InnerProductSubscribe,
    MbrPublish,
    ResponsePush,
    SimilarityReport,
)
from repro.core.queries import InnerProductQuery
from repro.net import wire
from repro.sim.network import Message

from .frames import malformed_bodies

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

# ---------------------------------------------------------------------
# strategies derived from the resolved field types
# ---------------------------------------------------------------------
ints = st.one_of(st.sampled_from([I64_MIN, I64_MAX, 0, -1]), st.integers(I64_MIN, I64_MAX))
floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), st.floats(allow_nan=True)
)
texts = st.one_of(
    st.text(max_size=12),
    st.text(st.characters(min_codepoint=0x80, exclude_categories=("Cs",)), min_size=1),
)


def arrays(dtype):
    """Short arrays of drawn elements, or long ones of seeded random bytes
    (any bit pattern: NaN payloads included)."""
    elems = st.integers(I64_MIN, I64_MAX) if dtype == np.int64 else floats
    short = st.lists(elems, max_size=6).map(
        lambda xs: np.asarray(xs, dtype=dtype).reshape(len(xs))
    )
    long = st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed)
        .integers(0, 256, 8 * 1500, dtype=np.uint8)
        .view(dtype)
    )
    return st.one_of(short, long)


@st.composite
def mbrs(draw):
    d = draw(st.integers(0, 6))
    pairs = draw(st.lists(st.tuples(floats, floats), min_size=d, max_size=d))
    # NaN bounds pass the MBR check (every comparison is false)
    low = [min(a, b) if not (math.isnan(a) or math.isnan(b)) else a for a, b in pairs]
    high = [max(a, b) if not (math.isnan(a) or math.isnan(b)) else b for a, b in pairs]
    return MBR(
        np.asarray(low, dtype=float).reshape(d),
        np.asarray(high, dtype=float).reshape(d),
        stream_id=draw(texts),
        count=draw(ints),
        created=draw(floats),
    )


@st.composite
def inner_product_queries(draw):
    n = draw(st.integers(1, 8))
    return InnerProductQuery(
        stream_id=draw(texts),
        index_vector=np.asarray(
            draw(st.lists(st.integers(0, I64_MAX), min_size=n, max_size=n)), dtype=np.int64
        ),
        weight_vector=np.asarray(
            draw(st.lists(floats, min_size=n, max_size=n)), dtype=float
        ),
        lifespan_ms=draw(st.floats(min_value=1e-3, max_value=1e12)),
        query_id=draw(ints),
    )


def strategy_for(tp):
    """A strategy of values of one resolved field type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        return st.lists(strategy_for(args[0]), max_size=4)
    if origin is dict:
        return st.dictionaries(strategy_for(args[0]), strategy_for(args[1]), max_size=4)
    if origin is tuple:
        return st.tuples(*(strategy_for(a) for a in args))
    leaves = {
        int: ints,
        float: floats,
        bool: st.booleans(),
        str: texts,
        np.ndarray: st.one_of(arrays(np.float64), arrays(np.int64)),
        MBR: mbrs(),
        InnerProductQuery: inner_product_queries(),
    }
    if tp in leaves:
        return leaves[tp]
    raise AssertionError(f"no strategy for field type {tp!r}")


def payloads(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls, **{f.name: strategy_for(hints[f.name]) for f in dataclasses.fields(cls)}
    )


messages_of = {
    cls: st.builds(
        Message,
        kind=texts,
        payload=payloads(cls),
        origin=ints,
        dest_key=ints,
        hops=ints,
        born=floats,
        msg_id=ints,
        root_id=ints,
        tag=texts,
    )
    for cls in PAYLOAD_REGISTRY
}


# ---------------------------------------------------------------------
# bit-exact comparison
# ---------------------------------------------------------------------
def canon(value):
    """A comparable form of a value that tells every float bit apart."""
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value))
    if isinstance(value, (bool, int, str)):
        return (type(value).__name__, value)
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, MBR):
        return ("mbr", canon(value.low), canon(value.high), value.stream_id,
                value.count, canon(value.created))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(canon(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((canon(k), canon(v)) for k, v in value.items()))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple(canon(getattr(value, f.name)) for f in dataclasses.fields(value)))
    raise AssertionError(f"no canonical form for {type(value).__name__}")


def through_the_wire(msgs, cuts=()):
    """encode_message -> encode_frame -> FrameDecoder.feed -> decode_message."""
    stream = b"".join(wire.encode_frame(wire.encode_message(m)) for m in msgs)
    decoder = wire.FrameDecoder()
    bodies = []
    start = 0
    for cut in sorted(set(cuts)) + [len(stream)]:
        bodies.extend(decoder.feed(stream[start:cut]))
        start = cut
    return [wire.decode_message(body) for body in bodies]


# ---------------------------------------------------------------------
# the property: every registered payload survives the wire bit-exact
# ---------------------------------------------------------------------
@pytest.mark.parametrize(
    "cls", sorted(PAYLOAD_REGISTRY, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_registered_payload_round_trips(cls, data):
    msgs = data.draw(st.lists(messages_of[cls], min_size=1, max_size=3))
    stream_len = sum(len(wire.encode_frame(wire.encode_message(m))) for m in msgs)
    cuts = data.draw(st.lists(st.integers(0, stream_len), max_size=6))
    decoded = through_the_wire(msgs, cuts)
    assert [canon(m) for m in decoded] == [canon(m) for m in msgs]


def test_registry_covers_replication_and_handoff_kinds():
    # Guard for the parametrisation above: the late-added replication
    # and handoff payloads really are in the registry being swept.
    names = {cls.__name__ for cls in PAYLOAD_REGISTRY}
    assert {"ReplicaPublish", "ReplicaAck", "ReplicaDigestPull", "HintedHandoff"} <= names
    assert len(PAYLOAD_REGISTRY) >= 16


def test_default_instances_round_trip_nan():
    # ResponsePush defaults inner_product to NaN
    push = ResponsePush(client_id=1, query_id=2)
    (decoded,) = through_the_wire([Message(kind="response", payload=push, origin=1, dest_key=2)])
    assert math.isnan(decoded.payload.inner_product)
    assert decoded.payload.similarity == []


def test_int_keyed_dicts_survive():
    report = SimilarityReport(
        reporter_id=5, middle_key=6, matches={3: [("s1", 0.5)], -4: []}, versions={}
    )
    (decoded,) = through_the_wire([Message(kind="report", payload=report, origin=5, dest_key=6)])
    assert decoded.payload.matches == {3: [("s1", 0.5)], -4: []}
    assert decoded.payload.versions == {}


def test_decoded_arrays_are_writable_copies():
    mbr = MBR(np.asarray([0.0, 1.0]), np.asarray([1.0, 2.0]), stream_id="s", count=1)
    publish = MbrPublish(mbr=mbr, source_id=1, low_key=2, high_key=3, lifespan_ms=4.0)
    query = InnerProductQuery(
        stream_id="s", index_vector=np.asarray([0, 2]), weight_vector=np.asarray([1.0, -1.0]),
        lifespan_ms=5.0,
    )
    subscribe = InnerProductSubscribe(query=query, client_id=7)
    decoded = through_the_wire(
        [Message(kind="mbr", payload=publish, origin=1, dest_key=2),
         Message(kind="ip", payload=subscribe, origin=1, dest_key=2)]
    )
    box = decoded[0].payload.mbr
    box.extend(np.asarray([5.0, 5.0]))  # writes through the bounds in place
    assert box.high.tolist() == [5.0, 5.0]
    iv = decoded[1].payload.query.index_vector
    assert iv.dtype == np.int64 and iv.flags.writeable and iv.flags.owndata


# ---------------------------------------------------------------------
# message envelope
# ---------------------------------------------------------------------
def test_message_envelope_round_trips():
    msg = Message(
        kind="mbr",
        payload=MbrPublish(
            mbr=MBR(np.asarray([-1.0, 3.0]), np.asarray([1.0, 5.0]), stream_id="ü-1", count=3),
            source_id=1,
            low_key=2,
            high_key=3,
            lifespan_ms=500.0,
        ),
        origin=7,
        dest_key=123456,
        hops=3,
        born=250.0,
        root_id=99,
        tag="up",
    )
    (decoded,) = through_the_wire([msg])
    assert canon(decoded) == canon(msg)


def test_int_outside_int64_names_the_field():
    msg = Message(kind="ack", payload=Ack(delivery_id=2**63, acker_id=1), origin=1, dest_key=2)
    with pytest.raises(wire.WireError, match=r"Ack\.delivery_id"):
        wire.encode_message(msg)
    msg = Message(kind="ack", payload=Ack(delivery_id=1, acker_id=1), origin=-(2**63) - 1,
                  dest_key=2)
    with pytest.raises(wire.WireError, match=r"Message\.origin"):
        wire.encode_message(msg)


def test_unregistered_payload_type_rejected():
    class Rogue:
        pass

    with pytest.raises(wire.WireError, match="not in PAYLOAD_REGISTRY"):
        wire.encode_message(Message(kind="x", payload=Rogue(), origin=1, dest_key=2))


# ---------------------------------------------------------------------
# malformed bodies
# ---------------------------------------------------------------------
@pytest.mark.parametrize("name, body", sorted(malformed_bodies().items()))
def test_malformed_body_is_a_wire_error(name, body):
    with pytest.raises(wire.WireError):
        wire.decode_message(body)


def test_unknown_payload_tag_rejected():
    with pytest.raises(wire.WireError, match="unknown payload tag"):
        wire.decode_message(malformed_bodies()["unknown payload tag"])


def test_unknown_dtype_code_rejected():
    with pytest.raises(wire.WireError, match="unknown ndarray dtype code"):
        wire.decode_message(malformed_bodies()["unknown dtype code"])


def test_trailing_bytes_rejected():
    with pytest.raises(wire.WireError, match="trailing bytes"):
        wire.decode_message(malformed_bodies()["trailing bytes"])


# ---------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------
def test_frame_decoder_handles_arbitrary_splits():
    ack = Message(kind="ack", payload=Ack(delivery_id=1, acker_id=2), origin=1, dest_key=2)
    frames = [
        wire.encode_frame({"t": "status"}),
        wire.encode_frame(wire.encode_message(ack)),
        wire.encode_frame({"t": "ok", "n": [1, 2]}),
    ]
    stream = b"".join(frames)
    for step in (1, 2, 3, 5, len(stream)):
        decoder = wire.FrameDecoder()
        out = []
        for i in range(0, len(stream), step):
            out.extend(decoder.feed(stream[i : i + step]))
        assert out[0] == {"t": "status"} and out[2] == {"t": "ok", "n": [1, 2]}
        assert canon(wire.decode_message(out[1])) == canon(ack)


def test_frame_decoder_rejects_foreign_version():
    # a version-1 frame: length, version byte 1, JSON body
    body = b'{"t":"status"}'
    frame = struct.pack(">I", 1 + len(body)) + b"\x01" + body
    with pytest.raises(wire.WireError, match="wire version 1 is not supported"):
        wire.FrameDecoder().feed(frame)


def test_frame_decoder_rejects_bad_length():
    with pytest.raises(wire.WireError, match="bad frame length"):
        wire.FrameDecoder().feed(b"\x00\x00\x00\x00rest")


def test_frame_decoder_rejects_unknown_frame_type():
    frame = bytearray(wire.encode_frame({"t": "status"}))
    frame[5] = 9
    with pytest.raises(wire.WireError, match="unknown frame type"):
        wire.FrameDecoder().feed(bytes(frame))
