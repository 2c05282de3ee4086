"""Registry-driven wire format: binary overlay messages, JSON control frames.

The protocol registry (:data:`repro.core.protocol.PAYLOAD_REGISTRY`) is
the single source of truth for *what* can cross the wire; this module
derives *how* it crosses from the same registry, so sim dispatch and
socket framing can never disagree about the payload inventory
(``python -m repro protocol --json`` pins the shared schema, field
codecs included).

Frame layout (header big-endian)::

    +----------------+---------+--------+---------------------------+
    | length: 4 bytes| version | type   | body: length-2 bytes      |
    | (version..body)| 1 byte  | 1 byte |                           |
    +----------------+---------+--------+---------------------------+

    type 0  control: a UTF-8 JSON object (membership, client RPCs)
    type 1  message: one overlay :class:`Message`, binary (below)

A message body is the :class:`Message` envelope followed by its
payload, each field in dataclass order, all little-endian:

===================  ====================================================
field type           bytes
===================  ====================================================
``int``              ``i64`` (8; outside int64 is a :class:`WireError`)
``float``            ``f64`` (8, IEEE 754: NaN, ±inf, -0.0 exact)
``bool``             1
``str``              ``u32`` byte count + UTF-8
``np.ndarray``       dtype code ``f`` (float64) / ``i`` (int64) + ``u32``
                     element count + raw elements (1-D only)
``MBR``              ``u32`` d + low[d] + high[d] as f64 + ``str``
                     stream id + ``i64`` count + ``f64`` created
``List[T]``          ``u32`` count + items
``Tuple[A, B]``      the items in order
``Dict[K, V]``       ``u32`` count + key/value pairs
a dataclass          its fields in order (``InnerProductQuery``)
``Message.payload``  ``u8`` name length + the registered class name +
                     that class's fields
===================  ====================================================

One encoder/decoder pair is generated per payload class from its
resolved field types, once, when :func:`codec_table` first runs; runs of
consecutive fixed-width fields are packed by one ``struct.Struct``.
Every decode failure — a truncated body, trailing bytes, an unknown
payload tag or dtype code, bad UTF-8, an MBR with ``low > high`` — is a
:class:`WireError`, and so is a foreign version byte.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import typing
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type, Union

import numpy as np

from ..core.mbr import MBR
from ..core.protocol import PAYLOAD_REGISTRY, registry_items
from ..sim.network import Message

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "CodecEntry",
    "Frame",
    "codec_table",
    "encode_message",
    "decode_message",
    "encode_frame",
    "FrameDecoder",
]

#: bumped on any incompatible change to the frame or value codec
WIRE_VERSION = 2

#: refuse to buffer frames beyond this (garbage / wrong-protocol guard)
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: frame type byte of a JSON control frame / a binary message frame
FRAME_CONTROL = 0
FRAME_MESSAGE = 1

_HEADER = struct.Struct(">IBB")
_U32 = struct.Struct("<I")
_ND_HEAD = struct.Struct("<cI")

#: ndarray dtype code on the wire -> (wire dtype, native dtype)
_DTYPES = {
    b"f": (np.dtype("<f8"), np.dtype(np.float64)),
    b"i": (np.dtype("<i8"), np.dtype(np.int64)),
}
_DTYPE_CODES = {native: code for code, (_, native) in _DTYPES.items()}
_F64_LE = _DTYPES[b"f"][0]

#: what a value of the wrong type or range raises while being packed
_PACK_ERRORS = (struct.error, TypeError, AttributeError, ValueError, OverflowError)
#: what a malformed body raises while being unpacked
_UNPACK_ERRORS = (struct.error, ValueError, IndexError, TypeError, OverflowError)

#: a decoded frame: a control object, or a message body for decode_message
Frame = Union[Dict[str, Any], bytes]


class WireError(ValueError):
    """A frame or value that cannot be (de)coded safely."""


class _Codec(NamedTuple):
    """How one type crosses the wire."""

    #: layout descriptor, e.g. ``"i64"`` or ``"list[tuple[str,f64]]"``
    name: str
    pack: Callable[[List[bytes], Any], None]
    unpack: Callable[[bytes, int], Tuple[Any, int]]
    #: struct code of a fixed-width scalar, ``""`` otherwise
    fmt: str = ""


class CodecEntry(NamedTuple):
    """One payload type's row in the wire codec table."""

    tag: str
    cls: Type
    kind: str
    fields: Tuple[str, ...]
    #: one layout descriptor per field (see the module docstring)
    codecs: Tuple[str, ...]
    codec: _Codec


# ----------------------------------------------------------------------
# value codecs
# ----------------------------------------------------------------------
def _scalar(name: str, fmt: str) -> _Codec:
    st = struct.Struct("<" + fmt)
    size = st.size

    def pack(out: List[bytes], value: Any) -> None:
        out.append(st.pack(value))

    def unpack(buf: bytes, off: int) -> Tuple[Any, int]:
        return st.unpack_from(buf, off)[0], off + size

    return _Codec(name, pack, unpack, fmt)


def _pack_str(out: List[bytes], value: str) -> None:
    data = value.encode("utf-8")
    out.append(_U32.pack(len(data)))
    out.append(data)


def _unpack_str(buf: bytes, off: int) -> Tuple[str, int]:
    (n,) = _U32.unpack_from(buf, off)
    start = off + 4
    end = start + n
    if end > len(buf):
        raise WireError(f"truncated string: {n} bytes announced, {len(buf) - start} left")
    return str(buf[start:end], "utf-8"), end


def _le_bytes(arr: np.ndarray, wire_dtype: np.dtype) -> bytes:
    """Raw little-endian elements (no conversion on a little-endian host)."""
    if arr.dtype != wire_dtype:
        arr = arr.astype(wire_dtype)
    return arr.tobytes()


def _pack_ndarray(out: List[bytes], value: Any) -> None:
    arr = np.asarray(value)
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise WireError(f"cannot encode an ndarray of dtype {arr.dtype}")
    if arr.ndim != 1:
        raise WireError(f"cannot encode a {arr.ndim}-D ndarray (1-D only)")
    out.append(_ND_HEAD.pack(code, arr.shape[0]))
    out.append(_le_bytes(arr, _DTYPES[code][0]))


def _unpack_ndarray(buf: bytes, off: int) -> Tuple[np.ndarray, int]:
    code, n = _ND_HEAD.unpack_from(buf, off)
    dtypes = _DTYPES.get(code)
    if dtypes is None:
        raise WireError(f"unknown ndarray dtype code {code!r}")
    start = off + _ND_HEAD.size
    end = start + 8 * n
    if end > len(buf):
        raise WireError(f"truncated ndarray: {n} elements announced")
    # astype copies: the array is writable and does not pin the frame
    arr = np.frombuffer(buf, dtypes[0], n, start).astype(dtypes[1])
    return arr, end


_MBR_TAIL = struct.Struct("<qd")


def _pack_mbr(out: List[bytes], mbr: MBR) -> None:
    bounds = mbr.bounds  # rows low, high: one buffer, low[d] then high[d]
    if bounds.ndim != 2:
        raise WireError(f"cannot encode a {bounds.ndim - 1}-D MBR (1-D only)")
    out.append(_U32.pack(bounds.shape[1]))
    out.append(_le_bytes(bounds, _F64_LE))
    _pack_str(out, mbr.stream_id)
    out.append(_MBR_TAIL.pack(mbr.count, mbr.created))


def _unpack_mbr(buf: bytes, off: int) -> Tuple[MBR, int]:
    (d,) = _U32.unpack_from(buf, off)
    start = off + 4
    end = start + 16 * d
    if end > len(buf):
        raise WireError(f"truncated MBR: {d} dimensions announced")
    bounds = np.ndarray((2, d), _F64_LE, buf, start).astype(np.float64)
    stream_id, off = _unpack_str(buf, end)
    count, created = _MBR_TAIL.unpack_from(buf, off)
    mbr = MBR.from_bounds(bounds, stream_id=stream_id, count=count, created=created)
    return mbr, off + _MBR_TAIL.size


_LEAVES: Dict[Any, _Codec] = {
    int: _scalar("i64", "q"),
    float: _scalar("f64", "d"),
    bool: _scalar("bool", "?"),
    str: _Codec("str", _pack_str, _unpack_str),
    np.ndarray: _Codec("ndarray", _pack_ndarray, _unpack_ndarray),
    MBR: _Codec("mbr", _pack_mbr, _unpack_mbr),
}


def _list(item: _Codec) -> _Codec:
    """``u32`` count + items."""
    pack_item, unpack_item = item.pack, item.unpack

    def pack(out: List[bytes], value: Any) -> None:
        out.append(_U32.pack(len(value)))
        for x in value:
            pack_item(out, x)

    def unpack(buf: bytes, off: int) -> Tuple[Any, int]:
        (n,) = _U32.unpack_from(buf, off)
        off += 4
        items = []
        for _ in range(n):
            x, off = unpack_item(buf, off)
            items.append(x)
        return items, off

    return _Codec(f"list[{item.name}]", pack, unpack)


def _fixed_tuple(items: List[_Codec]) -> _Codec:
    packs = [c.pack for c in items]
    unpacks = [c.unpack for c in items]

    def pack(out: List[bytes], value: Any) -> None:
        if len(value) != len(packs):
            raise WireError(f"expected a {len(packs)}-tuple, got {len(value)} items")
        for p, x in zip(packs, value):
            p(out, x)

    def unpack(buf: bytes, off: int) -> Tuple[Any, int]:
        values = []
        for u in unpacks:
            x, off = u(buf, off)
            values.append(x)
        return tuple(values), off

    return _Codec(f"tuple[{','.join(c.name for c in items)}]", pack, unpack)


def _mapping(key: _Codec, val: _Codec) -> _Codec:
    pack_k, pack_v, unpack_k, unpack_v = key.pack, val.pack, key.unpack, val.unpack

    def pack(out: List[bytes], value: Dict[Any, Any]) -> None:
        out.append(_U32.pack(len(value)))
        for k, v in value.items():
            pack_k(out, k)
            pack_v(out, v)

    def unpack(buf: bytes, off: int) -> Tuple[Dict[Any, Any], int]:
        (n,) = _U32.unpack_from(buf, off)
        off += 4
        out: Dict[Any, Any] = {}
        for _ in range(n):
            k, off = unpack_k(buf, off)
            out[k], off = unpack_v(buf, off)
        return out, off

    return _Codec(f"dict[{key.name},{val.name}]", pack, unpack)


def _codec_for(tp: Any, where: str) -> _Codec:
    """The codec of one resolved field type."""
    leaf = _LEAVES.get(tp)
    if leaf is not None:
        return leaf
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list and len(args) == 1:
        return _list(_codec_for(args[0], where))
    if origin is tuple and args and Ellipsis not in args:
        return _fixed_tuple([_codec_for(a, where) for a in args])
    if origin is dict and len(args) == 2:
        return _mapping(_codec_for(args[0], where), _codec_for(args[1], where))
    if dataclasses.is_dataclass(tp) and isinstance(tp, type):
        return _record(tp, *_fields_of(tp))
    raise TypeError(f"{where}: no wire codec for field type {tp!r}")


def _fields_of(
    cls: Type, overrides: Optional[Dict[str, _Codec]] = None
) -> Tuple[List[str], List[_Codec]]:
    """A dataclass's field names and their codecs, in declaration order.

    ``overrides`` supplies codecs for fields whose declared type does
    not describe the wire form (``Message.payload`` is ``Any``).
    """
    overrides = overrides or {}
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    codecs = [
        overrides.get(name) or _codec_for(hints[name], f"{cls.__name__}.{name}")
        for name in names
    ]
    return names, codecs


def _record(cls: Type, fields: List[str], codecs: List[_Codec]) -> _Codec:
    """Codec of a dataclass, generated once as straight-line Python.

    Fields go in declaration order; each run of consecutive fixed-width
    fields is one ``struct.Struct`` call.  For ``MbrPublish`` the
    generated pair reads::

        def pack(out, obj):
            try:
                c0(out, obj.mbr)
                out.append(s1.pack(obj.source_id, obj.low_key, ..., obj.delivery_id))
            except PACK_ERRORS as exc:
                raise blame(obj, exc) from exc

        def unpack(buf, off):
            v0, off = u0(buf, off)
            v1, v2, v3, v4, v5 = s1.unpack_from(buf, off)
            off += 40
            return cls(v0, v1, v2, v3, v4, v5), off
    """
    env: Dict[str, Any] = {
        "cls": cls,
        "PACK_ERRORS": _PACK_ERRORS,
        "blame": lambda obj, exc: _blame(cls, fields, codecs, obj, exc),
    }
    pack_src: List[str] = []
    unpack_src: List[str] = []
    i = 0
    while i < len(fields):
        j = i
        while j < len(fields) and codecs[j].fmt:
            j += 1
        if j > i:  # a run of fixed-width scalars: one struct
            st = env[f"s{i}"] = struct.Struct("<" + "".join(c.fmt for c in codecs[i:j]))
            args = ", ".join(f"obj.{name}" for name in fields[i:j])
            pack_src.append(f"out.append(s{i}.pack({args}))")
            names = "".join(f"v{k}, " for k in range(i, j))
            unpack_src += [f"{names}= s{i}.unpack_from(buf, off)", f"off += {st.size}"]
            i = j
        else:
            env[f"c{i}"], env[f"u{i}"] = codecs[i].pack, codecs[i].unpack
            pack_src.append(f"c{i}(out, obj.{fields[i]})")
            unpack_src.append(f"v{i}, off = u{i}(buf, off)")
            i += 1
    values = ", ".join(f"v{k}" for k in range(len(fields)))
    src = "\n".join(
        ["def pack(out, obj):", "    try:"]
        + [f"        {line}" for line in pack_src]
        + ["    except PACK_ERRORS as exc:", "        raise blame(obj, exc) from exc"]
        + ["def unpack(buf, off):"]
        + [f"    {line}" for line in unpack_src]
        + [f"    return cls({values}), off"]
    )
    exec(compile(src, f"<wire codec of {cls.__name__}>", "exec"), env)
    name = f"{cls.__name__}({','.join(c.name for c in codecs)})"
    return _Codec(name, env["pack"], env["unpack"])


def _blame(cls: Type, fields: List[str], codecs: List[_Codec], obj: Any,
           exc: Exception) -> WireError:
    """Name the field whose value failed to pack (the slow path)."""
    for name, codec in zip(fields, codecs):
        try:
            codec.pack([], getattr(obj, name))
        except _PACK_ERRORS as field_exc:
            return WireError(f"{cls.__name__}.{name}: {field_exc}")
    return WireError(f"{cls.__name__}: {exc}")


# ----------------------------------------------------------------------
# payload table and message codec
# ----------------------------------------------------------------------
_by_tag: Dict[str, CodecEntry] = {}
_by_cls: Dict[Type, Tuple[bytes, _Codec]] = {}
_by_wire_tag: Dict[bytes, CodecEntry] = {}


def codec_table() -> Dict[str, CodecEntry]:
    """Tag -> codec entry for every registered payload type.

    Derived from the protocol registry in declaration order; rebuilt
    lazily when the registry grows (payload types registered after
    import still serialize).
    """
    if len(_by_tag) != len(PAYLOAD_REGISTRY):
        _by_tag.clear()
        _by_cls.clear()
        _by_wire_tag.clear()
        for cls, spec in registry_items():
            fields, codecs = _fields_of(cls)
            codec = _record(cls, fields, codecs)
            entry = CodecEntry(
                tag=cls.__name__,
                cls=cls,
                kind=spec.kind,
                fields=tuple(fields),
                codecs=tuple(c.name for c in codecs),
                codec=codec,
            )
            tag = cls.__name__.encode("ascii")
            _by_tag[entry.tag] = entry
            _by_cls[cls] = (bytes([len(tag)]) + tag, codec)
            _by_wire_tag[tag] = entry
    return _by_tag


def _pack_payload(out: List[bytes], payload: Any) -> None:
    codec_table()
    found = _by_cls.get(type(payload))
    if found is None:
        raise WireError(
            f"payload type {type(payload).__name__} is not in PAYLOAD_REGISTRY"
        )
    out.append(found[0])
    found[1].pack(out, payload)


def _unpack_payload(buf: bytes, off: int) -> Tuple[Any, int]:
    codec_table()
    end = off + 1 + buf[off]
    tag = buf[off + 1 : end]
    entry = _by_wire_tag.get(tag)
    if entry is None:
        raise WireError(f"unknown payload tag {tag!r}")
    return entry.codec.unpack(buf, end)


_MESSAGE = _record(
    Message,
    *_fields_of(Message, {"payload": _Codec("payload", _pack_payload, _unpack_payload)}),
)


def encode_message(msg: Message) -> bytes:
    """Binary body of one overlay message (envelope + payload)."""
    out: List[bytes] = []
    _MESSAGE.pack(out, msg)
    return b"".join(out)


def decode_message(body: bytes) -> Message:
    """Inverse of :func:`encode_message`; any malformed body is a WireError."""
    try:
        msg, end = _MESSAGE.unpack(body, 0)
    except WireError:
        raise
    except _UNPACK_ERRORS as exc:
        raise WireError(f"undecodable message body: {exc!r}") from exc
    if end != len(body):
        raise WireError(f"{len(body) - end} trailing bytes after the message")
    return msg


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
#: one reusable codec: ``json.dumps``/``loads`` build one per call
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=True)
_JSON_DECODER = json.JSONDecoder()


def encode_frame(obj: Frame) -> bytes:
    """One frame: a message body from :func:`encode_message` or a JSON object."""
    if isinstance(obj, bytes):
        kind, body = FRAME_MESSAGE, obj
    else:
        kind = FRAME_CONTROL
        body = _JSON_ENCODER.encode(obj).encode("utf-8")
    if 2 + len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return _HEADER.pack(2 + len(body), WIRE_VERSION, kind) + body


def _load_control(body: bytes) -> Dict[str, Any]:
    try:
        obj = _JSON_DECODER.decode(body.decode("utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise WireError(f"undecodable control frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError("control frame body must be a JSON object")
    return obj


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed it whatever the socket produced; it returns every complete
    frame — a control frame as its JSON object, a message frame as the
    body bytes for :func:`decode_message` — and buffers the remainder.
    A bad length, a foreign version byte or an unknown frame type means
    the stream itself cannot be trusted: :class:`WireError`.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        buf = self._buf
        buf += data
        out: List[Frame] = []
        pos, size = 0, len(buf)
        while size - pos >= _HEADER.size:
            length, version, kind = _HEADER.unpack_from(buf, pos)
            if length < 2 or length > MAX_FRAME_BYTES:
                raise WireError(f"bad frame length {length}")
            if version != WIRE_VERSION:
                raise WireError(
                    f"wire version {version} is not supported "
                    f"(this peer speaks version {WIRE_VERSION})"
                )
            end = pos + 4 + length
            if end > size:
                break
            body = bytes(buf[pos + _HEADER.size : end])
            if kind == FRAME_MESSAGE:
                out.append(body)
            elif kind == FRAME_CONTROL:
                out.append(_load_control(body))
            else:
                raise WireError(f"unknown frame type {kind}")
            pos = end
        del buf[:pos]
        return out
