"""The SAND data-plane wire protocol: length-prefixed binary frames.

Every message between a trainer and the batch server (and, since PR 8,
between the augment RPC client and its worker) is one *frame*::

    offset  size  field
    ------  ----  -----------------------------------------------------
         0     4  magic  b"SDP1"
         4     1  protocol version (PROTOCOL_VERSION)
         5     1  frame type (FrameType)
         6     2  flags (reserved, zero)
         8     8  payload length, unsigned little-endian
        16     4  CRC-32 of header bytes [0:16]
        20     N  payload

The CRC guards the *header*: a corrupted or desynchronized stream is
detected before a bogus length field can make the reader allocate or
wait forever.  Payload integrity on the batch path is covered end-to-end
by the differential tests (and by storage CRCs below the engine), so
frames stay cheap to emit.

Batch payloads are pickle-free.  A ``BATCH`` frame body is::

    u32   metadata length
    ...   metadata (canonical JSON, UTF-8)
    u16   dtype string length     ┐
    ...   numpy dtype str         │ array
    u8    ndim                    │ descriptor
    u64×n shape                   │
    i64×n strides                 ┘
    ...   array bytes (C-contiguous)

and the array bytes are sent as a :class:`memoryview` of the pooled
delivery buffer — never copied into an intermediate ``bytes`` — while
the receiver decodes them as a zero-copy ``np.frombuffer`` view of its
receive buffer.  Strides travel on the wire so the receiver can verify
the layout it assumes instead of trusting it.

Hard limits: ``max_payload`` (default 2 GiB) bounds every read.  A peer
announcing a larger frame gets :class:`FrameTooLargeError` with the
limit spelled out — the failure mode this replaces was a silent ``"<I"``
4 GiB wrap in ``repro.augment.rpc`` surfacing as an opaque
``struct.error``.
"""

from __future__ import annotations

import json
import struct
import zlib
from enum import IntEnum
from typing import Any, BinaryIO, Dict, List, Tuple, Union

import numpy as np

MAGIC = b"SDP1"
PROTOCOL_VERSION = 1

_HEADER_FMT = "<4sBBHQ"
_CRC_FMT = "<I"
HEADER_BODY_SIZE = struct.calcsize(_HEADER_FMT)
HEADER_SIZE = HEADER_BODY_SIZE + struct.calcsize(_CRC_FMT)

# Per-frame payload ceiling.  Big enough for any sane batch, small
# enough that a garbage length field fails fast instead of wedging the
# reader in a multi-gigabyte recv loop.
DEFAULT_MAX_PAYLOAD = 2 * 1024 * 1024 * 1024

Payload = Union[bytes, bytearray, memoryview]


class FrameType(IntEnum):
    HELLO = 1
    GET_BATCH = 2
    BATCH = 3
    ERR = 4
    STATS = 5
    PING = 6
    PONG = 7
    ACK = 8
    RPC_REQUEST = 9
    RPC_RESPONSE = 10


class WireError(RuntimeError):
    """Any wire-protocol violation (framing, handshake, layout)."""


class WireEOFError(WireError):
    """The peer closed the stream (possibly mid-frame)."""


class CorruptFrameError(WireError):
    """Header CRC mismatch or bad magic: corrupt/desynchronized stream."""


class ProtocolVersionError(WireError):
    """The peer speaks an incompatible protocol version."""


class FrameTooLargeError(WireError):
    """A frame's payload exceeds the configured maximum."""


# -- header ------------------------------------------------------------------


def pack_header(ftype: FrameType, payload_len: int) -> bytes:
    """The 20-byte CRC-guarded frame header."""
    body = struct.pack(
        _HEADER_FMT, MAGIC, PROTOCOL_VERSION, int(ftype), 0, int(payload_len)
    )
    return body + struct.pack(_CRC_FMT, zlib.crc32(body))


def unpack_header(
    header: Payload, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Tuple[FrameType, int]:
    """Validate one header; returns ``(frame_type, payload_length)``.

    Checks, in order: size, CRC (catches corruption *and* stream
    desynchronization), magic, protocol version, known frame type, and
    the payload-length ceiling.
    """
    if len(header) != HEADER_SIZE:
        raise CorruptFrameError(
            f"frame header must be {HEADER_SIZE} bytes, got {len(header)}"
        )
    view = memoryview(header)
    magic, version, raw_type, _flags, length = struct.unpack_from(
        _HEADER_FMT, view, 0
    )
    (crc,) = struct.unpack_from(_CRC_FMT, view, HEADER_BODY_SIZE)
    if crc != zlib.crc32(view[:HEADER_BODY_SIZE]):
        raise CorruptFrameError(
            "frame header CRC mismatch (corrupt or desynchronized stream)"
        )
    if magic != MAGIC:
        raise CorruptFrameError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"peer speaks wire protocol version {version}, this build "
            f"speaks {PROTOCOL_VERSION}"
        )
    try:
        ftype = FrameType(raw_type)
    except ValueError as exc:
        raise CorruptFrameError(f"unknown frame type {raw_type}") from exc
    if length > max_payload:
        raise FrameTooLargeError(
            f"{ftype.name} frame announces {length} payload bytes, over the "
            f"{max_payload}-byte limit"
        )
    return ftype, int(length)


# -- small control frames ----------------------------------------------------


def control_frame(ftype: FrameType, payload: Payload = b"") -> bytes:
    """One complete small frame (header + payload) as contiguous bytes."""
    return pack_header(ftype, len(payload)) + payload


def json_frame(ftype: FrameType, obj: Any) -> bytes:
    """A control frame whose payload is canonical JSON."""
    return control_frame(ftype, encode_json(obj))


def encode_json(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def parse_json(payload: Payload) -> Any:
    return json.loads(str(memoryview(payload), "utf-8"))


class BatchDescription(Dict[str, Any]):
    """A batch's metadata mapping, described once.

    The mapping is a pure function of the plan, so the engine builds it
    once per batch and hands the same object to every request — every
    trainer on the task, in process or over the wire: treat it as
    read-only.  Its BATCH-frame encoding (``u32`` length + canonical
    JSON) is kept beside it from the first send on, so a batch already
    described costs :func:`batch_frame_parts` no JSON work.
    """

    __slots__ = ("_prefix",)
    _prefix: bytes

    def wire_prefix(self) -> bytes:
        try:
            return self._prefix
        except AttributeError:
            meta = encode_json(self)
            self._prefix = struct.pack("<I", len(meta)) + meta
            return self._prefix


# -- ndarray descriptor ------------------------------------------------------


def _array_descriptor(array: np.ndarray) -> bytes:
    dtype_str = array.dtype.str.encode("ascii")
    return struct.pack(
        f"<H{len(dtype_str)}sB{array.ndim}Q{array.ndim}q",
        len(dtype_str), dtype_str, array.ndim, *array.shape, *array.strides,
    )


def _contiguous_strides(shape: Tuple[int, ...], itemsize: int) -> Tuple[int, ...]:
    strides = []
    step = itemsize
    for dim in reversed(shape):
        strides.append(step)
        step *= dim
    return tuple(reversed(strides))


def batch_frame_parts(
    metadata: Dict[str, Any], array: np.ndarray
) -> List[Payload]:
    """A BATCH frame as sendmsg-style parts: ``[header+prefix, view]``.

    The first part is the frame header plus the metadata/descriptor
    prefix (small, owned bytes); the second is a flat :class:`memoryview`
    of the array itself — the caller writes both to the socket and the
    batch bytes are never copied into an intermediate buffer.
    """
    if not array.flags["C_CONTIGUOUS"]:
        raise WireError(
            "batch payloads must be C-contiguous (pooled delivery buffers "
            "always are); refusing to copy implicitly"
        )
    if isinstance(metadata, BatchDescription):
        described = metadata.wire_prefix()
    else:
        meta = encode_json(metadata)
        described = struct.pack("<I", len(meta)) + meta
    prefix = described + _array_descriptor(array)
    header = pack_header(FrameType.BATCH, len(prefix) + array.nbytes)
    return [header + prefix, memoryview(array).cast("B")]


def decode_batch_payload(payload: Payload) -> Tuple[Dict[str, Any], np.ndarray]:
    """Decode a BATCH payload into ``(metadata, array)`` without copying.

    The returned array is a ``np.frombuffer`` view over ``payload``; the
    caller owns the backing buffer (the client's receive buffer) and
    must keep it alive for the array's lifetime — numpy holds a
    reference, so ordinary usage is safe.
    """
    view = memoryview(payload)
    try:
        (meta_len,) = struct.unpack_from("<I", view, 0)
        offset = 4 + meta_len
        metadata = json.loads(str(view[4:offset], "utf-8"))
        (dtype_len,) = struct.unpack_from("<H", view, offset)
        offset += 2
        dtype = np.dtype(str(view[offset : offset + dtype_len], "ascii"))
        offset += dtype_len
        (ndim,) = struct.unpack_from("<B", view, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}Q", view, offset)
        offset += 8 * ndim
        strides = struct.unpack_from(f"<{ndim}q", view, offset)
        offset += 8 * ndim
    except (struct.error, ValueError, TypeError) as exc:
        raise CorruptFrameError(f"malformed BATCH payload: {exc}") from exc
    if strides != _contiguous_strides(shape, dtype.itemsize):
        raise WireError(
            f"BATCH array is not C-contiguous on the wire "
            f"(shape {shape}, strides {strides})"
        )
    count = 1
    for dim in shape:
        count *= dim
    if offset + count * dtype.itemsize != len(view):
        raise CorruptFrameError(
            f"BATCH payload length mismatch: descriptor promises "
            f"{count * dtype.itemsize} array bytes, frame carries "
            f"{len(view) - offset}"
        )
    array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
    return metadata, array.reshape(shape)


# -- blocking-stream helpers (pipes, blocking sockets) -----------------------


def read_exact(stream: BinaryIO, n: int) -> bytearray:
    """Read exactly ``n`` bytes or raise :class:`WireEOFError`."""
    buf = bytearray()
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            raise WireEOFError(
                "peer closed the stream"
                if not buf
                else f"peer closed the stream mid-frame ({len(buf)}/{n} bytes)"
            )
        buf += chunk
    return buf


def write_frame(
    stream: BinaryIO,
    ftype: FrameType,
    payload: Payload,
    max_payload: int = DEFAULT_MAX_PAYLOAD,
) -> None:
    """Write one frame to a blocking binary stream and flush it."""
    if len(payload) > max_payload:
        raise FrameTooLargeError(
            f"refusing to send a {len(payload)}-byte {ftype.name} payload, "
            f"over the {max_payload}-byte limit"
        )
    stream.write(pack_header(ftype, len(payload)))
    stream.write(payload)
    stream.flush()


def read_frame(
    stream: BinaryIO, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Tuple[FrameType, bytearray]:
    """Read one complete frame from a blocking binary stream."""
    header = read_exact(stream, HEADER_SIZE)
    ftype, length = unpack_header(header, max_payload=max_payload)
    payload = read_exact(stream, length) if length else bytearray()
    return ftype, payload
