"""The ``SVC1`` container: a real, seekable byte format for synthetic video.

Layout::

    +--------------------------------------------------------------+
    | magic "SVC1" | version u16 | width u16 | height u16          |
    | num_frames u32 | gop_size u16 | fps f32 | id_len u16 | id    |
    +--------------------------------------------------------------+
    | frame record 0 | frame record 1 | ...                        |
    |   each: type u8 (0=I, 1=P) | payload_len u32 | payload       |
    +--------------------------------------------------------------+
    | index: num_frames x offset u64 (from start of records)       |
    +--------------------------------------------------------------+
    | delta track: num_frames x f32                                |
    +--------------------------------------------------------------+
    | index_offset u64 | magic "SVCX"                              |
    +--------------------------------------------------------------+

The trailing index is what makes frame-accurate seeking possible, like the
sample tables of an MP4: a decoder can jump straight to the keyframe of
the GOP it needs instead of scanning the stream.

The **delta track** stores, per frame, the mean absolute pixel delta
against the *previous display-order frame*, measured by the encoder while
it still holds the raw pixels.  It is the codec-level motion signal
(Déjà Vu / CodecSight style) that near-duplicate reuse keys on: reading
it touches only container metadata — no payload is ever decompressed.
Frame 0 (and any frame whose delta was not measured) stores +inf, which
no finite reuse threshold matches.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.codec.model import FrameType, VideoMetadata

MAGIC = b"SVC1"
FOOTER_MAGIC = b"SVCX"
VERSION = 3  # v2 added b_frames; v3 added the inter-frame delta track

#: Delta value meaning "no measurement": frame 0, or a container written
#: without measurements.
UNKNOWN_DELTA = math.inf

# magic, version, w, h, frames, gop, b_frames, fps, id_len
_HEADER_FMT = "<4sHHHIHHf H"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_RECORD_FMT = "<BI"  # frame type, payload length
_RECORD_HDR_SIZE = struct.calcsize(_RECORD_FMT)
_FOOTER_FMT = "<Q4s"
_FOOTER_SIZE = struct.calcsize(_FOOTER_FMT)

_TYPE_CODE = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}
_CODE_TYPE = {code: ftype for ftype, code in _TYPE_CODE.items()}


class ContainerError(ValueError):
    """Raised when parsing malformed or truncated container bytes."""


@dataclass(frozen=True)
class FrameRecord:
    """Location of one coded frame inside the container."""

    frame_type: FrameType
    offset: int  # absolute offset of the payload within the container
    length: int  # payload length in bytes


def write_container(
    metadata: VideoMetadata,
    records: Sequence[Tuple[FrameType, bytes]],
    deltas: Optional[Sequence[float]] = None,
) -> bytes:
    """Serialize coded frame payloads into SVC1 bytes.

    ``deltas`` is the per-frame inter-frame delta-magnitude track (one
    float per frame, display order).  When omitted every slot stores
    :data:`UNKNOWN_DELTA`, so a container written without measurements
    never triggers near-duplicate reuse.
    """
    if len(records) != metadata.num_frames:
        raise ContainerError(
            f"{metadata.num_frames} frames declared, {len(records)} records given"
        )
    if deltas is not None and len(deltas) != metadata.num_frames:
        raise ContainerError(
            f"{metadata.num_frames} frames declared, {len(deltas)} deltas given"
        )
    video_id = metadata.video_id.encode()
    if len(video_id) > 0xFFFF:
        raise ContainerError("video id too long")

    parts: List[bytes] = [
        struct.pack(
            _HEADER_FMT,
            MAGIC,
            VERSION,
            metadata.width,
            metadata.height,
            metadata.num_frames,
            metadata.gop_size,
            metadata.b_frames,
            metadata.fps,
            len(video_id),
        ),
        video_id,
    ]
    records_start = sum(len(p) for p in parts)
    offsets: List[int] = []
    cursor = 0
    for frame_type, payload in records:
        offsets.append(cursor)
        parts.append(struct.pack(_RECORD_FMT, _TYPE_CODE[frame_type], len(payload)))
        parts.append(payload)
        cursor += _RECORD_HDR_SIZE + len(payload)
    index_offset = records_start + cursor
    parts.append(struct.pack(f"<{len(offsets)}Q", *offsets))
    track = deltas if deltas is not None else [UNKNOWN_DELTA] * metadata.num_frames
    parts.append(struct.pack(f"<{len(track)}f", *track))
    parts.append(struct.pack(_FOOTER_FMT, index_offset, FOOTER_MAGIC))
    return b"".join(parts)


def _read_layout(data: bytes) -> Tuple[Tuple[Any, ...], int]:
    """The validated header fields and the index offset from the footer."""
    if len(data) < _HEADER_SIZE + _FOOTER_SIZE:
        raise ContainerError("container truncated")
    header = struct.unpack_from(_HEADER_FMT, data, 0)
    if header[0] != MAGIC:
        raise ContainerError(f"bad magic {header[0]!r}")
    if header[1] != VERSION:
        raise ContainerError(f"unsupported version {header[1]}")
    index_offset, footer_magic = struct.unpack_from(
        _FOOTER_FMT, data, len(data) - _FOOTER_SIZE
    )
    if footer_magic != FOOTER_MAGIC:
        raise ContainerError(f"bad footer magic {footer_magic!r}")
    return header, index_offset


def read_container(data: bytes) -> Tuple[VideoMetadata, List[FrameRecord]]:
    """Parse SVC1 bytes into metadata and per-frame payload locations."""
    header, index_offset = _read_layout(data)
    _, _, width, height, num_frames, gop_size, b_frames, fps, id_len = header
    id_start = _HEADER_SIZE
    video_id = data[id_start : id_start + id_len].decode()
    records_start = id_start + id_len

    index_end = index_offset + 8 * num_frames
    if index_end > len(data) - _FOOTER_SIZE:
        raise ContainerError("index extends past footer")
    offsets = struct.unpack_from(f"<{num_frames}Q", data, index_offset)

    metadata = VideoMetadata(
        video_id=video_id,
        width=width,
        height=height,
        num_frames=num_frames,
        fps=fps,
        gop_size=gop_size,
        b_frames=b_frames,
    )
    records: List[FrameRecord] = []
    for rel_offset in offsets:
        pos = records_start + rel_offset
        if pos + _RECORD_HDR_SIZE > index_offset:
            raise ContainerError("frame record outside records section")
        type_code, payload_len = struct.unpack_from(_RECORD_FMT, data, pos)
        if type_code not in _CODE_TYPE:
            raise ContainerError(f"unknown frame type code {type_code}")
        payload_start = pos + _RECORD_HDR_SIZE
        if payload_start + payload_len > index_offset:
            raise ContainerError("frame payload extends into index")
        records.append(
            FrameRecord(_CODE_TYPE[type_code], payload_start, payload_len)
        )
    return metadata, records


def read_delta_track(data: bytes) -> Tuple[float, ...]:
    """Read the per-frame delta-magnitude track without touching payloads.

    The read is metadata-only: header + footer + the track floats
    themselves — no frame payload is sliced or decompressed.
    """
    header, index_offset = _read_layout(data)
    num_frames = header[4]
    track_offset = index_offset + 8 * num_frames
    if track_offset + 4 * num_frames > len(data) - _FOOTER_SIZE:
        raise ContainerError("delta track extends past footer")
    return struct.unpack_from(f"<{num_frames}f", data, track_offset)
