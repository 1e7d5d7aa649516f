"""The oracle the decode differentials compare against.

The plain frame-by-frame I -> P -> B walk from each touched GOP's
keyframe: no cache, no threads, no plan sharing, one ``zlib.decompress``
and one ``GopStructure`` method call at a time.  Production has one
decode walk (``IncrementalDecoder``); this copy stays here so that walk
is checked against something that shares none of its shortcuts.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable

import numpy as np

from repro.codec.container import read_container
from repro.codec.decoder import frames_to_decode
from repro.codec.encoder import bidirectional_predictor
from repro.codec.model import FrameType


def reference_decode(data: bytes, indices: Iterable[int]) -> Dict[int, np.ndarray]:
    """Decode ``indices`` from SVC1 bytes the slow, obvious way."""
    metadata, records = read_container(data)
    gop = metadata.gop
    wanted = set(indices)

    def residual(index: int) -> np.ndarray:
        record = records[index]
        raw = zlib.decompress(data[record.offset : record.offset + record.length])
        return np.frombuffer(raw, dtype=np.uint8).reshape(
            metadata.height, metadata.width, 3
        )

    plan = frames_to_decode(gop, wanted, metadata.num_frames)

    decoded: Dict[int, np.ndarray] = {}
    for index in plan:  # anchors and trailing Ps, in order
        ftype = gop.frame_type(index, metadata.num_frames)
        if ftype is FrameType.I:
            decoded[index] = residual(index).copy()
        elif ftype is FrameType.P:
            reference = decoded[gop.reference_anchor(index, metadata.num_frames)]
            decoded[index] = reference + residual(index)
    for index in plan:  # B frames, from their two decoded anchors
        if gop.frame_type(index, metadata.num_frames) is FrameType.B:
            next_anchor = gop.next_anchor(index, metadata.num_frames)
            assert next_anchor is not None
            predictor = bidirectional_predictor(
                decoded[gop.prev_anchor(index)], decoded[next_anchor]
            )
            decoded[index] = predictor + residual(index)
    return {index: decoded[index] for index in wanted}
