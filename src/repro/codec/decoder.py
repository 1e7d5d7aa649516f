"""Dependency-aware decoder for the synthetic codec.

The decoder reproduces the inefficiency at the heart of the paper's
motivation (S3, Fig 3): requesting a sparse set of frames forces
decoding every *anchor* from each touched GOP's keyframe up to the
request — and, for B frames, the following anchor as well.  B frames
nothing depends on can be skipped, exactly as in real decoders.
:class:`DecodeStats` counts the amplification so benchmarks can report
decoded-vs-used frame ratios.

:func:`frames_to_decode` is the pure planning version of the same rule;
SAND's materialization planner and the cost model use it to price a
decode without performing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set

import numpy as np

from repro.codec.model import GopStructure, VideoMetadata


def frames_to_decode(
    gop: GopStructure, indices: Iterable[int], num_frames: int
) -> List[int]:
    """Frames that must actually be decoded to obtain ``indices``.

    The union of every requested frame's dependency chain: the anchor
    chain from its GOP's keyframe, plus the following anchor for B
    frames, plus the frame itself.  Returned sorted and de-duplicated.
    """
    needed: Set[int] = set()
    for index in indices:
        if not 0 <= index < num_frames:
            raise IndexError(f"frame {index} out of range [0, {num_frames})")
        needed.update(gop.dependency_chain(index, num_frames))
    return sorted(needed)


@dataclass
class DecodeStats:
    """Counters for decode amplification and I/O.

    ``frames_decoded`` counts frames that went through actual payload
    decode work; ``frames_reused_from_anchor_cache`` counts frames the
    stateless plan would have decoded that a stateful decoder instead
    satisfied (or made unnecessary) via cached anchor state.
    """

    frames_requested: int = 0
    frames_decoded: int = 0
    frames_reused_from_anchor_cache: int = 0
    frames_skipped_near_duplicate: int = 0
    bytes_read: int = 0
    decode_calls: int = 0

    @property
    def frames_decoded_fresh(self) -> int:
        """Alias making the fresh-vs-reused split explicit in reports."""
        return self.frames_decoded

    @property
    def amplification(self) -> float:
        """Decoded / requested frame ratio (>= 1 in steady state)."""
        if self.frames_requested == 0:
            return 0.0
        return self.frames_decoded / self.frames_requested


class Decoder:
    """Decodes frames from SVC1 bytes, tracking amplification stats.

    Without ``anchor_cache`` the decoder is stateless between calls —
    like the on-demand baselines in the paper, nothing decoded survives
    the call unless the caller keeps it.  (SAND's whole contribution is
    to keep it, at the system level, on the caller's behalf.)

    There is one decode walk: this class is an
    :class:`~repro.codec.incremental.IncrementalDecoder` over the given
    cache, or over a zero-budget one that can hold nothing.  With a
    cache, full-video decodes warm it and sparse re-accesses resume from
    cached anchors, byte-identically.
    """

    def __init__(self, data: bytes, anchor_cache=None, reuse_threshold: float = 0.0):
        # Local import: incremental.py imports this module.
        from repro.codec.incremental import AnchorCache, IncrementalDecoder

        self._incremental = IncrementalDecoder(
            data,
            cache=anchor_cache if anchor_cache is not None else AnchorCache(0),
            reuse_threshold=reuse_threshold,
        )
        self.metadata: VideoMetadata = self._incremental.metadata
        self.stats: DecodeStats = self._incremental.stats

    def decode_frames(self, indices: Sequence[int]) -> Dict[int, np.ndarray]:
        """Decode the requested frames, plus their codec dependencies."""
        return self._incremental.decode_frames(indices)

    def decode_all(self) -> Dict[int, np.ndarray]:
        return self.decode_frames(range(self.metadata.num_frames))
