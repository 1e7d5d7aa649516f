"""The dependency rule of a decode in the synthetic codec, and its stats.

Requesting a sparse set of frames forces decoding every *anchor* from
each touched GOP's keyframe up to the request — and, for B frames, the
following anchor as well; B frames nothing depends on are skipped,
exactly as in real decoders.  That is the inefficiency at the heart of
the paper's motivation (S3, Fig 3).  :func:`frames_to_decode` is the
rule as a pure plan: the decoder
(:class:`~repro.codec.incremental.IncrementalDecoder`), SAND's
materialization planner and the cost model all price a decode with it.
:class:`DecodeStats` counts the amplification so benchmarks can report
decoded-vs-used frame ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set

from repro.codec.model import GopStructure


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
    def amplification(self) -> float:
        """Decoded / requested frame ratio (>= 1 in steady state)."""
        if self.frames_requested == 0:
            return 0.0
        return self.frames_decoded / self.frames_requested
