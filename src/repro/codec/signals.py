"""Codec-signal API: per-video frame signals without decoding anything.

Real codecs expose a surprising amount of structure before a single
pixel is reconstructed: frame types and GOP layout from the bitstream
headers, and per-frame motion magnitude from the residual sizes (Déjà Vu
and CodecSight both build on exactly this).  Our ``SVC1`` container makes
the same signals first-class — the GOP geometry lives in the header and
the encoder persists a per-frame **delta track** (mean absolute pixel
delta against the previous display-order frame, measured at encode time).

:class:`FrameSignals` bundles both into a metadata-only view of one
video.  Constructing it from container bytes touches the header, the
footer, and the delta track — never a frame payload — so asking "is
frame 17 a near-duplicate of frame 16?" costs a few struct reads, not a
decode.

The one policy decision made here is :meth:`FrameSignals.effective_frame`,
the *pure* near-duplicate collapse rule used by every reuse layer above::

    effective(i) = i            if i == 0, or i is an anchor (I / anchor-P),
                                or delta(i) >= threshold
                 = effective(i-1) otherwise

Anchors never collapse: reference chains stay exact, so the reduced
decode plan is always a subset of the full plan, and the mapping is a
pure function of ``(index, threshold, stored deltas)`` — independent of
cache state, prefetch timing, or call order.  ``threshold == 0`` never
matches (the comparison is strict, and unmeasured frames store ``+inf``),
which is what makes the zero-threshold pipeline byte-identical to the
historical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codec.container import (
    UNKNOWN_DELTA,
    read_container,
    read_delta_track,
)
from repro.codec.model import FrameType, GopStructure, VideoMetadata


@dataclass(frozen=True)
class FrameSignal:
    """Everything the codec knows about one frame without decoding it."""

    index: int
    frame_type: FrameType
    #: The anchor this frame's reconstruction hangs off: itself for
    #: anchors, the previous anchor otherwise.
    anchor: int
    #: Distance (in frames) back to that anchor; 0 for anchors.
    anchor_distance: int
    #: Mean absolute pixel delta vs the previous display-order frame,
    #: as stored in the container; ``UNKNOWN_DELTA`` when unmeasured.
    delta_magnitude: float


class FrameSignals:
    """Per-video codec signals: GOP geometry plus the stored delta track.

    Thread-safe for reads after construction; the memoized effective
    maps are built eagerly per threshold under the GIL (dict assignment
    is atomic, and rebuilding the same map twice is harmless).
    """

    def __init__(
        self, metadata: VideoMetadata, deltas: Optional[Sequence[float]] = None
    ) -> None:
        if deltas is not None and len(deltas) != metadata.num_frames:
            raise ValueError(
                f"{metadata.num_frames} frames, {len(deltas)} deltas given"
            )
        self.metadata = metadata
        self.gop: GopStructure = metadata.gop
        self._deltas: Optional[Tuple[float, ...]] = (
            tuple(float(d) for d in deltas) if deltas is not None else None
        )
        self._effective_maps: Dict[float, Tuple[int, ...]] = {}

    @classmethod
    def from_container(cls, data: bytes) -> "FrameSignals":
        """Build signals from SVC1 bytes without decoding any payload."""
        metadata, _records = read_container(data)
        return cls(metadata, read_delta_track(data))

    # -- per-frame accessors ----------------------------------------------------
    @property
    def num_frames(self) -> int:
        return self.metadata.num_frames

    @property
    def has_deltas(self) -> bool:
        """Whether the container carried a measured delta track."""
        return self._deltas is not None

    def _check(self, index: int) -> None:
        if not 0 <= index < self.metadata.num_frames:
            raise IndexError(
                f"frame {index} out of range [0, {self.metadata.num_frames})"
            )

    def delta(self, index: int) -> float:
        """Stored inter-frame delta magnitude; +inf when unmeasured."""
        self._check(index)
        if self._deltas is None:
            return UNKNOWN_DELTA
        return self._deltas[index]

    def frame_type(self, index: int) -> FrameType:
        self._check(index)
        return self.gop.frame_type(index, self.metadata.num_frames)

    def anchor_of(self, index: int) -> int:
        """The anchor ``index``'s reconstruction hangs off (itself if anchor)."""
        self._check(index)
        return index if self.gop.is_anchor(index) else self.gop.prev_anchor(index)

    def anchor_distance(self, index: int) -> int:
        self._check(index)
        return index - self.gop.prev_anchor(index)

    def signal(self, index: int) -> FrameSignal:
        self._check(index)
        return FrameSignal(
            index=index,
            frame_type=self.frame_type(index),
            anchor=self.anchor_of(index),
            anchor_distance=self.anchor_distance(index),
            delta_magnitude=self.delta(index),
        )

    # -- near-duplicate collapse ------------------------------------------------
    def effective_map(self, threshold: float) -> Tuple[int, ...]:
        """``effective(i)`` for every frame, memoized per threshold.

        A frame collapses onto its predecessor's effective frame when it
        is not frame 0, not an anchor, and its stored delta is strictly
        below ``threshold``.  Anchors never collapse, so the map never
        crosses an anchor (or GOP) boundary and reduced decode plans are
        subsets of full plans.
        """
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        cached = self._effective_maps.get(threshold)
        if cached is not None:
            return cached
        n = self.metadata.num_frames
        eff: List[int] = [0] * n
        for i in range(1, n):
            if self.gop.is_anchor(i) or not self.delta(i) < threshold:
                eff[i] = i
            else:
                eff[i] = eff[i - 1]
        result = tuple(eff)
        self._effective_maps[threshold] = result
        return result

    def effective_frame(self, index: int, threshold: float) -> int:
        """The frame whose output frame ``index`` may reuse at ``threshold``."""
        self._check(index)
        return self.effective_map(threshold)[index]

    def near_duplicates(self, threshold: float) -> Tuple[int, ...]:
        """Frames that collapse onto an earlier frame at ``threshold``."""
        eff = self.effective_map(threshold)
        return tuple(i for i, e in enumerate(eff) if e != i)

    def low_motion_fraction(self, threshold: float) -> float:
        """Fraction of frames that are near-duplicates at ``threshold``."""
        if self.metadata.num_frames == 0:
            return 0.0
        return len(self.near_duplicates(threshold)) / self.metadata.num_frames
