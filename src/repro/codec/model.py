"""GOP structure and video metadata for the synthetic codec."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional


class FrameType(enum.Enum):
    """Frame coding types.

    ``I`` frames are self-contained keyframes.  ``P`` frames are coded as
    a delta against the previous *anchor* (I or P), so decoding a P frame
    requires the anchor chain back to the nearest preceding I frame.
    ``B`` frames are coded bidirectionally against the surrounding
    anchors; they depend on both but nothing ever depends on them, so a
    decoder may skip unwanted B frames — exactly the asymmetry real
    codecs have.
    """

    I = "I"  # noqa: E741 - standard codec terminology
    P = "P"
    B = "B"


@dataclass(frozen=True)
class GopStructure:
    """A fixed-interval group-of-pictures layout.

    ``size`` is the keyframe interval: frame indices that are multiples
    of ``size`` start a GOP with an I frame.  With ``b_frames == 0``
    (the default) every other frame is a P chained anchor-to-anchor.
    With ``b_frames == n``, anchors (I/P) sit every ``n+1`` frames and
    the frames between them are Bs referencing the two surrounding
    anchors; trailing frames with no following anchor degrade to P.
    """

    size: int = 30
    b_frames: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"GOP size must be >= 1, got {self.size}")
        if self.b_frames < 0:
            raise ValueError(f"b_frames must be >= 0, got {self.b_frames}")
        if self.b_frames >= self.size:
            raise ValueError(
                f"b_frames ({self.b_frames}) must be smaller than the GOP ({self.size})"
            )

    # -- anchor geometry ------------------------------------------------------
    @property
    def anchor_step(self) -> int:
        return self.b_frames + 1

    def is_anchor(self, index: int) -> bool:
        if index < 0:
            raise ValueError(f"negative frame index: {index}")
        return (index % self.size) % self.anchor_step == 0

    def prev_anchor(self, index: int) -> int:
        """Nearest anchor at or before ``index``."""
        offset = index % self.size
        return index - (offset % self.anchor_step)

    def next_anchor(self, index: int, num_frames: Optional[int] = None) -> Optional[int]:
        """Nearest anchor strictly after ``index`` within the same GOP.

        Returns None when the GOP (or the video, if ``num_frames`` is
        given) ends first — the trailing-frames case.
        """
        candidate = self.prev_anchor(index) + self.anchor_step
        gop_end = (index // self.size + 1) * self.size
        if candidate >= gop_end:
            return None
        if num_frames is not None and candidate >= num_frames:
            return None
        return candidate

    def frame_type(self, index: int, num_frames: Optional[int] = None) -> FrameType:
        if index < 0:
            raise ValueError(f"negative frame index: {index}")
        if index % self.size == 0:
            return FrameType.I
        if self.is_anchor(index):
            return FrameType.P
        if self.next_anchor(index, num_frames) is None:
            # No following anchor to predict from: coded as P off the
            # previous anchor instead.
            return FrameType.P
        return FrameType.B

    def reference_anchor(self, index: int, num_frames: Optional[int] = None) -> int:
        """The anchor a P frame at ``index`` is coded against.

        Anchor Ps reference the previous anchor; trailing Ps (non-anchor
        positions with no following anchor) reference their GOP's last
        preceding anchor.
        """
        if self.frame_type(index, num_frames) is not FrameType.P:
            raise ValueError(f"frame {index} is not a P frame")
        if self.is_anchor(index):
            return index - self.anchor_step
        return self.prev_anchor(index)

    def keyframe_before(self, index: int) -> int:
        """Index of the I frame that anchors ``index``'s GOP."""
        if index < 0:
            raise ValueError(f"negative frame index: {index}")
        return (index // self.size) * self.size

    def anchor_chain(self, index: int) -> List[int]:
        """Anchors from the keyframe through ``prev_anchor(index)``."""
        start = self.keyframe_before(index)
        return list(range(start, self.prev_anchor(index) + 1, self.anchor_step))

    def dependency_chain(self, index: int, num_frames: Optional[int] = None) -> List[int]:
        """All frames that must be decoded to reconstruct ``index``."""
        ftype = self.frame_type(index, num_frames)
        chain = self.anchor_chain(index)
        if ftype is FrameType.B:
            next_anchor = self.next_anchor(index, num_frames)
            assert next_anchor is not None
            chain.append(next_anchor)
        if not chain or chain[-1] != index:
            chain.append(index)
        return chain

    def gop_of(self, index: int) -> int:
        return index // self.size


@dataclass(frozen=True)
class VideoMetadata:
    """Stream-level metadata carried by the container header."""

    video_id: str
    width: int
    height: int
    num_frames: int
    fps: float = 30.0
    gop_size: int = 30
    b_frames: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"bad dimensions {self.width}x{self.height}")
        if self.num_frames < 1:
            raise ValueError(f"need at least one frame, got {self.num_frames}")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.gop_size < 1:
            raise ValueError(f"GOP size must be >= 1, got {self.gop_size}")
        if not 0 <= self.b_frames < self.gop_size:
            raise ValueError(
                f"b_frames must be in [0, {self.gop_size}), got {self.b_frames}"
            )

    @property
    def gop(self) -> GopStructure:
        return GopStructure(self.gop_size, self.b_frames)

    @property
    def megapixels(self) -> float:
        return self.width * self.height / 1e6

    def timestamp_of(self, index: int) -> float:
        """Presentation timestamp (seconds) of frame ``index``."""
        if not 0 <= index < self.num_frames:
            raise IndexError(
                f"frame {index} out of range [0, {self.num_frames}) "
                f"for video {self.video_id!r}"
            )
        return index / self.fps
