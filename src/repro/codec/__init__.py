"""Synthetic video codec substrate.

The paper's pipelines decode H.264/VP9 with openh264/libvpx.  What SAND
exploits about those codecs is structural, not perceptual: frames are
grouped into GOPs, non-key (P) frames depend on their predecessor, so
decoding any frame requires decoding forward from the preceding keyframe
— which is why on-demand pipelines decode far more frames than they use
(Fig 3).

This package implements a real codec with exactly those semantics:

* :mod:`repro.codec.synthetic` — deterministic procedural frame content,
* :mod:`repro.codec.container` — the ``SVC1`` byte format (header, frame
  records, seek index),
* :mod:`repro.codec.encoder` — I/P encoding with zlib entropy coding and
  temporal delta prediction,
* :mod:`repro.codec.decoder` — the dependency rule of a decode
  (``frames_to_decode``) and its statistics (frames decoded vs frames
  requested, bytes read),
* :mod:`repro.codec.incremental` — the one decode walk, with stateful
  reuse: a byte-budgeted cache of decoded anchors that evicts by
  checkpoint level (it keeps an evenly spaced grid of every video) and a
  decoder that resumes from the nearest cached anchor instead of the GOP
  keyframe,
* :mod:`repro.codec.model` — GOP/frame-type model and video metadata,
* :mod:`repro.codec.signals` — metadata-only frame signals (frame type,
  anchor geometry, stored inter-frame delta magnitude) and the pure
  near-duplicate collapse rule every reuse layer keys on.
"""

from repro.codec.model import FrameType, GopStructure, VideoMetadata
from repro.codec.synthetic import SyntheticVideoSource, frame_pixels, video_class_of
from repro.codec.container import (
    UNKNOWN_DELTA,
    ContainerError,
    read_container,
    read_delta_track,
    write_container,
)
from repro.codec.encoder import encode_video
from repro.codec.decoder import DecodeStats, frames_to_decode
from repro.codec.incremental import (
    AnchorCache,
    IncrementalDecoder,
    frames_to_decode_with_cache,
)
from repro.codec.signals import FrameSignal, FrameSignals
from repro.codec.intra import IntraDecoder, encode_intra_video
from repro.codec.registry import UnknownCodecError, decoder_for_path, open_decoder

__all__ = [
    "AnchorCache",
    "ContainerError",
    "DecodeStats",
    "IncrementalDecoder",
    "FrameSignal",
    "FrameSignals",
    "FrameType",
    "GopStructure",
    "SyntheticVideoSource",
    "VideoMetadata",
    "IntraDecoder",
    "UNKNOWN_DELTA",
    "UnknownCodecError",
    "decoder_for_path",
    "encode_intra_video",
    "encode_video",
    "open_decoder",
    "frame_pixels",
    "frames_to_decode",
    "frames_to_decode_with_cache",
    "read_container",
    "read_delta_track",
    "video_class_of",
    "write_container",
]
