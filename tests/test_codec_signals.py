"""Tests for the codec signal API: delta track, FrameSignals, and the
property that signals agree with actual decode dependencies."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    FrameSignals,
    FrameType,
    GopStructure,
    SyntheticVideoSource,
    UNKNOWN_DELTA,
    VideoMetadata,
    encode_video,
    frames_to_decode,
    read_container,
    read_delta_track,
    write_container,
)
from repro.codec.container import (
    _FOOTER_FMT,
    _HEADER_FMT,
    _RECORD_FMT,
    ContainerError,
)


def make_video(vid="sig", frames=48, gop=12, b=3, w=32, h=24, motion=1.0, noise=1.0):
    md = VideoMetadata(
        vid, width=w, height=h, num_frames=frames, gop_size=gop, b_frames=b
    )
    return SyntheticVideoSource(md, motion_scale=motion, noise_scale=noise)


def write_v2_container(metadata, records):
    """Hand-roll a v2 (pre-delta-track) container: nothing writes or reads one."""
    video_id = metadata.video_id.encode()
    parts = [
        struct.pack(
            _HEADER_FMT,
            b"SVC1",
            2,
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
    offsets, cursor = [], 0
    type_code = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}
    for frame_type, payload in records:
        offsets.append(cursor)
        parts.append(struct.pack(_RECORD_FMT, type_code[frame_type], len(payload)))
        parts.append(payload)
        cursor += struct.calcsize(_RECORD_FMT) + len(payload)
    index_offset = records_start + cursor
    parts.append(struct.pack(f"<{len(offsets)}Q", *offsets))
    parts.append(struct.pack(_FOOTER_FMT, index_offset, b"SVCX"))
    return b"".join(parts)


# -- delta track ------------------------------------------------------------------


def test_encoder_stores_measured_delta_track():
    src = make_video(frames=20, gop=10, b=0)
    data = encode_video(src)
    deltas = read_delta_track(data)
    assert deltas is not None and len(deltas) == 20
    assert math.isinf(deltas[0])  # frame 0 has no predecessor
    for i in range(1, 20):
        expected = float(
            np.abs(
                src.frame(i).astype(np.int16) - src.frame(i - 1).astype(np.int16)
            ).mean()
        )
        assert deltas[i] == pytest.approx(expected, rel=1e-5)


def test_write_container_defaults_to_unknown_deltas():
    md = VideoMetadata("v", width=8, height=8, num_frames=2)
    data = write_container(md, [(FrameType.I, b"a"), (FrameType.P, b"b")])
    deltas = read_delta_track(data)
    assert deltas is not None
    assert all(math.isinf(d) for d in deltas)


def test_write_container_rejects_wrong_delta_count():
    md = VideoMetadata("v", width=8, height=8, num_frames=2)
    with pytest.raises(ContainerError):
        write_container(md, [(FrameType.I, b"a"), (FrameType.P, b"b")], deltas=[1.0])


def test_v2_container_is_rejected():
    md = VideoMetadata("old", width=8, height=8, num_frames=2, gop_size=2)
    data = write_v2_container(md, [(FrameType.I, b"aa"), (FrameType.P, b"b")])
    for reader in (read_container, read_delta_track, FrameSignals.from_container):
        with pytest.raises(ContainerError, match="unsupported version 2"):
            reader(data)
    # Signals built without a track degrade gracefully: unmeasured deltas
    # never match a threshold.
    signals = FrameSignals(md)
    assert not signals.has_deltas
    assert signals.delta(1) == UNKNOWN_DELTA
    assert signals.effective_frame(1, 1e9) == 1


def test_read_delta_track_rejects_garbage():
    with pytest.raises(ContainerError):
        read_delta_track(b"JUNKJUNKJUNKJUNKJUNK")
    src = make_video(frames=10, gop=5, b=0)
    data = encode_video(src)
    with pytest.raises(ContainerError):
        read_delta_track(data[: len(data) // 2])


# -- FrameSignals accessors --------------------------------------------------------


def test_signal_bundles_frame_facts():
    src = make_video(frames=24, gop=12, b=3)
    signals = FrameSignals.from_container(encode_video(src))
    gop = GopStructure(12, 3)
    sig = signals.signal(8)
    assert sig.index == 8
    assert sig.frame_type is gop.frame_type(8, 24)
    assert sig.anchor == 8 == signals.anchor_of(8)  # 8 is an anchor (step 4)
    assert sig.anchor_distance == 0
    sig_b = signals.signal(7)
    assert sig_b.frame_type is FrameType.B
    assert sig_b.anchor == 4
    assert sig_b.anchor_distance == 3
    assert sig_b.delta_magnitude == signals.delta(7)
    with pytest.raises(IndexError):
        signals.signal(24)


def test_effective_map_threshold_zero_is_identity():
    src = make_video(frames=30, gop=10, b=2, motion=0.0, noise=0.0)
    signals = FrameSignals.from_container(encode_video(src))
    # Even on perfectly static content, threshold 0 never collapses
    # (strict comparison): this is the byte-identity guarantee.
    assert signals.effective_map(0.0) == tuple(range(30))
    assert signals.near_duplicates(0.0) == ()
    assert signals.low_motion_fraction(0.0) == 0.0


def test_effective_map_collapses_low_motion_but_never_anchors():
    src = make_video(frames=48, gop=48, b=3, motion=0.05, noise=0.0)
    signals = FrameSignals.from_container(encode_video(src))
    gop = GopStructure(48, 3)
    threshold = 1.0
    eff = signals.effective_map(threshold)
    assert signals.low_motion_fraction(threshold) > 0.5
    for i in range(48):
        assert eff[i] <= i
        assert eff[eff[i]] == eff[i]  # idempotent
        if gop.is_anchor(i):
            assert eff[i] == i  # anchors never collapse
        if eff[i] != i:
            # A collapsed frame maps within its own anchor span.
            assert gop.prev_anchor(eff[i]) == gop.prev_anchor(i)
            assert signals.delta(i) < threshold


def test_effective_map_memoizes_per_threshold():
    src = make_video(frames=20, gop=10, b=1)
    signals = FrameSignals.from_container(encode_video(src))
    assert signals.effective_map(3.0) is signals.effective_map(3.0)
    with pytest.raises(ValueError):
        signals.effective_map(-1.0)


# -- property: signals agree with actual decode dependencies (satellite) -----------


@given(
    gop_size=st.integers(1, 20),
    b_frames=st.integers(0, 6),
    num_frames=st.integers(1, 120),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_signals_agree_with_decode_dependencies(gop_size, b_frames, num_frames, data):
    """FrameType / anchor_of / prev_anchor must match what decoding needs."""
    b_frames = min(b_frames, gop_size - 1)
    gop = GopStructure(gop_size, b_frames)
    md = VideoMetadata(
        "prop", width=8, height=8, num_frames=num_frames,
        gop_size=gop_size, b_frames=b_frames,
    )
    signals = FrameSignals(md)
    indices = data.draw(
        st.lists(st.integers(0, num_frames - 1), min_size=1, max_size=8)
    )
    for i in indices:
        ftype = signals.frame_type(i)
        assert ftype is gop.frame_type(i, num_frames)
        deps = set(frames_to_decode(gop, [i], num_frames))
        chain = gop.dependency_chain(i, num_frames)
        assert deps == set(chain)
        anchor = signals.anchor_of(i)
        # The signal's anchor is a real decode dependency (or the frame
        # itself, when the frame is an anchor).
        assert anchor in deps
        assert anchor == gop.prev_anchor(i)
        assert signals.anchor_distance(i) == i - gop.prev_anchor(i)
        if ftype is FrameType.I:
            assert deps == {i} and anchor == i
        elif ftype is FrameType.B:
            # B frames depend on both surrounding anchors and nothing
            # depends on them: exactly one dependency is in the future.
            future = [d for d in deps if d > i]
            assert future == [gop.next_anchor(i, num_frames)]
            assert not gop.is_anchor(i)
        else:  # P: strictly backward-dependent
            assert max(deps) == i
        # Every non-B dependency is an anchor; the chain walks prev_anchor
        # links back to the keyframe.
        for d in deps:
            if d != i and d != gop.next_anchor(i, num_frames):
                assert gop.is_anchor(d)
        # Collapsed frames never change the dependency *anchors*: the
        # effective frame shares the same prev_anchor span.
        eff = signals.effective_frame(i, 0.0)
        assert eff == i  # no deltas stored -> never collapses


@given(
    frames=st.integers(4, 40),
    gop=st.integers(2, 12),
    b=st.integers(0, 3),
    threshold=st.floats(0.0, 12.0),
)
@settings(max_examples=40, deadline=None)
def test_effective_plan_is_subset_of_full_plan(frames, gop, b, threshold):
    """Collapsing near-duplicates can only shrink the decode plan."""
    b = min(b, gop - 1)
    src = make_video("subset", frames=frames, gop=gop, b=b, motion=0.3, noise=0.1)
    signals = FrameSignals.from_container(encode_video(src))
    structure = GopStructure(gop, b)
    wanted = list(range(frames))
    targets = {signals.effective_frame(i, threshold) for i in wanted}
    full = frames_to_decode(structure, wanted, frames)
    reduced = frames_to_decode(structure, targets, frames)
    assert set(reduced) <= set(full)
    assert len(reduced) <= len(full)
