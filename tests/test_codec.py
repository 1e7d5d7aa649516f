"""Tests for the synthetic codec: GOP model, container, encoder, decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    AnchorCache,
    ContainerError,
    FrameType,
    GopStructure,
    IncrementalDecoder,
    SyntheticVideoSource,
    VideoMetadata,
    encode_video,
    frames_to_decode,
    frames_to_decode_with_cache,
    video_class_of,
)
from repro.codec.container import read_container, write_container
from repro.codec.encoder import encode_frames
from tests.reference_decoder import reference_decode


def make_video(video_id="vid0", frames=25, gop=10, w=32, h=24):
    md = VideoMetadata(video_id, width=w, height=h, num_frames=frames, gop_size=gop)
    return SyntheticVideoSource(md)


# -- GOP model -----------------------------------------------------------------


def test_frame_types_follow_keyframe_interval():
    gop = GopStructure(5)
    assert gop.frame_type(0) is FrameType.I
    assert gop.frame_type(4) is FrameType.P
    assert gop.frame_type(5) is FrameType.I
    assert gop.frame_type(11) is FrameType.P


def test_dependency_chain_reaches_back_to_keyframe():
    gop = GopStructure(10)
    assert gop.dependency_chain(13) == [10, 11, 12, 13]
    assert gop.dependency_chain(10) == [10]
    assert gop.dependency_chain(0) == [0]


def test_gop_size_one_makes_all_frames_keyframes():
    gop = GopStructure(1)
    assert all(gop.frame_type(i) is FrameType.I for i in range(5))
    assert gop.dependency_chain(7) == [7]


def test_metadata_validation():
    with pytest.raises(ValueError):
        VideoMetadata("x", width=0, height=10, num_frames=5)
    with pytest.raises(ValueError):
        VideoMetadata("x", width=10, height=10, num_frames=0)
    with pytest.raises(ValueError):
        VideoMetadata("x", width=10, height=10, num_frames=5, fps=0)


def test_timestamps():
    md = VideoMetadata("x", width=8, height=8, num_frames=60, fps=30.0)
    assert md.timestamp_of(30) == pytest.approx(1.0)
    with pytest.raises(IndexError):
        md.timestamp_of(60)


# -- frames_to_decode (the amplification rule) ------------------------------------


def test_frames_to_decode_includes_gop_leadin():
    gop = GopStructure(10)
    assert frames_to_decode(gop, [13], 100) == [10, 11, 12, 13]


def test_frames_to_decode_merges_requests_within_gop():
    gop = GopStructure(10)
    assert frames_to_decode(gop, [12, 17], 100) == list(range(10, 18))


def test_frames_to_decode_spans_multiple_gops():
    gop = GopStructure(10)
    got = frames_to_decode(gop, [5, 25], 100)
    assert got == list(range(0, 6)) + list(range(20, 26))


def test_frames_to_decode_rejects_out_of_range():
    gop = GopStructure(10)
    with pytest.raises(IndexError):
        frames_to_decode(gop, [100], 100)


@given(
    gop_size=st.integers(1, 20),
    num_frames=st.integers(1, 100),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_frames_to_decode_properties(gop_size, num_frames, data):
    indices = data.draw(
        st.lists(st.integers(0, num_frames - 1), min_size=1, max_size=10)
    )
    gop = GopStructure(gop_size)
    plan = frames_to_decode(gop, indices, num_frames)
    # Every requested frame is decoded.
    assert set(indices) <= set(plan)
    # The plan is sorted, unique, and every frame's chain prefix is present.
    assert plan == sorted(set(plan))
    plan_set = set(plan)
    for idx in indices:
        assert set(gop.dependency_chain(idx)) <= plan_set


# -- container -----------------------------------------------------------------


def test_container_roundtrip_preserves_metadata_and_records():
    md = VideoMetadata("vid/a b", width=16, height=8, num_frames=3, gop_size=2)
    records = [(FrameType.I, b"aaa"), (FrameType.P, b"bb"), (FrameType.I, b"cccc")]
    data = write_container(md, records)
    md2, recs = read_container(data)
    assert md2 == md
    assert [(r.frame_type, data[r.offset : r.offset + r.length]) for r in recs] == records


def test_container_rejects_wrong_record_count():
    md = VideoMetadata("v", width=8, height=8, num_frames=2)
    with pytest.raises(ContainerError):
        write_container(md, [(FrameType.I, b"x")])


def test_container_rejects_corrupt_magic():
    md = VideoMetadata("v", width=8, height=8, num_frames=1)
    data = bytearray(write_container(md, [(FrameType.I, b"x")]))
    data[0:4] = b"JUNK"
    with pytest.raises(ContainerError):
        read_container(bytes(data))


def test_container_rejects_truncation():
    md = VideoMetadata("v", width=8, height=8, num_frames=1)
    data = write_container(md, [(FrameType.I, b"payload")])
    with pytest.raises(ContainerError):
        read_container(data[: len(data) // 2])


# -- synthetic content ------------------------------------------------------------


def test_frames_are_deterministic():
    src = make_video()
    a = src.frame(7)
    b = src.frame(7)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8
    assert a.shape == (24, 32, 3)


def test_different_videos_differ():
    a = make_video("vid_a").frame(0)
    b = make_video("vid_b").frame(0)
    assert not np.array_equal(a, b)


def test_consecutive_frames_are_similar_but_not_equal():
    src = make_video()
    f0, f1 = src.frame(0), src.frame(1)
    assert not np.array_equal(f0, f1)
    # Temporal coherence: mean abs delta is small relative to full range.
    delta = np.abs(f0.astype(int) - f1.astype(int)).mean()
    assert delta < 30


def test_video_class_is_stable_and_in_range():
    assert video_class_of("some_video") == video_class_of("some_video")
    assert 0 <= video_class_of("some_video", num_classes=7) < 7


def test_frame_out_of_range_raises():
    src = make_video(frames=5)
    with pytest.raises(IndexError):
        src.frame(5)


# -- encoder/decoder --------------------------------------------------------------


def test_encode_decode_roundtrip_is_lossless():
    src = make_video(frames=25, gop=10)
    data = encode_video(src)
    dec = IncrementalDecoder(data, cache=AnchorCache(0))
    out = dec.decode_frames([0, 9, 13, 24])
    for idx in (0, 9, 13, 24):
        assert np.array_equal(out[idx], src.frame(idx)), f"frame {idx}"


def test_decode_counts_amplification():
    src = make_video(frames=25, gop=10)
    dec = IncrementalDecoder(encode_video(src), cache=AnchorCache(0))
    dec.decode_frames([13])  # needs 10..13 => 4 decoded for 1 requested
    assert dec.stats.frames_requested == 1
    assert dec.stats.frames_decoded == 4
    assert dec.stats.amplification == pytest.approx(4.0)


def test_decode_all_frames():
    src = make_video(frames=12, gop=5)
    dec = IncrementalDecoder(encode_video(src), cache=AnchorCache(0))
    out = dec.decode_all()
    assert len(out) == 12
    assert np.array_equal(out[11], src.frame(11))


def test_decoder_is_stateless_across_calls():
    src = make_video(frames=25, gop=10)
    dec = IncrementalDecoder(encode_video(src), cache=AnchorCache(0))
    dec.decode_frames([13])
    dec.decode_frames([13])  # nothing survives: same amplification again
    assert dec.stats.frames_decoded == 8


def test_encoded_smaller_than_raw():
    src = make_video(frames=20, gop=10, w=48, h=32)
    data = encode_video(src)
    raw = 20 * 48 * 32 * 3
    assert len(data) < raw


def test_encode_frames_validates_shape_and_dtype():
    md = VideoMetadata("v", width=8, height=8, num_frames=1)
    with pytest.raises(ValueError):
        encode_frames(md, [np.zeros((4, 4, 3), dtype=np.uint8)])
    with pytest.raises(ValueError):
        encode_frames(md, [np.zeros((8, 8, 3), dtype=np.float32)])


def test_encode_frames_validates_count():
    md = VideoMetadata("v", width=8, height=8, num_frames=2)
    with pytest.raises(ValueError):
        encode_frames(md, [np.zeros((8, 8, 3), dtype=np.uint8)])


@given(
    frames=st.integers(2, 20),
    gop=st.integers(1, 8),
    seed=st.integers(0, 10),
)
@settings(max_examples=15, deadline=None)
def test_roundtrip_property(frames, gop, seed):
    src = make_video(f"v{seed}", frames=frames, gop=gop, w=16, h=12)
    dec = IncrementalDecoder(encode_video(src), cache=AnchorCache(0))
    idx = frames - 1
    out = dec.decode_frames([idx])
    assert np.array_equal(out[idx], src.frame(idx))


# -- incremental decoder: differential against the stateless decoder ----------------


@given(
    frames=st.integers(2, 40),
    gop=st.integers(1, 12),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_incremental_decoder_matches_stateless(frames, gop, data):
    """Anchor-cache reuse must be pixel-exact across repeated sparse calls."""
    src = make_video("diff", frames=frames, gop=gop, w=16, h=12)
    encoded = encode_video(src)
    inc = IncrementalDecoder(encoded, cache=AnchorCache(10**8))
    calls = data.draw(
        st.lists(
            st.lists(st.integers(0, frames - 1), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        )
    )
    for wanted in calls:
        got = inc.decode_frames(wanted)
        reference = reference_decode(encoded, wanted)
        for idx in set(wanted):
            assert np.array_equal(got[idx], reference[idx]), idx


@given(
    gop_size=st.integers(1, 20),
    num_frames=st.integers(1, 100),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_cached_plan_is_subset_and_degrades_to_stateless(gop_size, num_frames, data):
    indices = data.draw(
        st.lists(st.integers(0, num_frames - 1), min_size=1, max_size=10)
    )
    gop = GopStructure(gop_size)
    stateless = frames_to_decode(gop, indices, num_frames)
    # Cold cache: exactly the stateless plan.
    assert frames_to_decode_with_cache(gop, indices, num_frames, set()) == stateless
    # Any set of cached anchors only ever shrinks the plan, and the
    # requested frames still come out of (plan | cached anchors).
    cached = {
        i for i in data.draw(st.lists(st.integers(0, num_frames - 1), max_size=8))
        if gop.is_anchor(i)
    }
    plan = frames_to_decode_with_cache(gop, indices, num_frames, cached)
    assert set(plan) <= set(stateless)
    assert set(indices) <= set(plan) | cached
