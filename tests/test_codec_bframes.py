"""Tests for B-frame (bidirectional) coding in the synthetic codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    AnchorCache,
    FrameType,
    GopStructure,
    IncrementalDecoder,
    SyntheticVideoSource,
    VideoMetadata,
    encode_video,
    frames_to_decode,
    frames_to_decode_with_cache,
)
from tests.reference_decoder import reference_decode


def make_video(frames=35, gop=12, b=2, w=32, h=24, vid="bv"):
    md = VideoMetadata(vid, width=w, height=h, num_frames=frames,
                       gop_size=gop, b_frames=b)
    return SyntheticVideoSource(md)


# -- GOP geometry ---------------------------------------------------------------


def test_frame_types_with_b_frames():
    gop = GopStructure(12, b_frames=2)
    types = [gop.frame_type(i, 36).value for i in range(13)]
    # Closed GOPs: the tail frames (10, 11) have no following anchor
    # inside their GOP, so they degrade to P.
    assert types == ["I", "B", "B", "P", "B", "B", "P", "B", "B", "P", "P", "P", "I"]


def test_trailing_frames_degrade_to_p():
    gop = GopStructure(12, b_frames=2)
    # Frame 32 (offset 8) is a B when its next anchor (33) exists...
    assert gop.frame_type(32, 40) is FrameType.B
    # ...but becomes a P when the video ends before that anchor.
    assert gop.frame_type(32, 33) is FrameType.P


def test_b_frame_dependency_includes_both_anchors():
    gop = GopStructure(12, b_frames=2)
    assert gop.dependency_chain(7, 36) == [0, 3, 6, 9, 7]
    assert gop.dependency_chain(6, 36) == [0, 3, 6]


def test_reference_anchor():
    gop = GopStructure(12, b_frames=2)
    assert gop.reference_anchor(3, 36) == 0
    assert gop.reference_anchor(9, 36) == 6
    with pytest.raises(ValueError):
        gop.reference_anchor(0, 36)  # I frame
    with pytest.raises(ValueError):
        gop.reference_anchor(7, 36)  # B frame


def test_b_frames_must_fit_gop():
    with pytest.raises(ValueError):
        GopStructure(4, b_frames=4)
    with pytest.raises(ValueError):
        VideoMetadata("v", width=8, height=8, num_frames=5, gop_size=4, b_frames=4)


# -- frames_to_decode skips unwanted Bs -------------------------------------------


def test_plan_skips_unrequested_b_frames():
    gop = GopStructure(12, b_frames=2)
    # Requesting anchor 6: only the anchor chain, no Bs.
    assert frames_to_decode(gop, [6], 36) == [0, 3, 6]
    # Requesting B 7: chain + following anchor + itself.
    assert frames_to_decode(gop, [7], 36) == [0, 3, 6, 7, 9]


def test_plan_with_b0_matches_classic_rule():
    gop = GopStructure(10, b_frames=0)
    assert frames_to_decode(gop, [13], 100) == [10, 11, 12, 13]


# -- encode/decode ------------------------------------------------------------------


@pytest.mark.parametrize("gop,b", [(12, 2), (10, 1), (8, 3), (6, 5)])
def test_roundtrip_lossless(gop, b):
    src = make_video(frames=30, gop=gop, b=b)
    dec = IncrementalDecoder(encode_video(src), cache=AnchorCache(0))
    out = dec.decode_all()
    for i in range(30):
        assert np.array_equal(out[i], src.frame(i)), (gop, b, i)


def test_sparse_decode_correct_and_skips_bs():
    src = make_video(frames=35, gop=12, b=2)
    data = encode_video(src)
    dec = IncrementalDecoder(data, cache=AnchorCache(0))
    out = dec.decode_frames([6])
    assert np.array_equal(out[6], src.frame(6))
    assert dec.stats.frames_decoded == 3  # anchors 0, 3, 6 only

    dec2 = IncrementalDecoder(data, cache=AnchorCache(0))
    out2 = dec2.decode_frames([7])
    assert np.array_equal(out2[7], src.frame(7))
    assert dec2.stats.frames_decoded == 5  # 0, 3, 6, 9 + the B itself


def test_metadata_roundtrips_b_frames():
    src = make_video(b=2)
    dec = IncrementalDecoder(encode_video(src), cache=AnchorCache(0))
    assert dec.metadata.b_frames == 2
    assert dec.metadata.gop.b_frames == 2


def test_b_frames_improve_compression_on_smooth_content():
    # Bidirectional prediction should not be (much) worse than P-only on
    # temporally smooth synthetic content.
    p_only = len(encode_video(make_video(b=0, gop=12)))
    with_b = len(encode_video(make_video(b=2, gop=12)))
    assert with_b < p_only * 1.1


@given(
    frames=st.integers(3, 30),
    gop=st.integers(2, 12),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_roundtrip_property_with_b_frames(frames, gop, data):
    b = data.draw(st.integers(0, gop - 1))
    src = make_video(frames=frames, gop=gop, b=b, w=16, h=12, vid=f"p{frames}")
    dec = IncrementalDecoder(encode_video(src), cache=AnchorCache(0))
    wanted = data.draw(
        st.lists(st.integers(0, frames - 1), min_size=1, max_size=5)
    )
    out = dec.decode_frames(wanted)
    for i in set(wanted):
        assert np.array_equal(out[i], src.frame(i))
    # The plan covered at least the wanted frames.
    assert dec.stats.frames_decoded >= len(set(wanted))


@given(
    frames=st.integers(3, 30),
    gop=st.integers(2, 12),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_incremental_decoder_matches_stateless_with_b_frames(frames, gop, data):
    """Differential property across random B-frame layouts and sparse sets."""
    b = data.draw(st.integers(0, gop - 1))
    src = make_video(frames=frames, gop=gop, b=b, w=16, h=12, vid=f"d{frames}")
    encoded = encode_video(src)
    inc = IncrementalDecoder(encoded, cache=AnchorCache(10**8))
    calls = data.draw(
        st.lists(
            st.lists(st.integers(0, frames - 1), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    for wanted in calls:
        got = inc.decode_frames(wanted)
        reference = reference_decode(encoded, wanted)
        for idx in set(wanted):
            assert np.array_equal(got[idx], reference[idx]), (b, idx)
    # Reuse never decodes more than the stateless decoder would have.
    stateless_total = sum(
        len(frames_to_decode(src.metadata.gop, set(w), frames)) for w in calls
    )
    assert inc.stats.frames_decoded <= stateless_total


def test_cached_plan_skips_lead_in_around_b_frames():
    gop = GopStructure(12, b_frames=2)
    # Anchor 6 cached: B frame 7 needs only its two neighbours + itself.
    assert frames_to_decode_with_cache(gop, [7], 36, {6}) == [7, 9]
    # Both anchors cached: just the B.
    assert frames_to_decode_with_cache(gop, [7], 36, {6, 9}) == [7]
    # A cached requested anchor costs nothing.
    assert frames_to_decode_with_cache(gop, [6], 36, {6}) == []


def test_pipeline_end_to_end_with_b_frames():
    """The whole stack (plan -> engine -> batch) over a B-frame corpus."""
    from repro.core import PreprocessingEngine, build_plan_window, load_task_config
    from repro.datasets import DatasetSpec, SyntheticDataset

    dataset = SyntheticDataset(
        DatasetSpec(num_videos=4, min_frames=30, max_frames=40,
                    gop_size=12, b_frames=2, seed=9)
    )
    config = load_task_config({
        "dataset": {
            "tag": "t",
            "video_dataset_path": "/d",
            "sampling": {"videos_per_batch": 2, "frames_per_video": 4,
                         "frame_stride": 2},
            "augmentation": [],
        }
    })
    plan = build_plan_window([config], dataset, 0, 1, seed=1)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    batch, md = engine.get_batch("t", 0, 0)
    # Verify against direct synthetic frames.
    for s, (vid, indices) in enumerate(zip(md["videos"], md["frame_indices"])):
        src = dataset.source(vid)
        for t, frame_idx in enumerate(indices):
            assert np.array_equal(batch[s, t], src.frame(frame_idx))
