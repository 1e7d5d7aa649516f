"""Tests for the all-intra codec and codec dispatch (paper S6)."""

import numpy as np
import pytest

from repro.codec import (
    IncrementalDecoder,
    IntraDecoder,
    UnknownCodecError,
    decoder_for_path,
    encode_intra_video,
    encode_video,
    open_decoder,
)
from repro.codec.intra import IntraContainerError
from repro.codec.model import VideoMetadata
from repro.codec.synthetic import SyntheticVideoSource
from repro.datasets import DatasetSpec, SyntheticDataset, load_dataset_dir


def make_source(frames=20, gop=10, vid="iv"):
    md = VideoMetadata(vid, width=32, height=24, num_frames=frames, gop_size=gop)
    return SyntheticVideoSource(md)


# -- intra codec -----------------------------------------------------------------


def test_intra_roundtrip_lossless():
    src = make_source()
    dec = IntraDecoder(encode_intra_video(src))
    out = dec.decode_all()
    for i in range(20):
        assert np.array_equal(out[i], src.frame(i))


def test_intra_has_no_amplification():
    src = make_source()
    dec = IntraDecoder(encode_intra_video(src))
    dec.decode_frames([3, 17])
    assert dec.stats.frames_decoded == 2
    assert dec.stats.amplification == pytest.approx(1.0)


def test_intra_metadata_reports_gop_one():
    dec = IntraDecoder(encode_intra_video(make_source(gop=10)))
    assert dec.metadata.gop_size == 1
    assert dec.metadata.b_frames == 0


def test_intra_costs_more_storage_than_inter():
    src = make_source(frames=30)
    assert len(encode_intra_video(src)) > len(encode_video(src))


def test_intra_rejects_garbage_and_out_of_range():
    with pytest.raises(IntraContainerError):
        IntraDecoder(b"garbage bytes that are definitely not a container")
    dec = IntraDecoder(encode_intra_video(make_source(frames=5)))
    with pytest.raises(IndexError):
        dec.decode_frames([5])


# -- dispatch ---------------------------------------------------------------------


def test_open_decoder_sniffs_magic():
    src = make_source()
    assert isinstance(open_decoder(encode_video(src)), IncrementalDecoder)
    assert isinstance(open_decoder(encode_intra_video(src)), IntraDecoder)
    with pytest.raises(UnknownCodecError):
        open_decoder(b"MPEGnope")


def test_decoder_for_path_uses_extension():
    src = make_source()
    intra = encode_intra_video(src)
    assert isinstance(decoder_for_path("video.svi", intra), IntraDecoder)
    inter = decoder_for_path("video.svc", encode_video(src))
    assert isinstance(inter, IncrementalDecoder)
    assert inter.cache.budget_bytes == 0  # stateless between calls
    with pytest.raises(UnknownCodecError):
        decoder_for_path("video.mp4", intra)


# -- datasets over the intra codec ------------------------------------------------------


def test_intra_dataset_spec():
    ds = SyntheticDataset(
        DatasetSpec(num_videos=3, min_frames=20, max_frames=25, codec="intra", seed=4)
    )
    vid = ds.video_ids[0]
    dec = open_decoder(ds.get_bytes(vid))
    assert isinstance(dec, IntraDecoder)
    # Planner-visible metadata agrees: no inter dependencies.
    assert ds.metadata(vid).gop_size == 1
    with pytest.raises(ValueError):
        DatasetSpec(codec="h264")


def test_mixed_directory_loads_both_codecs(tmp_path):
    inter = SyntheticDataset(
        DatasetSpec(name="a", num_videos=2, min_frames=20, max_frames=25, seed=1)
    )
    intra = SyntheticDataset(
        DatasetSpec(name="b", num_videos=2, min_frames=20, max_frames=25,
                    codec="intra", seed=2)
    )
    inter.materialize(tmp_path / "mix")
    intra.materialize(tmp_path / "mix")
    loaded = load_dataset_dir(tmp_path / "mix")
    assert len(loaded) == 4
    assert loaded.metadata("b_00000").gop_size == 1
    assert loaded.metadata("a_00000").gop_size == 10


def test_full_pipeline_over_intra_corpus():
    """SAND end-to-end on an all-intra dataset: zero decode amplification."""
    from repro.core import PreprocessingEngine, build_plan_window, load_task_config

    dataset = SyntheticDataset(
        DatasetSpec(num_videos=4, min_frames=25, max_frames=30, codec="intra", seed=6)
    )
    config = load_task_config({
        "dataset": {
            "tag": "t",
            "video_dataset_path": "/d",
            "sampling": {"videos_per_batch": 2, "frames_per_video": 4,
                         "frame_stride": 3},
            "augmentation": [],
        }
    })
    plan = build_plan_window([config], dataset, 0, 1, seed=1)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    batch, md = engine.get_batch("t", 0, 0)
    for s, (vid, indices) in enumerate(zip(md["videos"], md["frame_indices"])):
        src = dataset.source(vid)
        for t, idx in enumerate(indices):
            assert np.array_equal(batch[s, t], src.frame(idx))
    # Intra: every graph's decode plan equals exactly its wanted frames.
    for graph in plan.graphs.values():
        assert set(graph.decode_plan()) == graph.wanted_frames
