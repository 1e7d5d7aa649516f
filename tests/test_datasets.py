"""Tests for synthetic datasets and profiles."""

import pytest

from repro.codec import AnchorCache, IncrementalDecoder
from repro.datasets import (
    DATASET_PROFILES,
    DatasetSpec,
    SyntheticDataset,
    load_dataset_dir,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(num_videos=0)
    with pytest.raises(ValueError):
        DatasetSpec(min_frames=10, max_frames=5)
    with pytest.raises(ValueError):
        DatasetSpec(num_classes=0)


def test_dataset_generation_is_deterministic():
    a = SyntheticDataset(DatasetSpec(num_videos=4, seed=1))
    b = SyntheticDataset(DatasetSpec(num_videos=4, seed=1))
    assert a.video_ids == b.video_ids
    for vid in a.video_ids:
        assert a.metadata(vid) == b.metadata(vid)
        assert a.get_bytes(vid) == b.get_bytes(vid)


def test_different_seed_changes_content():
    a = SyntheticDataset(DatasetSpec(num_videos=4, seed=1))
    b = SyntheticDataset(DatasetSpec(num_videos=4, seed=2))
    frames_a = [a.metadata(v).num_frames for v in a.video_ids]
    frames_b = [b.metadata(v).num_frames for v in b.video_ids]
    assert frames_a != frames_b


def test_frame_counts_within_spec():
    spec = DatasetSpec(num_videos=10, min_frames=30, max_frames=50)
    ds = SyntheticDataset(spec)
    assert len(ds) == 10
    for md in ds.iter_metadata():
        assert 30 <= md.num_frames <= 50
    assert ds.total_frames() == sum(m.num_frames for m in ds.iter_metadata())


def test_encoded_bytes_decode_back():
    ds = SyntheticDataset(DatasetSpec(num_videos=2, min_frames=20, max_frames=25))
    vid = ds.video_ids[0]
    decoder = IncrementalDecoder(ds.get_bytes(vid), cache=AnchorCache(0))
    assert decoder.metadata.video_id == vid
    frames = decoder.decode_frames([0, 5])
    import numpy as np

    assert np.array_equal(frames[5], ds.source(vid).frame(5))


def test_labels_stable_and_bounded():
    ds = SyntheticDataset(DatasetSpec(num_videos=6, num_classes=3))
    for vid in ds.video_ids:
        assert 0 <= ds.label(vid) < 3
        assert ds.label(vid) == ds.label(vid)


def test_unknown_video_rejected():
    ds = SyntheticDataset(DatasetSpec(num_videos=2))
    with pytest.raises(KeyError):
        ds.metadata("ghost")
    with pytest.raises(KeyError):
        ds.label("ghost")


def test_materialize_and_load_directory(tmp_path):
    ds = SyntheticDataset(DatasetSpec(num_videos=3, min_frames=20, max_frames=25, seed=4))
    ds.materialize(tmp_path / "corpus")
    loaded = load_dataset_dir(tmp_path / "corpus")
    assert loaded.video_ids == ds.video_ids
    vid = ds.video_ids[1]
    assert loaded.get_bytes(vid) == ds.get_bytes(vid)
    assert loaded.metadata(vid) == ds.metadata(vid)
    assert loaded.encoded_size(vid) == len(ds.get_bytes(vid))
    assert loaded.label(vid) == ds.label(vid)


def test_load_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset_dir(tmp_path / "nope")
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        load_dataset_dir(tmp_path / "empty")


def test_profiles_carry_paper_statistics():
    k400 = DATASET_PROFILES["kinetics400"]
    assert k400.num_videos == 250_000
    assert (k400.width, k400.height) == (1280, 720)
    # S3 cites ~80 TB for per-frame *image* storage; raw RGB is larger
    # still (75M frames x ~2.8 MB ~ 190 TB) — either way, orders beyond
    # the 350 GB encoded size, which is the point being modeled.
    decoded_tb = k400.total_frames * k400.megapixels * 3e6 / 1024**4
    assert 80 <= decoded_tb <= 250
    yt = DATASET_PROFILES["youtube1080p"]
    assert (yt.width, yt.height) == (1920, 1080)


def test_profile_scaling_preserves_per_video_stats():
    k400 = DATASET_PROFILES["kinetics400"]
    small = k400.scaled(100)
    assert small.num_videos == 100
    assert small.frames_per_video == k400.frames_per_video
    assert small.megapixels == k400.megapixels
    with pytest.raises(ValueError):
        k400.scaled(0)
