"""Tests for stateful decode reuse: AnchorCache, IncrementalDecoder,
GOP-coalesced materializer decode, and the engine plumbing around them."""

import numpy as np
import pytest

from repro.augment.registry import default_registry
from repro.codec import (
    AnchorCache,
    IncrementalDecoder,
    SyntheticVideoSource,
    VideoMetadata,
    encode_video,
    frames_to_decode,
    open_decoder,
)
from repro.core import PreprocessingEngine, build_plan_window, load_task_config
from repro.core.materializer import VideoMaterializer, _op_from_args
from repro.datasets import DatasetSpec, SyntheticDataset


def make_video(vid="rv", frames=50, gop=10, w=32, h=24, b=0):
    md = VideoMetadata(vid, width=w, height=h, num_frames=frames,
                       gop_size=gop, b_frames=b)
    return SyntheticVideoSource(md)


FRAME_BYTES = 32 * 24 * 3


# -- AnchorCache ------------------------------------------------------------------


def frame_of(value, nbytes=FRAME_BYTES):
    return np.full(nbytes, value, dtype=np.uint8)


def test_anchor_cache_never_exceeds_budget():
    cache = AnchorCache(budget_bytes=3 * FRAME_BYTES)
    for i in range(10):
        cache.put("v", i, frame_of(i))
        assert cache.bytes_used <= cache.budget_bytes
    assert len(cache) == 3


def test_anchor_cache_evicts_lru_and_get_refreshes():
    cache = AnchorCache(budget_bytes=3 * FRAME_BYTES)
    for i in range(3):
        cache.put("v", i, frame_of(i))
    cache.get("v", 0)  # refresh 0: now 1 is the LRU entry
    cache.put("v", 3, frame_of(3))
    assert ("v", 1) not in cache
    assert ("v", 0) in cache and ("v", 2) in cache and ("v", 3) in cache
    assert cache.evictions == 1


def test_anchor_cache_rejects_oversized_frame():
    cache = AnchorCache(budget_bytes=FRAME_BYTES - 1)
    assert not cache.put("v", 0, frame_of(0))
    assert len(cache) == 0 and cache.bytes_used == 0


def test_anchor_cache_evicts_lowest_level_first_then_lru():
    # Levels are the trailing zero bits of the index: 0 tops all, 8 is 3,
    # 4 is 2, 6 and 2 are 1, odd indices are 0.
    cache = AnchorCache(budget_bytes=4 * FRAME_BYTES)
    for i in (0, 8, 6, 2):
        cache.put("v", i, frame_of(i))
    cache.get("v", 6)  # within level 1, 2 is now the least recently used
    cache.put("v", 4, frame_of(4))
    assert ("v", 2) not in cache and ("v", 6) in cache
    cache.put("v", 5, frame_of(5))  # the lowest level: its own victim
    assert ("v", 5) not in cache
    cache.get("v", 6)
    cache.get("v", 0)  # recency never lifts a level
    cache.put("w", 4, frame_of(4))
    assert ("v", 6) not in cache
    assert sorted(i for i in range(9) if ("v", i) in cache) == [0, 4, 8]
    assert cache.evictions == 3 and cache.bytes_used == 4 * FRAME_BYTES


def test_anchor_cache_snapshot_pins_one_video():
    cache = AnchorCache(budget_bytes=10 * FRAME_BYTES)
    cache.put("a", 0, frame_of(1))
    cache.put("a", 10, frame_of(2))
    cache.put("b", 0, frame_of(3))
    snap = cache.snapshot("a")
    assert sorted(snap) == [0, 10]
    assert np.array_equal(snap[10], frame_of(2))
    assert cache.snapshot("c") == {}


def test_zero_budget_cache_degrades_to_stateless():
    src = make_video(frames=30, gop=10)
    encoded = encode_video(src)
    inc = IncrementalDecoder(encoded, cache=AnchorCache(budget_bytes=0))
    inc.decode_frames([13])
    inc.decode_frames([13])  # nothing cached: same amplification again
    plan = frames_to_decode(inc.metadata.gop, [13], inc.metadata.num_frames)
    assert inc.stats.frames_decoded == 2 * len(plan)
    assert inc.stats.frames_reused_from_anchor_cache == 0


def test_incremental_decoder_reuses_across_calls():
    src = make_video(frames=30, gop=10)
    encoded = encode_video(src)
    inc = IncrementalDecoder(encoded, cache=AnchorCache(10**8))
    out1 = inc.decode_frames([13])
    first = inc.stats.frames_decoded
    out2 = inc.decode_frames([17])  # resumes from cached anchor 13
    assert np.array_equal(out1[13], src.frame(13))
    assert np.array_equal(out2[17], src.frame(17))
    assert inc.stats.frames_decoded - first == 4  # 14..17, not 10..17
    assert inc.stats.frames_reused_from_anchor_cache == 4  # 10..13 skipped


def test_decoder_decode_all_routes_through_anchor_cache():
    """decode_all goes through the anchor cache like any other decode,
    so a full-video sweep warms the cache and later sparse reads resume
    from anchors, byte-identically.
    """
    src = make_video(frames=30, gop=10)
    encoded = encode_video(src)
    cache = AnchorCache(10**8)
    warm = IncrementalDecoder(encoded, cache=cache)
    full = warm.decode_all()
    assert len(full) == 30
    for i in (0, 7, 29):
        assert np.array_equal(full[i], src.frame(i))
    assert len(cache) > 0  # decode_all published anchors

    # A fresh stateful decoder sharing the cache resumes from anchors.
    reuse = IncrementalDecoder(encoded, cache=cache)
    out = reuse.decode_frames([13, 17])
    assert np.array_equal(out[13], src.frame(13))
    assert np.array_equal(out[17], src.frame(17))
    assert reuse.stats.frames_reused_from_anchor_cache > 0
    stateless = IncrementalDecoder(encoded, cache=AnchorCache(0))
    stateless.decode_frames([13, 17])
    assert reuse.stats.frames_decoded < stateless.stats.frames_decoded

    assert warm.stats.frames_decoded == 30
    assert warm.stats.frames_requested == 30


def test_open_decoder_dispatches_incremental_with_cache():
    encoded = encode_video(make_video())
    cache = AnchorCache(10**6)
    dec = open_decoder(encoded, anchor_cache=cache)
    assert isinstance(dec, IncrementalDecoder)
    assert dec.cache is cache
    stateless = open_decoder(encoded)
    assert isinstance(stateless, IncrementalDecoder)
    assert stateless.cache.budget_bytes == 0


# -- materializer integration ------------------------------------------------------


CONFIG = {
    "dataset": {
        "tag": "t",
        "video_dataset_path": "/d",
        "sampling": {"videos_per_batch": 2, "frames_per_video": 4, "frame_stride": 2},
        "augmentation": [
            {
                "branch_type": "single",
                "inputs": ["frame"],
                "outputs": ["a0"],
                "config": [{"resize": {"shape": [12, 16]}}],
            }
        ],
    }
}


@pytest.fixture()
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=4, min_frames=40, max_frames=60, gop_size=10, seed=3)
    )


@pytest.fixture()
def plan(dataset):
    return build_plan_window([load_task_config(CONFIG)], dataset, 0, 2, seed=1)


def test_materializer_stats_accumulate_across_decoder_reset(dataset, plan):
    """Regression: re-opened decoders must not reset frames_decoded."""
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    mat = VideoMaterializer(graph, dataset.get_bytes(vid))
    leaves = graph.leaves()
    mat.get(leaves[0].key)
    first = mat.stats.frames_decoded
    assert first > 0
    # Drop everything, including the decoder — the next decode re-opens a
    # fresh one whose internal counter restarts from zero.
    mat.release_all()
    mat.get(leaves[0].key)
    assert mat.stats.frames_decoded > first  # accumulated, not overwritten


def test_materializers_share_anchor_state_through_cache(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    anchor_cache = AnchorCache(10**8)
    mat1 = VideoMaterializer(
        graph, dataset.get_bytes(vid), anchor_cache=anchor_cache
    )
    for leaf in graph.leaves():
        mat1.get(leaf.key)
    baseline = VideoMaterializer(graph, dataset.get_bytes(vid))
    for leaf in graph.leaves():
        baseline.get(leaf.key)
    # A second materializer on the same video reuses mat1's anchors.
    mat2 = VideoMaterializer(
        graph, dataset.get_bytes(vid), anchor_cache=anchor_cache
    )
    for leaf in graph.leaves():
        mat2.get(leaf.key)
    assert mat2.stats.frames_decoded < baseline.stats.frames_decoded
    assert mat2.stats.frames_reused_from_anchor_cache > 0
    # And produces identical pixels.
    for leaf in graph.leaves():
        assert np.array_equal(mat2.get(leaf.key), baseline.get(leaf.key))


def test_release_raw_frames_keeps_anchor_state(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    anchor_cache = AnchorCache(10**8)
    mat = VideoMaterializer(graph, dataset.get_bytes(vid), anchor_cache=anchor_cache)
    for leaf in graph.leaves():
        mat.get(leaf.key)
    decoded_first = mat.stats.frames_decoded
    assert mat.release_raw_frames() > 0
    assert len(anchor_cache) > 0  # anchor state survived the release
    # Re-materializing after the release decodes strictly less than the
    # first pass did: non-anchor frames only.
    for leaf in graph.leaves():
        mat.get(leaf.key)
    assert mat.stats.frames_decoded - decoded_first < decoded_first


def test_op_from_args_memoizes_identity():
    registry = default_registry()
    op_args = ("resize", '{"shape": [8, 8]}', "{}")
    op1, params1 = _op_from_args(registry, op_args)
    op2, params2 = _op_from_args(registry, op_args)
    assert op1 is op2
    assert params1 is params2
    other, _ = _op_from_args(registry, ("resize", '{"shape": [9, 9]}', "{}"))
    assert other is not op1


# -- engine plumbing ---------------------------------------------------------------


def test_engine_drain_waits_for_inflight_jobs(dataset, plan):
    engine = PreprocessingEngine(plan, dataset, num_workers=2)
    try:
        engine.start()
        engine.drain()
        assert engine.scheduler.pending_count == 0
        assert engine._inflight == 0
        # Every video's frontier is actually materialized, not mid-flight.
        for vid, graph in plan.graphs.items():
            materializer = engine._materializer(vid)
            for leaf in graph.leaves():
                assert materializer.in_memory(leaf.key)
    finally:
        engine.stop()


def test_engine_reports_anchor_reuse(dataset, plan):
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    try:
        engine.drain()
        iters = plan.iterations_per_epoch["t"]
        for epoch in (0, 1):
            for it in range(iters):
                engine.get_batch("t", epoch, it)
        assert engine.anchor_cache.bytes_used <= engine.anchor_cache.budget_bytes
        # The pre-materialization pass populated the anchor cache; the
        # union decode already amortizes within a window, so reuse shows
        # up whenever any video is decoded more than once.
        assert engine.stats.frames_decoded > 0
    finally:
        engine.stop()


def test_level_eviction_converges_across_windows():
    """A cache a third the size of the corpus, shared by six windows of a
    stride-4 task, settles on a grid of every video: from the third
    window on it decodes a fraction of what recency eviction did (3,461
    frames in windows 2-5), within budget and byte-identical to an
    engine that caches nothing."""
    spec = DatasetSpec(num_videos=16, min_frames=90, max_frames=150,
                       width=32, height=24, gop_size=30, seed=0)
    corpus = SyntheticDataset(spec)
    decodable = sum(corpus.metadata(v).num_frames for v in corpus.video_ids)
    cache = AnchorCache(decodable * FRAME_BYTES // 3)
    config = load_task_config({"dataset": dict(CONFIG["dataset"], sampling={
        "videos_per_batch": 4, "frames_per_video": 8, "frame_stride": 4})})
    decoded = []
    for window in range(6):
        window_plan = build_plan_window([config], corpus, 2 * window, 2, seed=0)
        engine = PreprocessingEngine(window_plan, corpus, num_workers=0,
                                     anchor_cache=cache)
        stateless = PreprocessingEngine(window_plan, corpus, num_workers=0,
                                        anchor_cache=AnchorCache(0))
        try:
            for key in sorted(window_plan.batches):
                batch, _ = engine.get_batch(*key)
                assert cache.bytes_used <= cache.budget_bytes
                assert np.array_equal(batch, stateless.get_batch(*key)[0]), key
            decoded.append(engine.stats.frames_decoded)
        finally:
            engine.stop()
            stateless.stop()
    assert cache.evictions > 0
    assert sum(decoded[2:]) <= 865, decoded
