"""Differential suite for near-duplicate reuse and clairvoyant caching.

The safety contract: ``reuse_threshold=0`` and clairvoyant eviction are
*output-invariant* — byte-identical batches across seeds, fused and
unfused, and under the capstone fault schedule.  At ``reuse_threshold >
0`` the outputs legitimately change (near-duplicates collapse onto their
effective frame), but fused slot reuse must still match the unfused
engine at the same threshold, and every skipped pass must appear in the
TrafficLedger.
"""

import numpy as np
import pytest

from repro.codec import (
    AnchorCache,
    IncrementalDecoder,
    SyntheticVideoSource,
    VideoMetadata,
    encode_video,
)
from repro.core import (
    CacheManager,
    NextUseOracle,
    PreprocessingEngine,
    build_plan_window,
    load_task_config,
    oracle_from_accesses,
    oracle_from_plan,
    prune_plan,
)
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.faults import (
    SITE_ENGINE_JOB,
    SITE_STORE_GET,
    SITE_STORE_PUT,
    FaultSchedule,
    FaultSpec,
    FaultyStore,
)
from repro.storage import RetryPolicy
from repro.storage.local import LocalStore
from tests.reference_decoder import reference_decode

FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.0, max_delay_s=0.0)

# Calibrated for the synthetic source: low-motion content (motion 0.2,
# no noise) measures inter-frame deltas ~0.8-1.0, default content ~6-10.
# Threshold 2.0 therefore collapses every non-anchor low-motion frame
# and never touches default content.
LOW_MOTION_THRESHOLD = 2.0


def make_config(tag="t", vpb=2, frames=4, stride=1, deterministic=False):
    ops = [{"resize": {"shape": [18, 24]}}]
    if not deterministic:
        ops += [
            {"random_crop": {"size": [12, 12]}},
            {"flip": {"flip_prob": 0.5}},
        ]
    return load_task_config({
        "dataset": {
            "tag": tag,
            "video_dataset_path": "/d",
            "sampling": {
                "videos_per_batch": vpb,
                "frames_per_video": frames,
                "frame_stride": stride,
            },
            "augmentation": [
                {
                    "branch_type": "single",
                    "inputs": ["frame"],
                    "outputs": ["a0"],
                    "config": ops,
                }
            ],
        }
    })


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(
            num_videos=5, min_frames=36, max_frames=56, width=32, height=24,
            gop_size=12, b_frames=3, seed=3,
        )
    )


@pytest.fixture(scope="module")
def lowmo_dataset():
    return SyntheticDataset(
        DatasetSpec(
            name="lowmo", num_videos=3, min_frames=48, max_frames=48,
            width=32, height=24, gop_size=48, b_frames=3, seed=7,
            motion_scale=0.2, noise_scale=0.0,
        )
    )


def run_all_batches(engine, plan):
    return {
        key: engine.get_batch(*key)[0] for key in sorted(plan.batches)
    }


# -- output invariance: threshold 0 + clairvoyant ---------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("fused", [False, True])
def test_clairvoyant_zero_threshold_is_byte_identical(dataset, seed, fused):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=seed)
    engine = PreprocessingEngine(
        plan, dataset, num_workers=0, fusion_enabled=fused,
        reuse_threshold=0.0, clairvoyant_cache=True,
    )
    reference = PreprocessingEngine(
        plan, dataset, num_workers=0, fusion_enabled=False,
        clairvoyant_cache=False,
    )
    for key in sorted(plan.batches):
        batch, _ = engine.get_batch(*key)
        expected, _ = reference.get_batch(*key)
        assert np.array_equal(batch, expected), key
    assert engine.stats.frames_skipped_near_duplicate == 0
    report = engine.stats.traffic_report()
    assert report["anchor_cache"]["clairvoyant"] is True
    assert reference.stats.traffic_report()["anchor_cache"]["clairvoyant"] is False


def test_clairvoyant_under_capstone_faults_matches_fault_free_run(dataset):
    """The capstone fault schedule with clairvoyant caching + threshold 0
    still yields batches byte-identical to a fault-free, non-clairvoyant,
    unfused run."""
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    schedule = FaultSchedule(
        seed=0,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
            FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
        ],
    )
    store = LocalStore(10**8)
    cache = CacheManager(FaultyStore(store, schedule))
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(
        plan, dataset, pruning=pruning, cache=cache, num_workers=2,
        fault_schedule=schedule, retry_policy=FAST_RETRY,
        fusion_enabled=True, reuse_threshold=0.0, clairvoyant_cache=True,
    )
    reference = PreprocessingEngine(
        plan, dataset, num_workers=0, fusion_enabled=False,
        clairvoyant_cache=False,
    )
    with engine:
        engine.drain()
        for key in sorted(plan.batches):
            batch, _ = engine.get_batch(*key)
            expected, _ = reference.get_batch(*key)
            assert np.array_equal(batch, expected), key
    assert engine.stats.worker_crashes == 1
    assert engine.stats.batches_served == len(plan.batches)


# -- near-duplicate reuse: accounting and fused/unfused agreement -----------------


def test_fused_slot_reuse_matches_unfused_at_same_threshold(lowmo_dataset):
    """Slot reuse is pure copy elision: at any threshold the fused engine
    must byte-match the unfused engine at the *same* threshold, with the
    ledger recording the skipped augment passes (sanitizers forced on)."""
    from repro.analysis.sanitizers import reset_sanitizers, set_sanitizers

    plan = build_plan_window(
        [make_config(deterministic=True)], lowmo_dataset, 0, 2, seed=2
    )
    set_sanitizers(True)
    reset_sanitizers()
    try:
        fused = PreprocessingEngine(
            plan, lowmo_dataset, num_workers=0, fusion_enabled=True,
            reuse_threshold=LOW_MOTION_THRESHOLD,
        )
        unfused = PreprocessingEngine(
            plan, lowmo_dataset, num_workers=0, fusion_enabled=False,
            reuse_threshold=LOW_MOTION_THRESHOLD,
        )
        for key in sorted(plan.batches):
            batch, _ = fused.get_batch(*key)
            expected, _ = unfused.get_batch(*key)
            assert np.array_equal(batch, expected), key
        report = fused.sanitizer_report()
        assert report is not None and report.clean(), report.as_dict()
    finally:
        reset_sanitizers()
        set_sanitizers(None)

    traffic = fused.stats.traffic
    assert traffic.reused_slots > 0
    assert traffic.augment_passes_skipped > 0
    # Stride-1 sampling on collapsed content: every reused slot skipped
    # its whole augment chain (resize), one pass per slot here.
    assert traffic.augment_passes_skipped == traffic.reused_slots
    assert fused.stats.frames_skipped_near_duplicate > 0
    ledger = fused.stats.traffic_report()
    assert ledger["reused_slots"] == traffic.reused_slots
    assert ledger["augment_passes_skipped"] == traffic.augment_passes_skipped


def test_threshold_changes_are_inert_on_high_motion_content(dataset):
    """Default-motion content sits far above the threshold: a thresholded
    engine must remain byte-identical to the reference."""
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=4)
    engine = PreprocessingEngine(
        plan, dataset, num_workers=0, fusion_enabled=True,
        reuse_threshold=LOW_MOTION_THRESHOLD,
    )
    reference = PreprocessingEngine(
        plan, dataset, num_workers=0, fusion_enabled=False,
        clairvoyant_cache=False,
    )
    for key in sorted(plan.batches):
        batch, _ = engine.get_batch(*key)
        expected, _ = reference.get_batch(*key)
        assert np.array_equal(batch, expected), key
    assert engine.stats.frames_skipped_near_duplicate == 0
    assert engine.stats.traffic.reused_slots == 0


def test_per_video_counters_roll_into_traffic_report(lowmo_dataset):
    plan = build_plan_window(
        [make_config(deterministic=True)], lowmo_dataset, 0, 1, seed=2
    )
    engine = PreprocessingEngine(
        plan, lowmo_dataset, num_workers=0,
        reuse_threshold=LOW_MOTION_THRESHOLD,
    )
    run_all_batches(engine, plan)
    report = engine.stats.traffic_report()["anchor_cache"]
    assert report["clairvoyant"] is True
    per_video = report["per_video"]
    assert per_video  # at least one video decoded
    for vid, stats in per_video.items():
        assert vid in lowmo_dataset.video_ids
        assert set(stats) == {"hits", "misses", "reuses"}
        assert stats["misses"] > 0  # first decode always misses
    assert report["hits"] == sum(s["hits"] for s in per_video.values())
    assert report["misses"] == sum(s["misses"] for s in per_video.values())


# -- decoder-level correctness ----------------------------------------------------


def lowmo_video(vid="lv", frames=48, gop=48, b=3):
    md = VideoMetadata(vid, width=32, height=24, num_frames=frames,
                       gop_size=gop, b_frames=b)
    return encode_video(
        SyntheticVideoSource(md, motion_scale=0.2, noise_scale=0.0)
    )


def test_decoder_near_dup_output_is_effective_frame(lowmo_dataset):
    data = lowmo_video()
    dec = IncrementalDecoder(
        data, cache=AnchorCache(10**8),
        reuse_threshold=LOW_MOTION_THRESHOLD,
    )
    wanted = list(range(48))
    out = dec.decode_frames(wanted)
    reference = reference_decode(data, wanted)
    eff = dec.signals.effective_map(LOW_MOTION_THRESHOLD)
    collapsed = 0
    for i in wanted:
        assert np.array_equal(out[i], reference[eff[i]]), i
        collapsed += eff[i] != i
    assert collapsed > 0
    assert dec.stats.frames_skipped_near_duplicate > 0
    assert dec.stats.frames_decoded < len(reference)


def test_decoder_reuse_is_pure_across_cache_states():
    """The effective-frame mapping depends only on container bytes and
    threshold — a warm cache must not change decoded output."""
    data = lowmo_video()
    cache = AnchorCache(10**8)
    cold = IncrementalDecoder(
        data, cache=cache, reuse_threshold=LOW_MOTION_THRESHOLD
    ).decode_frames(range(48))
    warm = IncrementalDecoder(
        data, cache=cache, reuse_threshold=LOW_MOTION_THRESHOLD
    ).decode_frames(range(48))
    for i in range(48):
        assert np.array_equal(cold[i], warm[i])


def test_zero_threshold_decoder_is_byte_identical():
    data = lowmo_video()
    out = IncrementalDecoder(
        data, cache=AnchorCache(10**8), reuse_threshold=0.0
    ).decode_frames(range(48))
    reference = reference_decode(data, range(48))
    for i in range(48):
        assert np.array_equal(out[i], reference[i])


# -- clairvoyant cache policy -----------------------------------------------------


def frame_bytes(value, shape=(8, 8, 3)):
    return np.full(shape, value, dtype=np.uint8)


def cyclic_oracle(vid, anchors, rounds):
    """Each round touches every anchor once, in order."""
    uses = {}
    step = 0
    for _ in range(rounds):
        for a in anchors:
            uses.setdefault((vid, a), []).append(step)
            step += 1
    return NextUseOracle(uses), step


def replay(cache, vid, anchors, rounds):
    """Drive the access stream through a cache, counting hits."""
    hits = 0
    step = 0
    frame = frame_bytes(1)
    for _ in range(rounds):
        for a in anchors:
            cache.advance(step)
            if cache.get(vid, a) is not None:
                hits += 1
            else:
                cache.put(vid, a, frame)
            step += 1
    return hits


def test_belady_beats_lru_on_cyclic_scan():
    """The classic LRU pathology: a cyclic scan one entry larger than the
    budget gives LRU a 0% hit rate; Belady keeps a stable subset."""
    anchors = list(range(5))
    frame = frame_bytes(1)
    budget = frame.nbytes * 4  # holds 4 of 5
    rounds = 6

    lru = AnchorCache(budget)
    lru_hits = replay(lru, "v", anchors, rounds)

    oracle, _ = cyclic_oracle("v", anchors, rounds)
    belady = AnchorCache(budget)
    belady.set_oracle(oracle)
    belady_hits = replay(belady, "v", anchors, rounds)

    assert lru_hits == 0  # thrashes: evicts exactly what's needed next
    assert belady_hits > lru_hits
    assert belady.report()["clairvoyant"] is True


def test_clairvoyant_admission_can_refuse_dead_entries():
    """An entry with no future use loses to entries that will be reused:
    put() reports whether the new entry survived admission."""
    vid = "v"
    frame = frame_bytes(1)
    oracle = NextUseOracle({(vid, 0): [10], (vid, 1): [11]})
    cache = AnchorCache(frame.nbytes * 2)
    cache.set_oracle(oracle)
    cache.advance(0)
    assert cache.put(vid, 0, frame)
    assert cache.put(vid, 1, frame)
    # Anchor 99 is never used again; both residents are. It is refused.
    assert not cache.put(vid, 99, frame)
    assert (vid, 0) in cache and (vid, 1) in cache


def test_belady_victim_is_farthest_next_use():
    vid = "v"
    frame = frame_bytes(1)
    oracle = NextUseOracle({(vid, 0): [5], (vid, 1): [50], (vid, 2): [6]})
    cache = AnchorCache(frame.nbytes * 2)
    cache.set_oracle(oracle)
    cache.advance(0)
    cache.put(vid, 0, frame)
    cache.put(vid, 1, frame)
    assert cache.put(vid, 2, frame)  # evicts anchor 1 (next use 50)
    assert (vid, 0) in cache and (vid, 2) in cache
    assert (vid, 1) not in cache


def test_oracle_clock_is_monotonic():
    cache = AnchorCache(10**6)
    cache.advance(5)
    cache.advance(3)  # late/stale advance never rewinds the clock
    assert cache.clock == 5


def test_oracle_from_plan_tracks_real_anchor_uses(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=1)
    oracle = oracle_from_plan(plan)
    assert len(oracle) > 0
    total_steps = len(plan.batches)
    for video_id, graph in plan.graphs.items():
        gop = graph.metadata.gop
        for anchor in oracle.tracked_anchors(video_id):
            assert gop.is_anchor(anchor)
            first = oracle.next_use(video_id, anchor, -1)
            assert first is not None and 0 <= first < total_steps
            # Uses are sorted and strictly in the future of `now`.
            assert oracle.next_use(video_id, anchor, first) != first


def test_oracle_from_accesses_expands_b_frame_dependencies():
    md = VideoMetadata("v", width=8, height=8, num_frames=16,
                       gop_size=8, b_frames=3)
    oracle = oracle_from_accesses(md, [[1]])  # frame 1 is a B frame
    # Decoding B(1) needs anchors 0 (prev) and 4 (next).
    assert oracle.next_use("v", 0, -1) == 0
    assert oracle.next_use("v", 4, -1) == 0
    assert oracle.next_use("v", 8, -1) is None
