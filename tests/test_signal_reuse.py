"""Differential suite for near-duplicate reuse.

The safety contract: ``reuse_threshold=0`` and anchor caching are
*output-invariant* — byte-identical to the step-by-step oracle
(``tests/reference_materializer.py``, which caches no anchors) across
seeds and under the capstone fault schedule.  At ``reuse_threshold >
0`` the outputs legitimately change (near-duplicates collapse onto their
effective frame), but fused slot reuse must still match the oracle at
the same threshold, and every skipped pass must appear in the
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
    PreprocessingEngine,
    build_plan_window,
    load_task_config,
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
from tests.reference_materializer import ReferenceMaterializer

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


# -- output invariance: threshold 0 + anchor cache --------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clairvoyant_zero_threshold_is_byte_identical(dataset, seed):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=seed)
    engine = PreprocessingEngine(plan, dataset, num_workers=0, reuse_threshold=0.0)
    reference = ReferenceMaterializer(plan, dataset)
    for key in sorted(plan.batches):
        batch, _ = engine.get_batch(*key)
        expected = reference.get_batch(*key)
        assert np.array_equal(batch, expected), key
    assert engine.stats.frames_skipped_near_duplicate == 0


def test_clairvoyant_under_capstone_faults_matches_fault_free_run(dataset):
    """The capstone fault schedule with anchor caching + threshold 0 still
    yields batches byte-identical to the fault-free oracle."""
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
        reuse_threshold=0.0,
    )
    reference = ReferenceMaterializer(plan, dataset)
    with engine:
        engine.drain()
        for key in sorted(plan.batches):
            batch, _ = engine.get_batch(*key)
            expected = reference.get_batch(*key)
            assert np.array_equal(batch, expected), key
    assert engine.stats.worker_crashes == 1
    assert engine.stats.batches_served == len(plan.batches)


@pytest.mark.parametrize("seed", [1, 3])
def test_anchor_cache_shared_across_rolls_under_eviction(dataset, seed):
    """Three windows (two rolls) read through one anchor cache with room
    for under a third of the anchors they decode, as a service's engines
    share it: anchors decoded in one window are reused in the next, LRU
    evicts throughout, and every batch equals the same window decoded
    with no anchor cache at all."""
    anchor_bytes = 32 * 24 * 3
    shared = AnchorCache(12 * anchor_bytes)  # the windows decode ~43 anchors
    configs = [
        make_config(frames=8, stride=2),
        make_config(tag="u", frames=8, stride=2),
    ]
    for epoch_start in range(3):
        plan = build_plan_window(configs, dataset, epoch_start, 1, seed=seed)
        engine = PreprocessingEngine(
            plan, dataset, num_workers=0, anchor_cache=shared
        )
        reference = PreprocessingEngine(
            plan, dataset, num_workers=0, anchor_cache=AnchorCache(0)
        )
        for key in sorted(plan.batches):
            batch, _ = engine.get_batch(*key)
            expected, _ = reference.get_batch(*key)
            assert np.array_equal(batch, expected), (epoch_start, key)
        if epoch_start == 0:
            first_window_hits = shared.hits
    assert shared.evictions > 0
    assert shared.hits > first_window_hits
    assert shared.bytes_used <= shared.budget_bytes


# -- near-duplicate reuse: accounting and agreement with the oracle ---------------


def test_fused_slot_reuse_matches_unfused_at_same_threshold(lowmo_dataset):
    """Slot reuse is pure copy elision: at any threshold the engine must
    byte-match the step-by-step oracle at the *same* threshold, with the
    ledger recording the skipped augment passes (sanitizers forced on)."""
    from repro.analysis.sanitizers import reset_sanitizers, set_sanitizers

    plan = build_plan_window(
        [make_config(deterministic=True)], lowmo_dataset, 0, 2, seed=2
    )
    set_sanitizers(True)
    reset_sanitizers()
    try:
        fused = PreprocessingEngine(
            plan, lowmo_dataset, num_workers=0,
            reuse_threshold=LOW_MOTION_THRESHOLD,
        )
        reference = ReferenceMaterializer(
            plan, lowmo_dataset, reuse_threshold=LOW_MOTION_THRESHOLD
        )
        for key in sorted(plan.batches):
            batch, _ = fused.get_batch(*key)
            expected = reference.get_batch(*key)
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
        plan, dataset, num_workers=0, reuse_threshold=LOW_MOTION_THRESHOLD
    )
    reference = ReferenceMaterializer(plan, dataset)
    for key in sorted(plan.batches):
        batch, _ = engine.get_batch(*key)
        expected = reference.get_batch(*key)
        assert np.array_equal(batch, expected), key
    assert engine.stats.frames_skipped_near_duplicate == 0
    assert engine.stats.traffic.reused_slots == 0


def test_anchor_counters_roll_into_traffic_report(lowmo_dataset):
    plan = build_plan_window(
        [make_config(deterministic=True)], lowmo_dataset, 0, 1, seed=2
    )
    engine = PreprocessingEngine(
        plan, lowmo_dataset, num_workers=0,
        reuse_threshold=LOW_MOTION_THRESHOLD,
    )
    run_all_batches(engine, plan)
    stats = engine.stats
    report = stats.traffic_report()["anchor_cache"]
    assert report["misses"] > 0  # first decode always misses
    assert report["hits"] == stats.frames_reused_from_anchor_cache
    assert report["entries"] > 0


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
