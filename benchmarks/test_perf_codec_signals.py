"""Codec-signal reuse on the long-GOP, low-motion profile.

Near-duplicate reuse, persisted to
``benchmark_results/BENCH_codec_signals.json``: repeated sparse windows
over a long-GOP (48), low-motion video.  The stateless baseline
re-decodes every anchor lead-in per window; anchor caching alone removes
the repeats; the signal path additionally collapses near-duplicate
frames onto their effective anchors, so only anchors are ever decoded.
The bar: >= 4x fewer frames decoded than the no-cache baseline (anchor
caching alone measures ~3.3x on this shape).

Set ``BENCH_SMOKE=1`` for the CI smoke run (smaller video, same shape).
"""

import json
import os
import time

import numpy as np
from conftest import once

from repro.codec import (
    AnchorCache,
    FrameSignals,
    IncrementalDecoder,
    SyntheticVideoSource,
    VideoMetadata,
    encode_video,
)
from repro.metrics import Table

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

GOP_SIZE = 48
B_FRAMES = 3
NUM_GOPS = 2 if SMOKE else 4
NUM_FRAMES = GOP_SIZE * NUM_GOPS
WIDTH, HEIGHT = (32, 24) if SMOKE else (64, 48)
NUM_WINDOWS = 8
# Calibrated: motion_scale 0.2 / noise 0 measures inter-frame deltas
# ~0.8-1.0 on this content; threshold 2.0 collapses every non-anchor.
MOTION_SCALE = 0.2
REUSE_THRESHOLD = 2.0

# Window w touches every GOP at depth OFFSETS[w] — disjoint frame sets
# whose anchor chains overlap (the Fig 3 repeated sparse access shape).
OFFSETS = [42, 37, 31, 26, 21, 15, 10, 5]


def sparse_windows():
    return [
        [g * GOP_SIZE + OFFSETS[w] for g in range(NUM_GOPS)]
        for w in range(NUM_WINDOWS)
    ]


def encoded_video():
    md = VideoMetadata(
        "bench_lowmo", width=WIDTH, height=HEIGHT, num_frames=NUM_FRAMES,
        fps=30.0, gop_size=GOP_SIZE, b_frames=B_FRAMES,
    )
    return encode_video(
        SyntheticVideoSource(md, motion_scale=MOTION_SCALE, noise_scale=0.0)
    )


def snapshot(stats, wall):
    return {
        "frames_requested": stats.frames_requested,
        "frames_decoded": stats.frames_decoded,
        "frames_reused_from_anchor_cache": stats.frames_reused_from_anchor_cache,
        "frames_skipped_near_duplicate": stats.frames_skipped_near_duplicate,
        "bytes_read": stats.bytes_read,
        "wall_time_s": round(wall, 6),
    }


def run_reuse_experiment():
    data = encoded_video()
    windows = sparse_windows()
    signals = FrameSignals.from_container(data)
    low_motion = signals.low_motion_fraction(REUSE_THRESHOLD)

    # No-cache baseline: stateless decode per window.
    baseline = IncrementalDecoder(data, cache=AnchorCache(0))
    start = time.perf_counter()
    baseline_out = [baseline.decode_frames(w) for w in windows]
    baseline_wall = time.perf_counter() - start

    # Anchor caching alone (the pre-signal state of the art here).
    cache_only = IncrementalDecoder(data, cache=AnchorCache(256 * 1024 * 1024))
    start = time.perf_counter()
    for w in windows:
        cache_only.decode_frames(w)
    cache_only_wall = time.perf_counter() - start

    # Signal path: anchor caching + near-duplicate collapse.
    signal = IncrementalDecoder(
        data, cache=AnchorCache(256 * 1024 * 1024),
        reuse_threshold=REUSE_THRESHOLD,
    )
    start = time.perf_counter()
    signal_out = [signal.decode_frames(w) for w in windows]
    signal_wall = time.perf_counter() - start

    # Exactness: every returned frame is the reference decode of its
    # effective (threshold-collapsed) index.
    eff = signals.effective_map(REUSE_THRESHOLD)
    stateless = IncrementalDecoder(data, cache=AnchorCache(0))
    reference = stateless.decode_frames(range(NUM_FRAMES))
    for window, base_frames, sig_frames in zip(windows, baseline_out, signal_out):
        for idx in window:
            assert np.array_equal(base_frames[idx], reference[idx]), idx
            assert np.array_equal(sig_frames[idx], reference[eff[idx]]), idx

    return {
        "low_motion_fraction": round(low_motion, 4),
        "baseline_stateless": snapshot(baseline.stats, baseline_wall),
        "anchor_cache_only": snapshot(cache_only.stats, cache_only_wall),
        "signal_reuse": snapshot(signal.stats, signal_wall),
        "cache_only_reduction_x": round(
            baseline.stats.frames_decoded
            / max(1, cache_only.stats.frames_decoded), 4
        ),
        "signal_reduction_x": round(
            baseline.stats.frames_decoded
            / max(1, signal.stats.frames_decoded), 4
        ),
    }


def run_experiment():
    return {
        "workload": {
            "num_frames": NUM_FRAMES,
            "gop_size": GOP_SIZE,
            "b_frames": B_FRAMES,
            "resolution": [WIDTH, HEIGHT],
            "windows": NUM_WINDOWS,
            "motion_scale": MOTION_SCALE,
            "reuse_threshold": REUSE_THRESHOLD,
            "smoke": SMOKE,
        },
        "near_duplicate_reuse": run_reuse_experiment(),
    }


def test_perf_codec_signals(benchmark, emit, results_dir):
    result = once(benchmark, run_experiment)
    reuse = result["near_duplicate_reuse"]
    base = reuse["baseline_stateless"]
    cache_only = reuse["anchor_cache_only"]
    signal = reuse["signal_reuse"]

    table = Table(
        "Near-duplicate reuse: long-GOP low-motion sparse windows",
        ["path", "frames decoded", "reused", "near-dup skipped", "reduction"],
    )
    table.add_row(
        "stateless", base["frames_decoded"],
        base["frames_reused_from_anchor_cache"],
        base["frames_skipped_near_duplicate"], "1.0x",
    )
    table.add_row(
        "anchor cache", cache_only["frames_decoded"],
        cache_only["frames_reused_from_anchor_cache"],
        cache_only["frames_skipped_near_duplicate"],
        f"{reuse['cache_only_reduction_x']}x",
    )
    table.add_row(
        "signal reuse", signal["frames_decoded"],
        signal["frames_reused_from_anchor_cache"],
        signal["frames_skipped_near_duplicate"],
        f"{reuse['signal_reduction_x']}x",
    )

    # Acceptance bars.
    assert reuse["signal_reduction_x"] >= 4.0, reuse["signal_reduction_x"]
    assert signal["frames_skipped_near_duplicate"] > 0

    (results_dir / "BENCH_codec_signals.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    emit("codec_signals", table)
