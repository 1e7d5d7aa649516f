"""Decode reuse vs stateless decoding on repeated sparse access (Fig 3 shape).

The workload is the paper's worst case for on-demand decoding: one video,
eight disjoint sparse windows, each window touching every GOP at a
different depth.  The stateless decoder re-decodes each GOP's anchor
lead-in for every window; the incremental decoder caches anchors and
resumes from the deepest one already decoded.  Results (frames decoded,
bytes read, wall time, per path) are persisted to
``benchmark_results/BENCH_decode_reuse.json`` so future PRs have a perf
trajectory to regress against.

Set ``BENCH_SMOKE=1`` for the CI smoke run (smaller video, same shape).
"""

import json
import os
import time

import numpy as np
from conftest import once

from repro.codec import (
    AnchorCache,
    IncrementalDecoder,
    SyntheticVideoSource,
    VideoMetadata,
    encode_video,
)
from repro.metrics import Table

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

GOP_SIZE = 30
B_FRAMES = 2
NUM_GOPS = 4 if SMOKE else 8
NUM_FRAMES = GOP_SIZE * NUM_GOPS
WIDTH, HEIGHT = (32, 24) if SMOKE else (64, 48)
NUM_WINDOWS = 8

# Window w touches every GOP at depth offsets[w]: windows are disjoint
# frame sets, but their anchor chains overlap — exactly the repeated
# sparse access pattern of demand feeding racing pre-materialization.
OFFSETS = [26, 23, 20, 17, 14, 11, 8, 5]


def sparse_windows():
    return [
        [g * GOP_SIZE + OFFSETS[w] for g in range(NUM_GOPS)]
        for w in range(NUM_WINDOWS)
    ]


def encoded_video():
    md = VideoMetadata(
        "bench", width=WIDTH, height=HEIGHT, num_frames=NUM_FRAMES,
        fps=30.0, gop_size=GOP_SIZE, b_frames=B_FRAMES,
    )
    return encode_video(SyntheticVideoSource(md))


def run_experiment():
    data = encoded_video()
    windows = sparse_windows()

    # Stateless baseline: nothing survives a call (on-demand semantics).
    baseline = IncrementalDecoder(data, cache=AnchorCache(0))
    start = time.perf_counter()
    baseline_out = [baseline.decode_frames(w) for w in windows]
    baseline_wall = time.perf_counter() - start

    # Reuse path: one incremental decoder with a shared anchor cache.
    reuse = IncrementalDecoder(data, cache=AnchorCache(256 * 1024 * 1024))
    start = time.perf_counter()
    reuse_out = [reuse.decode_frames(w) for w in windows]
    reuse_wall = time.perf_counter() - start

    # Pixel exactness: the reuse path must be byte-identical.
    for window, base_frames, reuse_frames in zip(windows, baseline_out, reuse_out):
        for idx in window:
            assert np.array_equal(base_frames[idx], reuse_frames[idx]), idx

    def snapshot(stats, wall):
        return {
            "frames_requested": stats.frames_requested,
            "frames_decoded": stats.frames_decoded,
            "frames_reused_from_anchor_cache": stats.frames_reused_from_anchor_cache,
            "bytes_read": stats.bytes_read,
            "wall_time_s": round(wall, 6),
            "amplification": round(stats.amplification, 4),
        }

    return {
        "workload": {
            "num_frames": NUM_FRAMES,
            "gop_size": GOP_SIZE,
            "b_frames": B_FRAMES,
            "resolution": [WIDTH, HEIGHT],
            "windows": NUM_WINDOWS,
            "frames_per_window": NUM_GOPS,
            "smoke": SMOKE,
        },
        "baseline_stateless": snapshot(baseline.stats, baseline_wall),
        "reuse_incremental": snapshot(reuse.stats, reuse_wall),
        "decode_reduction_x": round(
            baseline.stats.frames_decoded / max(1, reuse.stats.frames_decoded), 4
        ),
        "bytes_reduction_x": round(
            baseline.stats.bytes_read / max(1, reuse.stats.bytes_read), 4
        ),
    }


def test_perf_decode_reuse(benchmark, emit, results_dir):
    result = once(benchmark, run_experiment)
    base = result["baseline_stateless"]
    reuse = result["reuse_incremental"]

    table = Table(
        "Decode reuse: repeated sparse windows, stateless vs anchor cache",
        ["path", "frames decoded", "frames reused", "bytes read", "wall time (s)"],
    )
    table.add_row(
        "stateless", base["frames_decoded"], base["frames_reused_from_anchor_cache"],
        base["bytes_read"], base["wall_time_s"],
    )
    table.add_row(
        "anchor cache", reuse["frames_decoded"],
        reuse["frames_reused_from_anchor_cache"],
        reuse["bytes_read"], reuse["wall_time_s"],
    )
    table.add_row(
        "reduction", f"{result['decode_reduction_x']}x", "-",
        f"{result['bytes_reduction_x']}x", "-",
    )

    # The acceptance bar: reuse decodes at least 2x fewer frames.
    assert base["frames_decoded"] >= 2 * reuse["frames_decoded"]
    assert reuse["frames_reused_from_anchor_cache"] > 0
    assert base["bytes_read"] > reuse["bytes_read"]

    (results_dir / "BENCH_decode_reuse.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    emit("decode_reuse", table)
