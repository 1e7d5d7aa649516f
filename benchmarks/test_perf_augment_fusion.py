"""Augmentation fusion vs step-by-step execution (Fig 16 / S5.2 shape).

The workload is the canonical training chain — random_crop -> resize ->
flip -> normalize — run twice: once through the full engine (decode,
materialize, collate), whose plan compiler fuses each chain into a
single index-gather pass with a normalize epilogue written straight into
the preallocated batch, and once through the step-by-step oracle
(``tests/reference_materializer.py``), one full-clip pass per op.

Both must produce byte-identical batches; the memory-traffic ledger
must show the fused path making at least 2x fewer full-clip passes and
copying at least 40% fewer bytes than the oracle's.  Results are
persisted to ``benchmark_results/BENCH_augment_fusion.json``; when the
committed baseline describes the same workload, passes-per-clip is a
regression gate — more passes than the baseline fails the run.

Set ``BENCH_SMOKE=1`` for the CI smoke run (smaller window, same shape).
"""

import json
import os
import time

import numpy as np
from conftest import once

from repro.core import PreprocessingEngine, build_plan_window, load_task_config
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.metrics import Table
from tests.reference_materializer import ReferenceMaterializer

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

NUM_VIDEOS = 6 if SMOKE else 12
NUM_ITERATIONS = 2 if SMOKE else 4
WIDTH, HEIGHT = (64, 48) if SMOKE else (128, 96)
VIDEOS_PER_BATCH = 2
FRAMES_PER_VIDEO = 4


def make_config():
    return load_task_config({
        "dataset": {
            "tag": "bench",
            "video_dataset_path": "/d",
            "sampling": {
                "videos_per_batch": VIDEOS_PER_BATCH,
                "frames_per_video": FRAMES_PER_VIDEO,
                "frame_stride": 2,
            },
            "augmentation": [
                {
                    "branch_type": "single",
                    "inputs": ["frame"],
                    "outputs": ["a0"],
                    "config": [
                        {"random_crop": {"size": [HEIGHT - 8, WIDTH - 8]}},
                        {"resize": {"shape": [32, 32]}},
                        {"flip": {"flip_prob": 0.5}},
                        {"normalize": None},
                    ],
                }
            ],
        }
    })


def run_experiment():
    dataset = SyntheticDataset(
        DatasetSpec(
            num_videos=NUM_VIDEOS, min_frames=30, max_frames=45,
            width=WIDTH, height=HEIGHT, seed=3,
        )
    )
    plan = build_plan_window([make_config()], dataset, 0, NUM_ITERATIONS, seed=5)
    num_clips = len(plan.batches) * VIDEOS_PER_BATCH

    def serve(get_batch):
        start = time.perf_counter()
        batches = {key: get_batch(*key) for key in sorted(plan.batches)}
        return batches, time.perf_counter() - start

    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    fused_batches, fused_wall = serve(lambda *key: engine.get_batch(*key)[0])
    oracle = ReferenceMaterializer(plan, dataset)
    unfused_batches, unfused_wall = serve(oracle.get_batch)

    # Fusion is an execution detail: batches must be byte-identical.
    for key in unfused_batches:
        assert np.array_equal(fused_batches[key], unfused_batches[key]), key

    def snapshot(t, wall):
        return {
            "clip_passes": t.clip_passes,
            "passes_per_clip": round(t.clip_passes / num_clips, 4),
            "bytes_allocated": t.bytes_allocated,
            "bytes_copied": t.bytes_copied,
            "fused_segments": t.fused_segments,
            "identity_skips": t.identity_skips,
            "wall_time_s": round(wall, 6),
        }

    fused = snapshot(engine.stats.traffic, fused_wall)
    unfused = snapshot(oracle.traffic, unfused_wall)
    return {
        "workload": {
            "num_videos": NUM_VIDEOS,
            "iterations": NUM_ITERATIONS,
            "resolution": [WIDTH, HEIGHT],
            "videos_per_batch": VIDEOS_PER_BATCH,
            "frames_per_video": FRAMES_PER_VIDEO,
            "num_clips": num_clips,
            "chain": ["random_crop", "resize", "flip", "normalize"],
            "smoke": SMOKE,
        },
        "fused": fused,
        "unfused": unfused,
        "pass_reduction_x": round(
            unfused["clip_passes"] / max(1, fused["clip_passes"]), 4
        ),
        "bytes_copied_reduction_x": round(
            unfused["bytes_copied"] / max(1, fused["bytes_copied"]), 4
        ),
    }


def test_perf_augment_fusion(benchmark, emit, results_dir):
    result = once(benchmark, run_experiment)
    fused = result["fused"]
    unfused = result["unfused"]

    table = Table(
        "Augmentation fusion: full-clip passes and copied bytes per path",
        ["path", "passes/clip", "bytes copied", "bytes allocated", "wall time (s)"],
    )
    table.add_row(
        "unfused", unfused["passes_per_clip"], unfused["bytes_copied"],
        unfused["bytes_allocated"], unfused["wall_time_s"],
    )
    table.add_row(
        "fused", fused["passes_per_clip"], fused["bytes_copied"],
        fused["bytes_allocated"], fused["wall_time_s"],
    )
    table.add_row(
        "reduction", f"{result['pass_reduction_x']}x",
        f"{result['bytes_copied_reduction_x']}x", "-", "-",
    )

    # The acceptance bar: >=2x fewer full-clip passes, >=40% fewer
    # bytes copied, and the same logical op counts either way.
    assert unfused["clip_passes"] >= 2 * fused["clip_passes"]
    assert fused["bytes_copied"] <= 0.6 * unfused["bytes_copied"]
    assert fused["fused_segments"] > 0

    # Regression gate: never do more passes per clip than the committed
    # baseline.  Passes-per-clip depends on the chain and sampling shape,
    # not on resolution or window size, so the smoke run gates against
    # the committed full-size baseline too.
    gate_keys = ("chain", "videos_per_batch", "frames_per_video")
    baseline_path = results_dir / "BENCH_augment_fusion.json"
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        base_workload = baseline.get("workload", {})
        if all(base_workload.get(k) == result["workload"][k] for k in gate_keys):
            assert (
                fused["passes_per_clip"] <= baseline["fused"]["passes_per_clip"]
            ), (
                "fused passes-per-clip regressed: "
                f"{fused['passes_per_clip']} > baseline "
                f"{baseline['fused']['passes_per_clip']}"
            )

    if not SMOKE:  # the committed baseline is the full-size workload
        baseline_path.write_text(json.dumps(result, indent=2) + "\n")
    emit("augment_fusion", table)
