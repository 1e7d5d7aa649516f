"""The async zero-copy data plane: delivery copies and demand latency.

Two experiments over the same plan window:

* **Delivery copies** — a trainer reads the window through the
  in-process ``get_batch_lease`` path.  The gate requires the
  trainer-boundary copy ledger to read exactly zero bytes per batch:
  the fused epilogue writes into the pooled delivery buffer and the
  trainer borrows that buffer directly.
* **Concurrent demand latency** — 32 trainer replicas read every batch
  of a drained window over the Unix-socket wire protocol, each paced by
  a simulated GPU step (1.5x the mean synchronous assembly time, the
  same pacing convention as the prefetch benchmark).  The baseline is
  today's single synchronous caller assembling each batch on demand on
  its own thread.  The gate requires p50 and p99 per-request latency
  under 32-way concurrency to be no worse than the single-caller sync
  path: the event loop overlaps requests across the executor and sends
  pooled memoryviews, so piling on trainers must not push even tail
  latency past what one trainer already pays today.

Results persist to ``benchmark_results/BENCH_dataplane.json`` as the
regression baseline.  Set ``BENCH_SMOKE=1`` for the CI smoke run.
"""

import json
import os
import threading
import time

import numpy as np
from conftest import once

from repro.core import (
    AsyncBatchServer,
    BatchSocketClient,
    PreprocessingEngine,
    build_plan_window,
    load_task_config,
)
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.metrics import Table

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

NUM_VIDEOS = 8 if SMOKE else 12
TRAINERS = 8 if SMOKE else 32
K_EPOCHS = 2


def make_config():
    return load_task_config({
        "dataset": {
            "tag": "t",
            "video_dataset_path": "/d",
            "sampling": {
                "videos_per_batch": 4,
                "frames_per_video": 6,
                "frame_stride": 2,
            },
            "augmentation": [
                {
                    "branch_type": "single",
                    "inputs": ["frame"],
                    "outputs": ["a0"],
                    "config": [
                        {"resize": {"shape": [32, 44]}},
                        {"random_crop": {"size": [28, 28]}},
                        {"flip": {"flip_prob": 0.5}},
                    ],
                }
            ],
        }
    })


def make_dataset():
    return SyntheticDataset(
        DatasetSpec(
            num_videos=NUM_VIDEOS, min_frames=40, max_frames=60,
            width=64, height=48, seed=3,
        )
    )


def percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def zero_copy_experiment():
    dataset = make_dataset()
    plan = build_plan_window([make_config()], dataset, 0, K_EPOCHS, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0, seed=5)
    delivered = 0
    with engine:
        for key in sorted(plan.batches):
            lease, _ = engine.get_batch_lease(*key)
            with lease:
                delivered += lease.nbytes
        report = engine.dataplane_report()
    return {
        "num_batches": len(plan.batches),
        "bytes_delivered": delivered,
        "bytes_copied_per_batch": report["bytes_copied_per_batch"],
        "delivery_passes": report["delivery_passes"],
        "buffers_allocated": report["buffers_allocated"],
        "buffers_reused": report["buffers_reused"],
        "leases_outstanding": report["leases_outstanding"],
    }


def latency_experiment(tmp):
    dataset = make_dataset()
    plan = build_plan_window([make_config()], dataset, 0, K_EPOCHS, seed=5)
    keys = sorted(plan.batches)

    # Baseline: the status-quo trainer — one caller, demand assembly on
    # its own thread, no server in between.
    baseline = PreprocessingEngine(plan, dataset, num_workers=0, seed=5)
    single = []
    reference = {}
    with baseline:
        for key in keys:
            started = time.perf_counter()
            batch, _ = baseline.get_batch(*key)
            single.append(time.perf_counter() - started)
            reference[key] = batch
    gpu_step_s = 1.5 * sum(single) / len(single)

    # Concurrent: TRAINERS replicas each read the full window over the
    # wire from one drained engine (the data-parallel shape: every
    # replica reads the same batches), each paced by its GPU step.
    engine = PreprocessingEngine(plan, dataset, num_workers=2, seed=5)
    concurrent = []
    errors = []
    # Bench harness state, not engine-internal: lock-order sanitizing
    # would only add overhead to the measurement.
    lock = threading.Lock()  # sandlint: ignore[raw-lock]
    with engine:
        engine.drain()
        server = AsyncBatchServer(
            engine, unix_path=f"{tmp}/bench.sock", executor_workers=16
        )
        server.start_background()
        # One warm pass: first-touch leaf loads and pool growth should
        # not be billed to the steady-state latency distribution.
        with BatchSocketClient(server.address) as warm:
            for key in keys:
                batch, _ = warm.get_batch(*key)
                assert np.array_equal(batch, reference[key]), key

        def trainer(rank):
            samples = []
            try:
                with BatchSocketClient(server.address) as client:
                    for key in keys:
                        started = time.perf_counter()
                        client.get_batch_with_retry(*key)
                        samples.append(time.perf_counter() - started)
                        time.sleep(gpu_step_s)
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(f"{rank}: {exc}")
                    return
            with lock:
                concurrent.extend(samples)

        threads = [
            threading.Thread(target=trainer, args=(rank,))
            for rank in range(TRAINERS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        assert errors == [], errors
        server.shutdown()
        report = engine.dataplane_report()

    return {
        "num_batches": len(keys),
        "trainers": TRAINERS,
        "requests": len(concurrent),
        "gpu_step_ms": round(gpu_step_s * 1e3, 4),
        "single_p50_ms": round(percentile(single, 50) * 1e3, 4),
        "single_p99_ms": round(percentile(single, 99) * 1e3, 4),
        "concurrent_p50_ms": round(percentile(concurrent, 50) * 1e3, 4),
        "concurrent_p99_ms": round(percentile(concurrent, 99) * 1e3, 4),
        "wall_s": round(wall, 4),
        "batches_per_s": round(len(concurrent) / max(wall, 1e-9), 2),
        "sends": report["sends"],
        "send_bytes": report["send_bytes"],
        "leases_outstanding": report["leases_outstanding"],
    }


def run_experiment():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        return {
            "workload": {
                "num_videos": NUM_VIDEOS,
                "k_epochs": K_EPOCHS,
                "trainers": TRAINERS,
                "smoke": SMOKE,
            },
            "zero_copy": zero_copy_experiment(),
            "latency": latency_experiment(tmp),
        }


def test_perf_dataplane(benchmark, emit, results_dir):
    result = once(benchmark, run_experiment)
    zero = result["zero_copy"]
    lat = result["latency"]

    table = Table(
        "Async data plane: delivery copies and demand latency",
        ["metric", "single sync caller", f"{lat['trainers']} async trainers"],
    )
    table.add_row(
        "bytes copied per batch (in-process)", "-",
        zero["bytes_copied_per_batch"],
    )
    table.add_row("demand p50 (ms)", lat["single_p50_ms"], lat["concurrent_p50_ms"])
    table.add_row("demand p99 (ms)", lat["single_p99_ms"], lat["concurrent_p99_ms"])
    table.add_row("batches/s", "-", lat["batches_per_s"])
    table.add_row("leases outstanding after drain", "-", lat["leases_outstanding"])

    # Regression gates: the lease path moves zero bytes at the trainer
    # boundary, concurrent wire serving is no worse than the
    # single-caller sync path at p50 and p99, and the pool drains.
    assert zero["bytes_copied_per_batch"] == 0.0, zero
    assert zero["leases_outstanding"] == 0, zero
    assert lat["concurrent_p50_ms"] <= lat["single_p50_ms"], lat
    assert lat["concurrent_p99_ms"] <= lat["single_p99_ms"], lat
    assert lat["leases_outstanding"] == 0, lat

    if not SMOKE:
        (results_dir / "BENCH_dataplane.json").write_text(
            json.dumps(result, indent=2) + "\n"
        )
    emit("dataplane", table)
