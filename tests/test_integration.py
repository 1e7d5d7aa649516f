"""Cross-module integration and failure-injection tests."""

import json
import threading

import numpy as np
import pytest

from repro.baselines import OnDemandPipeline
from repro.core import (
    PreprocessingEngine,
    SandClient,
    SandService,
    VideoMaterializer,
    build_plan_window,
    load_task_config,
    prune_plan,
)
from repro.core.cache import CacheManager
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.storage.local import LocalStore
from repro.storage.objectstore import ObjectStore


def make_config(tag="t", vpb=4, frames=6, stride=2, samples=1):
    return load_task_config({
        "dataset": {
            "tag": tag,
            "video_dataset_path": "/d",
            "sampling": {
                "videos_per_batch": vpb,
                "frames_per_video": frames,
                "frame_stride": stride,
                "samples_per_video": samples,
            },
            "augmentation": [
                {
                    "branch_type": "single",
                    "inputs": ["frame"],
                    "outputs": ["a0"],
                    "config": [
                        {"resize": {"shape": [20, 24]}},
                        {"random_crop": {"size": [16, 16]}},
                        {"flip": {"flip_prob": 0.5}},
                    ],
                }
            ],
        }
    })


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=8, min_frames=40, max_frames=55, seed=11)
    )


# -- data-access-rule invariants through the real engine -----------------------------


def test_every_video_served_once_per_epoch(dataset):
    config = make_config()
    service = SandService([config], dataset, storage_budget_bytes=10**8,
                          k_epochs=2, num_workers=0)
    try:
        iters = service.iterations_per_epoch("t")
        for epoch in (0, 1):
            served = []
            for iteration in range(iters):
                _, md = service.get_batch("t", epoch, iteration)
                served.extend(md["videos"])
            assert sorted(served) == sorted(dataset.video_ids)
    finally:
        service.shutdown()


def test_batches_stable_across_engine_instances(dataset):
    """Cached vs recomputed batches are bit-identical."""
    config = make_config()
    plan = build_plan_window([config], dataset, 0, 1, seed=4)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    store = LocalStore(10**8)
    cache = CacheManager(store)
    cache.register_plan(plan, pruning)

    warm = PreprocessingEngine(plan, dataset, pruning=pruning, cache=cache, num_workers=0)
    warm.drain()
    cold = PreprocessingEngine(plan, dataset, num_workers=0)
    for key in sorted(plan.batches):
        a, _ = warm.get_batch(*key)
        b, _ = cold.get_batch(*key)
        assert np.array_equal(a, b), key


def test_sand_batches_match_uncoordinated_distribution_shape(dataset):
    """Coordination must not change shapes/dtypes/labels, only sharing."""
    config = make_config()
    service = SandService([config], dataset, storage_budget_bytes=10**8,
                          k_epochs=1, num_workers=0)
    try:
        sand_batch, sand_md = service.get_batch("t", 0, 0)
    finally:
        service.shutdown()
    base_batch, base_md = OnDemandPipeline(config, dataset).get_batch("t", 0, 0)
    assert sand_batch.shape == base_batch.shape
    assert sand_batch.dtype == base_batch.dtype
    assert set(sand_md) == set(base_md)


# -- failure injection ------------------------------------------------------------


def test_corrupt_cache_entry_is_dropped_and_recomputed(dataset):
    config = make_config()
    plan = build_plan_window([config], dataset, 0, 1, seed=4)
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    store = ObjectStore(10**8)
    frontier = {leaf.key for leaf in graph.leaves()}
    mat = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store, frontier=frontier)
    mat.materialize_frontier()
    reference = {key: mat.get(key).copy() for key in frontier}

    # Corrupt every cached blob.
    for key in list(store.keys()):
        store.put(key, b"CORRUPTED" + b"\x00" * 10)

    fresh = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store, frontier=frontier)
    for key in sorted(frontier):
        assert np.array_equal(fresh.get(key), reference[key])
    assert fresh.stats.corrupt_evictions > 0
    # The corrupt entries were replaced with good ones.
    final = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store, frontier=frontier)
    for key in sorted(frontier):
        assert np.array_equal(final.get(key), reference[key])
    assert final.stats.corrupt_evictions == 0
    assert final.stats.frames_decoded == 0  # pure cache hits now


def test_service_checkpoint_and_recover(dataset, tmp_path):
    config = make_config()
    # No prefetch: which batches were assembled (and so which leaves were
    # consumed) by the time of the checkpoint is then exactly (0, 0).
    knobs = dict(k_epochs=2, num_workers=0, prefetch_depth=0, seed=8)
    store = LocalStore(10**8, root=tmp_path / "cache")
    service = SandService([config], dataset, store=store, **knobs)
    try:
        service.get_batch("t", 0, 0)
        service.engine.drain()
        # Batch (0, 0)'s leaves went straight into it and were never
        # persisted; nothing left in the window reads them again.
        consumed = service.engine.consumed_keys()
        assert consumed and not any(key in store for key in consumed)
        frontier = sum(len(v.frontier) for v in service.pruning.videos.values())
        manifest_path = service.checkpoint(tmp_path)
    finally:
        service.shutdown()

    # "Crash": a brand-new service over the same persistent directory.
    store2 = LocalStore(10**8, root=tmp_path / "cache")
    service2 = SandService([config], dataset, store=store2, **knobs)
    try:
        report = service2.recover_from(tmp_path)
        # A consumed object is not a missing one.
        assert report.planned_objects == frontier - len(consumed)
        assert report.missing_count == 0
        assert report.recovered_fraction == 1.0
        # Training resumes with identical data, and everything not yet
        # consumed is read back rather than re-decoded ...
        b1, _ = service2.get_batch("t", 0, 1)
        assert service2.engine.stats.frames_decoded == 0
        # ... while a consumed batch asked for again is recomputed.
        b0, _ = service2.get_batch("t", 0, 0)
        assert service2.engine.stats.frames_decoded > 0
    finally:
        service2.shutdown()

    service3 = SandService([config], dataset, **knobs)
    try:
        for iteration, recovered in ((0, b0), (1, b1)):
            assert np.array_equal(recovered, service3.get_batch("t", 0, iteration)[0])
    finally:
        service3.shutdown()


def test_checkpoint_requires_active_window(dataset, tmp_path):
    service = SandService([make_config()], dataset, num_workers=0)
    try:
        with pytest.raises(RuntimeError):
            service.checkpoint(tmp_path)
    finally:
        service.shutdown()


def test_engine_survives_tiny_cache(dataset):
    """A cache smaller than any object degrades to recompute, not failure."""
    config = make_config()
    plan = build_plan_window([config], dataset, 0, 1, seed=4)
    pruning = prune_plan(plan, plan.total_cached_bytes())
    store = LocalStore(64)  # essentially nothing fits
    cache = CacheManager(store)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(plan, dataset, pruning=pruning, cache=cache, num_workers=0)
    batch, _ = engine.get_batch("t", 0, 0)
    reference = PreprocessingEngine(plan, dataset, num_workers=0).get_batch("t", 0, 0)[0]
    assert np.array_equal(batch, reference)


# -- concurrency ---------------------------------------------------------------------


def test_concurrent_trainers_share_one_service(dataset):
    """Several reader threads (the hyperparameter-search shape) race safely."""
    config = make_config()
    service = SandService([config], dataset, storage_budget_bytes=10**8,
                          k_epochs=2, num_workers=1)
    iters = service.iterations_per_epoch("t")
    reference = {}
    for epoch in (0, 1):
        for iteration in range(iters):
            reference[(epoch, iteration)], _ = service.get_batch("t", epoch, iteration)

    errors = []

    def reader(seed):
        try:
            rng = np.random.default_rng(seed)
            for _ in range(10):
                epoch = int(rng.integers(0, 2))
                iteration = int(rng.integers(0, iters))
                batch, _ = service.get_batch("t", epoch, iteration)
                if not np.array_equal(batch, reference[(epoch, iteration)]):
                    errors.append((epoch, iteration))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    service.shutdown()
    assert errors == []


def test_posix_batch_reads_recycle_the_delivery_pool(dataset):
    """A POSIX batch read leases the pooled buffer, books the blob
    encode on the lease and gives the buffer back: nothing leaves the
    pool, and the ledger charges one copy per read, none for a shape
    xattr."""
    client, service = SandClient.create(
        [make_config()], dataset, storage_budget_bytes=10**8, k_epochs=2,
        num_workers=0, prefetch_depth=0,
    )
    try:
        keys = sorted(service.window_plan(0, "t").batches)
        batches = [client.read_batch(*key)[0] for key in keys]
        shape = json.loads(client.getxattr("/t/0/0/view", "shape"))
        assert tuple(shape) == batches[0].shape
        pool = service.delivery_pool.report()
        assert pool["buffers_detached"] == 0
        assert pool["leases_outstanding"] == 0
        assert pool["buffers_reused"] >= len(keys) - 1
        traffic = service.engine.stats.traffic
        assert traffic.delivery_passes == len(keys)
        assert traffic.delivery_bytes_copied == sum(b.nbytes for b in batches)
    finally:
        service.shutdown()


def test_vfs_view_paths_round_trip_through_posix(dataset):
    """Fig 6 flow via raw fds, including xattr metadata consistency."""
    config = make_config()
    client, service = SandClient.create(
        [config], dataset, storage_budget_bytes=10**8, k_epochs=1, num_workers=0
    )
    try:
        batch, md = client.read_batch("t", 0, 0)
        shape = json.loads(client.getxattr("/t/0/0/view", "shape"))
        assert tuple(shape) == batch.shape
        videos = json.loads(client.getxattr("/t/0/0/view", "videos"))
        assert videos == md["videos"]
        # Frame timestamps are consistent with the dataset's fps.
        ts = md["timestamps"][0]
        fps = dataset.metadata(md["videos"][0]).fps
        for a, b in zip(ts, ts[1:]):
            assert b - a == pytest.approx(2 / fps, abs=1e-5)  # stride 2
    finally:
        service.shutdown()
