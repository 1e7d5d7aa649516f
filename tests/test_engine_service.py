"""Tests for the materializer, engine, service, POSIX facade, recovery."""

import json
import time
import zlib

import numpy as np
import pytest

from repro.analysis.sanitizers import collect_report
from repro.augment.registry import default_registry
from repro.core import (
    CacheManager,
    PreprocessingEngine,
    SandClient,
    VideoMaterializer,
    build_plan_window,
    load_task_config,
    prune_plan,
    read_checkpoint,
    recover,
    write_checkpoint,
)
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.faults import (
    SITE_DECODE,
    SITE_ENGINE_JOB,
    SITE_STORE_GET,
    SITE_STORE_PUT,
    FaultSchedule,
    FaultSpec,
    FaultyStore,
    TransientDecodeError,
)
from repro.storage import RetryPolicy
from repro.storage.local import LocalStore
from repro.storage.objectstore import ObjectStore
from repro.vfs.errors import FileNotFoundVfsError, NoAttributeError
from tests.reference_materializer import ReferenceMaterializer


def make_config(tag="t", vpb=2, frames=4, stride=2, crop=(12, 12)):
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
                    "config": [
                        {"resize": {"shape": [18, 24]}},
                        {"random_crop": {"size": list(crop)}},
                        {"flip": {"flip_prob": 0.5}},
                    ],
                }
            ],
        }
    })


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=6, min_frames=30, max_frames=45, width=32, height=24, seed=3)
    )


@pytest.fixture(scope="module")
def plan(dataset):
    return build_plan_window([make_config()], dataset, 0, 2, seed=5)


# -- materializer ------------------------------------------------------------------


def test_materializer_produces_correct_frames(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    mat = VideoMaterializer(graph, dataset.get_bytes(vid))
    frame_node = graph.frames()[0]
    arr = mat.get(frame_node.key)
    expected = dataset.source(vid).frame(frame_node.frame_index)
    assert np.array_equal(arr[0], expected)


def test_materializer_leaf_matches_manual_pipeline(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    leaf = graph.leaves()[0]
    mat = VideoMaterializer(graph, dataset.get_bytes(vid))
    sample = mat.get(leaf.key)
    assert sample.shape == leaf.clip_shape
    # Manually replay: decode frames, apply each aug node's op in chain.
    registry = default_registry()
    frames = []
    for parent_key in leaf.parents:
        chain = []
        cursor = graph.nodes[parent_key]
        while cursor.kind == "aug":
            chain.append(cursor)
            cursor = graph.nodes[cursor.parents[0]]
        assert cursor.kind == "frame"
        pixels = dataset.source(vid).frame(cursor.frame_index)[np.newaxis]
        for node in reversed(chain):
            name, cfg, params = node.op_args
            op = registry.create(name, json.loads(cfg))
            pixels = op.apply(pixels, json.loads(params))
        frames.append(pixels)
    manual = np.concatenate(frames, axis=0)
    assert np.array_equal(sample, manual)


def test_materializer_decodes_union_once(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    mat = VideoMaterializer(graph, dataset.get_bytes(vid))
    for leaf in graph.leaves():
        mat.get(leaf.key)
    # Decode happened in one pass over the union of wanted frames.
    assert mat.stats.frames_decoded == len(graph.decode_plan())


def test_materializer_uses_cache(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    store = ObjectStore(10**8)
    frontier = {leaf.key for leaf in graph.leaves()}
    mat1 = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store, frontier=frontier)
    mat1.materialize_frontier()
    assert mat1.stats.cache_stores == len(frontier)
    # A fresh materializer serves leaves from cache without decoding.
    mat2 = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store, frontier=frontier)
    for key in frontier:
        mat2.get(key)
    assert mat2.stats.frames_decoded == 0
    assert mat2.stats.cache_hits == len(frontier)


def test_release_raw_frames_frees_memory(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    mat = VideoMaterializer(graph, dataset.get_bytes(vid))
    mat.get(graph.leaves()[0].key)
    before = mat.stats.bytes_in_memory
    dropped = mat.release_raw_frames()
    assert dropped > 0
    assert mat.stats.bytes_in_memory < before
    # Leaves remain available without re-decoding (memoized).
    mat.get(graph.leaves()[0].key)


def test_materializer_unknown_key(dataset, plan):
    vid = next(iter(plan.graphs))
    mat = VideoMaterializer(plan.graphs[vid], dataset.get_bytes(vid))
    with pytest.raises(KeyError):
        mat.get("frame:ghost:0")


# -- engine -------------------------------------------------------------------------


def test_engine_serves_all_planned_batches(dataset, plan):
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    served = 0
    for (task, epoch, iteration) in sorted(plan.batches):
        batch, md = engine.get_batch(task, epoch, iteration)
        assert batch.shape[0] == len(plan.batches[(task, epoch, iteration)].samples)
        assert md["videos"]
        assert len(md["timestamps"]) == batch.shape[0]
        served += 1
    assert engine.stats.batches_served == served


def test_engine_batches_deterministic(dataset, plan):
    e1 = PreprocessingEngine(plan, dataset, num_workers=0)
    e2 = PreprocessingEngine(plan, dataset, num_workers=0)
    b1, _ = e1.get_batch("t", 0, 0)
    b2, _ = e2.get_batch("t", 0, 0)
    assert np.array_equal(b1, b2)


def test_engine_premateralization_then_demand(dataset, plan):
    store = LocalStore(10**8)
    cache = CacheManager(store)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(plan, dataset, pruning=pruning, cache=cache, num_workers=0)
    engine.drain()  # run all pre-materialization jobs synchronously
    assert engine.scheduler.pending_count == 0
    assert engine.stats.pre_materializations > 0
    # Demand path now needs no fresh materializations.
    engine.stats.demand_materializations = 0
    batch, _ = engine.get_batch("t", 0, 0)
    assert engine.stats.demand_materializations == 0
    assert batch.dtype == np.uint8


def test_engine_with_threads(dataset, plan):
    with PreprocessingEngine(plan, dataset, num_workers=2) as engine:
        engine.drain()
        batch, _ = engine.get_batch("t", 0, 0)
        assert batch.shape[0] == 2
    assert engine.scheduler.pending_count == 0


def test_engine_unknown_batch(dataset, plan):
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    with pytest.raises(KeyError):
        engine.get_batch("t", 99, 0)


def test_engine_respects_pruned_frontier(dataset):
    cfg = make_config()
    plan = build_plan_window([cfg], dataset, 0, 2, seed=5)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 0.4)
    store = LocalStore(10**8)
    cache = CacheManager(store)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(plan, dataset, pruning=pruning, cache=cache, num_workers=0)
    engine.drain()
    cached_keys = set(store.keys())
    planned = {
        key for vid in plan.graphs for key in pruning.frontier_of(vid)
    }
    assert cached_keys == planned
    # Batches still come out right even though leaves may be uncached.
    batch, _ = engine.get_batch("t", 0, 0)
    ref = PreprocessingEngine(plan, dataset, num_workers=0).get_batch("t", 0, 0)[0]
    assert np.array_equal(batch, ref)


# -- dead-store elision ---------------------------------------------------------------

FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.0, max_delay_s=0.0)


def capstone_with_decode_faults(seed):
    """The PR 2 capstone schedule plus flaky decode: the one fault that can
    strike while a leaf is being written into its batch slot."""
    return FaultSchedule(
        seed=seed,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
            FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
            FaultSpec(kind="transient-error", site=SITE_DECODE, rate=0.2),
        ],
    )


def cached_engine(plan, dataset, fault_schedule=None, **kwargs):
    """An engine over a leaf-level frontier and a store that fits it."""
    store = LocalStore(10**8)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    cache = CacheManager(
        store if fault_schedule is None else FaultyStore(store, fault_schedule)
    )
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(
        plan, dataset, pruning=pruning, cache=cache, fault_schedule=fault_schedule,
        retry_policy=FAST_RETRY, **kwargs,
    )
    return engine, store, pruning


def leaf_keys(plan):
    return {leaf.key for graph in plan.graphs.values() for leaf in graph.leaves()}


@pytest.mark.parametrize("faulty", (False, True), ids=("clean", "faults"))
@pytest.mark.parametrize("seed", (5, 6, 7))
def test_demand_only_epoch_leaves_no_single_use_leaf_behind(dataset, seed, faulty):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=seed)
    leaves = leaf_keys(plan)
    assert all(
        len(leaf.uses) == 1 for graph in plan.graphs.values() for leaf in graph.leaves()
    )
    schedule = capstone_with_decode_faults(seed) if faulty else None
    engine, store, _ = cached_engine(plan, dataset, schedule, num_workers=0)
    reference = ReferenceMaterializer(plan, dataset)
    slots = 0
    for key in sorted(plan.batches):
        batch, _ = engine.get_batch(*key)
        assert np.array_equal(batch, reference.get_batch(*key)), key
        slots += len(plan.batches[key].samples)
    # Every leaf went straight into its only batch: nothing stored, nothing
    # memoized, no slot filled by get + copy — from the first batch on.
    assert not leaves & set(store.keys())
    assert not any(
        engine._materializer(vid).in_memory(leaf.key)
        for vid, graph in plan.graphs.items()
        for leaf in graph.leaves()
    )
    dataplane = engine.dataplane_report()
    assert dataplane["slot_writes_copied"] == 0
    assert dataplane["slot_writes_direct"] == slots
    assert dataplane["leases_outstanding"] == 0
    assert engine.stats.dead_stores_elided == len(leaves)
    assert engine.consumed_keys() == leaves
    if faulty:
        assert engine.stats.demand_retries > 0  # retried into the same slot


def test_leaf_is_consumed_only_once_its_slot_write_succeeded(dataset, plan):
    schedule = FaultSchedule(
        seed=0, specs=[FaultSpec(kind="transient-error", site=SITE_DECODE, at_count=1)]
    )
    engine, store, _ = cached_engine(plan, dataset, schedule, num_workers=0)
    engine.retry_policy = RetryPolicy(max_retries=0)
    with pytest.raises(TransientDecodeError):
        engine.get_batch("t", 0, 0)
    assert engine.consumed_keys() == set()
    assert engine.dataplane_report()["leases_outstanding"] == 0  # lease given back
    batch, _ = engine.get_batch("t", 0, 0)
    reference = ReferenceMaterializer(plan, dataset)
    assert np.array_equal(batch, reference.get_batch("t", 0, 0))
    assert engine.consumed_keys() == {key for _, key in plan.batches[("t", 0, 0)].samples}
    assert not set(store.keys())


def test_worker_and_prefetch_account_for_every_frontier_key_once(dataset, plan):
    engine, store, pruning = cached_engine(
        plan, dataset, num_workers=1, prefetch_depth=2
    )
    frontier = {key for vid in plan.graphs for key in pruning.frontier_of(vid)}
    with engine:
        for key in sorted(plan.batches):
            lease, _ = engine.get_batch_lease(*key)
            lease.release()
        engine.drain()
    engine.dataplane_report()  # fold the materializers' counters in
    stats = engine.stats
    # A frontier key is either materialized ahead by the worker (and then
    # persisted), or eaten first by its only consumer and skipped by the
    # worker: never both, never neither.
    assert stats.pre_materializations + stats.dead_stores_elided == len(frontier)
    assert stats.consumed_skipped == stats.dead_stores_elided
    stores = sum(engine._materializer(vid).stats.cache_stores for vid in plan.graphs)
    assert stores == stats.pre_materializations
    assert set(store.keys()) == frontier - engine.consumed_keys()
    report = stats.traffic_report()
    assert report["dead_stores_elided"] == stats.dead_stores_elided
    assert report["consumed_skipped"] == stats.consumed_skipped


@pytest.mark.parametrize("discard", ("rescope", "retire"))
def test_discarded_speculative_batch_is_recomputed_on_demand(
    sanitized, dataset, plan, discard
):
    engine, store, _ = cached_engine(plan, dataset, num_workers=0, prefetch_depth=2)
    engine.start()
    try:
        deadline = time.monotonic() + 10
        while engine.prefetch_queue_depth() < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert engine.prefetch_queue_depth() == 2
        speculated = engine.consumed_keys()
        assert speculated  # eaten by batches no trainer ever saw
        if discard == "rescope":
            engine.rescope(lambda assembly: False)  # reload(): owns nothing now
        else:
            engine.retire()
        assert engine.prefetch_queue_depth() == 0
        reference = ReferenceMaterializer(plan, dataset)
        for key in sorted(plan.batches)[:2]:
            lease, _ = engine.get_batch_lease(*key)
            assert zlib.crc32(lease.array) == zlib.crc32(reference.get_batch(*key))
            lease.release()
        assert engine.stats.prefetch.hits == 0  # recomputed, not handed over
        assert not speculated & set(store.keys())
        assert engine.dataplane_report()["leases_outstanding"] == 0
    finally:
        engine.stop()
    assert collect_report().clean(), collect_report().as_dict()


def test_two_use_leaf_is_still_memoized_and_persisted_once(dataset):
    configs = [make_config("a"), make_config("b")]
    plan = build_plan_window(configs, dataset, 0, 1, seed=5)
    assert all(
        len(leaf.uses) == 2 for graph in plan.graphs.values() for leaf in graph.leaves()
    )
    engine, store, _ = cached_engine(plan, dataset, num_workers=0)
    batch_a, _ = engine.get_batch("a", 0, 0)
    batch_b, _ = engine.get_batch("b", 0, 0)
    assert np.array_equal(batch_a, batch_b)
    samples = plan.batches[("a", 0, 0)].samples
    assert samples == plan.batches[("b", 0, 0)].samples
    assert set(store.keys()) == {key for _, key in samples}
    assert all(engine._materializer(vid).in_memory(key) for vid, key in samples)
    assert store.stats.puts == len(samples)  # once, then served to both
    assert engine.stats.dead_stores_elided == 0 and engine.consumed_keys() == set()


# -- engine lifecycle: idempotent, exception-safe, restartable ----------------------


def test_engine_stop_is_idempotent(dataset, plan):
    engine = PreprocessingEngine(plan, dataset, num_workers=2)
    engine.start()
    engine.stop()
    engine.stop()  # second stop: no hang, no double-join
    assert not any(t.is_alive() for t in engine._threads)


def test_engine_stop_without_start_is_safe(dataset, plan):
    PreprocessingEngine(plan, dataset, num_workers=2).stop()


def test_engine_restarts_after_stop(dataset, plan):
    engine = PreprocessingEngine(plan, dataset, num_workers=1)
    engine.start()
    engine.stop()
    engine.start()  # stop signal cleared: workers genuinely relaunch
    try:
        engine.drain()
        assert engine.scheduler.pending_count == 0
        assert engine.stats.pre_materializations > 0
    finally:
        engine.stop()


def test_context_exit_after_all_workers_crashed(dataset, plan):
    from repro.faults import SITE_ENGINE_JOB, FaultSchedule, FaultSpec

    schedule = FaultSchedule(
        seed=0,
        specs=[
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=1),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2),
        ],
    )
    with PreprocessingEngine(
        plan, dataset, num_workers=2, fault_schedule=schedule
    ) as engine:
        engine.drain()  # both workers die; drain finishes inline
        assert engine.scheduler.pending_count == 0
    # __exit__ (stop) joined the dead threads without hanging.
    assert not engine._started
    assert engine.stats.worker_crashes >= 2
    batch, _ = engine.get_batch("t", 0, 0)
    ref, _ = PreprocessingEngine(plan, dataset, num_workers=0).get_batch("t", 0, 0)
    assert np.array_equal(batch, ref)


def test_drain_runs_inline_when_sole_worker_crashes(dataset, plan):
    from repro.faults import SITE_ENGINE_JOB, FaultSchedule, FaultSpec

    schedule = FaultSchedule(
        seed=0, specs=[FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=1)]
    )
    engine = PreprocessingEngine(plan, dataset, num_workers=1, fault_schedule=schedule)
    engine.start()
    try:
        engine.drain()
        assert engine.scheduler.pending_count == 0
        assert engine.stats.worker_crashes == 1
    finally:
        engine.stop()


# -- service + posix -----------------------------------------------------------------


@pytest.fixture()
def client_service(dataset):
    client, service = SandClient.create(
        [make_config()],
        dataset,
        storage_budget_bytes=10**8,
        k_epochs=2,
        num_workers=0,
    )
    yield client, service
    service.shutdown()


def test_fig6_pattern(client_service):
    client, service = client_service
    ctrl = client.begin_task("t")
    batch, md = client.read_batch("t", 0, 0)
    assert batch.ndim == 5
    assert md["videos"]
    assert md["timestamps"]
    client.finish_task(ctrl)
    assert service.active_tasks == set()


def test_batch_views_are_stable(client_service):
    client, _ = client_service
    b1, _ = client.read_batch("t", 0, 1)
    b2, _ = client.read_batch("t", 0, 1)
    assert np.array_equal(b1, b2)


def test_video_view_serves_encoded_bytes(client_service, dataset):
    client, _ = client_service
    vid = dataset.video_ids[0]
    fd = client.open(f"/t/{vid}.mp4")
    data = client.read(fd)
    client.close(fd)
    assert data == dataset.get_bytes(vid)


def test_frame_view_matches_source(client_service, dataset):
    client, service = client_service
    service.ensure_window(0)
    graph = next(iter(service.plan.graphs.values()))
    frame = graph.frames()[0]
    arr = client.read_array(f"/t/{graph.video_id}/frame{frame.frame_index}")
    assert np.array_equal(arr[0], dataset.source(graph.video_id).frame(frame.frame_index))
    ts = json.loads(client.getxattr(f"/t/{graph.video_id}/frame{frame.frame_index}", "timestamp"))
    assert ts == pytest.approx(frame.frame_index / graph.metadata.fps, abs=1e-5)


def test_aug_frame_view(client_service, dataset):
    client, service = client_service
    service.ensure_window(0)
    graph = next(iter(service.plan.graphs.values()))
    frame = graph.frames()[0]
    # Depth 1 = after the first augmentation (resize to 18x24).
    arr = client.read_array(f"/t/{graph.video_id}/frame{frame.frame_index}/aug1")
    assert arr.shape == (1, 18, 24, 3)


def test_missing_views_raise_enoent(client_service):
    client, service = client_service
    with pytest.raises(FileNotFoundVfsError):
        client.open("/t/ghost_video.mp4")
    with pytest.raises(FileNotFoundVfsError):
        client.open("/nope/0/0/view")
    with pytest.raises(FileNotFoundVfsError):
        client.open("/t/0/9999/view")
    assert service.engine is None  # no miss reached an engine


@pytest.mark.parametrize(
    "path, name",
    [
        ("/t/0/9999/view", "shape"),
        ("/t/ghost/frame0", "timestamp"),
        ("/t/ghost.mp4", "metadata"),
    ],
)
def test_getxattr_of_a_missing_view_raises_enoent(client_service, path, name):
    client, _ = client_service
    with pytest.raises(FileNotFoundVfsError):
        client.getxattr(path, name)


def test_xattrs(client_service):
    client, _ = client_service
    shape = json.loads(client.getxattr("/t/0/0/view", "shape"))
    assert len(shape) == 5
    assert client.getxattr("/t/0/0/view", "dtype") == b"uint8"
    labels = json.loads(client.getxattr("/t/0/0/view", "labels"))
    assert len(labels) == shape[0]
    with pytest.raises(NoAttributeError):
        client.getxattr("/t/0/0/view", "nonsense")


def test_listdir_navigation(client_service, dataset):
    client, service = client_service
    vfs = client.vfs
    assert vfs.listdir("/sand") == ["t"]
    entries = vfs.listdir("/sand/t")
    assert "ctrl" in entries
    assert f"{dataset.video_ids[0]}.mp4" in entries
    assert "0" in entries
    iters = vfs.listdir("/sand/t/0")
    planned = service.window_plan(0, "t").iterations_per_epoch["t"]
    assert iters == [str(i) for i in range(planned)]
    assert vfs.listdir("/sand/t/0/0") == ["view"]


def test_metadata_never_rolls_the_live_window(client_service):
    client, service = client_service
    engine = service.ensure_window(0)
    assert json.loads(client.getxattr("/t/4/0/view", "videos"))
    assert service.plan.epoch_start == 0
    assert service.engine is engine
    planned = service.window_plan(2, "t").iterations_per_epoch["t"]
    assert client.vfs.listdir("/sand/t/2") == [str(i) for i in range(planned)]
    assert service.engine is engine


def test_window_rolls_to_next_epochs(client_service):
    client, service = client_service
    client.read_batch("t", 0, 0)
    first_window = service.plan.epoch_start
    client.read_batch("t", 2, 0)  # beyond k_epochs=2
    assert service.plan.epoch_start == 2
    assert service.plan.epoch_start != first_window


# -- recovery -------------------------------------------------------------------------


def test_checkpoint_recover_cycle(dataset, tmp_path):
    cfg = make_config()
    plan = build_plan_window([cfg], dataset, 0, 2, seed=5)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 0.6)
    store = LocalStore(10**8, root=tmp_path / "cache")
    cache = CacheManager(store)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(plan, dataset, pruning=pruning, cache=cache, num_workers=0)
    engine.drain()
    manifest_path = write_checkpoint(tmp_path, plan, pruning, seed=5)

    # Simulate a crash: new store over the same directory.
    fresh_store = LocalStore(10**8, root=tmp_path / "cache")
    manifest = read_checkpoint(manifest_path)
    report = recover(manifest, fresh_store)
    assert report.planned_objects > 0
    assert report.recovered_fraction == 1.0
    assert report.missing_count == 0

    # Lose some objects: recovery pinpoints exactly the missing ones.
    lost = sorted(fresh_store.keys())[:3]
    for key in lost:
        fresh_store.delete(key)
    report = recover(manifest, fresh_store)
    assert report.missing_count == 3
    assert sorted(k for keys in report.missing.values() for k in keys) == lost


def test_recovery_flags_stale_objects(dataset, tmp_path):
    cfg = make_config()
    plan = build_plan_window([cfg], dataset, 0, 1, seed=5)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    store = LocalStore(10**8, root=tmp_path / "cache")
    store.put("orphan-object", b"stale")
    manifest_path = write_checkpoint(tmp_path, plan, pruning, seed=5)
    report = recover(read_checkpoint(manifest_path), store)
    assert "orphan-object" in report.stale_keys


def test_checkpoint_version_check(tmp_path):
    bad = tmp_path / "sand-checkpoint.json"
    bad.write_text(json.dumps({"version": 99}))
    with pytest.raises(ValueError):
        read_checkpoint(bad)
