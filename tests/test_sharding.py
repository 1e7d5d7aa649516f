"""The sharded service: ring placement, routing, failover, dedup, and
the 1-shard differential.

The hard invariants:

* a 1-shard coordinator is byte-identical to the single-engine
  ``get_batch`` path across seeds, including under the capstone fault
  schedule (sharding is pure routing, never a semantics change);
* every shard's plan is deterministic-identical, so failover during a
  ``shard-down`` window serves the same bytes from the next shard in
  the ring preference order;
* placement is content-addressed: identical views requested by
  different tenants resolve to one owner shard (cross-shard dedup) and
  materialize once; the shards' owned sets partition every window;
* background work is ownership-scoped and planning is shared: a fleet
  pre-materializes each frontier node once and plans each window once,
  while any shard still serves any batch on demand;
* a fleet decodes each anchor once: its shards, and every engine,
  materializer and decoder they run, share one anchor cache, so it
  decodes no more frames than one plain service;
* the consistent-hash ring moves ~1/N of keys on membership change,
  never reshuffles survivors;
* the wire path through the coordinator (GET_BATCH + tenant) leaks no
  delivery leases.
"""

import json
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.service as service_module
from repro.analysis.sanitizers import (
    buffer_sanitizer,
    collect_report,
    reset_sanitizers,
    set_sanitizers,
)
from repro.core import (
    AllShardsDownError,
    BatchSocketClient,
    HashRing,
    SandClient,
    SandService,
    ShardCoordinator,
    ShardingError,
    load_task_config,
    mount_sand,
)
from repro.core.views import BatchView
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.faults import (
    SITE_ENGINE_JOB,
    SITE_STORE_GET,
    SITE_STORE_PUT,
    FaultSchedule,
    FaultSpec,
)
from repro.faults.schedule import SITE_SHARD_ROUTE
from repro.storage import RetryPolicy
from repro.storage.local import LocalStore
from tests.reference_materializer import ReferenceMaterializer

FAST_RETRY = RetryPolicy(max_retries=4, base_delay_s=0.0, max_delay_s=0.0)


def make_config(tag="t", vpb=2, frames=3, stride=2):
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
                        {"random_crop": {"size": [12, 12]}},
                        {"flip": {"flip_prob": 0.5}},
                    ],
                }
            ],
        }
    })


def make_dataset(seed=3):
    return SyntheticDataset(
        DatasetSpec(num_videos=4, min_frames=24, max_frames=36,
                    width=32, height=24, seed=seed)
    )


def make_shard(tags=("t",), seed=0, dataset_seed=3, fault_schedule=None,
               store=None, num_workers=0, prefetch_depth=0):
    return SandService(
        [make_config(tag) for tag in tags],
        make_dataset(dataset_seed),
        num_workers=num_workers,
        seed=seed,
        prefetch_depth=prefetch_depth,
        fault_schedule=fault_schedule,
        retry_policy=FAST_RETRY if fault_schedule is not None else None,
        store=store,
    )


def capstone_schedule(seed=0):
    return FaultSchedule(
        seed=seed,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
            FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
        ],
    )


def all_batch_keys(service, task="t"):
    return sorted(k for k in service.window_plan(0, task).batches if k[0] == task)


def background_fleet(n=4, **kwargs):
    """A fleet whose shards run scoped pre-materialization and prefetch."""
    return ShardCoordinator(
        [make_shard(num_workers=1, prefetch_depth=2, **kwargs) for _ in range(n)]
    )


# -- the ring ----------------------------------------------------------------


def test_ring_owner_is_stable_and_preference_is_a_permutation():
    ring = HashRing([f"shard-{i}" for i in range(5)])
    for key in ("a/0/0", "b/3/7", "video-123"):
        assert ring.owner(key) == ring.owner(key)
        pref = ring.preference(key)
        assert pref[0] == ring.owner(key)
        assert sorted(pref) == ring.shards()


def test_ring_spreads_keys_across_shards():
    ring = HashRing([f"shard-{i}" for i in range(4)])
    owners = {ring.owner(f"task/{e}/{i}") for e in range(8) for i in range(32)}
    assert len(owners) == 4  # every shard owns something


def test_ring_membership_change_moves_a_minority_of_keys():
    ring = HashRing([f"shard-{i}" for i in range(4)])
    keys = [f"t/{e}/{i}" for e in range(16) for i in range(16)]
    before = {k: ring.owner(k) for k in keys}
    ring.add("shard-4")
    after = {k: ring.owner(k) for k in keys}
    moved = [k for k in keys if before[k] != after[k]]
    # Consistent hashing: only keys landing on the new shard move, and
    # they move *to* it — survivors never trade keys among themselves.
    assert 0 < len(moved) < len(keys) / 2
    assert all(after[k] == "shard-4" for k in moved)
    ring.remove("shard-4")
    assert {k: ring.owner(k) for k in keys} == before


def test_ring_rejects_duplicates_and_unknowns():
    ring = HashRing(["a"])
    with pytest.raises(ShardingError):
        ring.add("a")
    with pytest.raises(ShardingError):
        ring.remove("b")
    ring.remove("a")
    with pytest.raises(ShardingError):
        ring.owner("key")


# -- 1-shard differential ----------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_shard_coordinator_is_byte_identical(seed):
    reference = make_shard(seed=seed)
    coordinator = ShardCoordinator([make_shard(seed=seed)])
    try:
        for key in all_batch_keys(reference):
            want, want_md = reference.get_batch(*key)
            got, got_md = coordinator.get_batch(*key, tenant="t0")
            assert got.tobytes() == want.tobytes(), key
            assert got_md == want_md
    finally:
        reference.shutdown()
        coordinator.shutdown()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_shard_coordinator_is_byte_identical_under_capstone_faults(seed):
    reference = make_shard(seed=seed)
    faulted = make_shard(
        seed=seed,
        fault_schedule=capstone_schedule(seed),
        store=LocalStore(10**8),
    )
    coordinator = ShardCoordinator([faulted])
    try:
        for key in all_batch_keys(reference):
            want, _ = reference.get_batch(*key)
            got, _ = coordinator.get_batch(*key, tenant="t0")
            assert got.tobytes() == want.tobytes(), key
    finally:
        reference.shutdown()
        coordinator.shutdown()


def test_multi_shard_coordinator_matches_single_service():
    reference = make_shard(tags=("a", "b"))
    coordinator = ShardCoordinator([make_shard(tags=("a", "b")) for _ in range(3)])
    try:
        for task in ("a", "b"):
            for key in all_batch_keys(reference, task=task):
                want, _ = reference.get_batch(*key)
                got, _ = coordinator.get_batch(*key, tenant=task)
                assert got.tobytes() == want.tobytes(), key
        report = coordinator.routing_report()
        assert sum(report["served"].values()) > 0
    finally:
        reference.shutdown()
        coordinator.shutdown()


# -- dedup -------------------------------------------------------------------


def test_identical_views_across_tenants_share_one_owner_shard():
    """Four identically-configured tasks requested by four tenants: each
    distinct view signature has exactly one owner shard by construction
    (the ring key is the content digest), and every request after the
    first sighting of a signature counts a dedup hit."""
    tags = ("a", "b", "c", "d")
    coordinator = ShardCoordinator([make_shard(tags=tags) for _ in range(4)])
    try:
        keys = all_batch_keys(coordinator.shard("shard-0"), task="a")
        batches = {}
        for tenant, task in zip(("t0", "t1", "t2", "t3"), tags):
            for (_t, epoch, iteration) in keys:
                batch, _ = coordinator.get_batch(task, epoch, iteration,
                                                 tenant=tenant)
                batches[(task, epoch, iteration)] = batch.tobytes()
        # Identical configs on one dataset root produce identical views.
        for (_t, epoch, iteration) in keys:
            reference = batches[("a", epoch, iteration)]
            for task in tags[1:]:
                assert batches[(task, epoch, iteration)] == reference
            owners = {coordinator.route(task, epoch, iteration)[0] for task in tags}
            assert len(owners) == 1
        report = coordinator.routing_report()
        # One signature per (epoch, iteration), first seen under task "a".
        assert report["dedup_tracked_views"] == len(keys)
        assert report["dedup_misses"] == len(keys)
        assert report["dedup_hits"] >= 3 * len(keys)
    finally:
        coordinator.shutdown()


def test_dedup_serves_identical_views_without_rematerializing():
    """The dedup owner's demand path materializes each distinct view
    once; a second tenant's identical view is served from cache."""
    tags = ("a", "b")
    coordinator = ShardCoordinator([make_shard(tags=tags) for _ in range(2)])
    try:
        keys = all_batch_keys(coordinator.shard("shard-0"), task="a")
        for (_t, epoch, iteration) in keys:
            coordinator.get_batch("a", epoch, iteration, tenant="t0")
        served_once = {
            sid: coordinator.shard(sid).engine.stats.demand_materializations
            for sid in coordinator.shard_ids()
            if coordinator.shard(sid).engine is not None
        }
        for (_t, epoch, iteration) in keys:
            coordinator.get_batch("b", epoch, iteration, tenant="t1")
        served_twice = {
            sid: coordinator.shard(sid).engine.stats.demand_materializations
            for sid in coordinator.shard_ids()
            if coordinator.shard(sid).engine is not None
        }
        # Tenant t1's identical views routed to the owners that already
        # materialized them: zero new demand materializations anywhere.
        assert served_twice == served_once
    finally:
        coordinator.shutdown()


# -- content-addressed ownership ---------------------------------------------


@settings(max_examples=12, deadline=None)
@given(n_shards=st.integers(1, 6), seed=st.integers(0, 3), window=st.integers(0, 2))
def test_owned_sets_partition_every_window(n_shards, seed, window):
    """Ownership is a pure function of plan and ring: the shards' owned
    sets are pairwise disjoint and cover ``plan.batches``."""
    coordinator = ShardCoordinator(
        [make_shard(tags=("a", "b"), seed=seed) for _ in range(n_shards)]
    )
    try:
        plan = coordinator.shard("shard-0").window_plan(2 * window, "a")
        for assembly in plan.batches.values():
            owners = [
                sid for sid in coordinator.shard_ids() if coordinator.owns(sid, assembly)
            ]
            assert len(owners) == 1
            key = (assembly.task, assembly.epoch, assembly.iteration)
            assert coordinator.route(*key)[0] == owners[0]
    finally:
        coordinator.shutdown()


def test_metadata_and_routing_never_roll_a_window():
    """Routing reads the shared plan: a shard's engine and window stay put
    however many batches of other windows are routed or sized."""
    coordinator = ShardCoordinator([make_shard() for _ in range(3)])
    try:
        shards = [coordinator.shard(sid) for sid in coordinator.shard_ids()]
        for shard in shards:
            shard.ensure_window(0, task="t")
        before = [(shard.engine, shard._single_group().window_start) for shard in shards]
        per_epoch = coordinator.iterations_per_epoch("t", 4)
        for n in range(100):
            coordinator.route("t", 4 + n // per_epoch % 4, n % per_epoch)
        after = [(shard.engine, shard._single_group().window_start) for shard in shards]
        assert all(a[0] is b[0] and a[1] == b[1] for a, b in zip(after, before))
    finally:
        coordinator.shutdown()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "capstone"])
def test_scoped_fleet_is_byte_identical_to_a_plain_service(seed, faulted):
    reference = make_shard(seed=seed)
    fleet = ShardCoordinator([
        make_shard(
            seed=seed, num_workers=1, prefetch_depth=2,
            fault_schedule=capstone_schedule(seed) if faulted else None,
            store=LocalStore(10**8) if faulted else None,
        )
        for _ in range(4)
    ])
    try:
        for window in (0, 2):
            keys = sorted(reference.window_plan(window, "t").batches)
            for key in keys:
                want, want_md = reference.get_batch(*key)
                got, got_md = fleet.get_batch(*key, tenant="t0")
                assert got.tobytes() == want.tobytes(), key
                assert got_md == want_md
        assert fleet.routing_report()["failovers"] == 0
    finally:
        reference.shutdown()
        fleet.shutdown()
        for sid in fleet.shard_ids():
            assert fleet.shard(sid).delivery_pool.leases_outstanding == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_non_owner_serves_an_owned_batch_on_demand(seed):
    """Scope confines background work only: with the owner down, the
    next shard of the preference order serves the same bytes."""
    reference = make_shard(seed=seed)
    key = all_batch_keys(reference)[0]
    probe = ShardCoordinator([make_shard(seed=seed) for _ in range(4)])
    owner = probe.route(*key)[0]
    probe.shutdown()
    schedule = FaultSchedule(seed=0, specs=[
        FaultSpec(kind="shard-down", site=SITE_SHARD_ROUTE,
                  at_count=1, down_for=1, key=owner),
    ])
    fleet = ShardCoordinator(
        [make_shard(seed=seed, num_workers=1, prefetch_depth=2) for _ in range(4)],
        fault_schedule=schedule,
    )
    try:
        want, _ = reference.get_batch(*key)
        got, _ = fleet.get_batch(*key, tenant="t0")
        assert got.tobytes() == want.tobytes()
        report = fleet.routing_report()
        assert report["failovers"] == 1 and report["served"][owner] == 0
    finally:
        reference.shutdown()
        fleet.shutdown()


def test_fleet_pre_materializes_each_frontier_node_once():
    fleet = background_fleet(tags=("a", "b"))
    try:
        shards = [fleet.shard(sid) for sid in fleet.shard_ids()]
        for shard in shards:
            shard.ensure_window(0, task="a").drain()
        pruning = shards[0].pruning
        frontier = sum(len(video.frontier) for video in pruning.videos.values())
        done = sum(shard.engine.stats.pre_materializations for shard in shards)
        assert done == frontier
        report = fleet.routing_report()
        plan = shards[0].plan
        assert sum(report["owned_batches"].values()) == len(plan.batches)
        assert all(n < len(plan.batches) for n in report["owned_batches"].values())
        assert sum(report["jobs_scoped_out"].values()) > 0
    finally:
        fleet.shutdown()


def test_fleet_plans_each_window_once(monkeypatch):
    calls = []
    build = service_module.build_plan_window

    def counting(tasks, dataset, epoch_start, *args, **kwargs):
        calls.append(epoch_start)
        return build(tasks, dataset, epoch_start, *args, **kwargs)

    monkeypatch.setattr(service_module, "build_plan_window", counting)
    fleet = ShardCoordinator([make_shard() for _ in range(4)])
    try:
        for epoch in (0, 1, 2, 3, 1):  # three windows' worth, then back one
            for iteration in range(fleet.iterations_per_epoch("t", epoch)):
                fleet.get_batch("t", epoch, iteration, tenant="t0")
    finally:
        fleet.shutdown()  # joins the plan-ahead threads
    # Window 4 was planned ahead (by the first request for epoch 3, once
    # for the whole fleet) and never rolled into; going back a window
    # found window 0 still cached.
    assert sorted(calls) == [0, 2, 4]
    cache = fleet.status()["routing"]["plan_cache"]
    assert cache["builds"] == 3 and cache["ahead_builds"] >= 1 and cache["hits"] > 0


def test_ring_change_rescopes_live_engines_in_place():
    fleet = background_fleet(n=3)
    try:
        shards = {sid: fleet.shard(sid) for sid in fleet.shard_ids()}
        engines = {sid: shard.ensure_window(0, task="t") for sid, shard in shards.items()}
        plan = shards["shard-0"].plan
        total = len(plan.batches)
        before = fleet.routing_report()["owned_batches"]
        assert sum(before.values()) == total

        joiner = make_shard(num_workers=1, prefetch_depth=2)
        fleet.add_shard("shard-3", joiner)
        joiner.ensure_window(0, task="t")
        after = fleet.routing_report()["owned_batches"]
        assert sum(after.values()) == total
        # The survivors' engines were re-scoped, not rebuilt ...
        assert all(shards[sid].engine is engines[sid] for sid in shards)
        # ... and only gave batches up, all of them to the joiner (~1/N).
        assert all(after[sid] <= before[sid] for sid in before)
        assert after["shard-3"] == total - sum(after[sid] for sid in before)
        assert after["shard-3"] < total / 2

        fleet.remove_shard("shard-3")
        assert fleet.routing_report()["owned_batches"] == before
        assert joiner.scope_report()["owned_batches"] == 0
        reference = make_shard()
        for key in sorted(plan.batches):
            want, _ = reference.get_batch(*key)
            got, _ = fleet.get_batch(*key, tenant="t0")
            assert got.tobytes() == want.tobytes(), key
        reference.shutdown()
        joiner.shutdown()
    finally:
        fleet.shutdown()
        for shard in shards.values():
            assert shard.delivery_pool.leases_outstanding == 0
        assert joiner.delivery_pool.leases_outstanding == 0


def test_rescope_with_assemblies_in_flight_never_hands_out_a_wrong_batch():
    """Trainers read through the fleet while the ring keeps changing;
    every batch must match the reference, sanitizers clean."""
    set_sanitizers(True)
    reset_sanitizers()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        reference = make_shard()
        keys = [k for window in (0, 2) for k in sorted(reference.window_plan(window, "t").batches)]
        want = {key: zlib.crc32(reference.get_batch(*key)[0]) for key in keys}
        reference.shutdown()
        fleet = background_fleet(n=3)
        spare = make_shard(num_workers=1, prefetch_depth=2)
        wrong, errors = [], []
        done = threading.Event()

        def trainer():
            try:
                for _ in range(4):
                    for key in keys:
                        batch, _ = fleet.get_batch(*key, tenant="t0")
                        if zlib.crc32(batch) != want[key]:
                            wrong.append(key)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                done.set()

        thread = threading.Thread(target=trainer)
        thread.start()
        changes = 0
        while not done.wait(0.005):
            fleet.add_shard("spare", spare)
            fleet.remove_shard("spare")
            changes += 1
        thread.join(timeout=30)
        assert not thread.is_alive()
        fleet.shutdown()
        spare.shutdown()
        assert errors == [] and wrong == []
        assert changes > 4
        for sid in fleet.shard_ids():
            assert fleet.shard(sid).delivery_pool.leases_outstanding == 0
        assert spare.delivery_pool.leases_outstanding == 0
        assert collect_report().clean(), collect_report().as_dict()
    finally:
        sys.setswitchinterval(switch_interval)
        set_sanitizers(None)
        reset_sanitizers()


# -- failover ----------------------------------------------------------------


def test_shard_down_fails_over_to_ring_successor_byte_identically():
    reference = make_shard()
    probe = ShardCoordinator([make_shard() for _ in range(3)])
    keys = all_batch_keys(reference)
    owner = probe.route(*keys[0])[0]
    probe.shutdown()

    schedule = FaultSchedule(seed=0, specs=[
        FaultSpec(kind="shard-down", site=SITE_SHARD_ROUTE,
                  at_count=1, down_for=2, key=owner),
    ])
    coordinator = ShardCoordinator(
        [make_shard() for _ in range(3)], fault_schedule=schedule
    )
    try:
        want, _ = reference.get_batch(*keys[0])
        got, _ = coordinator.get_batch(*keys[0], tenant="t0")
        assert got.tobytes() == want.tobytes()
        report = coordinator.routing_report()
        assert report["failovers"] >= 1
        assert report["served"][owner] == 0
        assert schedule.fire_counts()["shard.route:shard-down"] >= 1
        # Window over (down_for=2, one consumed): the owner serves again.
        coordinator.get_batch(*keys[0], tenant="t0")  # consumes the window
        got_after, _ = coordinator.get_batch(*keys[0], tenant="t0")
        assert got_after.tobytes() == want.tobytes()
        assert coordinator.routing_report()["served"][owner] >= 1
    finally:
        reference.shutdown()
        coordinator.shutdown()


def test_all_shards_down_raises_retryable():
    schedule = FaultSchedule(seed=0, specs=[
        FaultSpec(kind="transient-error", site=SITE_SHARD_ROUTE, rate=1.0),
    ])
    coordinator = ShardCoordinator(
        [make_shard() for _ in range(2)], fault_schedule=schedule
    )
    try:
        with pytest.raises(AllShardsDownError):
            coordinator.get_batch("t", 0, 0, tenant="t0")
        # The admission slot was returned on the failure path.
        report = coordinator.admission.report()
        assert report["tenants"]["t0"]["inflight"] == 0
    finally:
        coordinator.shutdown()


# -- rebalance ---------------------------------------------------------------


def test_add_and_remove_shard_rebalance_tracked_views():
    coordinator = ShardCoordinator([make_shard() for _ in range(3)])
    try:
        keys = all_batch_keys(coordinator.shard("shard-0"))
        for key in keys:
            coordinator.get_batch(*key, tenant="t0")
        tracked = coordinator.routing_report()["dedup_tracked_views"]
        assert tracked == len(keys)

        report = coordinator.add_shard("shard-3", make_shard())
        assert report.added == ["shard-3"]
        assert report.tracked_keys == tracked
        assert report.moved_fraction < 0.75  # minimal movement, not reshuffle
        assert "shard-3" in coordinator.shard_ids()

        removed = coordinator.remove_shard("shard-3")
        assert removed.removed == ["shard-3"]
        # Nothing may remain owned by the departed shard.
        for key in keys:
            assert coordinator.route(*key)[0] != "shard-3"
        # Batches still serve correctly after both membership changes.
        reference = make_shard()
        want, _ = reference.get_batch(*keys[0])
        got, _ = coordinator.get_batch(*keys[0], tenant="t0")
        assert got.tobytes() == want.tobytes()
        reference.shutdown()
    finally:
        coordinator.shutdown()


def test_cannot_remove_last_shard():
    coordinator = ShardCoordinator([make_shard()])
    try:
        with pytest.raises(ShardingError):
            coordinator.remove_shard("shard-0")
    finally:
        coordinator.shutdown()


# -- one anchor cache per fleet ---------------------------------------------


def anchor_holders(shard):
    """Every anchor cache ``shard`` decodes through, and how many open
    decoders and warm engines that covered: its own, and each live, warm
    or straggler engine's, their materializers' and open decoders'."""
    holders, decoders, warm = [shard.anchor_cache], 0, 0
    for group in shard._groups.values():
        warm += group.warm is not None
        for window in (group.live, group.warm, group.previous):
            if window is None:
                continue
            holders.append(window.engine.anchor_cache)
            for materializer in list(window.engine._materializers.values()):
                holders.append(materializer.anchor_cache)
                decoder = materializer._decoder
                if decoder is not None:
                    holders.append(getattr(decoder, "inner", decoder).cache)
                    decoders += 1
    return holders, decoders, warm


def running_shard():
    """A shard that decoded on its own before joining a fleet: a live
    window with open decoders and, warmed ahead, the next one's engine."""
    shard = make_shard(num_workers=1, prefetch_depth=2)
    shard.get_batch("t", 0, 0)
    shard.get_batch("t", 1, 0)  # the last epoch of window 0 plans window 2 ahead
    assert shard._single_group().warmed.wait(30)
    return shard


def test_fleet_shards_share_one_anchor_cache():
    shards = [running_shard() for _ in range(3)]
    joiner = running_shard()
    fleet = ShardCoordinator(shards)
    try:
        cache = fleet.anchor_cache
        assert cache is shards[0].anchor_cache
        fleet.add_shard("shard-3", joiner)
        decoders = warm = 0
        for sid in fleet.shard_ids():
            holders, opened, warmed = anchor_holders(fleet.shard(sid))
            assert all(holder is cache for holder in holders), sid
            decoders += opened
            warm += warmed
        assert decoders > 0 and warm > 0  # the check covered open decoders and warm engines
        want = make_shard()
        for key in all_batch_keys(want):
            got, _ = fleet.get_batch(*key, tenant="t0")
            assert got.tobytes() == want.get_batch(*key)[0].tobytes(), key
        want.shutdown()
    finally:
        fleet.shutdown()


def test_anchor_cache_repoint_races_running_decodes():
    """Shards join a fleet while their workers decode, at a short switch
    interval: once they stop, no decoder was left on a private cache,
    and every batch the fleet served is the reference's."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        shards = [make_shard(num_workers=2, prefetch_depth=2) for _ in range(4)]
        for shard in shards:
            shard.ensure_window(0, task="t")  # workers start decoding now
        fleet = ShardCoordinator(shards)
        want = make_shard()
        try:
            for key in all_batch_keys(want):
                got, _ = fleet.get_batch(*key, tenant="t0")
                assert got.tobytes() == want.get_batch(*key)[0].tobytes(), key
            for shard in shards:
                shard.end_task("t")  # joins its workers and planner
                holders, _, _ = anchor_holders(shard)
                assert all(holder is fleet.anchor_cache for holder in holders)
        finally:
            want.shutdown()
            fleet.shutdown()
    finally:
        sys.setswitchinterval(interval)


def test_a_removed_shard_leaves_with_its_own_anchor_cache():
    fleet = ShardCoordinator([make_shard() for _ in range(3)])
    try:
        for key in all_batch_keys(fleet.shard("shard-0")):
            fleet.get_batch(*key, tenant="t0")
        leaver = fleet.shard("shard-2")
        fleet.remove_shard("shard-2")
        used = fleet.anchor_cache.bytes_used
        assert used > 0
        holders, _, _ = anchor_holders(leaver)
        assert leaver.anchor_cache is not fleet.anchor_cache
        assert all(holder is leaver.anchor_cache for holder in holders)
        for sid in fleet.shard_ids():
            holders, _, _ = anchor_holders(fleet.shard(sid))
            assert all(holder is fleet.anchor_cache for holder in holders), sid
        leaver.shutdown()  # clears the leaver's anchors, not the fleet's
        assert fleet.anchor_cache.bytes_used == used
    finally:
        fleet.shutdown()


def test_fleet_decodes_no_more_frames_than_one_service(sanitized, monkeypatch):
    """Two tasks, two windows, demand only: a 4-shard fleet decodes each
    anchor once, like a plain service (with a cache per shard, every
    shard a video's clips land on decodes its anchors again), and every
    batch it serves is the oracle's, with the sentinels on the shared
    anchors intact."""
    engines = []
    build = service_module.SandService._engine

    def recording(self, *args, **kwargs):
        engine = build(self, *args, **kwargs)
        engines.append(engine)
        return engine

    monkeypatch.setattr(service_module.SandService, "_engine", recording)

    def frames_decoded(serve):
        del engines[:]
        for window in (0, 2):
            plan = plain.window_plan(window, "a")
            reference = ReferenceMaterializer(plan, plain.dataset)
            for key in sorted(plan.batches):
                got, _ = serve(*key)
                assert got.tobytes() == reference.get_batch(*key).tobytes(), key
        return sum(engine.stats.frames_decoded for engine in engines)

    plain = make_shard(tags=("a", "b"))
    fleet = ShardCoordinator([make_shard(tags=("a", "b")) for _ in range(4)])
    try:
        alone = frames_decoded(plain.get_batch)
        shared = frames_decoded(lambda *key: fleet.get_batch(*key, tenant=key[0]))
        assert 0 < shared <= alone
        assert sum(fleet.routing_report()["served"][sid] > 0 for sid in fleet.shard_ids()) > 1
    finally:
        plain.shutdown()
        fleet.shutdown()
    assert buffer_sanitizer().guarded > 0
    report = collect_report()
    assert report.write_after_share == []
    assert report.lock_order_violations == []


# -- the one POSIX front end --------------------------------------------------

BATCH_XATTRS = ("videos", "labels", "timestamps", "frame_indices", "shape", "dtype")


def posix_front(n, seed, faulted):
    """A client over ``n`` shards, mounted through ``mount_sand``: one
    plain service, or a coordinator over several."""
    shards = [
        make_shard(
            seed=seed,
            fault_schedule=capstone_schedule(seed) if faulted else None,
            store=LocalStore(10**8) if faulted else None,
        )
        for _ in range(n)
    ]
    front = shards[0] if n == 1 else ShardCoordinator(shards)
    return SandClient(mount_sand(front)), front


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "capstone"])
def test_vfs_access_is_shard_transparent(seed, faulted):
    reference = make_shard(seed=seed)
    one, one_front = posix_front(1, seed, faulted)
    three, three_front = posix_front(3, seed, faulted)
    try:
        assert three.vfs.stat("/sand").is_dir
        for path in ("/sand", "/sand/t", "/sand/t/0", "/sand/t/2"):
            assert three.vfs.listdir(path) == one.vfs.listdir(path), path
        for window in (0, 2):
            for key in sorted(reference.window_plan(window, "t").batches):
                path = BatchView(*key).path()
                want, _ = reference.get_batch(*key)
                got = one.read_array(path)
                assert got.tobytes() == want.tobytes(), key
                assert three.read_array(path).tobytes() == want.tobytes(), key
                for name in BATCH_XATTRS:
                    assert three.getxattr(path, name) == one.getxattr(path, name)
                assert json.loads(one.getxattr(path, "shape")) == list(got.shape)
        assert three_front.routing_report()["failovers"] == 0
    finally:
        reference.shutdown()
        one_front.shutdown()
        three_front.shutdown()


def test_metadata_reaches_no_engine_and_is_not_booked():
    coordinator = ShardCoordinator([make_shard() for _ in range(2)])
    try:
        assert coordinator.listdir("/") == ["t"]
        assert coordinator.lookup("/t").is_dir
        coordinator.getxattr("/t/0/0/view", "videos")
        assert "0" in coordinator.listdir("/t")
        coordinator.getxattr("/t/0/0/view", "shape")
        report = coordinator.routing_report()
        assert set(report["routed"].values()) == {0}
        assert set(report["served"].values()) == {0}
        for sid in coordinator.shard_ids():
            assert coordinator.shard(sid).engine is None
    finally:
        coordinator.shutdown()


def test_ctrl_starts_and_ends_the_task_on_every_shard():
    coordinator = ShardCoordinator([make_shard() for _ in range(2)])
    client = SandClient(mount_sand(coordinator))
    shards = [coordinator.shard(sid) for sid in coordinator.shard_ids()]
    try:
        ctrl = client.begin_task("t")
        assert [shard.active_tasks for shard in shards] == [{"t"}, {"t"}]
        client.finish_task(ctrl)
        for shard in shards:
            assert shard.active_tasks == set()
            assert shard.engine is None or not shard.engine.running
    finally:
        coordinator.shutdown()


def test_batch_shape_xattrs_come_from_the_plan():
    service = make_shard()
    front = ShardCoordinator([service])
    try:
        path = "/t/0/0/view"
        shape = json.loads(front.getxattr(path, "shape"))
        dtype = front.getxattr(path, "dtype")
        assert service.engine is None  # no window started, nothing assembled
        lease, _ = service.get_batch_lease("t", 0, 0)
        with lease:
            assert shape == list(lease.array.shape)
            assert dtype == str(lease.array.dtype).encode()
    finally:
        service.shutdown()


def test_batch_shape_xattrs_of_a_clip_scoped_task_match_the_batch():
    # A clip-scoped op reshapes the clip: the spec is not static, so the
    # answer comes from an assembled batch.
    config = load_task_config({"dataset": {
        "tag": "t", "video_dataset_path": "/d",
        "sampling": {"videos_per_batch": 2, "frames_per_video": 4},
        "augmentation": [{
            "branch_type": "single", "inputs": ["frame"], "outputs": ["a0"],
            "config": [{"resize": {"shape": [12, 16]}}, {"subsample": {"rate": 2}}],
        }],
    }})
    service = SandService([config], make_dataset(), num_workers=0, prefetch_depth=0)
    front = ShardCoordinator([service])
    try:
        shape = json.loads(front.getxattr("/t/0/0/view", "shape"))
        assert shape == [2, 2, 12, 16, 3]
        assert front.getxattr("/t/0/0/view", "dtype") == b"uint8"
    finally:
        service.shutdown()


# -- the wire path -----------------------------------------------------------


def test_coordinator_serves_the_wire_protocol_with_tenants(tmp_path):
    reference = make_shard()
    coordinator = ShardCoordinator([make_shard() for _ in range(2)])
    unix_path = str(tmp_path / "shard.sock")
    server = coordinator.serve_async(unix_path=unix_path)
    try:
        server.start_background()
        keys = all_batch_keys(reference)
        results = {}
        errors = []
        lock = threading.Lock()

        def trainer(rank):
            try:
                with BatchSocketClient(unix_path) as client:
                    for key in keys[rank::4]:
                        batch, md = client.get_batch(
                            *key, tenant=f"tenant-{rank % 2}"
                        )
                        with lock:
                            results[key] = batch.tobytes()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(f"{rank}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=trainer, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for key in keys:
            want, _ = reference.get_batch(*key)
            assert results[key] == want.tobytes(), key
        # Both tenants passed through the wire into admission accounting.
        admitted = coordinator.admission.report()["tenants"]
        assert set(admitted) >= {"tenant-0", "tenant-1"}
        report = server.report()
        assert report["executor_workers"] >= 1
        assert report["executor_queue_high_water"] >= 1
        assert report["executor_queue_depth"] == 0
    finally:
        server.shutdown()
        for sid in coordinator.shard_ids():
            assert coordinator.shard(sid).delivery_pool.leases_outstanding == 0
        coordinator.shutdown()
        reference.shutdown()


def _sends(coordinator):
    """Socket sends booked per shard, over every engine of the shard."""
    return {
        sid: sum(
            engine["sends"]
            for engine in coordinator.shard(sid).dataplane_report()["engines"].values()
        )
        for sid in coordinator.shard_ids()
    }


def test_a_send_is_booked_on_the_shard_that_served_its_lease():
    """Two leases of one task from two shards are out; the first one's
    send lands on the shard that assembled it, not on whichever shard
    served the task last."""
    coordinator = ShardCoordinator([make_shard() for _ in range(2)])
    try:
        owned = {}
        for key in all_batch_keys(coordinator.shard("shard-0")):
            owned.setdefault(coordinator.route(*key)[0], key)
        assert set(owned) == {"shard-0", "shard-1"}
        first, _ = coordinator.get_batch_lease(*owned["shard-0"])
        second, _ = coordinator.get_batch_lease(*owned["shard-1"])
        first.book_send()  # what the server does before it writes
        assert _sends(coordinator) == {"shard-0": 1, "shard-1": 0}
        first.release()
        second.release()
    finally:
        coordinator.shutdown()


def test_wire_sends_are_booked_on_the_shards_that_served_them(tmp_path):
    coordinator = ShardCoordinator([make_shard() for _ in range(2)])
    unix_path = str(tmp_path / "books.sock")
    server = coordinator.serve_async(unix_path=unix_path)
    try:
        server.start_background()
        keys = all_batch_keys(coordinator.shard("shard-0"))
        errors = []

        def trainer(rank):
            try:
                with BatchSocketClient(unix_path) as client:
                    for key in keys[rank::2]:
                        client.get_batch(*key)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(f"{rank}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=trainer, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        served = coordinator.routing_report()["served"]
        assert sum(served.values()) == len(keys)
        assert min(served.values()) > 0
        assert _sends(coordinator) == served
    finally:
        server.shutdown()
        coordinator.shutdown()


def test_coordinator_status_is_one_report():
    coordinator = ShardCoordinator([make_shard() for _ in range(2)])
    try:
        coordinator.get_batch("t", 0, 0, tenant="t0")
        status = coordinator.status()
        assert set(status) == {"shards", "routing", "admission", "anchor_cache", "fault_fires"}
        assert sorted(status["shards"]) == ["shard-0", "shard-1"]
        for shard_status in status["shards"].values():
            # Satellite fix: each shard's status carries its dataplane
            # block (pool + engines + servers) in the same report.
            assert "dataplane" in shard_status
            assert "pool" in shard_status["dataplane"]
            assert "servers" in shard_status["dataplane"]
        routing = status["routing"]
        assert routing["dedup_tracked_views"] >= 1
        # Existing keys the bench adapter reads, plus the scope and plan
        # cache blocks that answer "why is shard-N busy / who planned".
        assert {"served", "dedup_hits", "dedup_misses", "failovers"} <= set(routing)
        assert set(routing["owned_batches"]) == {"shard-0", "shard-1"}
        assert set(routing["jobs_scoped_out"]) == {"shard-0", "shard-1"}
        assert set(routing["plan_cache"]) >= {"builds", "hits", "waits"}
        for shard_status in status["shards"].values():
            assert shard_status["plan_cache"] == routing["plan_cache"]
        assert "t0" in status["admission"]["tenants"]
        # The fleet's one anchor cache, reported once.
        anchors = status["anchor_cache"]
        assert anchors == coordinator.anchor_cache.report()
        assert {"hits", "misses", "bytes_used", "budget_bytes"} <= set(anchors)
        assert 0 < anchors["bytes_used"] <= anchors["budget_bytes"]
    finally:
        coordinator.shutdown()


def test_service_status_includes_dataplane_and_server_counters(tmp_path):
    service = make_shard()
    unix_path = str(tmp_path / "svc.sock")
    server = service.serve_async(unix_path=unix_path)
    try:
        server.start_background()
        with BatchSocketClient(unix_path) as client:
            client.get_batch("t", 0, 0)
        status = service.status()
        assert "dataplane" in status
        assert status["dataplane"]["pool"]["leases_issued"] >= 1
        (server_report,) = status["dataplane"]["servers"]
        assert server_report["sends"] == 1
        assert server_report["executor_workers"] >= 1
    finally:
        server.shutdown()
        service.shutdown()


def test_batches_survive_detach_roundtrip_dtype():
    """get_batch through the coordinator returns an owned array."""
    coordinator = ShardCoordinator([make_shard()])
    try:
        batch, md = coordinator.get_batch("t", 0, 0, tenant="t0")
        assert isinstance(batch, np.ndarray)
        assert batch.nbytes > 0 and md["task"] == "t"
        batch[:] = 0  # owned: writing must not corrupt pooled state
        again, _ = coordinator.get_batch("t", 0, 0, tenant="t0")
        assert again.any()
    finally:
        coordinator.shutdown()
