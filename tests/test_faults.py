"""Seeded fault-injection suite (the S5.5 fault model, exercised).

Every test here is deterministic given ``FAULT_SEED`` (default 0); CI
runs the suite under three fixed seeds.  The capstone scenario runs a
full epoch under 5% transient storage faults, one injected worker crash,
and one bit-flipped persisted blob — and asserts the batches are
byte-identical to a fault-free run.
"""

import os
import shutil

import numpy as np
import pytest

from repro.core import (
    CacheManager,
    PreprocessingEngine,
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
    SITE_REMOTE_PUT,
    SITE_STORE_GET,
    SITE_STORE_PUT,
    FaultSchedule,
    FaultSpec,
    FaultyDecoder,
    FaultyProvider,
    FaultyStore,
    TransientDecodeError,
    TransientStorageError,
    TransientVfsError,
)
from repro.storage import RetryPolicy, TieredStore, call_with_retries
from repro.storage.blobs import BlobError, decode_array
from repro.storage.local import LocalStore
from repro.storage.objectstore import CorruptObjectError, ObjectStore
from repro.storage.remote import RemoteStore
from tests.reference_materializer import ReferenceMaterializer

pytestmark = pytest.mark.faults

SEED = int(os.environ.get("FAULT_SEED", "0"))

# Fast retries: the suite exercises retry *logic*, not wall-clock backoff.
FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.0, max_delay_s=0.0)


def make_config(tag="t", vpb=2, frames=4, stride=2):
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


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=6, min_frames=30, max_frames=45, width=32, height=24, seed=3)
    )


@pytest.fixture(scope="module")
def plan(dataset):
    return build_plan_window([make_config()], dataset, 0, 2, seed=5)


# -- schedule ---------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="meteor-strike", site=SITE_STORE_GET, rate=0.1)
    with pytest.raises(ValueError):
        FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=1.5)
    with pytest.raises(ValueError):
        FaultSpec(kind="transient-error", site=SITE_STORE_GET)  # never fires
    with pytest.raises(ValueError):
        FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=0)


def test_schedule_is_deterministic_per_seed():
    spec = FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.3)
    verdicts = []
    for _ in range(2):
        schedule = FaultSchedule(seed=SEED, specs=[spec])
        verdicts.append(
            [bool(schedule.draw(SITE_STORE_GET, f"k{i}")) for i in range(200)]
        )
    assert verdicts[0] == verdicts[1]
    other = FaultSchedule(seed=SEED + 1, specs=[spec])
    assert verdicts[0] != [
        bool(other.draw(SITE_STORE_GET, f"k{i}")) for i in range(200)
    ]


def test_rate_roughly_respected():
    spec = FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.25)
    schedule = FaultSchedule(seed=SEED, specs=[spec])
    fired = sum(
        bool(schedule.draw(SITE_STORE_GET, f"k{i}")) for i in range(2000)
    )
    assert 0.15 < fired / 2000 < 0.35


def test_retry_gets_a_fresh_draw_per_occurrence():
    # A transient fault must be able to clear on retry: the per-(site,
    # key) occurrence counter advances, so repeated ops on one key see
    # independent verdicts rather than a stuck one.
    spec = FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.5)
    schedule = FaultSchedule(seed=SEED, specs=[spec])
    verdicts = {bool(schedule.draw(SITE_STORE_GET, "same-key")) for _ in range(64)}
    assert verdicts == {True, False}


def test_at_count_fires_exactly_once():
    spec = FaultSpec(kind="transient-error", site=SITE_STORE_PUT, at_count=3)
    schedule = FaultSchedule(seed=SEED, specs=[spec])
    fired = [bool(schedule.draw(SITE_STORE_PUT, f"k{i}")) for i in range(6)]
    assert fired == [False, False, True, False, False, False]


def test_tier_down_spec_is_positional():
    with pytest.raises(ValueError, match="positional"):
        FaultSpec(kind="tier-down", site=SITE_REMOTE_PUT, rate=0.5)
    with pytest.raises(ValueError, match="down_for"):
        FaultSpec(kind="tier-down", site=SITE_REMOTE_PUT, at_count=1, down_for=0)


def test_tier_down_window_fires_for_exactly_down_for_operations():
    spec = FaultSpec(kind="tier-down", site=SITE_REMOTE_PUT, at_count=3, down_for=4)
    schedule = FaultSchedule(seed=SEED, specs=[spec])
    fired = [bool(schedule.draw(SITE_REMOTE_PUT, f"k{i}")) for i in range(10)]
    assert fired == [False, False, True, True, True, True, False, False, False, False]
    # apply() surfaces the window as a retryable outage.
    other = FaultSchedule(seed=SEED, specs=[spec])
    other.draw(SITE_REMOTE_PUT)
    other.draw(SITE_REMOTE_PUT)
    with pytest.raises(TransientStorageError):
        other.apply(SITE_REMOTE_PUT, "k")


def test_max_fires_caps_a_spec():
    spec = FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=1.0, max_fires=2)
    schedule = FaultSchedule(seed=SEED, specs=[spec])
    fired = sum(bool(schedule.draw(SITE_STORE_GET, f"k{i}")) for i in range(10))
    assert fired == 2
    assert schedule.total_fires() == 2


def test_apply_raises_transient_and_returns_payload_specs():
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, at_count=1),
            FaultSpec(kind="bit-flip", site=SITE_STORE_GET, rate=1.0),
        ],
    )
    with pytest.raises(TransientStorageError):
        schedule.apply(SITE_STORE_GET, "k")
    payload = schedule.apply(SITE_STORE_GET, "k")
    assert [spec.kind for spec in payload] == ["bit-flip"]
    counts = schedule.fire_counts()
    assert counts["store.get:transient-error"] == 1
    assert counts["store.get:bit-flip"] == 2


def test_crash_targets_one_job_index():
    schedule = FaultSchedule(
        seed=SEED, specs=[FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2)]
    )
    assert [schedule.should_crash_job(i) for i in (1, 2, 3)] == [False, True, False]


# -- retry policy ------------------------------------------------------------


def test_backoff_grows_and_saturates():
    policy = RetryPolicy(max_retries=5, base_delay_s=0.01, multiplier=2.0,
                         jitter=0.0, max_delay_s=0.05)
    rng = FaultSchedule(seed=SEED).rng("backoff")
    delays = [policy.delay_for(a, rng) for a in range(5)]
    assert delays == pytest.approx([0.01, 0.02, 0.04, 0.05, 0.05])


def test_call_with_retries_recovers_then_exhausts():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise TransientStorageError("flaky")
        return "ok"

    rng = FaultSchedule(seed=SEED).rng("retry")
    assert call_with_retries(flaky, FAST_RETRY, (TransientStorageError,), rng) == "ok"
    assert len(attempts) == 3

    def doomed():
        raise TransientStorageError("always")

    with pytest.raises(TransientStorageError):
        call_with_retries(doomed, FAST_RETRY, (TransientStorageError,), rng)


# -- checksummed store --------------------------------------------------------


@pytest.mark.parametrize("backed", ["memory", "disk"])
def test_bit_rot_is_quarantined_on_get(tmp_path, backed):
    root = tmp_path if backed == "disk" else None
    store = ObjectStore(10**6, root=root)
    faulty = FaultyStore(store, FaultSchedule(seed=SEED))
    store.put("good", b"fine")
    store.put("bad", b"payload-that-rots")
    assert faulty.corrupt_at_rest("bad", mode="bit-flip")
    with pytest.raises(CorruptObjectError):
        store.get("bad")
    assert "bad" in store.quarantined
    assert "bad" not in store
    assert store.stats.integrity_failures == 1
    # The key now reads as an ordinary miss; healthy keys are untouched.
    assert store.get("bad") is None
    assert store.get("good") == b"fine"


def test_quarantine_preserves_bytes_for_forensics(tmp_path):
    store = ObjectStore(10**6, root=tmp_path)
    faulty = FaultyStore(store, FaultSchedule(seed=SEED))
    store.put("k", b"x" * 64)
    faulty.corrupt_at_rest("k", mode="truncate", fraction=0.5)
    assert not store.verify("k")
    quarantined = list((tmp_path / "_quarantine").iterdir())
    assert len(quarantined) == 1
    assert quarantined[0].read_bytes() == b"x" * 32


def test_verify_all_reports_only_corrupt_keys(tmp_path):
    store = ObjectStore(10**6, root=tmp_path)
    faulty = FaultyStore(store, FaultSchedule(seed=SEED))
    for i in range(5):
        store.put(f"k{i}", bytes([i]) * 32)
    faulty.corrupt_at_rest("k1", mode="bit-flip")
    faulty.corrupt_at_rest("k3", mode="truncate")
    assert store.verify_all() == ["k1", "k3"]
    assert sorted(store.keys()) == ["k0", "k2", "k4"]


# -- injection proxies --------------------------------------------------------


def test_faulty_store_transient_and_latency():
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_PUT, at_count=1),
            FaultSpec(kind="latency", site=SITE_STORE_GET, rate=1.0, latency_s=0.0),
        ],
    )
    faulty = FaultyStore(ObjectStore(10**6), schedule)
    with pytest.raises(TransientStorageError):
        faulty.put("k", b"v")
    faulty.put("k", b"v")  # retry clears: at_count=1 already consumed
    assert faulty.get("k") == b"v"
    assert schedule.fire_counts()["store.get:latency"] >= 1


def test_torn_write_through_proxy_is_caught_by_checksum():
    # The proxy tears the blob *after* the store stamped its checksum —
    # exactly a device-level torn write — so the next read must detect it.
    schedule = FaultSchedule(
        seed=SEED,
        specs=[FaultSpec(kind="torn-write", site=SITE_STORE_PUT, at_count=1)],
    )
    store = ObjectStore(10**6)
    faulty = FaultyStore(store, schedule)
    faulty.put("k", b"a" * 100)
    with pytest.raises(CorruptObjectError):
        faulty.get("k")
    assert "k" in store.quarantined


def test_in_flight_bit_flip_slips_past_crc_onto_the_consumer():
    # A get-side flip happens after the store's CRC passed: the store
    # cannot see it (no quarantine), so the corruption lands on the
    # consumer — as a framing error or as a silently different array —
    # which is why the materializer keeps a second defense (BlobError
    # handling) behind the store's checksum.
    schedule = FaultSchedule(
        seed=SEED,
        specs=[FaultSpec(kind="bit-flip", site=SITE_STORE_GET, rate=1.0)],
    )
    store = ObjectStore(10**6)
    faulty = FaultyStore(store, schedule)
    from repro.storage.blobs import encode_array

    arr = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    blob = encode_array(arr)
    store.put("k", blob)
    data = faulty.get("k")
    assert "k" not in store.quarantined  # CRC passed before the flip
    assert data != blob
    try:
        out = decode_array(data)
    except BlobError:
        pass  # flip hit the framing: caught by the second defense
    else:
        assert not np.array_equal(out, arr)


def test_faulty_decoder_raises_transient_decode_error(dataset, plan):
    vid = next(iter(plan.graphs))
    from repro.codec.registry import open_decoder

    schedule = FaultSchedule(
        seed=SEED,
        specs=[FaultSpec(kind="transient-error", site=SITE_DECODE, at_count=1)],
    )
    decoder = FaultyDecoder(open_decoder(dataset.get_bytes(vid)), schedule, vid)
    frame = plan.graphs[vid].frames()[0]
    with pytest.raises(TransientDecodeError):
        decoder.decode_frames([frame.frame_index])
    # Retry clears, and delegation exposes the inner decoder's stats.
    out = decoder.decode_frames([frame.frame_index])
    assert frame.frame_index in out
    assert decoder.stats.frames_decoded >= 1


def test_faulty_provider_injects_vfs_faults(dataset):
    from repro.core import SandClient, ShardCoordinator

    client, service = SandClient.create(
        [make_config()], dataset, storage_budget_bytes=10**8, num_workers=0
    )
    try:
        schedule = FaultSchedule(
            seed=SEED,
            specs=[FaultSpec(kind="transient-error", site="vfs.open", at_count=1)],
        )
        provider = FaultyProvider(ShardCoordinator([service]), schedule)
        path = f"/t/{dataset.video_ids[0]}.mp4"
        with pytest.raises(TransientVfsError):
            provider.open(path)
        handle = provider.open(path)  # retry clears
        provider.release(handle)
        assert provider.lookup(path) is not None
    finally:
        service.shutdown()


# -- remote store retries -----------------------------------------------------


def test_remote_store_retries_through_transient_faults():
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(kind="transient-error", site="remote.put", at_count=1),
            FaultSpec(kind="transient-error", site="remote.get", at_count=1),
        ],
    )
    store = RemoteStore(10**6, retry=FAST_RETRY, fault_schedule=schedule)
    store.put("k", b"v" * 10)  # first attempt fails, retry lands
    assert store.get("k") == b"v" * 10
    assert store.retries == 2
    assert store.bytes_uploaded == 10
    assert store.bytes_downloaded == 10


def test_remote_store_exhausts_retries_and_reraises():
    schedule = FaultSchedule(
        seed=SEED,
        specs=[FaultSpec(kind="transient-error", site="remote.get", rate=1.0)],
    )
    store = RemoteStore(10**6, retry=FAST_RETRY, fault_schedule=schedule)
    store.put("k", b"v")
    with pytest.raises(TransientStorageError):
        store.get("k")
    assert store.retries == FAST_RETRY.max_retries


# -- engine under faults ------------------------------------------------------


def test_job_exhausting_retries_is_dead_lettered(dataset, plan):
    # Permanent decode failure: every pre-materialization job burns its
    # retries and lands in the dead-letter log; the engine survives.
    schedule = FaultSchedule(
        seed=SEED,
        specs=[FaultSpec(kind="transient-error", site=SITE_DECODE, rate=1.0)],
    )
    engine = PreprocessingEngine(
        plan, dataset, num_workers=0, fault_schedule=schedule, retry_policy=FAST_RETRY
    )
    engine.drain()
    assert engine.scheduler.pending_count == 0
    assert len(engine.stats.dead_letters) == len(plan.graphs)
    record = engine.stats.dead_letters[0]
    assert record.attempts == FAST_RETRY.max_retries + 1
    assert "TransientDecodeError" in record.reason
    assert sorted(engine.stats.dead_letter_jobs) == sorted(plan.graphs)
    assert engine.stats.job_retries == len(plan.graphs) * FAST_RETRY.max_retries


def test_demand_path_retries_transient_decode_faults(dataset, plan):
    schedule = FaultSchedule(
        seed=SEED,
        specs=[FaultSpec(kind="transient-error", site=SITE_DECODE, at_count=1)],
    )
    engine = PreprocessingEngine(
        plan, dataset, num_workers=0, fault_schedule=schedule, retry_policy=FAST_RETRY
    )
    batch, _ = engine.get_batch("t", 0, 0)
    reference, _ = PreprocessingEngine(plan, dataset, num_workers=0).get_batch("t", 0, 0)
    assert np.array_equal(batch, reference)
    assert engine.stats.demand_retries >= 1


def test_epoch_under_faults_is_byte_identical_to_fault_free_run(dataset, plan):
    """The capstone scenario from the S5.5 fault model:

    5% transient faults on every cache read and write, one worker crash
    mid-window, and one bit-flipped persisted blob — a full epoch still
    completes, with every batch byte-identical to a fault-free run, and
    the stats ledger shows the engine actually absorbed the failures.
    """
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
            FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
        ],
    )
    store = LocalStore(10**8)
    faulty_store = FaultyStore(store, schedule)
    cache = CacheManager(faulty_store)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(
        plan,
        dataset,
        pruning=pruning,
        cache=cache,
        num_workers=2,
        fault_schedule=schedule,
        retry_policy=FAST_RETRY,
    )
    with engine:
        engine.drain()
        # Rot one persisted frontier object while the window is live,
        # then drop memoized arrays so serving actually reads the cache
        # (a trimmed engine under memory pressure does the same).
        victim = sorted(store.keys())[0]
        assert faulty_store.corrupt_at_rest(victim, mode="bit-flip")
        for vid in plan.graphs:
            engine._materializer(vid).release_all()

        reference = PreprocessingEngine(plan, dataset, num_workers=0)
        for (task, epoch, iteration) in sorted(plan.batches):
            batch, md = engine.get_batch(task, epoch, iteration)
            expected, _ = reference.get_batch(task, epoch, iteration)
            assert np.array_equal(batch, expected), (task, epoch, iteration)
            assert md["videos"]

    stats = engine.stats
    assert stats.worker_crashes == 1
    assert victim in stats.quarantined_keys
    assert victim in store.quarantined
    assert stats.corrupt_objects_evicted >= 1
    assert stats.fallback_rematerializations >= 1
    fired = schedule.fire_counts()
    assert fired["engine.job:crash"] == 1
    transient_fires = sum(
        n for name, n in fired.items() if name.endswith("transient-error")
    )
    assert transient_fires > 0
    assert stats.batches_served == len(plan.batches)


class _CompactionCrash(Exception):
    pass


@pytest.mark.soak
def test_tiered_epoch_survives_tier_outage_compaction_crash_and_tier_loss(
    dataset, plan, tmp_path
):
    """The tiered capstone: the robustness claim end-to-end.

    A full epoch runs through a k=2 tiered store while (a) the remote
    tier is *down* for a window of operations mid-materialization, (b) a
    pack compaction is crashed between swap and unlink, (c) 5% transient
    faults hit every cache read, and (d) one worker crashes.  The epoch
    must still be byte-identical to a fault-free run.  Then the entire
    hot tier is destroyed: because repair restored k=2 before the loss,
    the S5.5 restart recovers every object by copy — zero frames
    re-decoded.  (Write-side transients are covered by the single-store
    capstone above; here puts stay clean so replication accounting is
    exact.)
    """
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
            # Remote tier unreachable for put occurrences 2-9: with a
            # 4-attempt retry budget, exactly puts #2 and #3 dead-letter.
            FaultSpec(kind="tier-down", site=SITE_REMOTE_PUT, at_count=2, down_for=8),
        ],
    )
    local = LocalStore(
        10**8, root=tmp_path / "hot", pack_threshold=1 << 20, pack_segment_bytes=8192
    )
    remote = RemoteStore(
        10**9, root=tmp_path / "warm", retry=FAST_RETRY, fault_schedule=schedule
    )
    tiered = TieredStore(local, remote, fault_schedule=schedule)
    faulty = FaultyStore(tiered, schedule)
    cache = CacheManager(faulty)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(
        plan,
        dataset,
        pruning=pruning,
        cache=cache,
        num_workers=2,
        fault_schedule=schedule,
        retry_policy=FAST_RETRY,
    )
    with engine:
        engine.drain()
        # The outage window hit exactly two replications (see schedule).
        assert tiered.tier_stats.replication_failures == 2
        assert remote.dead_letters == 2
        assert len(tiered.under_replicated()) == 2
        # Background repair restores k=2 now that the tier is back.
        assert tiered.repair_scan()["repaired"] == 2
        assert tiered.under_replicated() == []

        # Seed dead pack bytes, then crash compaction after the swap;
        # the restarted pass must finish the job.
        for i in range(6):
            tiered.put(f"scratch-{i}", bytes([i]) * 3000)
        for i in range(6):
            tiered.delete(f"scratch-{i}")
        tiered.flush()

        def crash_after_swap(stage):
            if stage == "swap":
                raise _CompactionCrash(stage)

        with pytest.raises(_CompactionCrash):
            tiered.compact_packs(interrupt=crash_after_swap)
        assert tiered.compact_packs()["segments_compacted"] >= 1

        # Serve the epoch under the 5% read faults, against fault-free.
        for vid in plan.graphs:
            engine._materializer(vid).release_all()
        reference = PreprocessingEngine(plan, dataset, num_workers=0)
        for (task, epoch, iteration) in sorted(plan.batches):
            batch, _ = engine.get_batch(task, epoch, iteration)
            expected, _ = reference.get_batch(task, epoch, iteration)
            assert np.array_equal(batch, expected), (task, epoch, iteration)

        # The crashed job's leaves were never pre-materialized; the demand
        # path wrote each straight into its only batch (no dead store), so
        # the rest of the window has no use for them and the checkpoint
        # does not list them.
        consumed = engine.consumed_keys()
        assert consumed and not any(key in tiered for key in consumed)
        manifest_path = write_checkpoint(
            tmp_path, plan, pruning, seed=5, consumed=consumed
        )

    assert engine.stats.worker_crashes == 1
    assert engine.stats.batches_served == len(plan.batches)
    fired = schedule.fire_counts()
    assert fired["remote.put:tier-down"] == 8
    # The storage failure ledger made it up into the engine stats.
    storage = engine.stats.traffic_report()["storage"]
    assert storage["remote_dead_letters"] == 2
    assert storage["repairs"] == 2
    tiered.close()

    # -- the entire hot tier dies; recovery is by copy, not recompute ----
    shutil.rmtree(tmp_path / "hot")
    fresh = TieredStore(
        LocalStore(10**8, root=tmp_path / "hot", pack_threshold=1 << 20),
        RemoteStore(10**9, root=tmp_path / "warm", retry=FAST_RETRY),
    )
    report = recover(read_checkpoint(manifest_path), fresh)
    frontier_keys = {k for vid in plan.graphs for k in pruning.frontier_of(vid)}
    assert report.planned_objects == len(frontier_keys - consumed)
    assert report.missing_count == 0  # k=2 survived the tier loss
    assert fresh.tier_stats.replica_losses == 0

    fresh_cache = CacheManager(fresh)
    fresh_cache.register_plan(plan, pruning)
    engine2 = PreprocessingEngine(
        plan, dataset, pruning=pruning, cache=fresh_cache, num_workers=0
    )
    reference = PreprocessingEngine(plan, dataset, num_workers=0)
    for (task, epoch, iteration) in sorted(plan.batches):
        batch, _ = engine2.get_batch(task, epoch, iteration)
        expected, _ = reference.get_batch(task, epoch, iteration)
        assert np.array_equal(batch, expected), (task, epoch, iteration)
    # Everything the window still needed came back by copy: re-serving the
    # whole epoch decodes only for the leaves that had already been consumed.
    redecoded = {
        vid for vid in plan.graphs if engine2._materializer(vid).stats.frames_decoded
    }
    assert redecoded == {key.split(":")[1] for key in consumed}


def test_fused_engine_under_faults_matches_unfused_fault_free_run(dataset, plan):
    """Operator fusion must not weaken the capstone guarantee: a *fused*
    engine under the capstone fault schedule still produces batches
    byte-identical to the fault-free step-by-step oracle.
    """
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
            FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
        ],
    )
    store = LocalStore(10**8)
    faulty_store = FaultyStore(store, schedule)
    cache = CacheManager(faulty_store)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(
        plan,
        dataset,
        pruning=pruning,
        cache=cache,
        num_workers=2,
        fault_schedule=schedule,
        retry_policy=FAST_RETRY,
    )
    with engine:
        engine.drain()
        victim = sorted(store.keys())[0]
        assert faulty_store.corrupt_at_rest(victim, mode="bit-flip")
        for vid in plan.graphs:
            engine._materializer(vid).release_all()

        reference = ReferenceMaterializer(plan, dataset)
        for (task, epoch, iteration) in sorted(plan.batches):
            batch, _ = engine.get_batch(task, epoch, iteration)
            expected = reference.get_batch(task, epoch, iteration)
            assert np.array_equal(batch, expected), (task, epoch, iteration)

    assert engine.stats.batches_served == len(plan.batches)
    assert engine.stats.worker_crashes == 1
    assert engine.stats.traffic.fused_segments > 0


def test_fused_engine_under_faults_is_sanitizer_clean(dataset, plan):
    """The capstone scenario again, with runtime sanitizers forced on:
    the fused epoch under faults must finish with zero lock-order
    inversions, zero write-after-share hits, and zero raw-frame leaks.
    """
    from repro.analysis.sanitizers import reset_sanitizers, set_sanitizers

    set_sanitizers(True)
    reset_sanitizers()
    try:
        schedule = FaultSchedule(
            seed=SEED,
            specs=[
                FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
                FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
                FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
            ],
        )
        store = LocalStore(10**8)
        faulty_store = FaultyStore(store, schedule)
        cache = CacheManager(faulty_store)
        pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
        cache.register_plan(plan, pruning)
        engine = PreprocessingEngine(
            plan,
            dataset,
            pruning=pruning,
            cache=cache,
            num_workers=2,
            fault_schedule=schedule,
            retry_policy=FAST_RETRY,
        )
        with engine:
            engine.drain()
            victim = sorted(store.keys())[0]
            assert faulty_store.corrupt_at_rest(victim, mode="bit-flip")
            for vid in plan.graphs:
                engine._materializer(vid).release_all()
            for key in sorted(plan.batches):
                engine.get_batch(*key)
        report = engine.stats.sanitizer
        assert report is not None
        assert report.clean(), report.as_dict()
        assert engine.stats.batches_served == len(plan.batches)
    finally:
        reset_sanitizers()
        set_sanitizers(None)
