"""Packed blob segments: format, write-behind, torn tails, recovery.

The pack layer's contract: sub-threshold blobs cost one batched append
instead of three file creations; reads are zero-copy views; a torn tail
(crash mid-append) is quarantined *record-wise* at scan with every
earlier record in the segment surviving; content rot is caught by the
per-record CRC at read time, exactly like the per-object layout.
"""

import os
import time
import zlib

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
    SITE_PACK_READ,
    SITE_STORE_FLUSH,
    FaultSchedule,
    FaultSpec,
    FaultyStore,
)
from repro.storage.local import LocalStore
from repro.storage.objectstore import (
    CorruptObjectError,
    ObjectStore,
    TransientStorageError,
)
from repro.storage.packs import (
    MAGIC,
    PackManager,
    TOMBSTONE_CRC,
    encode_record,
    record_length,
)

SEED = int(os.environ.get("FAULT_SEED", "0"))


def crc(data: bytes) -> int:
    return zlib.crc32(data)


def make_config(tag="t"):
    return load_task_config({
        "dataset": {
            "tag": tag,
            "video_dataset_path": "/d",
            "sampling": {
                "videos_per_batch": 2,
                "frames_per_video": 4,
                "frame_stride": 2,
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


# -- record format -----------------------------------------------------------


def test_record_encoding_roundtrip():
    record = encode_record("k", b"payload", crc(b"payload"))
    assert record.startswith(MAGIC)
    assert len(record) == record_length("k", b"payload")


def test_tombstone_checksum_is_unforgeable():
    # crc32(b"") == 0, so a genuine empty payload can never collide with
    # the tombstone stamp.
    assert crc(b"") == 0
    assert TOMBSTONE_CRC != 0


# -- PackManager -------------------------------------------------------------


def test_append_read_roundtrip_inline(tmp_path):
    packs = PackManager(tmp_path)
    loc = packs.append("a", b"hello", crc(b"hello"))
    assert bytes(packs.read(loc)) == b"hello"
    assert packs.segment_path(loc.segment).exists()
    assert packs.pending_bytes() == 0  # inline mode flushes per append


def test_segment_rolls_when_full(tmp_path):
    packs = PackManager(tmp_path, segment_bytes=64)
    locs = [packs.append(f"k{i}", bytes(40), crc(bytes(40))) for i in range(4)]
    assert len({loc.segment for loc in locs}) == 4  # each record overflows
    for loc in locs:
        assert bytes(packs.read(loc)) == bytes(40)


def test_write_behind_batches_appends(tmp_path):
    ops = []
    packs = PackManager(
        tmp_path, write_behind=True, flush_interval_s=3600, fs_note=ops.append
    )
    try:
        locs = [
            packs.append(f"k{i}", f"v{i}".encode(), crc(f"v{i}".encode()))
            for i in range(20)
        ]
        # Nothing durable yet; every record still serves from memory.
        assert ops == []
        assert packs.pending_bytes() > 0
        assert bytes(packs.read(locs[7])) == b"v7"
        assert packs.flush() == 20
        # 20 records: one file creation + one write, total.
        assert ops == ["create", "write"]
        assert packs.stats.flush_batches == 1
        assert packs.stats.records_flushed == 20
        for i, loc in enumerate(locs):
            assert bytes(packs.read(loc)) == f"v{i}".encode()
    finally:
        packs.close()


def test_close_drains_staged_records(tmp_path):
    packs = PackManager(tmp_path, write_behind=True, flush_interval_s=3600)
    loc = packs.append("a", b"x", crc(b"x"))
    packs.close()
    assert packs.pending_bytes() == 0
    fresh = PackManager(tmp_path)
    records, torn = fresh.scan()
    assert torn == []
    assert [r.key for r in records] == ["a"]
    assert bytes(fresh.read(records[0].location)) == b"x"
    del loc


def test_scan_rebuilds_index_and_appends_continue(tmp_path):
    packs = PackManager(tmp_path)
    for i in range(5):
        packs.append(f"k{i}", f"v{i}".encode(), crc(f"v{i}".encode()))
    packs.close()

    fresh = PackManager(tmp_path)
    records, torn = fresh.scan()
    assert torn == []
    assert [r.key for r in records] == [f"k{i}" for i in range(5)]
    # New appends land after the scanned data, on a fresh segment id.
    loc = fresh.append("new", b"new", crc(b"new"))
    assert bytes(fresh.read(loc)) == b"new"
    records2, _ = fresh.scan()
    assert [r.key for r in records2][-1] == "new"


def test_torn_tail_quarantined_record_wise(tmp_path):
    packs = PackManager(tmp_path)
    for i in range(5):
        packs.append(f"k{i}", f"value-{i}".encode() * 4, crc(f"value-{i}".encode() * 4))
    last = packs.append("last", b"Z" * 64, crc(b"Z" * 64))
    packs.close()

    # Crash mid-append: the tail record loses its final bytes.
    path = packs.segment_path(last.segment)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])

    fresh = PackManager(tmp_path)
    records, torn = fresh.scan()
    # Exactly the damaged record is reported — identity intact (the tear
    # hit the payload, not the key) — and every earlier record survives.
    assert [t.key for t in torn] == ["last"]
    assert [r.key for r in records] == [f"k{i}" for i in range(5)]
    assert fresh.stats.torn_records == 1
    # The file was truncated back to its last whole record.
    assert path.stat().st_size == last.record_offset
    for record in records:
        assert bytes(fresh.read(record.location)).startswith(b"value-")


def test_tear_into_header_loses_identity(tmp_path):
    packs = PackManager(tmp_path)
    packs.append("keep", b"ok", crc(b"ok"))
    loc = packs.append("gone", b"data", crc(b"data"))
    packs.close()
    path = packs.segment_path(loc.segment)
    raw = path.read_bytes()
    # Keep only 3 bytes of the second record's header.
    path.write_bytes(raw[: loc.record_offset + 3])

    fresh = PackManager(tmp_path)
    records, torn = fresh.scan()
    assert [r.key for r in records] == ["keep"]
    assert len(torn) == 1
    assert torn[0].key is None  # identity unrecoverable


def test_tombstones_are_flagged_by_scan(tmp_path):
    packs = PackManager(tmp_path)
    packs.append("a", b"x", crc(b"x"))
    packs.append_tombstone("a")
    packs.close()
    fresh = PackManager(tmp_path)
    records, _ = fresh.scan()
    assert [r.key for r in records] == ["a", "a"]
    assert not records[0].tombstone
    assert records[1].tombstone


def test_fully_dead_sealed_segment_is_unlinked(tmp_path):
    packs = PackManager(tmp_path, segment_bytes=32)
    loc_a = packs.append("a", b"A" * 24, crc(b"A" * 24))
    loc_b = packs.append("b", b"B" * 24, crc(b"B" * 24))  # rolls a segment
    assert loc_a.segment != loc_b.segment
    path_a = packs.segment_path(loc_a.segment)
    assert path_a.exists()
    packs.delete(loc_a)
    assert not path_a.exists()
    assert packs.stats.segments_removed == 1
    assert bytes(packs.read(loc_b)) == b"B" * 24


def test_overwrite_payload_preserves_framing(tmp_path):
    packs = PackManager(tmp_path)
    packs.append("a", b"first", crc(b"first"))
    loc = packs.append("b", b"second", crc(b"second"))
    packs.append("c", b"third", crc(b"third"))
    assert packs.overwrite_payload(loc, b"XY")
    mutated = bytes(packs.read(loc))
    assert len(mutated) == len(b"second")  # padded to the payload region
    assert mutated.startswith(b"XY")
    # Framing intact: a rescan still walks all three records cleanly.
    records, torn = packs.scan()
    assert torn == []
    assert [r.key for r in records] == ["a", "b", "c"]


# -- ObjectStore integration -------------------------------------------------


def packed_store(tmp_path, threshold=1 << 20, **kwargs):
    return LocalStore(
        10**8, root=tmp_path / "cache", pack_threshold=threshold, **kwargs
    )


def test_store_routes_small_blobs_to_packs(tmp_path):
    store = packed_store(tmp_path, threshold=100)
    store.put("small", b"s" * 50)
    store.put("big", b"b" * 500)
    assert store.get("small") == b"s" * 50
    assert store.get("big") == b"b" * 500
    info = store.pack_info()
    assert info is not None
    assert info["packed_objects"] == 1
    # The big blob took the legacy per-object path (blob + sidecars).
    blob_files = [
        p
        for p in (tmp_path / "cache").rglob("*")
        if p.is_file() and "packs" not in p.parts
    ]
    assert len(blob_files) == 3


def test_store_get_view_is_zero_copy_and_verified(tmp_path):
    store = packed_store(tmp_path)
    payload = bytes(range(256))
    store.put("k", payload)
    store.flush()
    view = store.get_view("k")
    assert isinstance(view, memoryview)
    assert bytes(view) == payload
    # decode path consumes views directly
    arr = np.frombuffer(view, dtype=np.uint8)
    assert arr.sum() == sum(range(256))


def test_packed_fs_ops_at_least_5x_fewer_than_legacy(tmp_path):
    legacy = LocalStore(10**8, root=tmp_path / "legacy")
    packed = packed_store(tmp_path, write_behind=True)
    try:
        for i in range(20):
            payload = f"blob-{i}".encode() * 10
            legacy.put(f"k{i}", payload)
            packed.put(f"k{i}", payload)
        packed.flush()
        assert packed.stats.fs_ops * 5 <= legacy.stats.fs_ops
    finally:
        packed.close()


def test_deleted_packed_key_stays_deleted_after_restart(tmp_path):
    store = packed_store(tmp_path)
    for i in range(5):
        store.put(f"k{i}", f"v{i}".encode())
    store.delete("k2")
    store.close()

    fresh = packed_store(tmp_path)
    fresh.scan()
    assert "k2" not in fresh
    assert sorted(fresh.keys()) == ["k0", "k1", "k3", "k4"]
    assert fresh.get("k3") == b"v3"


def test_latest_duplicate_wins_after_restart(tmp_path):
    store = packed_store(tmp_path)
    store.put("k", b"old")
    store.put("k", b"new")
    store.close()
    fresh = packed_store(tmp_path)
    fresh.scan()
    assert fresh.get("k") == b"new"


def test_packed_bit_rot_caught_at_read_not_scan(tmp_path):
    store = packed_store(tmp_path)
    store.put("victim", b"pristine-bytes")
    store.put("bystander", b"fine")
    vandal = FaultyStore(store, FaultSchedule(seed=SEED))
    assert vandal.corrupt_at_rest("victim", mode="bit-flip")
    # Content rot is invisible to the structural scan...
    store.scan()
    assert "victim" in store
    # ...and caught by the CRC at read time.
    with pytest.raises(CorruptObjectError):
        store.get("victim")
    assert "victim" in store.quarantined
    assert "victim" not in store
    assert store.get("bystander") == b"fine"


def test_store_scan_quarantines_torn_pack_tail(tmp_path):
    store = packed_store(tmp_path)
    for i in range(4):
        store.put(f"k{i}", f"value-{i}".encode() * 8)
    store.put("tail", b"T" * 64)
    store.close()
    seg_files = sorted((tmp_path / "cache" / "packs").glob("seg-*.pack"))
    assert seg_files
    raw = seg_files[-1].read_bytes()
    seg_files[-1].write_bytes(raw[:-7])

    fresh = packed_store(tmp_path)
    fresh.scan()
    assert "tail" in fresh.quarantined
    assert "tail" not in fresh
    assert sorted(fresh.keys()) == [f"k{i}" for i in range(4)]
    assert fresh.stats.integrity_failures >= 1


def counting_flushes(packs):
    """Count the calls the flusher makes to ``packs.flush``."""
    calls = []
    flush = packs.flush

    def counted():
        calls.append(1)
        return flush()

    packs.flush = counted
    return calls


def wait_until_durable(packs, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while packs.pending_bytes() and time.monotonic() < deadline:
        time.sleep(0.002)
    return packs.pending_bytes() == 0


def test_idle_write_behind_flusher_sleeps_until_an_append(tmp_path):
    packs = PackManager(tmp_path, write_behind=True, flush_interval_s=0.002)
    try:
        calls = counting_flushes(packs)
        time.sleep(0.05)
        assert calls == []  # polling every interval would be ~25 calls
        packs.append("a", b"x", crc(b"x"))
        assert wait_until_durable(packs)
        assert len(calls) >= 1 and packs.stats.records_flushed == 1
    finally:
        packs.close()
    assert [r.key for r in PackManager(tmp_path).scan()[0]] == ["a"]


# -- injected fault sites ----------------------------------------------------


@pytest.mark.faults
def test_flush_transient_fault_is_absorbed_and_retried(tmp_path):
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_FLUSH, at_count=1)
        ],
    )
    packs = PackManager(tmp_path, fault_schedule=schedule)
    loc = packs.append("a", b"x", crc(b"x"))  # first flush fails, stays staged
    assert packs.stats.flush_retries == 1
    assert bytes(packs.read(loc)) == b"x"  # still served from memory
    assert packs.flush() == 1  # retry lands
    assert bytes(packs.read(loc)) == b"x"
    records, torn = packs.scan()
    assert torn == []
    assert [r.key for r in records] == ["a"]


@pytest.mark.faults
def test_write_behind_retries_a_failed_flush_without_a_new_append(tmp_path):
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_FLUSH, at_count=1)
        ],
    )
    packs = PackManager(
        tmp_path, write_behind=True, flush_interval_s=0.002, fault_schedule=schedule
    )
    try:
        packs.append("a", b"x", crc(b"x"))  # the flusher's first flush fails
        assert wait_until_durable(packs)  # ... and its retry lands, unprompted
        assert packs.stats.flush_retries == 1
        assert packs.stats.records_flushed == 1
        records, torn = PackManager(tmp_path).scan()
        assert torn == [] and [r.key for r in records] == ["a"]
    finally:
        packs.close()


@pytest.mark.faults
def test_flush_torn_write_tears_batch_prefix(tmp_path):
    schedule = FaultSchedule(
        seed=SEED,
        specs=[
            FaultSpec(
                kind="torn-write",
                site=SITE_STORE_FLUSH,
                at_count=1,
                tear_fraction=0.5,
            )
        ],
    )
    packs = PackManager(
        tmp_path, write_behind=True, flush_interval_s=3600, fault_schedule=schedule
    )
    for i in range(8):
        packs.append(f"k{i}", f"payload-{i}".encode() * 4, crc(f"payload-{i}".encode() * 4))
    packs.flush()  # torn: only a prefix of the batch reaches the device
    packs._stop.set()

    fresh = PackManager(tmp_path)
    records, torn = fresh.scan()
    # A strict prefix of the batch survives whole; at most one record is
    # structurally torn; everything else never reached the device.
    assert 0 < len(records) < 8
    assert len(torn) <= 1
    assert [r.key for r in records] == [f"k{i}" for i in range(len(records))]


@pytest.mark.faults
def test_pack_read_transient_fault_propagates(tmp_path):
    schedule = FaultSchedule(
        seed=SEED,
        specs=[FaultSpec(kind="transient-error", site=SITE_PACK_READ, at_count=1)],
    )
    packs = PackManager(tmp_path, fault_schedule=schedule)
    loc = packs.append("a", b"x", crc(b"x"))
    with pytest.raises(TransientStorageError):
        packs.read(loc)
    assert bytes(packs.read(loc)) == b"x"  # next read is clean


@pytest.mark.faults
def test_pack_read_bit_flip_caught_by_store_crc(tmp_path):
    schedule = FaultSchedule(
        seed=SEED,
        specs=[FaultSpec(kind="bit-flip", site=SITE_PACK_READ, at_count=1)],
    )
    store = packed_store(tmp_path, fault_schedule=schedule)
    store.put("k", b"precious")
    store.flush()
    with pytest.raises(CorruptObjectError):
        store.get("k")
    assert "k" in store.quarantined


# -- crash/recovery soak over a packed store ---------------------------------


@pytest.mark.faults
def test_packed_crash_recover_soak(dataset, tmp_path):
    """S5.5 over packs: materialize to packed segments, crash with a torn
    tail record, and recover() must recompute exactly the lost objects."""
    cfg = make_config()
    plan = build_plan_window([cfg], dataset, 0, 2, seed=5)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    store = LocalStore(
        10**8, root=tmp_path / "cache", pack_threshold=1 << 20, write_behind=True
    )
    cache = CacheManager(store)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(plan, dataset, pruning=pruning, cache=cache, num_workers=0)
    engine.drain()
    manifest_path = write_checkpoint(tmp_path, plan, pruning, seed=5)
    reference = {key: engine.get_batch(*key)[0] for key in sorted(plan.batches)}
    store.close()
    assert store.pack_info()["packed_objects"] == len(list(store.keys()))

    # -- crash: tear the tail record of the last segment -----------------
    seg_files = sorted((tmp_path / "cache" / "packs").glob("seg-*.pack"))
    assert seg_files
    raw = seg_files[-1].read_bytes()
    seg_files[-1].write_bytes(raw[:-9])

    # -- restart over the same directory ---------------------------------
    fresh_store = LocalStore(10**8, root=tmp_path / "cache", pack_threshold=1 << 20)
    # Exactly one record was structurally damaged, quarantined record-wise
    # by the constructor's scan (identity intact: the tear hit payload).
    assert len(fresh_store.quarantined) == 1
    report = recover(read_checkpoint(manifest_path), fresh_store)
    assert report.missing_count == 1
    (torn_key,) = [k for ks in report.missing.values() for k in ks]
    assert fresh_store.quarantined == [torn_key]
    assert report.recovered_objects == report.planned_objects - 1
    assert report.corrupt_keys == []  # no content rot, only the tear

    # -- re-materialize: exactly the missing object is recomputed --------
    fresh_cache = CacheManager(fresh_store)
    fresh_cache.register_plan(plan, pruning)
    engine2 = PreprocessingEngine(
        plan, dataset, pruning=pruning, cache=fresh_cache, num_workers=0
    )
    engine2.drain()
    assert fresh_store.stats.puts == report.missing_count
    planned = {key for vid in plan.graphs for key in pruning.frontier_of(vid)}
    assert set(fresh_store.keys()) == planned

    # -- and the recovered window serves identical batches ---------------
    for key in sorted(plan.batches):
        assert np.array_equal(engine2.get_batch(*key)[0], reference[key]), key
    fresh_store.close()


@pytest.mark.faults
def test_packed_prefetch_differential(dataset, tmp_path):
    """Prefetch over a write-behind packed store equals the plain run."""
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    store = LocalStore(
        10**8, root=tmp_path / "cache", pack_threshold=1 << 20, write_behind=True
    )
    cache = CacheManager(store)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(
        plan, dataset, pruning=pruning, cache=cache, num_workers=2,
        seed=SEED, prefetch_depth=2, prefetch_workers=2,
    )
    reference = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        engine.drain()
        for key in sorted(plan.batches):
            batch, _ = engine.get_batch(*key)
            expected, _ = reference.get_batch(*key)
            assert np.array_equal(batch, expected), key
    store.close()
