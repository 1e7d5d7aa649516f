"""Runtime sanitizers: lock-order monitor, buffer sentinels, leak
checks, read-only anchor-cache entries, and the engine-level report."""

import numpy as np
import pytest

from repro.analysis.locks import (
    LockOrderError,
    LockOrderMonitor,
    make_lock,
    make_rlock,
    sanitizers_enabled,
    set_sanitizers,
)
from repro.analysis.sanitizers import (
    BufferSanitizer,
    buffer_sanitizer,
    collect_report,
    reset_sanitizers,
)
from repro.codec.incremental import AnchorCache
from repro.core import PreprocessingEngine, VideoMaterializer, build_plan_window
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.storage.objectstore import ObjectStore

from tests.test_faults import make_config


@pytest.fixture
def sanitized():
    """Force sanitizers on with clean state; restore env control after."""
    set_sanitizers(True)
    reset_sanitizers()
    yield
    reset_sanitizers()
    set_sanitizers(None)


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=4, min_frames=30, max_frames=40, width=32,
                    height=24, seed=3)
    )


def frame(seed=0, shape=(8, 6, 3)):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


# -- enable/disable plumbing --------------------------------------------------


def test_set_sanitizers_overrides_env(monkeypatch):
    monkeypatch.delenv("SAND_SANITIZERS", raising=False)
    try:
        assert not sanitizers_enabled()
        assert buffer_sanitizer() is None
        set_sanitizers(True)
        assert sanitizers_enabled()
        assert buffer_sanitizer() is not None
        set_sanitizers(False)
        monkeypatch.setenv("SAND_SANITIZERS", "1")
        assert not sanitizers_enabled()  # override beats env
    finally:
        set_sanitizers(None)


def test_disabled_locks_are_plain_threading_primitives():
    set_sanitizers(False)
    try:
        lock = make_lock("plain")
        assert not hasattr(lock, "name")
        with lock:
            pass
    finally:
        set_sanitizers(None)


# -- lock-order monitor (private monitors: no global state involved) ----------


def test_lock_order_inversion_raises():
    monitor = LockOrderMonitor()
    a = make_lock("a", monitor)
    b = make_lock("b", monitor)
    with a:
        with b:
            pass
    b.acquire()
    with pytest.raises(LockOrderError, match="inversion"):
        a.acquire()
    b.release()
    assert monitor.report()  # violation recorded
    # the inner lock was released on the failed acquire: reusable
    with a:
        pass


def test_consistent_order_is_clean():
    monitor = LockOrderMonitor()
    a = make_lock("a", monitor)
    b = make_lock("b", monitor)
    for _ in range(3):
        with a:
            with b:
                pass
    assert monitor.report() == []
    assert monitor.edges() == {"a": {"b"}}


def test_transitive_inversion_detected():
    monitor = LockOrderMonitor()
    a, b, c = (make_lock(n, monitor) for n in "abc")
    with a:
        with b:
            pass
    with b:
        with c:
            pass
    c.acquire()
    with pytest.raises(LockOrderError):
        a.acquire()  # a reaches c through b
    c.release()


def test_reentrant_rlock_is_not_a_violation():
    monitor = LockOrderMonitor()
    r = make_rlock("r", monitor)
    with r:
        with r:
            pass
    assert monitor.report() == []


def test_same_name_different_instances_flagged():
    monitor = LockOrderMonitor()
    first = make_lock("shard", monitor)
    second = make_lock("shard", monitor)
    first.acquire()
    with pytest.raises(LockOrderError):
        second.acquire()
    first.release()


def test_non_strict_monitor_records_without_raising():
    monitor = LockOrderMonitor(strict=False)
    a = make_lock("a", monitor)
    b = make_lock("b", monitor)
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    assert len(monitor.report()) == 1


# -- buffer sanitizer ---------------------------------------------------------


def test_guard_and_verify_detects_mutation():
    sanitizer = BufferSanitizer()
    shared = frame(1)
    sanitizer.guard(shared, "unit buffer")
    assert sanitizer.verify() == []
    shared[0, 0, 0] ^= 0xFF
    violations = sanitizer.verify()
    assert violations and "write-after-share" in violations[0]
    # consumed: not re-reported on the next verify, but kept in report()
    assert sanitizer.verify() == []
    assert sanitizer.report()[0] == violations


def test_guard_deduplicates_by_identity():
    sanitizer = BufferSanitizer()
    shared = frame(2)
    sanitizer.guard(shared, "x")
    sanitizer.guard(shared, "x")
    assert sanitizer.guarded == 1


# -- anchor cache: read-only entries (unconditional, satellite 2) -------------


def test_anchor_cache_entries_are_read_only_without_sanitizers():
    set_sanitizers(False)
    try:
        cache = AnchorCache(budget_bytes=10**6)
        pixels = frame(3)
        assert pixels.flags.writeable
        assert cache.put("v", 0, pixels)
        assert not pixels.flags.writeable  # frozen in place
        hit = cache.get("v", 0)
        assert hit is not None
        with pytest.raises(ValueError):
            hit[0, 0, 0] = 1
        for view in cache.snapshot("v").values():
            assert not view.flags.writeable
    finally:
        set_sanitizers(None)


def test_write_through_preexisting_alias_is_caught(sanitized):
    cache = AnchorCache(budget_bytes=10**6)
    base = frame(4)
    cache.put("v", 0, base[:])  # the view is frozen; base stays writable
    base[0, 0, 0] ^= 0xFF
    report = collect_report()
    assert report.write_after_share
    assert "anchor-cache entry v[0]" in report.write_after_share[0]
    assert not report.clean()


# -- materializer leak checks -------------------------------------------------


def build_materializer(dataset):
    window = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    video_id = sorted(window.graphs)[0]
    graph = window.graphs[video_id]
    return VideoMaterializer(
        graph,
        dataset.get_bytes(video_id),
        cache=ObjectStore(10**8),
        frontier={leaf.key for leaf in graph.leaves()},
    )


def test_release_raw_frames_clean_under_sanitizers(sanitized, dataset):
    materializer = build_materializer(dataset)
    materializer.materialize_frontier()
    assert materializer.release_raw_frames() > 0
    report = collect_report()
    assert report.raw_frame_leaks == []


def test_accounting_drift_reported_as_leak(sanitized, dataset):
    materializer = build_materializer(dataset)
    materializer.materialize_frontier()
    materializer.stats.bytes_in_memory += 123  # manufactured drift
    materializer.release_raw_frames()
    report = collect_report()
    assert any("accounting drift" in leak for leak in report.raw_frame_leaks)


# -- engine-level report ------------------------------------------------------


def test_engine_epoch_clean_under_sanitizers(sanitized, dataset):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=2)
    with engine:
        engine.drain()
        for key in sorted(plan.batches):
            engine.get_batch(*key)
    report = engine.stats.sanitizer
    assert report is not None
    assert report.clean(), report.as_dict()


def test_engine_report_is_none_when_disabled(dataset, monkeypatch):
    monkeypatch.delenv("SAND_SANITIZERS", raising=False)
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    for key in sorted(plan.batches):
        engine.get_batch(*key)
    engine.stop()
    assert engine.stats.sanitizer is None
    assert engine.sanitizer_report() is None


# -- event-loop stall monitor -------------------------------------------------


def test_stall_monitor_flags_injected_blocking_call(sanitized):
    import asyncio
    import time

    from repro.analysis.sanitizers import EventLoopStallMonitor

    async def main():
        loop = asyncio.get_running_loop()
        monitor = EventLoopStallMonitor(
            loop, threshold=0.03, interval=0.01, label="test loop"
        )
        monitor.start()
        await asyncio.sleep(0.03)  # heartbeats land on time while idle
        time.sleep(0.1)  # the injected blocking call
        await asyncio.sleep(0.05)  # let the delayed heartbeat fire
        monitor.stop()
        return monitor.stalls_seen

    assert asyncio.run(main()) >= 1
    report = collect_report()
    assert report.event_loop_stalls, report.as_dict()
    assert "stall" in report.event_loop_stalls[0]
    assert not report.clean()


def test_stall_monitor_quiet_on_well_behaved_loop(sanitized):
    import asyncio

    from repro.analysis.sanitizers import EventLoopStallMonitor

    async def main():
        loop = asyncio.get_running_loop()
        monitor = EventLoopStallMonitor(loop, threshold=0.2, interval=0.01)
        monitor.start()
        for _ in range(5):
            await asyncio.sleep(0.01)  # yields: heartbeats run on time
        monitor.stop()

    asyncio.run(main())
    assert collect_report().event_loop_stalls == []


def test_sanitized_dataplane_epoch_reports_no_stalls(sanitized, dataset, tmp_path):
    from repro.core.dataplane import AsyncBatchServer, BatchSocketClient

    plan = build_plan_window([make_config()], dataset, 0, 2, seed=7)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        server = AsyncBatchServer(engine, unix_path=str(tmp_path / "san.sock"))
        server.start_background()
        try:
            with BatchSocketClient(server.address) as client:
                for key in sorted(plan.batches):
                    client.get_batch(*key)
        finally:
            server.shutdown()
    report = engine.stats.sanitizer
    assert report is not None
    # Engine work runs on the executor, so the serving loop never
    # blocks long enough to trip the watchdog.
    assert report.event_loop_stalls == [], report.as_dict()
    assert report.clean(), report.as_dict()
