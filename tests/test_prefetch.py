"""Demand-path pipelining tests (S5.4, Fig 11).

The prefetcher's contract is strict: batches with prefetch on are
byte-identical to prefetch off — across seeds and under the capstone
fault schedule.  The unit tests drive the
:class:`BatchPrefetcher` against a fake source; the differentials run
the real engine both ways.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.analysis.sanitizers import collect_report, reset_sanitizers, set_sanitizers
from repro.core import (
    CacheManager,
    PreprocessingEngine,
    SandService,
    build_plan_window,
    load_task_config,
    prune_plan,
)
from repro.core.prefetch import BatchPrefetcher, PrefetchStats
from repro.core.scheduling import WorkClass, WorkGate
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.faults import (
    SITE_ENGINE_JOB,
    SITE_STORE_GET,
    SITE_STORE_PUT,
    FaultSchedule,
    FaultSpec,
    FaultyStore,
)
from repro.storage import RetryPolicy
from repro.storage.local import LocalStore

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

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


# -- WorkGate ---------------------------------------------------------------


def test_work_gate_priority_classes():
    gate = WorkGate()
    assert gate.clear_above(WorkClass.PREMATERIALIZE)
    gate.enter(WorkClass.DEMAND)
    assert not gate.clear_above(WorkClass.PREFETCH)
    assert not gate.clear_above(WorkClass.PREMATERIALIZE)
    assert gate.clear_above(WorkClass.DEMAND)  # nothing outranks demand
    gate.exit(WorkClass.DEMAND)
    gate.enter(WorkClass.PREFETCH)
    assert gate.clear_above(WorkClass.PREFETCH)
    assert not gate.clear_above(WorkClass.PREMATERIALIZE)
    gate.exit(WorkClass.PREFETCH)
    assert gate.clear_above(WorkClass.PREMATERIALIZE)


def test_work_gate_exit_never_goes_negative():
    gate = WorkGate()
    gate.exit(WorkClass.DEMAND)
    assert gate.running(WorkClass.DEMAND) == 0
    gate.enter(WorkClass.DEMAND)
    assert gate.running(WorkClass.DEMAND) == 1


def test_work_gate_reports_an_exit_nobody_entered(sanitized):
    gate = WorkGate()
    gate.enter(WorkClass.PREFETCH)
    gate.exit(WorkClass.PREFETCH)
    assert collect_report().clean()
    gate.exit(WorkClass.PREFETCH)  # never raises on the serving path ...
    leaks = collect_report().raw_frame_leaks
    assert len(leaks) == 1 and "exit(PREFETCH) without a matching enter" in leaks[0]
    assert gate.running(WorkClass.PREFETCH) == 0  # ... and never goes negative


# -- BatchPrefetcher against a fake source ----------------------------------


class FakeSource:
    """Deterministic stand-in for the engine's prefetch protocol."""

    def __init__(self, orders, allowed=True):
        self.orders = orders
        self.allowed = allowed
        self.fail = set()
        self.gate = None  # optional Event: assembly blocks until set
        self.assembled = []
        self._lock = threading.Lock()

    def prefetch_tasks(self):
        return list(self.orders)

    def prefetch_order(self, task):
        return list(self.orders[task])

    def prefetch_allowed(self):
        return self.allowed

    def assemble_speculative(self, task, epoch, iteration):
        if self.gate is not None:
            self.gate.wait(5.0)
        if (task, epoch, iteration) in self.fail:
            raise RuntimeError(f"injected assembly failure {(task, epoch, iteration)}")
        with self._lock:
            self.assembled.append((task, epoch, iteration))
        batch = np.full((2, 3), epoch * 100 + iteration, dtype=np.int64)
        return batch, {"task": task, "epoch": epoch, "iteration": iteration}


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def test_prefetcher_validates_arguments():
    source = FakeSource({"t": [(0, 0)]})
    with pytest.raises(ValueError):
        BatchPrefetcher(source, depth=0)
    with pytest.raises(ValueError):
        BatchPrefetcher(source, workers=0)


def test_unknown_task_or_batch_is_a_miss():
    pf = BatchPrefetcher(FakeSource({"t": [(0, 0)]}))
    assert pf.take("nope", 0, 0) is None
    assert pf.take("t", 9, 9) is None
    assert pf.stats.misses == 2
    assert pf.stats.hit_rate == 0.0


def test_prefetch_hit_hands_over_the_assembled_batch():
    source = FakeSource({"t": [(0, 0), (0, 1), (0, 2)]})
    pf = BatchPrefetcher(source, depth=2, workers=1)
    pf.start()
    try:
        assert wait_until(lambda: pf.queue_depth() >= 2)
        result = pf.take("t", 0, 0)
        assert result is not None
        batch, metadata = result
        assert np.array_equal(batch, np.full((2, 3), 0, dtype=np.int64))
        assert metadata["iteration"] == 0
        assert pf.stats.hits == 1
        assert pf.stats.stall_ns_saved > 0
    finally:
        pf.stop()


def test_backpressure_stops_claims_entirely():
    source = FakeSource({"t": [(0, 0), (0, 1)]}, allowed=False)
    pf = BatchPrefetcher(source, depth=2, workers=1)
    pf.start()
    try:
        time.sleep(0.05)
        assert source.assembled == []
        assert pf.queue_depth() == 0
        # Re-allowing resumes speculation without a restart.
        source.allowed = True
        assert wait_until(lambda: pf.queue_depth() >= 1)
    finally:
        pf.stop()


def test_queue_is_bounded_by_depth():
    source = FakeSource({"t": [(0, i) for i in range(10)]})
    pf = BatchPrefetcher(source, depth=3, workers=2)
    pf.start()
    try:
        assert wait_until(lambda: pf.queue_depth() >= 3)
        time.sleep(0.02)  # would overfill here if the window were unbounded
        assert pf.queue_depth() <= 3
        assert pf.stats.queue_depth_high_water <= 3
        assert pf.queued_bytes() == 3 * 2 * 3 * 8
    finally:
        pf.stop()


def test_failed_assembly_is_never_retried_speculatively():
    source = FakeSource({"t": [(0, 0), (0, 1)]})
    source.fail.add(("t", 0, 0))
    pf = BatchPrefetcher(source, depth=2, workers=1)
    pf.start()
    try:
        assert wait_until(lambda: pf.stats.faults >= 1)
        assert wait_until(lambda: pf.queue_depth() >= 1)  # (0,1) still assembles
        assert pf.take("t", 0, 0) is None  # miss -> demand path owns it
        assert pf.stats.faults == 1
        result = pf.take("t", 0, 1)
        assert result is not None
        assert source.assembled.count(("t", 0, 0)) == 0
    finally:
        pf.stop()


def test_skipped_batches_are_dropped_as_stale():
    source = FakeSource({"t": [(0, 0), (0, 1), (0, 2)]})
    pf = BatchPrefetcher(source, depth=2, workers=1)
    pf.start()
    try:
        assert wait_until(lambda: pf.queue_depth() >= 2)
        bytes_before = pf.queued_bytes()
        assert bytes_before > 0
        result = pf.take("t", 0, 2)  # trainer jumps the schedule
        # (0,2) may or may not be ready yet; the skipped-over batches
        # must be freed either way.
        assert wait_until(lambda: pf.stats.dropped_stale >= 1)
        assert wait_until(lambda: pf.queued_bytes() <= bytes_before)
        del result
    finally:
        pf.stop()


def test_take_waits_for_an_inflight_assembly():
    source = FakeSource({"t": [(0, 0)]})
    source.gate = threading.Event()
    pf = BatchPrefetcher(source, depth=1, workers=1)
    pf.start()
    try:
        assert wait_until(lambda: len(pf._tasks["t"].inflight) == 1)
        threading.Timer(0.03, source.gate.set).start()
        result = pf.take("t", 0, 0)
        assert result is not None
        assert pf.stats.hits_after_wait == 1
    finally:
        pf.stop()


class Payload:
    """A pooled-lease stand-in: counts how often it was given back."""

    nbytes = 8

    def __init__(self):
        self.released = 0

    def release(self):
        self.released += 1


def test_reload_releases_the_queue_and_drops_late_landings():
    """A re-scope is a new generation: what was queued goes back to the
    pool, and an assembly claimed before the reload is never filed under
    a position of the new order."""
    payloads = []

    class LeaseSource(FakeSource):
        def assemble_speculative(self, task, epoch, iteration):
            super().assemble_speculative(task, epoch, iteration)
            payloads.append(Payload())
            return payloads[-1], {"iteration": iteration}

    source = LeaseSource({"t": [(0, i) for i in range(6)]})
    pf = BatchPrefetcher(source, depth=2, workers=1)
    pf.start()
    try:
        assert wait_until(lambda: pf.queue_depth() == 2)
        assert pf.take("t", 0, 0) is not None
        source.gate = threading.Event()  # the next assembly (0, 2) blocks
        assert wait_until(lambda: len(pf._tasks["t"].inflight) == 1)
        source.orders = {"t": [(0, 3), (0, 5)]}  # this shard's new share
        pf.reload()
        assert pf.queue_depth() == 0 and pf.queued_bytes() == 0
        assert payloads[1].released == 1  # (0, 1) was queued: released
        source.gate.set()
        assert wait_until(lambda: len(payloads) >= 3 and payloads[2].released == 1)
        # Progress carried over: only (0, 3) and (0, 5) are assembled now,
        # and (0, 2) — position 0 of the old claim — was not filed as (0, 3).
        assert wait_until(lambda: pf.queue_depth() == 2)
        _, metadata = pf.take("t", 0, 3)
        assert metadata["iteration"] == 3
        assert pf.take("t", 0, 2) is None
    finally:
        pf.stop()


def test_discard_releases_the_queue_for_good():
    payload = Payload()

    class LeaseSource(FakeSource):
        def assemble_speculative(self, task, epoch, iteration):
            return payload, {}

    pf = BatchPrefetcher(LeaseSource({"t": [(0, 0)]}), depth=1, workers=1)
    pf.start()
    try:
        assert wait_until(lambda: pf.queue_depth() == 1)
        pf.discard()
        assert payload.released == 1 and pf.queue_depth() == 0
        assert pf.take("t", 0, 0) is None
    finally:
        pf.stop()


def test_stats_snapshot_is_detached():
    stats = PrefetchStats(hits=3, misses=1)
    snap = stats.snapshot()
    stats.hits = 99
    assert snap.hits == 3
    assert snap.as_dict()["hits"] == 3
    assert snap.hit_rate == 0.75


# -- engine differentials: prefetch on == prefetch off -----------------------


def run_engine_window(dataset, plan, *, prefetch_depth, seed):
    engine = PreprocessingEngine(
        plan,
        dataset,
        num_workers=0,
        seed=seed,
        prefetch_depth=prefetch_depth,
        prefetch_workers=2,
    )
    batches = {}
    with engine:
        for key in sorted(plan.batches):
            batch, metadata = engine.get_batch(*key)
            batches[key] = (batch, metadata)
    return engine, batches


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefetch_on_is_byte_identical_to_off(dataset, seed):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=seed)
    ref_engine, reference = run_engine_window(dataset, plan, prefetch_depth=0, seed=seed)
    engine, pipelined = run_engine_window(dataset, plan, prefetch_depth=2, seed=seed)
    for key in sorted(plan.batches):
        expected, expected_md = reference[key]
        batch, metadata = pipelined[key]
        assert np.array_equal(batch, expected), key
        assert metadata == expected_md, key
    stats = engine.stats.prefetch
    assert stats.hits + stats.misses == len(plan.batches)
    # The traffic ledger is *logical*: speculation moves work earlier but
    # must not change what is charged (each batch assembled exactly once,
    # delivery-boundary copies identical — here zero, leases all around).
    assert engine.stats.traffic.as_dict() == ref_engine.stats.traffic.as_dict()
    assert engine.stats.traffic.delivery_bytes_copied == 0


def test_prefetcher_actually_serves_hits(dataset):
    """Pacing the trainer lets speculation run ahead; hits must land."""
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    engine = PreprocessingEngine(
        dataset=dataset, plan=plan, num_workers=0, seed=5,
        prefetch_depth=2, prefetch_workers=2,
    )
    with engine:
        keys = sorted(plan.batches)
        engine.get_batch(*keys[0])  # warm: seeds the consumption pointer
        for key in keys[1:]:
            wait_until(lambda: engine._prefetcher.queue_depth() >= 1, timeout=10.0)
            engine.get_batch(*key)
    stats = engine.stats.prefetch
    assert stats.hits >= 1
    assert stats.assembled >= stats.hits
    assert stats.stall_ns_saved > 0
    assert stats.queue_depth_high_water >= 1
    assert stats.queued_bytes_high_water > 0


def test_engine_stats_prefetch_zeroed_when_off(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    engine.get_batch("t", 0, 0)
    assert engine.stats.prefetch == PrefetchStats()
    report = engine.stats.traffic_report()
    assert report["prefetch"]["hits"] == 0
    assert report["bytes_allocated"] > 0


def test_traffic_report_rolls_in_prefetch_counters(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    engine, _ = run_engine_window(dataset, plan, prefetch_depth=2, seed=5)
    report = engine.stats.traffic_report()
    stats = engine.stats.prefetch
    assert report["prefetch"] == stats.as_dict()
    assert report["prefetch"]["hits"] + report["prefetch"]["misses"] == len(plan.batches)


def test_window_roll_falls_back_cleanly(dataset):
    """Batches outside the prefetcher's schedule (plan roll) just miss."""
    plan0 = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    plan1 = build_plan_window([make_config()], dataset, 2, 2, seed=5)
    engine0 = PreprocessingEngine(
        plan0, dataset, num_workers=0, seed=5, prefetch_depth=2
    )
    with engine0:
        key = sorted(plan0.batches)[0]
        batch, _ = engine0.get_batch(*key)
    # A fresh engine on the rolled window serves the same task cleanly.
    engine1 = PreprocessingEngine(
        plan1, dataset, num_workers=0, seed=5, prefetch_depth=2
    )
    with engine1:
        key1 = sorted(plan1.batches)[0]
        batch1, md1 = engine1.get_batch(*key1)
    reference = PreprocessingEngine(plan1, dataset, num_workers=0)
    expected, _ = reference.get_batch(*key1)
    assert np.array_equal(batch1, expected)


def test_window_rolls_leak_no_speculative_leases(dataset):
    """Rolling a window gives the old engine's queued speculative batches
    back to the pool; after shutdown nothing is out and the sanitizers
    (lease-leak check included, no escape hatch) are clean."""
    set_sanitizers(True)
    reset_sanitizers()
    try:
        service = SandService(
            [make_config()], dataset, k_epochs=2, num_workers=1, seed=5, prefetch_depth=2
        )
        for window in range(4):
            epoch = 2 * window
            engine = service.ensure_window(epoch, task="t")
            lease, _ = service.get_batch_lease("t", epoch, 0)
            lease.release()
            # Leave speculative batches queued for the roll to find.
            assert wait_until(lambda: engine.prefetch_queue_depth() >= 1)
        service.shutdown()
        assert service.delivery_pool.report()["leases_outstanding"] == 0
        assert service.engine.prefetch_queue_depth() == 0
        report = collect_report()
        assert report.clean(), report.as_dict()
    finally:
        set_sanitizers(None)
        reset_sanitizers()


# -- differential under the PR 2 capstone fault schedule ---------------------


@pytest.mark.faults
def test_prefetch_differential_under_capstone_faults(dataset):
    """Prefetch on, under 5% storage faults + one worker crash, still
    equals the fault-free prefetch-off run byte for byte."""
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    schedule = FaultSchedule(
        seed=FAULT_SEED,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
            FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
        ],
    )
    store = LocalStore(10**8)
    cache = CacheManager(FaultyStore(store, schedule))
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
        seed=FAULT_SEED,
        prefetch_depth=2,
        prefetch_workers=2,
    )
    reference = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        engine.drain()
        for key in sorted(plan.batches):
            batch, metadata = engine.get_batch(*key)
            expected, expected_md = reference.get_batch(*key)
            assert np.array_equal(batch, expected), key
            assert metadata == expected_md, key
    assert engine.stats.batches_served == len(plan.batches)
    stats = engine.stats.prefetch
    assert stats.hits + stats.misses == len(plan.batches)


# -- cache advance/evict racing concurrent get_batch (sanitized) -------------


@pytest.mark.parametrize("policy", ["deadline", "fifo"])
def test_cache_advance_and_evict_race_get_batch_sanitized(dataset, policy):
    """Eviction churn concurrent with demand feeding must stay correct
    under the runtime sanitizers (lock-order, shared-buffer writes)."""
    set_sanitizers(True)
    reset_sanitizers()
    try:
        plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
        # A store small enough that the window's frontier overflows the
        # watermark, so maybe_evict always has work to do.
        store = LocalStore(plan.total_cached_bytes() // 2)
        cache = CacheManager(store, policy=policy)
        pruning = prune_plan(plan, store.capacity_bytes)
        cache.register_plan(plan, pruning)
        engine = PreprocessingEngine(
            plan, dataset, pruning=pruning, cache=cache, num_workers=2,
            seed=5, prefetch_depth=2,
        )
        errors = []
        stop = threading.Event()

        def churn():
            step = 0
            while not stop.is_set():
                try:
                    cache.advance(step)
                    cache.maybe_evict()
                except Exception as exc:  # pragma: no cover - the assert
                    errors.append(exc)
                    return
                step += 1

        churner = threading.Thread(target=churn, name="cache-churn")
        reference = PreprocessingEngine(plan, dataset, num_workers=0)
        with engine:
            churner.start()
            try:
                for key in sorted(plan.batches):
                    batch, _ = engine.get_batch(*key)
                    expected, _ = reference.get_batch(*key)
                    assert np.array_equal(batch, expected), key
            finally:
                stop.set()
                churner.join(timeout=10)
        assert not errors
        report = engine.sanitizer_report()
        assert report is not None
        assert report.lock_order_violations == []
        assert report.write_after_share == []
    finally:
        set_sanitizers(None)
        reset_sanitizers()
