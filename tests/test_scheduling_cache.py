"""Tests for the materialization scheduler and the cache manager."""

import threading

import pytest

from repro.core import (
    CacheManager,
    MaterializationScheduler,
    SchedulingMode,
    VideoJob,
    build_jobs,
    build_plan_window,
    load_task_config,
    prune_plan,
)
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.storage.local import LocalStore


def job(vid, needed, total=10, processed=0):
    j = VideoJob(video_id=vid, first_needed_step=needed, total_edges=total)
    j.processed_edges = processed
    return j


def scheduler(jobs, memory=0.0, mode=SchedulingMode.DEADLINE, threshold=0.8):
    return MaterializationScheduler(
        {j.video_id: j for j in jobs},
        memory_fraction=lambda: memory,
        memory_threshold=threshold,
        mode=mode,
    )


# -- scheduler policies -----------------------------------------------------------


def test_deadline_order_prefers_smallest_slack():
    sched = scheduler([job("late", 50), job("soon", 2), job("mid", 10)])
    assert sched.order_preview(current_step=0) == ["soon", "mid", "late"]


def test_deadline_slack_shifts_with_progress():
    sched = scheduler([job("a", 10), job("b", 12)])
    assert sched.next_job(current_step=0).video_id == "a"
    sched.mark_done("a")
    assert sched.next_job(current_step=11).video_id == "b"


def test_sjf_under_memory_pressure():
    jobs = [job("big", 1, total=100), job("small", 50, total=100, processed=95)]
    low = scheduler(jobs, memory=0.2)
    high = scheduler(jobs, memory=0.9)
    assert low.current_mode() is SchedulingMode.DEADLINE
    assert low.next_job().video_id == "big"  # most urgent deadline
    assert high.current_mode() is SchedulingMode.SJF
    assert high.next_job().video_id == "small"  # fewest remaining edges


def test_fifo_mode_ignores_deadlines():
    sched = scheduler([job("first", 99), job("second", 1)], mode=SchedulingMode.FIFO)
    assert sched.order_preview() == ["first", "second"]
    # FIFO stays FIFO even under memory pressure (it is the ablation).
    sched = scheduler(
        [job("first", 99), job("second", 1)], memory=0.95, mode=SchedulingMode.FIFO
    )
    assert sched.current_mode() is SchedulingMode.FIFO


def test_progress_completes_jobs():
    sched = scheduler([job("v", 0, total=3)])
    sched.mark_progress("v", 2)
    assert not sched.jobs["v"].done
    sched.mark_progress("v", 1)
    assert sched.jobs["v"].done
    assert sched.next_job() is None
    assert sched.pending_count == 0


def test_invalid_threshold_rejected():
    with pytest.raises(ValueError):
        scheduler([job("v", 0)], threshold=0.0)


def test_build_jobs_from_plan():
    cfg = load_task_config({
        "dataset": {
            "tag": "t",
            "video_dataset_path": "/d",
            "sampling": {"videos_per_batch": 4, "frames_per_video": 4},
            "augmentation": [],
        }
    })
    ds = SyntheticDataset(DatasetSpec(num_videos=8, min_frames=30, max_frames=40))
    plan = build_plan_window([cfg], ds, 0, 2, seed=1)
    jobs = build_jobs(plan)
    assert set(jobs) == set(plan.graphs)
    # First-needed steps cover the first epoch's iterations.
    assert min(j.first_needed_step for j in jobs.values()) == 0
    assert all(j.total_edges > 0 for j in jobs.values())
    # With pruning, job work is bounded by the full graph's work.
    pruning = prune_plan(plan, plan.total_cached_bytes() * 0.5)
    pruned_jobs = build_jobs(plan, pruning)
    for vid in jobs:
        assert pruned_jobs[vid].total_edges <= jobs[vid].total_edges
    # A job materializes exactly its video's caching frontier.
    for vid, graph in plan.graphs.items():
        assert jobs[vid].frontier == {leaf.key for leaf in graph.leaves()}
        assert pruned_jobs[vid].frontier == pruning.frontier_of(vid)


def test_scoped_jobs_partition_the_frontier_by_owned_batches():
    """``owned`` scopes jobs to a share of the window: deadlines come from
    owned batches, foreign videos get no job, and the shares of a
    partition add up to the whole frontier."""
    plan = make_plan()
    pruning = prune_plan(plan, plan.total_cached_bytes() * 0.5)
    whole = build_jobs(plan, pruning)
    batches = sorted(plan.batches.values(), key=lambda b: (b.epoch, b.iteration))
    shares = [build_jobs(plan, pruning, batches[i::3]) for i in range(3)]
    for vid, job in whole.items():
        assert job.frontier == frozenset().union(
            *(share[vid].frontier for share in shares if vid in share)
        )
    late = build_jobs(plan, pruning, batches[-1:])
    assert set(late) == {vid for vid, _leaf in batches[-1].samples}
    step = plan.global_step(batches[-1].task, batches[-1].epoch, batches[-1].iteration)
    assert all(job.first_needed_step == step for job in late.values())
    # Re-scoping a live scheduler keeps finished videos finished.
    sched = MaterializationScheduler(whole)
    finished = next(iter(late))
    sched.mark_done(finished)
    sched.replace_jobs(late)
    assert sched.pending_count == len(late) - 1
    sched.mark_done("no-longer-scheduled")  # a worker's late claim: ignored
    sched.replace_jobs(build_jobs(plan, pruning))
    assert sched.jobs[finished].done and sched.pending_count == len(whole) - 1


# -- cache manager ------------------------------------------------------------------


def make_plan(k=2, vpb=4, videos=8):
    cfg = load_task_config({
        "dataset": {
            "tag": "t",
            "video_dataset_path": "/d",
            "sampling": {"videos_per_batch": vpb, "frames_per_video": 4},
            "augmentation": [],
        }
    })
    ds = SyntheticDataset(DatasetSpec(num_videos=videos, min_frames=30, max_frames=40))
    return build_plan_window([cfg], ds, 0, k, seed=1)


def test_deadlines_follow_plan():
    plan = make_plan()
    cache = CacheManager(LocalStore(10**6))
    cache.register_plan(plan)
    leaf = next(iter(plan.graphs.values())).leaves()[0]
    first = plan.first_use_step(leaf)
    assert cache.deadline_of(leaf.key) == first
    cache.advance(first + 1)
    later = cache.deadline_of(leaf.key)
    assert later is None or later > first


def test_eviction_prefers_used_up_objects():
    plan = make_plan()
    store = LocalStore(10**6)
    cache = CacheManager(store)
    cache.register_plan(plan)
    leaves = [leaf for g in plan.graphs.values() for leaf in g.leaves()]
    leaves.sort(key=plan.first_use_step)
    early, late = leaves[0], leaves[-1]
    cache.put(early.key, b"E" * 100)
    cache.put(late.key, b"L" * 100)
    # Train past the early leaf's only use: it becomes class-1 evictable.
    cache.advance(plan.first_use_step(early) + 1)
    order = cache._eviction_order()
    assert order[0][-1] == early.key


def test_eviction_by_longest_deadline():
    plan = make_plan()
    store = LocalStore(10**6)
    cache = CacheManager(store)
    cache.register_plan(plan)
    leaves = [leaf for g in plan.graphs.values() for leaf in g.leaves()]
    leaves.sort(key=plan.first_use_step)
    for leaf in (leaves[0], leaves[-1]):
        cache.put(leaf.key, b"x" * 10)
    # Nothing used yet: the longest-deadline object evicts first.
    order = cache._eviction_order()
    assert order[0][-1] == leaves[-1].key


def test_watermark_eviction():
    plan = make_plan()
    store = LocalStore(1000, eviction_watermark=0.75)
    cache = CacheManager(store)
    cache.register_plan(plan)
    leaves = [leaf for g in plan.graphs.values() for leaf in g.leaves()]
    for i, leaf in enumerate(leaves[:8]):
        cache.put(leaf.key, b"x" * 100)
    # 800 bytes > 750 watermark: maybe_evict must bring it back under.
    evicted = cache.maybe_evict()
    assert evicted >= 0
    assert not store.above_watermark()


def test_put_evicts_to_fit():
    plan = make_plan()
    store = LocalStore(250)
    cache = CacheManager(store)
    cache.register_plan(plan)
    leaves = [leaf for g in plan.graphs.values() for leaf in g.leaves()]
    assert cache.put(leaves[0].key, b"a" * 100)
    assert cache.put(leaves[1].key, b"b" * 100)
    assert cache.put(leaves[2].key, b"c" * 100)  # forces eviction
    assert store.used_bytes <= 250


def test_put_too_large_returns_false():
    cache = CacheManager(LocalStore(100))
    assert not cache.put("k", b"x" * 200)


def test_get_and_contains_facade():
    cache = CacheManager(LocalStore(1000))
    cache.put("k", b"v")
    assert "k" in cache
    assert cache.get("k") == b"v"
    assert cache.delete("k")
    assert cache.get("k") is None


# -- plan cache ------------------------------------------------------------------


def test_plan_cache_keeps_previous_current_and_next():
    from repro.core.service import PlanCache

    cache = PlanCache()
    built = []

    def build(key):
        return lambda: built.append(key) or (key, None)

    for key in (0, 2):
        cache.get(key, build(key))
    cache.get(4, build(4), hurry=threading.Event())
    cache.get(4, build(4), hurry=threading.Event())  # already there: not an ahead *build*
    cache.get(0, build(0))  # back a window: still cached
    assert built == [0, 2, 4]
    report = cache.report()
    assert (report["builds"], report["ahead_builds"], report["hits"]) == (3, 1, 2)
    cache.get(6, build(6))  # a fourth window evicts the oldest
    cache.get(0, build(0))
    assert built == [0, 2, 4, 6, 0] and cache.report()["windows"] == 3


def test_plan_cache_does_not_cache_a_failed_build():
    from repro.core.service import PlanCache

    cache = PlanCache()

    def doomed():
        raise RuntimeError("planner down")

    with pytest.raises(RuntimeError):
        cache.get(0, doomed, hurry=threading.Event())
    assert cache.get(0, lambda: ("plan", None)) == ("plan", None)
    report = cache.report()
    assert (report["builds"], report["ahead_builds"], report["windows"]) == (1, 0, 1)
