"""Tests for service-level features: multi-task, branches through the
service, cache policies, engine memory-pressure behaviour."""

import threading
import time

import numpy as np
import pytest

import repro.core.service as service_module
from repro.analysis.sanitizers import collect_report
from repro.core import (
    CacheManager,
    PreprocessingEngine,
    SandService,
    SchedulingMode,
    ShardCoordinator,
    build_plan_window,
    load_task_config,
    load_task_configs,
)
from repro.core.scheduling import WorkClass
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.storage.local import LocalStore


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=8, min_frames=40, max_frames=55, seed=21)
    )


def simple_task(tag, extra_aug=None, **sampling):
    base_sampling = {"videos_per_batch": 4, "frames_per_video": 4, "frame_stride": 2}
    base_sampling.update(sampling)
    aug = [
        {
            "branch_type": "single",
            "inputs": ["frame"],
            "outputs": ["a0"],
            "config": [{"resize": {"shape": [16, 20]}}],
        }
    ]
    if extra_aug:
        aug.extend(extra_aug)
    return {
        "dataset": {
            "tag": tag,
            "video_dataset_path": "/d",
            "sampling": base_sampling,
            "augmentation": aug,
        }
    }


# -- multi-task service ----------------------------------------------------------


def test_two_tasks_one_service(dataset):
    configs = load_task_configs([simple_task("a"), simple_task("b", frames_per_video=6)])
    service = SandService(configs, dataset, storage_budget_bytes=10**8,
                          k_epochs=1, num_workers=0)
    try:
        batch_a, _ = service.get_batch("a", 0, 0)
        batch_b, _ = service.get_batch("b", 0, 0)
        assert batch_a.shape[1] == 4
        assert batch_b.shape[1] == 6
        # Both tasks visible in the namespace.
        assert ShardCoordinator([service]).listdir("/") == ["a", "b"]
    finally:
        service.shutdown()


def test_conditional_branch_switches_mid_training(dataset):
    """The Fig 9 conditional: inv_sample only after iteration 2."""
    extra = [
        {
            "branch_type": "conditional",
            "inputs": ["a0"],
            "outputs": ["a1"],
            "branches": [
                {"condition": "iteration >= 2", "config": [{"inv_sample": True}]},
                {"condition": "else", "config": None},
            ],
        }
    ]
    config = load_task_config(simple_task("t", extra_aug=extra, videos_per_batch=2))
    service = SandService([config], dataset, storage_budget_bytes=10**8,
                          k_epochs=1, num_workers=0, seed=4)
    try:
        plan = service.ensure_window(0).plan
        early = plan.batches[("t", 0, 0)]
        late = plan.batches[("t", 0, 3)]
        early_leaf = plan.graphs[early.samples[0][0]].nodes[early.samples[0][1]]
        late_leaf = plan.graphs[late.samples[0][0]].nodes[late.samples[0][1]]
        assert early_leaf.clip_ops == ()
        assert late_leaf.clip_ops and late_leaf.clip_ops[0][0] == "inv_sample"
        # And the materialized pixels reflect the reversal: the late batch
        # sample equals its frames in reverse order.
        batch, md = service.get_batch("t", 0, 3)
        engine = service.engine
        mat = engine._materializer(late.samples[0][0])
        frames = [mat.get(p)[0] for p in late_leaf.parents]
        assert np.array_equal(batch[0], np.stack(frames[::-1]))
    finally:
        service.shutdown()


def test_multi_merge_doubles_samples(dataset):
    extra = [
        {
            "branch_type": "multi",
            "inputs": ["a0"],
            "outputs": ["x", "y"],
            "branches": [
                {"config": [{"flip": {"flip_prob": 1.0}}]},
                {"config": None},
            ],
        },
        {
            "branch_type": "merge",
            "inputs": ["x", "y"],
            "outputs": ["out"],
            "config": None,
        },
    ]
    config = load_task_config(simple_task("t", extra_aug=extra, videos_per_batch=2))
    service = SandService([config], dataset, storage_budget_bytes=10**8,
                          k_epochs=1, num_workers=0)
    try:
        batch, md = service.get_batch("t", 0, 0)
        # 2 videos x 2 variants = 4 samples.
        assert batch.shape[0] == 4
        # Variant pairs come from the same video...
        assert md["videos"][0] == md["videos"][1]
        # ...one flipped, one not.
        assert np.array_equal(batch[0], batch[1][:, :, ::-1])
    finally:
        service.shutdown()


# -- coordination flags ----------------------------------------------------------


def test_partial_coordination_flags(dataset):
    configs = load_task_configs([
        simple_task("a"),
        simple_task("b", frames_per_video=6),
    ])
    full = build_plan_window(configs, dataset, 0, 1, seed=1)
    pool_only = build_plan_window(
        configs, dataset, 0, 1, seed=1,
        coordinate_temporal=True, coordinate_spatial=False,
    )
    none = build_plan_window(configs, dataset, 0, 1, seed=1, coordinated=False)
    # Temporal coordination alone already merges decodes.
    assert pool_only.operation_counts()["decode"] <= none.operation_counts()["decode"]
    assert full.operation_counts()["decode"] <= pool_only.operation_counts()["decode"]


# -- cache policies ----------------------------------------------------------------


def test_cache_policy_validation():
    with pytest.raises(ValueError):
        CacheManager(LocalStore(100), policy="lifo")


def test_fifo_policy_evicts_oldest_first():
    cache = CacheManager(LocalStore(1000), policy="fifo")
    cache.put("first", b"x" * 10)
    cache.put("second", b"y" * 10)
    order = cache._eviction_order()
    assert order[0][-1] == "first"


# -- engine memory pressure ------------------------------------------------------------


def test_engine_switches_to_sjf_under_memory_pressure(dataset):
    config = load_task_config(simple_task("t"))
    plan = build_plan_window([config], dataset, 0, 1, seed=1)
    engine = PreprocessingEngine(
        plan, dataset, num_workers=0, memory_budget_bytes=1,  # instantly over
    )
    engine.get_batch("t", 0, 0)  # materializes something into memory
    assert engine.scheduler.current_mode() is SchedulingMode.SJF
    roomy = PreprocessingEngine(plan, dataset, num_workers=0,
                                memory_budget_bytes=10**12)
    roomy.get_batch("t", 0, 0)
    assert roomy.scheduler.current_mode() is SchedulingMode.DEADLINE


def test_engine_trims_memory_when_over_budget(dataset):
    config = load_task_config(simple_task("t"))
    plan = build_plan_window([config], dataset, 0, 1, seed=1)
    store = LocalStore(10**8)
    cache = CacheManager(store)
    from repro.core import prune_plan

    pruning = prune_plan(plan, 10**8)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(
        plan, dataset, pruning=pruning, cache=cache, num_workers=0,
        memory_budget_bytes=200_000,
    )
    engine.drain()
    # Trimming kicked in: memory stays near/below the small budget while
    # the cache holds the materializations.
    assert engine.memory_bytes() <= 400_000
    assert len(store) > 0


def test_service_engines_schedule_deadline_first(dataset):
    config = load_task_config(simple_task("t"))
    service = SandService([config], dataset, storage_budget_bytes=10**8,
                          k_epochs=1, num_workers=0)
    try:
        engine = service.ensure_window(0)
        assert engine.scheduler.current_mode() is SchedulingMode.DEADLINE
        batch, _ = service.get_batch("t", 0, 0)
        assert batch.size > 0
    finally:
        service.shutdown()


# -- plan-ahead ----------------------------------------------------------------------


def wait_for(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert condition()


def planning_service(dataset, monkeypatch, on_build=lambda epoch_start: None):
    """A 2-epoch-window service whose plan builds are recorded in ``calls``
    (``on_build`` runs first, on the building thread)."""
    calls = []
    build = service_module.build_plan_window

    def recording(tasks, dataset, epoch_start, *args, **kwargs):
        on_build(epoch_start)
        calls.append(epoch_start)
        return build(tasks, dataset, epoch_start, *args, **kwargs)

    monkeypatch.setattr(service_module, "build_plan_window", recording)
    service = SandService([load_task_config(simple_task("t"))], dataset,
                          storage_budget_bytes=10**8, k_epochs=2, num_workers=0,
                          prefetch_depth=0)
    return service, calls


def test_roll_into_a_window_planned_ahead_is_a_cache_hit(dataset, monkeypatch):
    service, calls = planning_service(dataset, monkeypatch)
    try:
        service.get_batch("t", 0, 0)
        assert calls == [0]  # nothing is planned ahead before the last epoch
        service.get_batch("t", 1, 0)
        service.get_batch("t", 1, 1)  # only the *first* such request plans ahead
        wait_for(lambda: service.plan_cache.report()["builds"] == 2)
        before = service.plan_cache.report()
        assert before["ahead_builds"] == 1
        service.get_batch("t", 2, 0)
        after = service.status()["plan_cache"]
        assert service.plan.epoch_start == 2
        assert after["hits"] == before["hits"] + 1
        # The roll went live warm, so window 4 is planned ahead at once.
        wait_for(lambda: service.plan_cache.report()["builds"] == 3)
        assert calls == [0, 2, 4]
    finally:
        service.shutdown()


def test_trainer_arriving_mid_build_waits_and_does_not_build(dataset, monkeypatch):
    gate = threading.Event()
    service, calls = planning_service(
        dataset, monkeypatch, lambda start: start == 2 and gate.wait(10)
    )
    try:
        service.get_batch("t", 0, 0)
        service.get_batch("t", 1, 0)  # the ahead build of window 2 starts, and blocks
        trainer = threading.Thread(target=service.get_batch, args=("t", 2, 0))
        trainer.start()
        wait_for(lambda: service.plan_cache.report()["waits"] == 1)
        assert trainer.is_alive() and service.plan.epoch_start == 0
        gate.set()
        trainer.join(10)
        assert not trainer.is_alive() and service.plan.epoch_start == 2
        wait_for(lambda: service.plan_cache.report()["builds"] == 3)  # window 4, ahead
        assert calls == [0, 2, 4]
        report = service.plan_cache.report()
        assert (report["builds"], report["ahead_builds"], report["waits"]) == (3, 2, 1)
    finally:
        gate.set()
        service.shutdown()


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_failed_background_build_surfaces_on_the_demand_path(dataset, monkeypatch):
    def planner_down(epoch_start):
        if epoch_start == 2:
            raise RuntimeError("planner down")

    service, calls = planning_service(dataset, monkeypatch, planner_down)
    try:
        service.get_batch("t", 0, 0)
        service.get_batch("t", 1, 0)  # the ahead build raises on its own thread
        with pytest.raises(RuntimeError, match="planner down"):
            service.get_batch("t", 2, 0)
        assert service.plan.epoch_start == 0  # the live window is untouched
        assert service.get_batch("t", 1, 1)[0].size > 0
        report = service.plan_cache.report()
        assert (report["builds"], report["ahead_builds"], report["windows"]) == (1, 0, 1)
    finally:
        service.shutdown()


def test_shutdown_joins_the_planner(sanitized, dataset, monkeypatch):
    service, calls = planning_service(
        dataset, monkeypatch, lambda start: start == 2 and time.sleep(0.2)
    )
    try:
        service.get_batch("t", 0, 0)
        service.get_batch("t", 1, 0)
    finally:
        service.shutdown()
    assert not [t for t in threading.enumerate() if t.name == "sand-plan-ahead"]
    assert calls == [0, 2]  # the build in flight finished before shutdown returned
    assert collect_report().clean(), collect_report().as_dict()


# -- plan-ahead defers to the trainers --------------------------------------------------
# Event-driven: a section is held open on an engine's work gate, and the
# builder's own probes of it say when it has parked.  Nothing is timed.


def watch_probes(service):
    """Record every answer ``service`` gives a builder asking "are your
    trainers busy?"."""
    answers = []
    probe = service.trainers_busy

    def recording():
        answers.append(probe())
        return answers[-1]

    service.trainers_busy = recording
    return answers


def watch_progress(cache):
    """Record every video boundary an ahead build gets past."""
    passed = []
    defer = cache.defer

    def recording(hurry):
        defer(hurry)
        passed.append(hurry.is_set())

    cache.defer = recording
    return passed


def wait_until_parked(answers):
    # The first "busy" sends the builder into the park loop; two more
    # come from inside it.
    wait_for(lambda: len(answers) >= 3)
    assert all(answers)


@pytest.mark.parametrize("work_class", [WorkClass.DEMAND, WorkClass.PREFETCH])
def test_ahead_build_parks_while_a_trainer_section_is_open(
    sanitized, dataset, monkeypatch, work_class
):
    service, calls = planning_service(dataset, monkeypatch)
    try:
        service.get_batch("t", 0, 0)
        answers = watch_probes(service)
        passed = watch_progress(service.plan_cache)
        gate = service.engine._work_gate
        gate.enter(work_class)
        try:
            service.get_batch("t", 1, 0)  # kicks the build of window 2
            wait_until_parked(answers)
            # Parked at the first boundary: one video planned, no more.
            assert calls == [0, 2] and passed == []
            assert service.plan_cache.report()["builds"] == 1
        finally:
            gate.exit(work_class)
        wait_for(lambda: service.plan_cache.report()["builds"] == 2)
        report = service.status()["plan_cache"]
        assert report["ahead_builds"] == 1 and report["ahead_deferred_ms"] > 0
        assert report["ahead_build_ms"] > 0 and report["roll_wait_ms"] == 0
        assert passed and not any(passed)  # nobody ever had to hurry it
    finally:
        service.shutdown()
    assert collect_report().clean(), collect_report().as_dict()


def test_roll_waiting_on_a_parked_build_unparks_it(sanitized, dataset, monkeypatch):
    service, calls = planning_service(dataset, monkeypatch)
    try:
        service.get_batch("t", 0, 0)
        answers = watch_probes(service)
        gate = service.engine._work_gate
        gate.enter(WorkClass.DEMAND)  # another trainer, busy for the whole test
        try:
            service.get_batch("t", 1, 0)
            wait_until_parked(answers)
            trainer = threading.Thread(target=service.get_batch, args=("t", 2, 0))
            trainer.start()
            trainer.join(10)
            assert not trainer.is_alive() and service.plan.epoch_start == 2
            assert gate.running(WorkClass.DEMAND) == 1  # ... and it still is
        finally:
            gate.exit(WorkClass.DEMAND)
        wait_for(lambda: service.plan_cache.report()["builds"] == 3)  # window 4, ahead
        assert calls == [0, 2, 4]
        report = service.plan_cache.report()
        assert (report["builds"], report["ahead_builds"], report["waits"]) == (3, 2, 1)
        assert report["roll_wait_ms"] > 0
    finally:
        service.shutdown()
    assert collect_report().clean(), collect_report().as_dict()


def test_shutdown_unparks_the_build_it_joins(sanitized, dataset, monkeypatch):
    service, calls = planning_service(dataset, monkeypatch)
    service.get_batch("t", 0, 0)
    answers = watch_probes(service)
    gate = service.engine._work_gate
    gate.enter(WorkClass.DEMAND)
    try:
        service.get_batch("t", 1, 0)
        wait_until_parked(answers)
        closer = threading.Thread(target=service.shutdown)
        closer.start()
        closer.join(10)
        assert not closer.is_alive()
    finally:
        gate.exit(WorkClass.DEMAND)
    assert not [t for t in threading.enumerate() if t.name == "sand-plan-ahead"]
    assert service.plan_cache.report()["builds"] == 2  # finished, not abandoned
    assert collect_report().clean(), collect_report().as_dict()


def test_fleet_build_defers_to_a_shard_that_did_not_start_it(
    sanitized, dataset, monkeypatch
):
    shards = [planning_service(dataset, monkeypatch)[0] for _ in range(4)]
    fleet = ShardCoordinator(shards)
    try:
        for shard in shards:
            shard.ensure_window(0)
        kicker = fleet.shard(fleet.route("t", 1, 0)[0])
        bystander = next(shard for shard in shards if shard is not kicker)
        answers = watch_probes(bystander)
        gate = bystander.engine._work_gate
        gate.enter(WorkClass.DEMAND)
        try:
            fleet.get_batch("t", 1, 0)
            wait_until_parked(answers)
            # The other shards roll ahead too, each with a planner of its
            # own to warm its own engine: the window is already being
            # planned, so they wait for that one build without hurrying
            # it (a roll's wait would end the deferring).
            for shard in shards:
                shard.ensure_window(1)
            planners = [t for t in threading.enumerate() if t.name == "sand-plan-ahead"]
            assert len(planners) == len(shards)
            report = fleet.plan_cache.report()
            assert (report["builds"], report["waits"]) == (1, 0)
            parked_at = len(answers)
            wait_for(lambda: len(answers) >= parked_at + 2)  # ... and it stays parked
            assert all(answers)
        finally:
            gate.exit(WorkClass.DEMAND)
        wait_for(lambda: fleet.plan_cache.report()["builds"] == 2)
        report = fleet.status()["routing"]["plan_cache"]
        assert report["ahead_builds"] == 1 and report["ahead_deferred_ms"] > 0
    finally:
        fleet.shutdown()
    assert collect_report().clean(), collect_report().as_dict()
