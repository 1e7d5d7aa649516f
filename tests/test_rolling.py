"""Rolling ahead: the next window's engine is warmed during the live one
and swapped in by pointer; the window before stays for stragglers.

Covers the warm prefetch hit at a roll, the straggler path, metadata that
neither rolls a window nor evicts the next window's plan, and leases and
bytes across several warm rolls (run with sanitizers on in CI)."""

import time

import numpy as np
import pytest

import repro.core.service as service_module
from repro.analysis.sanitizers import collect_report
from repro.core import PreprocessingEngine, SandService, ShardCoordinator, load_task_config
from repro.datasets import DatasetSpec, SyntheticDataset
from tests.reference_materializer import ReferenceMaterializer


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(DatasetSpec(num_videos=8, min_frames=40, max_frames=55, seed=21))


def config(tag):
    return load_task_config({
        "dataset": {
            "tag": tag,
            "video_dataset_path": "/d",
            "sampling": {"videos_per_batch": 4, "frames_per_video": 4, "frame_stride": 2},
            "augmentation": [{
                "branch_type": "single",
                "inputs": ["frame"],
                "outputs": ["a0"],
                "config": [{"resize": {"shape": [16, 20]}},
                           {"random_crop": {"size": [12, 12]}},
                           {"flip": {"flip_prob": 0.5}}],
            }],
        }
    })


def make_service(dataset, tags=("t",), **kwargs):
    kwargs.setdefault("num_workers", 1)
    kwargs.setdefault("prefetch_depth", 2)
    return SandService([config(tag) for tag in tags], dataset,
                       storage_budget_bytes=10**8, k_epochs=2, **kwargs)


def recording_engines(monkeypatch):
    """Every engine the service constructs, in order."""
    built = []

    class Recorded(PreprocessingEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(service_module, "PreprocessingEngine", Recorded)
    return built


def wait_for(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert condition()


def read(service, task, epoch, iteration):
    lease, _ = service.get_batch_lease(task, epoch, iteration)
    with lease:
        return lease.array.copy()


def test_first_request_of_the_next_window_is_a_warm_prefetch_hit(dataset, monkeypatch):
    engines = recording_engines(monkeypatch)
    service = make_service(dataset)
    try:
        for epoch in (0, 1):
            for iteration in range(service.iterations_per_epoch("t", epoch)):
                read(service, "t", epoch, iteration)
        live = service.engine
        # The next window's engine exists, and its prefetcher has queued
        # the window's first batch, before anyone asks for it.
        wait_for(lambda: any(e is not live and e.prefetch_queue_depth() > 0 for e in engines))
        (warm,) = [e for e in engines if e is not live]
        read(service, "t", 2, 0)
        assert service.engine is warm
        prefetch = warm.stats.prefetch
        assert (prefetch.hits, prefetch.hits_after_wait, prefetch.misses) == (1, 0, 0)
    finally:
        service.shutdown()


def test_far_window_metadata_keeps_the_next_window_planned(dataset):
    service = make_service(dataset, num_workers=0, prefetch_depth=0)
    fs = ShardCoordinator([service])
    try:
        service.get_batch("t", 0, 0)
        service.get_batch("t", 1, 0)  # window 2 is planned ahead by now at the latest
        wait_for(lambda: service.plan_cache.report()["builds"] == 2)
        for epoch in (10, 20, 30):
            assert fs.listdir(f"/t/{epoch}") == ["0", "1"]
        assert service.plan_cache.report()["builds"] == 5
        service.get_batch("t", 2, 0)
        assert service.plan.epoch_start == 2
        assert service.plan_cache.report()["builds"] == 5  # the roll rebuilt nothing
    finally:
        service.shutdown()


def test_iterations_per_epoch_rolls_no_window(dataset, monkeypatch):
    engines = recording_engines(monkeypatch)
    service = make_service(dataset)
    try:
        assert service.iterations_per_epoch("t", 40) == 2
        assert service.engine is None and engines == []
        assert service.plan_cache.report()["builds"] == 1
    finally:
        service.shutdown()


def test_a_straddling_task_is_served_by_the_window_before(dataset, monkeypatch):
    engines = recording_engines(monkeypatch)
    service = make_service(dataset, tags=("a", "b"))
    try:
        last = service.iterations_per_epoch("b", 1) - 1
        for epoch in (0, 1):
            for iteration in range(last + 1):
                read(service, "a", epoch, iteration)
                if (epoch, iteration) != (1, last):
                    read(service, "b", epoch, iteration)
        first = service.engine
        read(service, "a", 2, 0)  # a rolls while b still needs (1, last)
        assert service.plan.epoch_start == 2
        builds = service.plan_cache.report()["builds"]
        served = first.stats.batches_served
        got = read(service, "b", 1, last)
        assert first.stats.batches_served == served + 1  # window 0's engine served it
        assert len(engines) == 2 and service.engine is engines[1]
        assert service.plan_cache.report()["builds"] == builds
        want = ReferenceMaterializer(service.window_plan(1), dataset).get_batch("b", 1, last)
        np.testing.assert_array_equal(got, want)
    finally:
        service.shutdown()


def test_warm_rolls_leak_no_lease_and_match_the_reference(sanitized, dataset):
    """Three rolls with prefetch on, each with a straggler; shut down with a
    warm engine queued and a straggler still referenced."""
    service = make_service(dataset, tags=("a", "b"))
    plain = make_service(dataset, tags=("a", "b"), num_workers=0, prefetch_depth=0)
    references = {}

    def check(task, epoch, iteration):
        got = read(service, task, epoch, iteration)
        np.testing.assert_array_equal(got, plain.get_batch(task, epoch, iteration)[0])
        start = epoch - epoch % 2
        if start not in references:
            references[start] = ReferenceMaterializer(service.window_plan(epoch), dataset)
        np.testing.assert_array_equal(got, references[start].get_batch(task, epoch, iteration))

    try:
        last = service.iterations_per_epoch("b", 1) - 1
        for epoch in range(6):
            for iteration in range(last + 1):
                check("a", epoch, iteration)
                if epoch % 2 == 0 and epoch and iteration == 0:
                    check("b", epoch - 1, last)  # b finishes the window a just left
                if not (epoch % 2 and iteration == last):
                    check("b", epoch, iteration)
        check("a", 6, 0)  # the third roll: b is still in window 2
        check("a", 6, 1)  # rolling ahead to window 4 starts
        group = service._single_group()
        wait_for(lambda: group.warm is not None and group.warm.engine.prefetch_queue_depth() > 0)
        assert group.previous is not None and group.previous.start == 4
        check("b", 5, last)  # a straggler once more
        assert service.delivery_pool.leases_outstanding > 0  # the queued batches
    finally:
        service.shutdown()
        plain.shutdown()
    assert service.delivery_pool.leases_outstanding == 0
    assert plain.delivery_pool.leases_outstanding == 0
    assert collect_report().clean(), collect_report().as_dict()
