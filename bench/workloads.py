"""The four workloads: frozen parameters, rigs, counters, gates, reference.

Every number a workload is made of lives in ``WORKLOADS`` below; names are
final because later issues cite them.  A *rig* is one workload set up and
ready for its first timed request.
"""

from __future__ import annotations

import shutil
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import adapter
from trainer import Key

K_EPOCHS = 2  # every service plans two epochs per window


@dataclass(frozen=True)
class Task:
    tag: str
    frames: int
    stride: int
    crop: int

    def config(self) -> Any:
        return adapter.load_task_config({"dataset": {
            "tag": self.tag,
            "video_dataset_path": "/corpus",
            "sampling": {"videos_per_batch": 4, "frames_per_video": self.frames,
                         "frame_stride": self.stride},
            "augmentation": [{
                "branch_type": "single", "inputs": ["frame"], "outputs": ["a0"],
                "config": [{"resize": {"shape": [64, 96]}},
                           {"random_crop": {"size": [self.crop, self.crop]}},
                           {"flip": {"flip_prob": 0.5}}],
            }],
        }})


SLOWFAST = Task("slowfast", frames=8, stride=4, crop=56)
MAE = Task("mae", frames=4, stride=2, crop=48)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    videos: int
    tasks: Tuple[Task, ...]
    trainers: Tuple[Tuple[str, str], ...]  # (trainer name == tenant, task tag)
    step_ms: float  # the fixed GPU step; never derived from a measurement
    trace_epochs: int  # fixed work of the per-layer pass, per trainer: ~6 s of it
    workers: int = 0  # pre-materialization workers of each service
    prefetch: int = 0  # prefetch depth of each service
    cycle: Optional[int] = None  # epoch numbers wrap: re-read one window
    one_core: bool = False  # the run's process is confined to one core
    smoke_videos: int = 8


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # 96 videos hold ~212 MB of decodable frames against a 64 MiB anchor
    # cache and a 64 MiB store, so nothing survives to be reused; 1 ms of
    # step keeps gpu_util defined (non-zero) without hiding any work.
    Workload(
        "ondemand_cold",
        "no workers, no prefetch, working set far beyond the caches: decode, "
        "augment, blob encode and planning sit on the demand path",
        videos=96, tasks=(SLOWFAST,), trainers=(("t0", "slowfast"),),
        step_ms=1.0, trace_epochs=8,
    ),
    # 64 videos fill a window the single worker cannot finish ahead of two
    # 20 ms trainers, so prefetch, pre-materialization and the work gate
    # decide how much of the step hides the preprocessing.
    Workload(
        "paced_multitask",
        "two tasks on one dataset with a 20 ms GPU step: cross-task merging, "
        "pre-materialization and prefetch should hide preprocessing",
        videos=64, tasks=(SLOWFAST, MAE),
        trainers=(("t0", "slowfast"), ("t1", "mae")),
        step_ms=20.0, trace_epochs=10, workers=1, prefetch=2,
    ),
    # 16 videos: the drained window fits in memory, so every timed request
    # is a lease, a collation copy and a socket round trip.  One core: a
    # wake-up that crosses cores costs this VM an exit, and whether the
    # scheduler puts client and server threads together was luck that held
    # for a whole run (stall 0.75 ms or 1.2-1.5 ms, CPU per batch alike).
    Workload(
        "wire_warm",
        "a drained window re-read over the Unix socket by two clients: nothing "
        "is decoded, so data plane and wire format are the whole stall",
        videos=16, tasks=(SLOWFAST,), trainers=(("t0", "slowfast"), ("t1", "slowfast")),
        step_ms=5.0, trace_epochs=240, cycle=K_EPOCHS, one_core=True,
    ),
    # 32 videos against 4 MB of memory and 6 MiB of packed store per shard:
    # the window's leaves do not fit, so the store demotes and reads back.
    Workload(
        "fleet_tiered",
        "two tenants through admission, ring, four shards and a budget-starved "
        "tiered packed store over the socket: the whole north-star path",
        videos=32, tasks=(Task("a", 8, 4, 56), Task("b", 8, 4, 56)),
        trainers=(("tenant-a", "a"), ("tenant-b", "b")),
        step_ms=20.0, trace_epochs=10, workers=1, prefetch=2,
    ),
)}

SHARDS = 4
SHARD_MEMORY_BYTES = 4 * 1000 * 1000
SHARD_STORE_BYTES = 6 * 1024 * 1024
PACK_THRESHOLD = 1024 * 1024
REMOTE_STORE_BYTES = 1 << 30


class Rig:
    """One workload, set up: what trainers call and what gets read after."""

    def __init__(self, workload: Workload, dataset: Any, seed: int, scratch: Path):
        self.workload = workload
        self.services: List[Any] = []
        self.coordinator: Any = None
        self.remote: Any = None
        self.server: Any = None
        self.clients: Dict[str, Any] = {}
        self._scratch = scratch
        scratch.mkdir(parents=True)
        self._lock = threading.Lock()
        self._latest: Dict[int, Any] = {}  # service -> its live engine's stats
        self._engine_stats: List[Any] = []  # every engine's stats, rolled ones too
        configs = [task.config() for task in workload.tasks]
        common = dict(k_epochs=K_EPOCHS, seed=seed, num_workers=workload.workers,
                      prefetch_depth=workload.prefetch)
        name = workload.name
        if name in ("ondemand_cold", "paced_multitask"):
            self._add(adapter.SandService(configs, dataset, **common))
        elif name == "wire_warm":
            service = self._add(adapter.SandService(configs, dataset, **common))
            service.engine.drain()
            self._serve(service)
            for task, epoch, iteration in self._window_keys(service):
                self.clients["t0"].get_batch(task, epoch, iteration)
        elif name == "fleet_tiered":
            self.remote = adapter.RemoteStore(REMOTE_STORE_BYTES)
            for index in range(SHARDS):
                store = adapter.LocalStore(
                    SHARD_STORE_BYTES, root=scratch / f"shard-{index}",
                    pack_threshold=PACK_THRESHOLD, write_behind=True)
                self._add(adapter.SandService(
                    configs, dataset, memory_budget_bytes=SHARD_MEMORY_BYTES, store=store,
                    remote_store=self.remote, **common))
            self.coordinator = adapter.ShardCoordinator(
                self.services,
                admission=adapter.AdmissionController(
                    adapter.TenantQuota(max_inflight=2), global_max_inflight=8))
            self._serve(self.coordinator)
        else:
            raise KeyError(name)
        self.observe()

    def _add(self, service: Any) -> Any:
        service.ensure_window(0, task=self.workload.tasks[0].tag)
        self.services.append(service)
        return service

    def _serve(self, source: Any) -> None:
        # A relative path: AF_UNIX paths are short, checkouts may not be.
        self.server = source.serve_async(unix_path=str(self._scratch / "s"))
        address = self.server.start_background()
        for trainer, _task in self.workload.trainers:
            self.clients[trainer] = adapter.BatchSocketClient(address)

    def _window_keys(self, service: Any) -> List[Key]:
        task = self.workload.tasks[0].tag
        return [(task, epoch, iteration) for epoch in range(K_EPOCHS)
                for iteration in range(service.iterations_per_epoch(task, epoch))]

    # -- what a trainer calls ---------------------------------------------------
    def fetch_for(self, trainer: str) -> Callable[[str, int, int], Tuple[Any, Callable[[], None]]]:
        client = self.clients.get(trainer)
        if client is not None:
            tenant = trainer if self.coordinator is not None else None

            def over_socket(task: str, epoch: int, iteration: int) -> Tuple[Any, Callable[[], None]]:
                array, _meta = client.get_batch(task, epoch, iteration, tenant=tenant)
                return array, _nothing  # the client ACKed: the lease is back already
            return over_socket
        service = self.services[0]

        def in_process(task: str, epoch: int, iteration: int) -> Tuple[Any, Callable[[], None]]:
            lease, _meta = service.get_batch_lease(task, epoch, iteration)
            return lease.array, lease.release
        return in_process

    def iterations(self, task: str, epoch: int) -> int:
        source = self.coordinator if self.coordinator is not None else self.services[0]
        return source.iterations_per_epoch(task, epoch)

    # -- counters, read from the program's public reports -------------------------
    def observe(self) -> None:
        """Keep every engine's stats object: a window roll replaces the engine
        and its counters with it.  Trainers call this after every batch; an
        engine built and rolled away between two calls goes uncounted, which
        is why counts are exact only on the single-threaded workload."""
        with self._lock:
            for service in self.services:
                stats = service.engine.stats
                if self._latest.get(id(service)) is not stats:
                    self._latest[id(service)] = stats
                    self._engine_stats.append(stats)

    def counters(self) -> Dict[str, float]:
        self.observe()
        total: Dict[str, float] = {}

        def add(name: str, value: float) -> None:
            total[name] = total.get(name, 0.0) + value

        for service in self.services:
            service.engine.dataplane_report()  # folds the latest materializer stats in
            anchors = service.anchor_cache.report()
            for field in ("hits", "misses", "evictions"):
                add(f"anchor_{field}", anchors[field])
            cache = service.status()["cache"]
            add("cache_evictions", cache["evictions"])
            add("cache_demotions", cache["demotions"])
            pool = service.delivery_pool.report()
            for field in ("leases_issued", "buffers_reused"):
                add(field, pool[field])
            _add_store(add, "local", service.store.stats)
        if self.remote is not None:
            _add_store(add, "remote", self.remote.stats)
        for stats in self._engine_stats:
            add("frames_decoded", stats.frames_decoded)
            add("demand", stats.demand_materializations)
            add("premat", stats.pre_materializations)
            add("prefetch_hits", stats.prefetch.hits)
            add("prefetch_misses", stats.prefetch.misses)
            add("prefetch_saved_ns", stats.prefetch.stall_ns_saved)
            add("slot_direct", stats.dataplane.get("slot_writes_direct", 0))
            add("slot_copied", stats.dataplane.get("slot_writes_copied", 0))
            add("delivery_bytes_copied", stats.traffic.delivery_bytes_copied)
        if self.server is not None:
            report = self.server.report()
            add("sends", report["sends"])
            add("bytes_sent", report["bytes_sent"])
            total["executor_high_water"] = report["executor_queue_high_water"]
        if self.coordinator is not None:
            routing = self.coordinator.routing_report()
            admission = self.coordinator.admission.report()
            for shard, count in routing["served"].items():
                total[f"served:{shard}"] = count
            total.update(
                dedup_hits=routing["dedup_hits"], dedup_misses=routing["dedup_misses"],
                failovers=routing["failovers"],
                admitted=admission["admitted_total"], admit_waited=admission["admissions_waited"])
        return total

    def leases_outstanding(self) -> int:
        """Delivery leases still out after shutdown, less the speculative
        batches the live prefetchers keep takeable."""
        return sum(
            service.delivery_pool.report()["leases_outstanding"]
            - service.engine.prefetch_queue_depth()
            for service in self.services)

    # -- teardown ---------------------------------------------------------------
    def quiesce(self) -> None:
        """Hang up, stop serving and flush, so leases and stores settle."""
        for client in self.clients.values():
            client.close()
        if self.server is not None:
            self.server.shutdown()
        for service in self.services:
            service.shutdown()

    def close(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)


def _nothing() -> None:
    pass


def _add_store(add: Callable[[str, float], None], tier: str, stats: Any) -> None:
    for field in ("puts", "gets", "hits", "misses", "bytes_written"):
        add(f"{tier}_{field}", getattr(stats, field))
    add(f"{tier}_fs_ops", stats.fs_ops)


def layer_counters(delta: Dict[str, float], batches: int, frames: int, nbytes: int,
                   wall_s: float) -> Dict[str, float]:
    """The count-and-ratio per-layer metrics of one timed section."""

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    get = lambda name: delta.get(name, 0.0)  # noqa: E731
    per_batch = lambda value: ratio(value, batches)  # noqa: E731
    store = lambda field: get(f"local_{field}") + get(f"remote_{field}")  # noqa: E731
    served = _served(delta)
    return {
        "codec.frames_decoded_per_batch": per_batch(get("frames_decoded")),
        "codec.decode_amplification": ratio(get("frames_decoded"), frames),
        "codec.anchor_hit_rate": ratio(get("anchor_hits"), get("anchor_hits") + get("anchor_misses")),
        "materializer.cache_hit_rate": ratio(get("local_hits"), get("local_hits") + get("local_puts")),
        "materializer.slot_direct_rate": ratio(get("slot_direct"), get("slot_direct") + get("slot_copied")),
        "engine.demand_share": ratio(get("demand"), get("demand") + get("premat")),
        "prefetch.hit_rate": ratio(get("prefetch_hits"), get("prefetch_hits") + get("prefetch_misses")),
        "prefetch.stall_ms_saved_per_batch": per_batch(get("prefetch_saved_ns") / 1e6),
        "cache.evictions_per_batch": per_batch(get("cache_evictions")),
        "cache.demotions_per_batch": per_batch(get("cache_demotions")),
        "storage.hit_rate": ratio(store("hits"), store("hits") + store("misses")),
        "storage.gets_per_batch": per_batch(store("gets")),
        "storage.puts_per_batch": per_batch(store("puts")),
        "storage.fs_ops_per_batch": per_batch(store("fs_ops")),
        "storage.write_amp": ratio(store("bytes_written"), nbytes),
        "blobs.encoded_bytes_per_batch": per_batch(get("local_bytes_written")),
        "dataplane.pool_reuse_rate": ratio(get("buffers_reused"), get("leases_issued")),
        "dataplane.bytes_copied_per_batch": per_batch(get("delivery_bytes_copied")),
        "dataplane.executor_queue_high_water": get("executor_high_water"),
        "wire.mb_per_s": get("bytes_sent") / 1e6 / wall_s,
        "wire.bytes_per_batch": ratio(get("bytes_sent"), get("sends")),
        "tenancy.wait_share": ratio(get("admit_waited"), get("admitted")),
        "sharding.dedup_hit_rate": ratio(get("dedup_hits"), get("dedup_hits") + get("dedup_misses")),
        "sharding.imbalance": ratio(max(served, default=0.0) * len(served), sum(served)),
        "sharding.failovers": get("failovers"),
    }


def _served(delta: Dict[str, float]) -> List[float]:
    """Batches each shard served in the timed section."""
    return [value for name, value in delta.items() if name.startswith("served:")]


def degenerate(name: str, delta: Dict[str, float], requests: int) -> List[str]:
    """Why this run no longer measures what the workload exists for ([] = it does)."""
    get = lambda field: delta.get(field, 0.0)  # noqa: E731
    wanted = {
        "ondemand_cold": [
            ("anchor-cache evictions > 0", get("anchor_evictions") > 0),
            ("prefetch hits == 0", get("prefetch_hits") == 0),
        ],
        "paced_multitask": [
            ("prefetch hits > 0", get("prefetch_hits") > 0),
            ("pre-materializations > 0", get("premat") > 0),
        ],
        "wire_warm": [
            ("frames decoded == 0", get("frames_decoded") == 0),
            ("sends == requests", get("sends") == requests),
        ],
        "fleet_tiered": [
            ("every shard served > 0", min(_served(delta), default=0.0) > 0),
            ("dedup hits > 0", get("dedup_hits") > 0),
            ("store gets > 0", get("local_gets") > 0),
            ("demotions > 0", get("cache_demotions") > 0),
            ("admitted_total == requests", get("admitted") == requests),
        ],
    }[name]
    return [f"{name} is degenerate: expected {what}" for what, ok in wanted if not ok]


def reference_crcs(workload: Workload, dataset: Any, seed: int, keys: Sequence[Key]) -> Dict[Key, int]:
    """The same batches through the plainest path: a fresh service with no
    workers and no prefetch, ``get_batch``."""
    service = adapter.SandService(
        [task.config() for task in workload.tasks], dataset,
        k_epochs=K_EPOCHS, num_workers=0, prefetch_depth=0, seed=seed)
    try:
        return {key: zlib.crc32(service.get_batch(*key)[0]) for key in sorted(keys, key=lambda k: k[1:])}
    finally:
        service.shutdown()


def sample_keys(keys: Sequence[Key], epochs: int = 4, per_epoch: int = 4) -> List[Key]:
    """16 keys spread over the run, bunched into few epochs: each distinct
    window costs the reference service a planning pass."""
    by_epoch: Dict[int, List[Key]] = {}
    for key in sorted(keys, key=lambda k: (k[1], k[0], k[2])):
        by_epoch.setdefault(key[1], []).append(key)
    picked: List[Key] = []
    for epoch in _spread(sorted(by_epoch), epochs):
        picked.extend(_spread(by_epoch[epoch], per_epoch))
    return picked


def _spread(items: Sequence[Any], count: int) -> List[Any]:
    if len(items) <= count:
        return list(items)
    return [items[round(i * (len(items) - 1) / (count - 1))] for i in range(count)]
