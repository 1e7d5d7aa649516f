"""The standing sharded-service load benchmark ("millions of users").

One experiment, three blocks, persisted to
``benchmark_results/BENCH_shard_service.json`` as the trajectory every
later PR is judged against:

* **Fleet** — N engine shards behind the consistent-hash coordinator
  serve hundreds of GPU-step-paced synthetic trainers spread across
  tenants with mixed quotas.  Reported: p50/p99 demand latency,
  throughput, per-shard utilization, dedup hit rate, and per-tenant
  progress.
* **Dedup** — identically-configured tasks requested by different
  tenants must resolve to one owner shard per view signature; the gate
  asserts ``dedup_hits > 0`` and that the second tenant's pass adds
  zero demand materializations anywhere.
* **One-shard differential** — a 1-shard coordinator must be
  byte-identical to the plain single-engine ``get_batch`` path across
  3 seeds, clean and under the capstone fault schedule (sharding is
  routing, never semantics).

Gates: dedup hits fire, every batch byte-identical in the differential,
no trainer errors, and zero delivery leases outstanding after drain.
The ledger is a trajectory, not a scratch file: a full run prints old ->
new against the committed ``BENCH_shard_service.json`` and refuses to
overwrite it when p99 latency or throughput got more than 25 % worse.
Set ``BENCH_SMOKE=1`` for the CI smoke run.
"""

import json
import os
import time

from conftest import once

from repro.core import (
    LoadGenerator,
    SandService,
    ShardCoordinator,
    TenantQuota,
    load_task_config,
    make_fleet,
)
from repro.core.tenancy import AdmissionController
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.faults import FaultSchedule, FaultSpec
from repro.faults.schedule import SITE_ENGINE_JOB, SITE_STORE_GET, SITE_STORE_PUT
from repro.metrics import Table
from repro.storage import RetryPolicy
from repro.storage.local import LocalStore

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SHARDS = 2 if SMOKE else 4
TENANTS = 4 if SMOKE else 8
TRAINERS_PER_TENANT = 2 if SMOKE else 32  # fleet: 8 smoke / 256 full
NUM_VIDEOS = 4 if SMOKE else 8
K_EPOCHS = 2
TASKS = ["t0", "t1", "t2", "t3"]  # identical configs -> shared signatures

FAST_RETRY = RetryPolicy(max_retries=4, base_delay_s=0.0, max_delay_s=0.0)

LEDGER_TOLERANCE = 0.25  # share by which p99 / throughput may get worse


def make_config(tag):
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
                        {"resize": {"shape": [24, 32]}},
                        {"random_crop": {"size": [16, 16]}},
                        {"flip": {"flip_prob": 0.5}},
                    ],
                }
            ],
        }
    })


def make_shard(tags=TASKS, seed=0, fault_schedule=None, store=None):
    dataset = SyntheticDataset(
        DatasetSpec(num_videos=NUM_VIDEOS, min_frames=24, max_frames=36,
                    width=32, height=24, seed=3)
    )
    return SandService(
        [make_config(tag) for tag in tags],
        dataset,
        k_epochs=K_EPOCHS,
        num_workers=0,
        seed=seed,
        prefetch_depth=0,
        fault_schedule=fault_schedule,
        retry_policy=FAST_RETRY if fault_schedule is not None else None,
        store=store,
    )


def capstone_schedule(seed):
    return FaultSchedule(seed=seed, specs=[
        FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
        FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
        FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
    ])


def batch_keys(service, task):
    return sorted(k for k in service.window_plan(0, task).batches if k[0] == task)


def compare_with_ledger(old, new):
    """Old -> new rows of the headline numbers, and why (if at all) the
    new result may not replace the committed one."""
    def headline(result):
        fleet = result["fleet"]["fleet"]
        numbers = {
            "demand p50 (ms)": fleet["latency_s"]["p50"] * 1e3,
            "demand p99 (ms)": fleet["latency_s"]["p99"] * 1e3,
            "throughput (batches/s)": fleet["throughput_batches_per_s"],
        }
        for shard_id, share in sorted(result["fleet"]["routing"]["utilization"].items()):
            numbers[f"utilization {shard_id}"] = share
        return numbers

    before, after = headline(old), headline(new)
    rows = [(name, before.get(name), after[name]) for name in after]
    regressions = []
    if after["demand p99 (ms)"] > before["demand p99 (ms)"] * (1 + LEDGER_TOLERANCE):
        regressions.append("demand p99 (ms)")
    if after["throughput (batches/s)"] < before["throughput (batches/s)"] * (1 - LEDGER_TOLERANCE):
        regressions.append("throughput (batches/s)")
    return rows, regressions


def fleet_experiment():
    """The headline fleet: tenants with mixed quotas over N shards."""
    # GPU-step pacing from the mean synchronous assembly time, same
    # convention as the prefetch/dataplane benchmarks.
    reference = make_shard()
    keys = batch_keys(reference, "t0")
    started = time.perf_counter()
    for key in keys:
        reference.get_batch(*key)
    mean_assembly_s = (time.perf_counter() - started) / len(keys)
    reference.shutdown()
    gpu_step_s = 1.5 * mean_assembly_s

    admission = AdmissionController(
        default_quota=TenantQuota(max_inflight=4),
        global_max_inflight=SHARDS * 16,
    )
    coordinator = ShardCoordinator(
        [make_shard() for _ in range(SHARDS)], admission=admission
    )
    tenants = [f"tenant-{i}" for i in range(TENANTS)]
    # Mixed quotas: even tenants heavy, odd tenants small — the fairness
    # policy must keep the small ones progressing.
    for index, tenant in enumerate(tenants):
        admission.set_quota(
            tenant,
            TenantQuota(max_inflight=8, weight=2.0)
            if index % 2 == 0
            else TenantQuota(max_inflight=2, weight=1.0),
        )
    try:
        fleet = make_fleet(
            tenants,
            trainers_per_tenant=TRAINERS_PER_TENANT,
            tasks=TASKS,
            epochs=K_EPOCHS,
            gpu_step_s=gpu_step_s,
        )
        report = LoadGenerator(coordinator, fleet).run(timeout_s=540.0)
        routing = coordinator.routing_report()
        admission_report = admission.report()
        leases = {
            sid: coordinator.shard(sid).delivery_pool.leases_outstanding
            for sid in coordinator.shard_ids()
        }
    finally:
        coordinator.shutdown()
    return {
        "shards": SHARDS,
        "gpu_step_ms": round(gpu_step_s * 1e3, 4),
        "fleet": report,
        "routing": routing,
        "admission": admission_report,
        "leases_outstanding": leases,
    }


def dedup_experiment():
    """Two tenants request identical views; the second materializes nothing."""
    coordinator = ShardCoordinator([make_shard() for _ in range(SHARDS)])
    try:
        keys = batch_keys(coordinator.shard("shard-0"), "t0")
        for (_t, epoch, iteration) in keys:
            coordinator.get_batch("t0", epoch, iteration, tenant="first")
        def demand_counts():
            return {
                sid: coordinator.shard(sid).engine.stats.demand_materializations
                for sid in coordinator.shard_ids()
                if coordinator.shard(sid).engine is not None
            }
        after_first = demand_counts()
        for task in TASKS[1:]:
            for (_t, epoch, iteration) in keys:
                coordinator.get_batch(task, epoch, iteration, tenant=task)
        after_all = demand_counts()
        routing = coordinator.routing_report()
    finally:
        coordinator.shutdown()
    return {
        "distinct_views": len(keys),
        "tenant_passes": len(TASKS),
        "demand_materializations_first_pass": sum(after_first.values()),
        "demand_materializations_all_passes": sum(after_all.values()),
        "dedup_hits": routing["dedup_hits"],
        "dedup_tracked_views": routing["dedup_tracked_views"],
    }


def one_shard_differential():
    """1-shard coordinator == plain service, 3 seeds, clean + faulted."""
    seeds = [0, 1, 2]
    out = {"seeds": seeds, "clean_identical": True, "faulted_identical": True}
    for seed in seeds:
        plain = make_shard(seed=seed)
        coordinator = ShardCoordinator([make_shard(seed=seed)])
        faulted_plain = make_shard(
            seed=seed, fault_schedule=capstone_schedule(seed),
            store=LocalStore(10**8),
        )
        faulted_coord = ShardCoordinator([make_shard(
            seed=seed, fault_schedule=capstone_schedule(seed),
            store=LocalStore(10**8),
        )])
        try:
            for task in TASKS[:2]:
                for key in batch_keys(plain, task):
                    want, _ = plain.get_batch(*key)
                    got, _ = coordinator.get_batch(*key, tenant="t")
                    if want.tobytes() != got.tobytes():
                        out["clean_identical"] = False
                    fwant, _ = faulted_plain.get_batch(*key)
                    fgot, _ = faulted_coord.get_batch(*key, tenant="t")
                    if not (
                        fwant.tobytes() == fgot.tobytes() == want.tobytes()
                    ):
                        out["faulted_identical"] = False
        finally:
            plain.shutdown()
            coordinator.shutdown()
            faulted_plain.shutdown()
            faulted_coord.shutdown()
    return out


def run_experiment():
    return {
        "workload": {
            "shards": SHARDS,
            "tenants": TENANTS,
            "trainers": TENANTS * TRAINERS_PER_TENANT,
            "tasks": len(TASKS),
            "num_videos": NUM_VIDEOS,
            "k_epochs": K_EPOCHS,
            "smoke": SMOKE,
        },
        "fleet": fleet_experiment(),
        "dedup": dedup_experiment(),
        "one_shard_differential": one_shard_differential(),
    }


def test_perf_shard_service(benchmark, emit, results_dir):
    result = once(benchmark, run_experiment)
    fleet = result["fleet"]["fleet"]
    routing = result["fleet"]["routing"]
    dedup = result["dedup"]
    diff = result["one_shard_differential"]

    table = Table(
        "Sharded multi-tenant service under the trainer fleet",
        ["metric", "value"],
    )
    table.add_row("shards", result["workload"]["shards"])
    table.add_row("tenants", result["workload"]["tenants"])
    table.add_row("concurrent trainers", result["workload"]["trainers"])
    table.add_row("batches served", fleet["batches"])
    table.add_row("demand p50 (ms)", round(fleet["latency_s"]["p50"] * 1e3, 3))
    table.add_row("demand p99 (ms)", round(fleet["latency_s"]["p99"] * 1e3, 3))
    table.add_row("throughput (batches/s)", round(fleet["throughput_batches_per_s"], 1))
    for shard_id, share in sorted(routing["utilization"].items()):
        table.add_row(f"utilization {shard_id}", round(share, 3))
    table.add_row("dedup hits (fleet)", routing["dedup_hits"])
    table.add_row("dedup hits (dedup pass)", dedup["dedup_hits"])
    table.add_row(
        "rematerializations by tenants 2..N",
        dedup["demand_materializations_all_passes"]
        - dedup["demand_materializations_first_pass"],
    )
    table.add_row("1-shard identical (3 seeds)", diff["clean_identical"])
    table.add_row("1-shard identical under faults", diff["faulted_identical"])

    # Gates.
    assert fleet["errors"] == [], fleet["errors"]
    assert fleet["stuck_trainers"] == []
    assert fleet["batches"] == (
        result["workload"]["trainers"]
        * K_EPOCHS
        * (NUM_VIDEOS // 2)  # iterations per epoch at videos_per_batch=2
    )
    for tenant_report in fleet["per_tenant"].values():
        assert tenant_report["batches"] > 0  # no tenant starved
    # Cross-shard dedup measurably reduces materialization: the fleet
    # and the dedup pass both hit, and tenants 2..N materialize nothing.
    assert dedup["dedup_hits"] > 0, dedup
    assert (
        dedup["demand_materializations_all_passes"]
        == dedup["demand_materializations_first_pass"]
    ), dedup
    # Zero leaked leases once the fleet drains.
    assert all(
        count == 0 for count in result["fleet"]["leases_outstanding"].values()
    ), result["fleet"]["leases_outstanding"]
    # Sharding is routing, never semantics.
    assert diff["clean_identical"] and diff["faulted_identical"], diff

    ledger = results_dir / "BENCH_shard_service.json"
    tables, regressions = [table], []
    if not SMOKE and ledger.exists():
        committed = json.loads(ledger.read_text())
        if committed.get("workload") == result["workload"]:
            rows, regressions = compare_with_ledger(committed, result)
            trajectory = Table("Against the committed ledger", ["metric", "old", "new"])
            for name, old, new in rows:
                trajectory.add_row(
                    name, "-" if old is None else round(old, 3), round(new, 3)
                )
            tables.append(trajectory)
    emit("shard_service", *tables)
    assert not regressions, (
        f"{regressions} got more than {LEDGER_TOLERANCE:.0%} worse than the "
        f"committed {ledger.name}; the ledger was left as it was"
    )
    if not SMOKE:
        ledger.write_text(json.dumps(result, indent=2) + "\n")
