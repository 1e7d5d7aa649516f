"""The standing "millions of users" load generator.

Drives fleets of synthetic trainers against a tenant-aware batch source
(``get_batch_lease(task, epoch, iteration, tenant=...)``: the sharded
:class:`~repro.core.sharding.ShardCoordinator`, with one shard or many)
and reports the latency distribution every later PR is judged against.

Each synthetic trainer models one GPU consumer: it requests its task's
batches in order, holds each delivery lease for a simulated GPU step
(``gpu_step_s``), releases it, and immediately demands the next batch.
Demand latency is the wall time from request to lease-in-hand — the
trainer-visible stall the paper's Fig 14 plots.  Latencies, errors, and
throughput aggregate per tenant and fleet-wide (p50/p90/p99/max).

All timing here is observability (reported, never fed back into a
scheduling decision), hence the wall-clock lint pragmas.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.locks import make_lock


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    rank = max(1, int(round(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


@dataclass(frozen=True)
class TrainerSpec:
    """One synthetic trainer: who it is and what it consumes."""

    name: str
    tenant: str
    task: str
    epochs: int = 1
    iterations: Optional[int] = None  # None = the task's full epoch
    gpu_step_s: float = 0.0
    start_epoch: int = 0


def make_fleet(
    tenants: Sequence[str],
    trainers_per_tenant: int,
    tasks: Sequence[str],
    epochs: int = 1,
    iterations: Optional[int] = None,
    gpu_step_s: float = 0.0,
) -> List[TrainerSpec]:
    """A uniform fleet: each tenant runs N trainers round-robin on tasks."""
    if not tenants or not tasks:
        raise ValueError("need at least one tenant and one task")
    fleet: List[TrainerSpec] = []
    for t_index, tenant in enumerate(tenants):
        for i in range(trainers_per_tenant):
            task = tasks[(t_index * trainers_per_tenant + i) % len(tasks)]
            fleet.append(
                TrainerSpec(
                    name=f"{tenant}/trainer-{i}",
                    tenant=tenant,
                    task=task,
                    epochs=epochs,
                    iterations=iterations,
                    gpu_step_s=gpu_step_s,
                )
            )
    return fleet


class LoadGenerator:
    """Run a trainer fleet against a tenant-aware batch source."""

    def __init__(self, source: Any, trainers: Sequence[TrainerSpec]):
        if not hasattr(source, "get_batch_lease"):
            raise TypeError(
                f"{type(source).__name__} does not expose get_batch_lease"
            )
        if not trainers:
            raise ValueError("need at least one trainer spec")
        self._source = source
        self._trainers = list(trainers)
        self._lock = make_lock("loadgen.results")
        self._latencies: Dict[str, List[float]] = {}
        self._batches: Dict[str, int] = {}
        self._errors: Dict[str, List[str]] = {}

    # -- one trainer ---------------------------------------------------------
    def _iterations_for(self, spec: TrainerSpec, epoch: int) -> int:
        if spec.iterations is not None:
            return spec.iterations
        return int(self._source.iterations_per_epoch(spec.task, epoch))

    def _run_trainer(self, spec: TrainerSpec) -> None:
        latencies: List[float] = []
        batches = 0
        try:
            for epoch in range(spec.start_epoch, spec.start_epoch + spec.epochs):
                for iteration in range(self._iterations_for(spec, epoch)):
                    started = time.perf_counter()  # sandlint: ignore[wall-clock]
                    lease, _meta = self._source.get_batch_lease(
                        spec.task, epoch, iteration, tenant=spec.tenant
                    )
                    latency = time.perf_counter() - started  # sandlint: ignore[wall-clock]
                    try:
                        latencies.append(latency)
                        batches += 1
                        if spec.gpu_step_s > 0:
                            # The simulated GPU step: the trainer holds
                            # the batch while "training" on it.
                            time.sleep(spec.gpu_step_s)
                    finally:
                        lease.release()
        except Exception as exc:  # noqa: BLE001 - the report carries it
            with self._lock:
                self._errors.setdefault(spec.tenant, []).append(
                    f"{spec.name}: {type(exc).__name__}: {exc}"
                )
        finally:
            with self._lock:
                self._latencies.setdefault(spec.tenant, []).extend(latencies)
                self._batches[spec.tenant] = (
                    self._batches.get(spec.tenant, 0) + batches
                )

    # -- the fleet -----------------------------------------------------------
    def run(self, timeout_s: float = 600.0) -> Dict[str, Any]:
        """Run every trainer to completion; returns the fleet report."""
        with self._lock:
            self._latencies.clear()
            self._batches.clear()
            self._errors.clear()
        threads = [
            threading.Thread(
                target=self._run_trainer, args=(spec,), name=f"loadgen-{spec.name}"
            )
            for spec in self._trainers
        ]
        started = time.perf_counter()  # sandlint: ignore[wall-clock]
        for thread in threads:
            thread.start()
        deadline = started + timeout_s
        for thread in threads:
            remaining = max(0.1, deadline - time.perf_counter())  # sandlint: ignore[wall-clock]
            thread.join(timeout=remaining)
        elapsed = time.perf_counter() - started  # sandlint: ignore[wall-clock]
        stuck = [t.name for t in threads if t.is_alive()]
        return self._report(elapsed, stuck)

    def _report(self, elapsed: float, stuck: List[str]) -> Dict[str, Any]:
        with self._lock:
            all_latencies = [
                sample for samples in self._latencies.values() for sample in samples
            ]
            per_tenant = {}
            for tenant in sorted(self._latencies):
                samples = self._latencies[tenant]
                per_tenant[tenant] = {
                    "batches": self._batches.get(tenant, 0),
                    "p50_s": percentile(samples, 50),
                    "p99_s": percentile(samples, 99),
                    "errors": len(self._errors.get(tenant, [])),
                }
            total_batches = sum(self._batches.values())
            error_lines = [
                line for lines in self._errors.values() for line in lines
            ]
            return {
                "trainers": len(self._trainers),
                "tenants": len({s.tenant for s in self._trainers}),
                "batches": total_batches,
                "elapsed_s": elapsed,
                "throughput_batches_per_s": (
                    total_batches / elapsed if elapsed > 0 else 0.0
                ),
                "latency_s": {
                    "p50": percentile(all_latencies, 50),
                    "p90": percentile(all_latencies, 90),
                    "p99": percentile(all_latencies, 99),
                    "max": max(all_latencies) if all_latencies else 0.0,
                },
                "per_tenant": per_tenant,
                "errors": error_lines,
                "stuck_trainers": stuck,
            }
