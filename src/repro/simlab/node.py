"""The simulated a2-highgpu node.

One :class:`SimNode` owns the shared vCPU pool, per-GPU compute/NVDEC
resources, NVMe bandwidth, the WAN link to remote storage, and the power
rails.  GPU *training* utilization is tracked separately from total GPU
occupancy so DALI-style on-GPU augmentation shows up as busy silicon but
not as training progress — the distinction behind the paper's GPU-
utilization numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.costs import CostModel, NodeProfile
from repro.sim.kernel import Simulation
from repro.sim.power import EnergyMeter, PowerModel, standard_meter
from repro.sim.resources import Bandwidth, Resource, UtilizationTracker


class SimGPU:
    """One accelerator: training/aug compute, the NVDEC engine."""

    def __init__(self, sim: Simulation, index: int):
        self.index = index
        self.compute = Resource(sim, 1, name=f"gpu{index}.compute")
        self.nvdec = Resource(sim, 1, name=f"gpu{index}.nvdec")
        # Training-only busy time (excludes on-GPU augmentation).
        self.train_tracker = UtilizationTracker(sim.now)
        self._sim = sim

    def train(self, duration: float, priority: float = 0.0):
        """Process fragment: occupy compute for one training step."""

        def _proc():
            lease = yield self.compute.acquire(1, priority)
            self.train_tracker.add(self._sim.now, 1)
            try:
                yield self._sim.timeout(duration)
            finally:
                self.train_tracker.add(self._sim.now, -1)
                lease.release()

        return _proc()

    def train_utilization(self) -> float:
        now = self._sim.now
        if now <= 0:
            return 0.0
        return self.train_tracker.busy_time(now) / now

    def train_busy_s(self) -> float:
        return self.train_tracker.busy_time(self._sim.now)


class SimNode:
    """CPU pool + GPUs + storage paths + energy meter."""

    def __init__(
        self,
        sim: Simulation,
        profile: Optional[NodeProfile] = None,
        cm: Optional[CostModel] = None,
        power: Optional[PowerModel] = None,
    ):
        self.sim = sim
        self.profile = profile or NodeProfile()
        self.cm = cm or CostModel()
        self.cpu = Resource(sim, self.profile.vcpus, name="cpu")
        self.gpus: List[SimGPU] = [SimGPU(sim, i) for i in range(self.profile.gpus)]
        # streams=1: transfers serialize at the full link rate, which is
        # work-conserving-equivalent to fair sharing for completion times.
        self.disk_read = Bandwidth(sim, self.profile.disk_read_bw, streams=1, name="nvme.read")
        self.disk_write = Bandwidth(sim, self.profile.disk_write_bw, streams=1, name="nvme.write")
        self.remote = Bandwidth(sim, self.profile.remote_bw, streams=1, name="wan")
        self.power_model = power or PowerModel()

    # -- resource shortcuts ------------------------------------------------------
    def cpu_work(self, duration: float, priority: float = 0.0):
        """Process fragment: one core busy for ``duration`` seconds."""
        return self.cpu.using(1, priority=priority, duration=duration)

    def gpu(self, index: int = 0) -> SimGPU:
        return self.gpus[index]

    # -- measurements ----------------------------------------------------------------
    def energy_meter(self) -> EnergyMeter:
        gpus = list(self.gpus)
        return standard_meter(
            self.power_model,
            self.sim.now,
            cpu_busy_fn=lambda: self.cpu.busy_time(),
            gpu_busy_fn=lambda: sum(g.compute.busy_time() for g in gpus),
            nvdec_busy_fn=lambda: sum(g.nvdec.busy_time() for g in gpus),
        )

    def energy_breakdown(self) -> dict:
        return self.energy_meter().breakdown(self.sim.now)

    def total_energy_j(self) -> float:
        return self.energy_meter().total_joules(self.sim.now)
