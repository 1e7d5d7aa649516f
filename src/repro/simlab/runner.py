"""Training-run drivers over the simulated node.

``run_training`` executes one task per GPU with standard one-deep
prefetch (batch i+1 is produced while batch i trains — how PyTorch
DataLoaders overlap), and reports wall time, GPU training utilization,
CPU utilization, stalls, energy, and bytes moved — the axes of the
paper's evaluation figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.costs import NodeProfile
from repro.sim.kernel import Simulation
from repro.simlab.node import SimNode
from repro.simlab.pipelines import Strategy
from repro.simlab.workload import Workload


@dataclass
class TrainReport:
    """Measured outcome of one simulated training run."""

    wall_s: float
    iterations: int
    gpu_train_util: float
    gpu_busy_util: float
    cpu_util: float
    stall_s: float
    energy_j: Dict[str, float]
    remote_bytes: float
    disk_read_bytes: float
    per_task_wall_s: List[float] = field(default_factory=list)

    @property
    def total_energy_j(self) -> float:
        return sum(self.energy_j.values())

    @property
    def time_per_iteration(self) -> float:
        return self.wall_s / self.iterations if self.iterations else 0.0


def _trainer_process(
    node: SimNode,
    gpu_index: int,
    task_idx: int,
    strategy: Strategy,
    epochs: int,
    iterations_per_epoch: int,
    done: List[float],
):
    """One task: prefetch-1 pipeline of produce -> train."""
    sim = node.sim
    gpu = node.gpu(gpu_index)
    step_s = strategy.workload.model.gpu_step_s
    schedule = [
        (epoch, iteration)
        for epoch in range(epochs)
        for iteration in range(iterations_per_epoch)
    ]

    def produce(epoch: int, iteration: int):
        return sim.spawn(
            strategy.produce_batch(node, gpu, task_idx, epoch, iteration),
            name=f"produce-t{task_idx}-{epoch}.{iteration}",
        )

    pending = produce(*schedule[0])
    for i, (epoch, iteration) in enumerate(schedule):
        yield pending  # wait for batch i
        if i + 1 < len(schedule):
            pending = produce(*schedule[i + 1])
        yield from gpu.train(step_s)
    done[task_idx] = sim.now


def run_training(
    strategies: Sequence[Strategy],
    epochs: int,
    iterations_per_epoch: Optional[int] = None,
    node_profile: Optional[NodeProfile] = None,
    shared_background: bool = True,
) -> TrainReport:
    """Run one task per GPU; strategies[i] feeds GPU i.

    ``iterations_per_epoch`` defaults to the first workload's full epoch.
    With ``shared_background`` (the SAND multi-task case), background
    engines are started once per distinct strategy object.
    """
    if not strategies:
        raise ValueError("need at least one strategy")
    sim = Simulation()
    profile = node_profile or NodeProfile().scaled_gpus(len(strategies))
    if profile.gpus < len(strategies):
        raise ValueError(
            f"node has {profile.gpus} GPUs for {len(strategies)} tasks"
        )
    node = SimNode(sim, profile)
    iters = iterations_per_epoch or strategies[0].workload.iterations_per_epoch()

    seen = set()
    for strategy in strategies:
        if id(strategy) in seen and shared_background:
            continue
        seen.add(id(strategy))
        strategy.start_background(node, epochs, iters, tasks=len(strategies))

    done = [0.0] * len(strategies)
    for task_idx, strategy in enumerate(strategies):
        sim.spawn(
            _trainer_process(node, task_idx, task_idx, strategy, epochs, iters, done),
            name=f"trainer-{task_idx}",
        )
    sim.run()

    wall = max(done)
    total_iters = epochs * iters * len(strategies)
    train_busy = sum(g.train_busy_s() for g in node.gpus)
    ideal_busy = total_iters / len(strategies) * strategies[0].workload.model.gpu_step_s
    return TrainReport(
        wall_s=wall,
        iterations=total_iters,
        gpu_train_util=train_busy / (wall * len(strategies)) if wall else 0.0,
        gpu_busy_util=(
            sum(g.compute.busy_time() for g in node.gpus) / (wall * len(node.gpus))
            if wall
            else 0.0
        ),
        cpu_util=node.cpu.utilization(),
        stall_s=max(0.0, wall - ideal_busy),
        energy_j=node.energy_breakdown(),
        remote_bytes=node.remote.bytes_transferred,
        disk_read_bytes=node.disk_read.bytes_transferred,
        per_task_wall_s=list(done),
    )


def run_multi_task(
    make_strategy: Callable[[Workload], Strategy],
    workloads: Sequence[Workload],
    epochs: int,
    iterations_per_epoch: int,
    node_profile: Optional[NodeProfile] = None,
) -> TrainReport:
    """Heterogeneous tasks, one per GPU, over a shared node."""
    strategies = [make_strategy(w) for w in workloads]
    profile = node_profile or NodeProfile().scaled_gpus(len(workloads))
    return run_training(
        strategies,
        epochs,
        iterations_per_epoch,
        node_profile=profile,
    )
