"""Priority-based materialization scheduling (paper S5.4).

SAND assigns each materialization worker to a video subtree and orders
pending subtrees by *deadline*: the number of iterations until the GPU
first needs one of the subtree's training objects.  Demand feeding always
outranks pre-materialization.  When memory pressure crosses a threshold
(80% in the paper), the policy flips to Shortest-Job-First on the count
of unprocessed edges, so nearly-finished subtrees complete and release
their decoded raw frames instead of many half-done subtrees pinning
memory.

The scheduler itself is pure policy — no threads — so the real engine
(:mod:`repro.core.engine`) and the simulation harness share it and the
benchmarks can test scheduling decisions deterministically.  The
:class:`WorkGate` is the one concession to concurrency: a counter of
*running* work per priority class that claim loops consult so demand
feeding outranks prefetch, which outranks pre-materialization, without
ever blocking work that has already started.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.locks import make_lock
from repro.analysis.sanitizers import buffer_sanitizer
from repro.core.concrete_graph import BatchAssembly, MaterializationPlan
from repro.core.pruning import PruningOutcome


class SchedulingMode(enum.Enum):
    DEADLINE = "deadline"
    SJF = "sjf"
    FIFO = "fifo"  # the no-scheduling ablation (Fig 18)


class WorkClass(enum.IntEnum):
    """Engine work classes; lower value = higher priority (S5.4)."""

    DEMAND = 0  # get_batch on the trainer's thread
    PREFETCH = 1  # speculative next-K batch assembly
    PREMATERIALIZE = 2  # background frontier materialization


class WorkGate:
    """Claim-time priority between the engine's work classes.

    ``enter``/``exit`` bracket a unit of running work and never block.
    Lower-priority claim loops call :meth:`clear_above` before taking
    new work: a pre-materialization worker — and, between two videos,
    the service's plan-ahead builder, and a warm engine's prefetcher —
    defers while any demand or prefetch assembly runs, and a prefetch
    worker defers while demand feeding runs.  Work already in flight is
    never preempted — priority is enforced purely at claim time, which
    keeps the gate trivially deadlock-free (no waits, just counters).
    """

    def __init__(self) -> None:
        self._lock = make_lock("work-gate")
        self._running: Dict[WorkClass, int] = {cls: 0 for cls in WorkClass}

    def enter(self, work_class: WorkClass) -> None:
        with self._lock:
            self._running[work_class] += 1

    def exit(self, work_class: WorkClass) -> None:
        with self._lock:
            balanced = self._running[work_class] > 0
            if balanced:
                self._running[work_class] -= 1
        if not balanced:
            # Never raise on the serving path; but whoever waits on the
            # gate (plan-ahead parks behind it) trusts its counts, so an
            # exit nobody entered is a finding, not something to clamp away.
            sanitizer = buffer_sanitizer()
            if sanitizer is not None:
                sanitizer.note_leak(
                    f"work-gate imbalance: exit({work_class.name}) without a "
                    f"matching enter"
                )

    def running(self, work_class: WorkClass) -> int:
        with self._lock:
            return self._running[work_class]

    def clear_above(self, work_class: WorkClass) -> bool:
        """True when no higher-priority work is currently running."""
        with self._lock:
            return all(
                self._running[cls] == 0 for cls in WorkClass if cls < work_class
            )


@dataclass
class VideoJob:
    """One subtree's pending materialization work."""

    video_id: str
    first_needed_step: int  # earliest global step any leaf is consumed
    total_edges: int  # ops in the subtree
    processed_edges: int = 0
    done: bool = False
    frontier: FrozenSet[str] = frozenset()  # nodes this job materializes

    @property
    def remaining_edges(self) -> int:
        return max(0, self.total_edges - self.processed_edges)


def build_jobs(
    plan: MaterializationPlan,
    pruning: Optional[PruningOutcome] = None,
    owned: Optional[Iterable[BatchAssembly]] = None,
) -> Dict[str, VideoJob]:
    """One job per video graph, with deadlines from the batch table.

    A job's frontier is the caching-frontier nodes its batches' sample
    leaves descend from (the leaves themselves when nothing was pruned),
    its work the ops needed to materialize them (leaves' feed-time ops
    are the demand path's problem) and its deadline the first batch that
    needs the video.

    ``owned`` scopes the jobs to a shard's share of the window's
    batches (default: all of them): a video that feeds no owned batch
    gets no job, and frontier, work and deadline count owned batches
    only.
    """
    frontiers: Dict[str, Set[str]] = {}
    first_step: Dict[str, int] = {}
    for assembly in plan.batches.values() if owned is None else owned:
        step = plan.global_step(assembly.task, assembly.epoch, assembly.iteration)
        for video_id, leaf_key in assembly.samples:
            first_step[video_id] = min(step, first_step.get(video_id, step))
            reached = frontiers.setdefault(video_id, set())
            if pruning is None:
                reached.add(leaf_key)
                continue
            # Walk up from the leaf to the frontier nodes it descends from.
            graph, cached = plan.graphs[video_id], pruning.frontier_of(video_id)
            stack: List[str] = [leaf_key]
            seen: Set[str] = set()
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                if current in cached:
                    reached.add(current)
                else:
                    stack.extend(graph.nodes[current].parents)
    jobs: Dict[str, VideoJob] = {}
    for video_id, graph in plan.graphs.items():  # plan order = FIFO arrival
        if video_id not in frontiers:
            continue
        work: Set[str] = set()
        stack = list(frontiers[video_id])
        while stack:
            current = stack.pop()
            node = graph.nodes[current]
            if current in work or node.kind == "video":
                continue
            work.add(current)
            stack.extend(node.parents)
        jobs[video_id] = VideoJob(
            video_id=video_id,
            first_needed_step=first_step[video_id],
            total_edges=len(work),
            frontier=frozenset(frontiers[video_id]),
        )
    return jobs


class MaterializationScheduler:
    """Chooses which pending video subtree a worker should process next."""

    def __init__(
        self,
        jobs: Dict[str, VideoJob],
        memory_fraction: Optional[Callable[[], float]] = None,
        memory_threshold: float = 0.8,
        mode: SchedulingMode = SchedulingMode.DEADLINE,
    ):
        if not 0.0 < memory_threshold <= 1.0:
            raise ValueError(f"memory threshold must be in (0,1], got {memory_threshold}")
        self.jobs = jobs
        self.memory_fraction = memory_fraction or (lambda: 0.0)
        self.memory_threshold = memory_threshold
        self.base_mode = mode
        self._arrival: Dict[str, int] = {
            vid: i for i, vid in enumerate(jobs)
        }

    def current_mode(self) -> SchedulingMode:
        """Deadline normally; SJF under memory pressure (S5.4)."""
        if self.base_mode is SchedulingMode.FIFO:
            return SchedulingMode.FIFO
        if self.memory_fraction() >= self.memory_threshold:
            return SchedulingMode.SJF
        return self.base_mode

    def priority_key(self, job: VideoJob, current_step: int) -> Tuple[int, ...]:
        mode = self.current_mode()
        if mode is SchedulingMode.FIFO:
            return (self._arrival[job.video_id],)
        if mode is SchedulingMode.SJF:
            # Fewest unprocessed edges first: finish and free memory.
            return (job.remaining_edges, self._arrival[job.video_id])
        # Deadline: smallest slack (steps until first need) first.
        slack = job.first_needed_step - current_step
        return (slack, self._arrival[job.video_id])

    def next_job(self, current_step: int = 0) -> Optional[VideoJob]:
        pending = [j for j in self.jobs.values() if not j.done]
        if not pending:
            return None
        return min(pending, key=lambda j: self.priority_key(j, current_step))

    def mark_progress(self, video_id: str, edges: int = 1) -> None:
        job = self.jobs[video_id]
        job.processed_edges += edges
        if job.processed_edges >= job.total_edges:
            job.done = True

    def mark_done(self, video_id: str) -> None:
        job = self.jobs.get(video_id)
        if job is None:  # scoped out while a worker held it
            return
        job.processed_edges = job.total_edges
        job.done = True

    def replace_jobs(self, jobs: Dict[str, VideoJob]) -> None:
        """Swap in a re-scoped job table; finished videos stay finished."""
        for video_id, job in jobs.items():
            old = self.jobs.get(video_id)
            if old is not None and old.done:
                job.processed_edges = job.total_edges
                job.done = True
            self._arrival.setdefault(video_id, len(self._arrival))
        self.jobs = jobs

    @property
    def pending_count(self) -> int:
        return sum(1 for j in self.jobs.values() if not j.done)

    def order_preview(self, current_step: int = 0) -> List[str]:
        """Full pending order under the current mode (for tests/benches)."""
        pending = [j for j in self.jobs.values() if not j.done]
        pending.sort(key=lambda j: self.priority_key(j, current_step))
        return [j.video_id for j in pending]
