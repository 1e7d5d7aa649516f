"""Concrete object dependency graphs and the materialization plan (S5.2).

SAND builds, for each video and for a window of ``k`` epochs, a fully
specified graph of the data objects every task will need: the encoded
video at the root, decoded frames below it, clips (selected frame
groups), chains of augmented clips, and finally the per-video *sample
leaves* that get collated into training batches.  Nodes are identified by
content keys — video id, frame index, the exact resolved augmentation
step prefix — so when coordinated randomization makes two tasks produce
the same object, they land on the *same node* and the work is shared.
That key-level merging is the mechanism behind Fig 16's operation
reductions.

Keys are *logical* identities and deliberately know nothing about
execution strategy: the augmentation plan compiler
(:mod:`repro.augment.fusion`) may collapse a whole per-frame op chain
into one fused pass at materialization time, but every intermediate
node keeps its own key, so cross-task merging, pruning, and cache
addressing are byte-for-byte unaffected by whether a chain ran fused
or step by step.

A :class:`MaterializationPlan` is the collection of per-video
:class:`VideoGraph` objects plus the batch-composition table mapping
``(task, epoch, iteration)`` to the sample leaves that batch collates.
The per-video granularity follows the paper: pruning (Algorithm 1)
iterates per video, and materialization threads are assigned per video
subtree (S5.4).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.augment.pipeline import ResolvedStep
from repro.codec.decoder import frames_to_decode
from repro.codec.incremental import frames_to_decode_with_cache
from repro.codec.model import VideoMetadata
from repro.core.config import TaskConfig
from repro.core.coordination import (
    EpochSchedule,
    FramePoolCoordinator,
    SharedWindowSampler,
    TaskRequirement,
    deferred_rng,
)
from repro.sim.costs import CostModel


def _short_hash(*parts: object) -> str:
    text = "\x1f".join(str(p) for p in parts)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Use:
    """One consumption of a sample leaf by a training batch."""

    task: str
    epoch: int
    iteration: int
    slot: int  # position of the sample within the batch

    @property
    def batch_id(self) -> Tuple[str, int, int]:
        return (self.task, self.epoch, self.iteration)


@dataclass
class ObjectNode:
    """One data object in a per-video concrete graph."""

    key: str
    kind: str  # "video" | "frame" | "clip" | "aug"
    size_bytes: float
    parents: Tuple[str, ...]
    op_name: str  # operation on the incoming edge ("" for the root)
    op_cost_s: float  # single-core seconds to produce from parents
    clip_shape: Optional[Tuple[int, int, int, int]] = None
    frame_index: Optional[int] = None
    frame_indices: Optional[Tuple[int, ...]] = None  # sample leaves only
    # Executable op identity: (op name, config JSON, params JSON), as
    # produced by ResolvedStep.key — enough to reconstruct and apply.
    op_args: Optional[Tuple[str, str, str]] = None
    # Sample leaves: clip-scoped steps applied after collation.
    clip_ops: Tuple[Tuple[str, str, str], ...] = ()
    uses: List[Use] = field(default_factory=list)
    ref_count: int = 0  # times this node appears on some sample's path

    @property
    def is_leaf_sample(self) -> bool:
        return bool(self.uses)


class VideoGraph:
    """The concrete object graph rooted at one video."""

    def __init__(self, video_id: str, metadata: VideoMetadata, encoded_bytes: float):
        self.video_id = video_id
        self.metadata = metadata
        self.root_key = f"video:{video_id}"
        self.nodes: Dict[str, ObjectNode] = {
            self.root_key: ObjectNode(
                key=self.root_key,
                kind="video",
                size_bytes=encoded_bytes,
                parents=(),
                op_name="",
                op_cost_s=0.0,
            )
        }
        self._children: Dict[str, List[str]] = {self.root_key: []}
        # All frame indices any task wants from this video in the window.
        self.wanted_frames: set[int] = set()

    # -- construction -----------------------------------------------------------
    def merge(self, key: str) -> Optional[ObjectNode]:
        """The node already under ``key``, with one more reference — asked
        before a node is constructed, because most additions are merges."""
        existing = self.nodes.get(key)
        if existing is not None:
            existing.ref_count += 1
        return existing

    def add_node(self, node: ObjectNode) -> None:
        """Insert a node :meth:`merge` did not find."""
        self.nodes[node.key] = node
        self._children.setdefault(node.key, [])
        for parent in node.parents:
            self._children.setdefault(parent, []).append(node.key)
        node.ref_count = 1

    # -- queries -----------------------------------------------------------------
    def children(self, key: str) -> List[str]:
        return self._children.get(key, [])

    def leaves(self) -> List[ObjectNode]:
        return [n for n in self.nodes.values() if n.is_leaf_sample]

    def frames(self) -> List[ObjectNode]:
        return [n for n in self.nodes.values() if n.kind == "frame"]

    def subtree_keys(self, key: str) -> List[str]:
        """``key`` plus all descendants (preorder)."""
        out, stack, seen = [], [key], set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            stack.extend(self._children.get(current, []))
        return out

    def subtree_edge_cost(self, key: str) -> float:
        """Sum of op costs strictly below ``key`` (its recompute burden)."""
        return sum(
            self.nodes[k].op_cost_s for k in self.subtree_keys(key) if k != key
        )

    def path_cost(self, key: str, stop_at: Iterable[str]) -> float:
        """Op cost to produce ``key`` from the nearest ``stop_at`` ancestors."""
        stops = set(stop_at)
        cost = 0.0
        stack = [key]
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen or current in stops:
                continue
            seen.add(current)
            node = self.nodes[current]
            cost += node.op_cost_s
            stack.extend(node.parents)
        return cost

    def decode_plan(self) -> List[int]:
        """Frames that must actually be decoded for the wanted set."""
        if not self.wanted_frames:
            return []
        return frames_to_decode(
            self.metadata.gop, self.wanted_frames, self.metadata.num_frames
        )

    def decode_plan_with_cache(self, cached_anchors: Iterable[int]) -> List[int]:
        """Decode plan given anchors already held by an anchor cache.

        The pure pricing counterpart to the engine's stateful decode
        reuse: ``len(decode_plan_with_cache(...))`` at the cost model's
        per-frame decode rate is the decode cost after reuse, without
        touching a decoder.  With no cached anchors this is exactly
        :meth:`decode_plan`.
        """
        if not self.wanted_frames:
            return []
        return frames_to_decode_with_cache(
            self.metadata.gop,
            self.wanted_frames,
            self.metadata.num_frames,
            cached_anchors,
        )


@dataclass
class BatchAssembly:
    """How one training batch is collated from per-video sample leaves."""

    task: str
    epoch: int
    iteration: int
    samples: List[Tuple[str, str]] = field(default_factory=list)  # (video_id, leaf key)
    # The batch's metadata mapping, memoized by whoever first describes
    # it, an engine or the front end (a pure function of the plan;
    # shared, read-only; see ``engine.batch_metadata``).
    described: Optional[Dict] = field(default=None, repr=False, compare=False)


class MaterializationPlan:
    """The unified k-epoch plan across all tasks sharing a dataset."""

    def __init__(
        self,
        tasks: Sequence[TaskConfig],
        epoch_start: int,
        k_epochs: int,
    ):
        self.tasks: Dict[str, TaskConfig] = {t.tag: t for t in tasks}
        self.epoch_start = epoch_start
        self.k_epochs = k_epochs
        self.graphs: Dict[str, VideoGraph] = {}
        self.batches: Dict[Tuple[str, int, int], BatchAssembly] = {}
        self.iterations_per_epoch: Dict[str, int] = {}

    @property
    def epochs(self) -> List[int]:
        return list(range(self.epoch_start, self.epoch_start + self.k_epochs))

    def global_step(self, task: str, epoch: int, iteration: int) -> int:
        """Per-task step index within this plan window (deadline axis)."""
        per_epoch = self.iterations_per_epoch[task]
        return (epoch - self.epoch_start) * per_epoch + iteration

    def first_use_step(self, node: ObjectNode) -> Optional[int]:
        """Earliest step (min over tasks) at which a leaf is consumed."""
        if not node.uses:
            return None
        return min(self.global_step(u.task, u.epoch, u.iteration) for u in node.uses)

    # -- aggregate statistics (Fig 16 inputs) -------------------------------------
    def operation_counts(self) -> Dict[str, int]:
        """Unique operations executed under this plan, by op name.

        Each node is produced once per window, so merged nodes count
        once.  ``decode`` counts *frames actually decoded* including GOP
        lead-in, per the codec's dependency rule.
        """
        counts: Dict[str, int] = {}
        for graph in self.graphs.values():
            counts["decode"] = counts.get("decode", 0) + len(graph.decode_plan())
            for node in graph.nodes.values():
                if node.kind in ("aug", "sample"):
                    counts[node.op_name] = counts.get(node.op_name, 0) + 1
        return counts

    def reference_counts(self) -> Dict[str, int]:
        """Operations a plan-less pipeline would execute (no merging).

        Every reference to a node recomputes it, and every sample decodes
        its own dependency chain.
        """
        counts: Dict[str, int] = {}
        for graph in self.graphs.values():
            for node in graph.nodes.values():
                if node.kind in ("aug", "sample"):
                    counts[node.op_name] = counts.get(node.op_name, 0) + node.ref_count
                # Decode work without reuse: every sample reference decodes
                # its own frames, GOP amplification included.
                if node.kind == "sample" and node.frame_indices:
                    needed = len(
                        frames_to_decode(
                            graph.metadata.gop,
                            node.frame_indices,
                            graph.metadata.num_frames,
                        )
                    )
                    counts["decode"] = counts.get("decode", 0) + needed * node.ref_count
        return counts

    def frame_selection_counts(self) -> Dict[Tuple[str, int], int]:
        """(video, frame) -> times selected across the window (Fig 19)."""
        out: Dict[Tuple[str, int], int] = {}
        for graph in self.graphs.values():
            for node in graph.nodes.values():
                if node.kind == "frame":
                    out[(graph.video_id, node.frame_index)] = node.ref_count
        return out

    def total_cached_bytes(self) -> float:
        """Bytes if every current leaf sample were cached (pre-pruning)."""
        return sum(
            node.size_bytes for g in self.graphs.values() for node in g.leaves()
        )


def build_plan_window(
    tasks: Sequence[TaskConfig],
    dataset,
    epoch_start: int,
    k_epochs: int,
    seed: int = 0,
    coordinated: bool = True,
    coordinate_temporal: Optional[bool] = None,
    coordinate_spatial: Optional[bool] = None,
    cost_model: Optional[CostModel] = None,
    max_iterations_per_epoch: Optional[int] = None,
    between_videos: Optional[Callable[[], None]] = None,
) -> MaterializationPlan:
    """Build the unified concrete plan for ``k`` epochs across ``tasks``.

    ``dataset`` must expose ``video_ids``, ``metadata(id)`` and
    ``encoded_size(id)`` (both real and virtual datasets do).
    ``coordinated=False`` disables the shared pool/window (every task
    re-randomizes) — the ablation baseline for Figs 16/19/20.  The two
    mechanisms can also be toggled independently (component ablations):
    ``coordinate_temporal`` controls the shared frame pool and epoch
    schedule, ``coordinate_spatial`` the shared crop windows and
    branch/param agreement; both default to ``coordinated``.
    ``between_videos`` is called after each video of each batch is
    planned — where a background build yields to more urgent work.
    """
    if not tasks:
        raise ValueError("need at least one task")
    if k_epochs < 1:
        raise ValueError(f"k_epochs must be >= 1, got {k_epochs}")
    cm = cost_model or CostModel()
    plan = MaterializationPlan(tasks, epoch_start, k_epochs)

    temporal = coordinated if coordinate_temporal is None else coordinate_temporal
    spatial = coordinated if coordinate_spatial is None else coordinate_spatial
    requirements = [TaskRequirement.of(t) for t in tasks]
    pool = FramePoolCoordinator(requirements, seed=seed, coordinated=temporal)
    window_hw = SharedWindowSampler.required_window(tasks)
    windows = SharedWindowSampler(window_hw, seed=seed, coordinated=spatial)
    schedule = EpochSchedule(dataset.video_ids, seed=seed, coordinated=temporal)

    for config in tasks:
        per_epoch = schedule.iterations_per_epoch(config.sampling.videos_per_batch)
        if max_iterations_per_epoch is not None:
            per_epoch = min(per_epoch, max_iterations_per_epoch)
        if per_epoch < 1:
            raise ValueError(
                f"task {config.tag!r}: dataset of {len(dataset.video_ids)} videos "
                f"cannot fill a batch of {config.sampling.videos_per_batch}"
            )
        plan.iterations_per_epoch[config.tag] = per_epoch

    for config in tasks:
        task = config.tag
        vpb = config.sampling.videos_per_batch
        for epoch in plan.epochs:
            batches = schedule.batches(task, epoch, vpb)[
                : plan.iterations_per_epoch[task]
            ]
            for iteration, batch_videos in enumerate(batches):
                assembly = BatchAssembly(task, epoch, iteration)
                plan.batches[(task, epoch, iteration)] = assembly
                step = plan.global_step(task, epoch, iteration)
                for video_id in batch_videos:
                    _add_video_samples(
                        plan,
                        config,
                        dataset,
                        video_id,
                        epoch,
                        iteration,
                        step,
                        pool,
                        windows,
                        cm,
                        assembly,
                        seed,
                    )
                    if between_videos is not None:
                        between_videos()
    return plan


def _graph_for(plan: MaterializationPlan, dataset, video_id: str) -> VideoGraph:
    if video_id not in plan.graphs:
        plan.graphs[video_id] = VideoGraph(
            video_id, dataset.metadata(video_id), dataset.encoded_size(video_id)
        )
    return plan.graphs[video_id]


def _add_video_samples(
    plan: MaterializationPlan,
    config: TaskConfig,
    dataset,
    video_id: str,
    epoch: int,
    iteration: int,
    step: int,
    pool: FramePoolCoordinator,
    windows: SharedWindowSampler,
    cm: CostModel,
    assembly: BatchAssembly,
    seed: int,
) -> None:
    graph = _graph_for(plan, dataset, video_id)
    md = graph.metadata
    mp = md.megapixels
    frame_bytes = cm.compressed_frame_bytes(mp)
    decode_share = cm.cpu_decode_s(1, mp)
    task = config.tag

    for sample_idx in range(config.sampling.samples_per_video):
        indices = pool.select(
            task, video_id, epoch, sample_idx, md.num_frames, iteration=iteration
        )
        graph.wanted_frames.update(indices)

        # Frame nodes (merged by index across tasks/epochs in the window).
        frame_keys = []
        for index in indices:
            key = f"frame:{video_id}:{index}"
            if graph.merge(key) is None:
                graph.add_node(
                    ObjectNode(
                        key=key,
                        kind="frame",
                        size_bytes=frame_bytes,
                        parents=(graph.root_key,),
                        op_name="decode",
                        op_cost_s=decode_share,
                        frame_index=index,
                    )
                )
            frame_keys.append(key)

        # Resolve the augmentation pipeline with coordinated sampling.
        # Op params flow through the shared-window sampler; branch picks
        # (random/conditional) use an RNG keyed the same way so tasks
        # agree on branch choices exactly when coordination is on.
        clip_shape = (len(indices), md.height, md.width, 3)
        sampler = windows.param_sampler(
            video_id, epoch, sample_idx, task=task, iteration=iteration
        )
        if windows.coordinated:
            branch_rng = deferred_rng(seed, "branch", video_id, epoch, sample_idx)
        else:
            branch_rng = deferred_rng(
                seed, "branch", video_id, epoch, sample_idx, task, iteration
            )
        context = {"iteration": step, "epoch": epoch}
        variants = config.plan.resolve(
            context, branch_rng, clip_shape, param_sampler=sampler
        )

        frames_hash = _short_hash(video_id, tuple(indices))
        leaf_keys: List[str] = []
        for stream in config.plan.terminal_streams:
            for steps in variants[stream]:
                leaf_keys.append(
                    _add_sample(
                        graph, indices, frame_keys, steps, cm, md, frames_hash
                    )
                )

        for leaf_key in leaf_keys:
            leaf = graph.nodes[leaf_key]
            slot = len(assembly.samples)
            leaf.uses.append(Use(task, epoch, iteration, slot))
            assembly.samples.append((video_id, leaf_key))


def _add_sample(
    graph: VideoGraph,
    indices: Sequence[int],
    frame_keys: Sequence[str],
    steps: Sequence[ResolvedStep],
    cm: CostModel,
    md: VideoMetadata,
    frames_hash: str,
) -> str:
    """Add one sample: per-frame aug chains plus the collating leaf.

    Augmented objects are *per frame* (Table 1's
    ``/{task}/{video}/frame{index}/aug{depth}`` form): frame-scoped ops
    chain on each selected frame, keyed by (frame, resolved step
    prefix), so two tasks that select overlapping frames and agree on
    params — which coordination arranges — share those nodes even when
    their clip geometries differ.  Clip-scoped ops (temporal reversal,
    subsampling) act on the frame *group* and live on the sample leaf.
    """
    frame_steps = [s for s in steps if s.op.scope == "frame"]
    clip_steps = [s for s in steps if s.op.scope != "frame"]

    # Everything about a depth of the chain but the frame index is the
    # same for every frame of the sample: work it out once.
    shape = (1, md.height, md.width, 3)
    prefix: List[Tuple[str, str, str]] = []
    chain = []
    for step in frame_steps:
        prefix.append(step.key)
        out_shape = step.op.output_shape(shape, step.params)
        in_mp = shape[1] * shape[2] / 1e6
        out_mp = out_shape[1] * out_shape[2] / 1e6
        chain.append(
            (
                _short_hash(*prefix),
                cm.compressed_frame_bytes(out_mp),
                cm.cpu_aug_s(1, in_mp, 1) * step.op.cost_weight,
                out_shape,
                step,
            )
        )
        shape = out_shape
    final_shape = shape

    aug_leaf_keys: List[str] = []
    for index, parent_key in zip(indices, frame_keys):
        for prefix_hash, size_bytes, op_cost_s, out_shape, step in chain:
            key = f"aug:{graph.video_id}:{index}:{prefix_hash}"
            if graph.merge(key) is None:
                graph.add_node(
                    ObjectNode(
                        key=key,
                        kind="aug",
                        size_bytes=size_bytes,
                        parents=(parent_key,),
                        op_name=step.op.name,
                        op_cost_s=op_cost_s,
                        clip_shape=out_shape,
                        op_args=step.key,
                    )
                )
            parent_key = key
        aug_leaf_keys.append(parent_key)

    # The sample leaf groups the augmented frames and applies clip-scoped
    # ops; its key covers the full chain so identical samples merge.
    chain_hash = _short_hash(*(s.key for s in steps))
    sample_key = f"sample:{graph.video_id}:{frames_hash}:{chain_hash}"
    if graph.merge(sample_key) is None:
        out_mp = final_shape[1] * final_shape[2] / 1e6
        clip_cost = sum(
            cm.cpu_aug_s(len(indices), out_mp, 1) * s.op.cost_weight
            for s in clip_steps
        )
        graph.add_node(
            ObjectNode(
                key=sample_key,
                kind="sample",
                size_bytes=cm.compressed_frame_bytes(out_mp) * len(indices),
                parents=tuple(aug_leaf_keys),
                op_name="collate",
                op_cost_s=len(indices) * out_mp * cm.batch_assemble_ms_per_mp / 1e3
                + clip_cost,
                clip_shape=(len(indices),) + final_shape[1:],
                frame_indices=tuple(indices),
                clip_ops=tuple(s.key for s in clip_steps),
            )
        )
    return sample_key
