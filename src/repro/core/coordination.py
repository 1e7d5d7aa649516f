"""Coordinated randomization (paper S5.2).

The tension SAND resolves: independent per-task sampling almost never
produces mergeable nodes in the concrete graph, while naively forcing
tasks to share frames breaks each task's randomness requirements.  The
paper's two mechanisms, implemented here:

**Shared frame pool** (temporal randomness).  Per (video, epoch):
(1) collect every task's frame count and stride, (2) build a unified
sampling grid at the GCD of all strides, (3) randomly place a pool window
spanning the maximum clip length.  Each task then draws its clip from the
pool — start offset random on the grid — so frames are still randomly
selected but all tasks draw from the same decoded set.

**Shared augmentation window** (spatial randomness).  Per
(video, epoch, sample): pick one random window large enough for the
largest crop any task needs; each task's crop samples a sub-region.
Tasks with equal crop size (and the same pre-crop shape) receive the
*same* sub-region, which is what makes their augmented nodes mergeable
(Fig 16's 33.1% random-crop reduction).

Everything is deterministic given the coordinator seed: parameters are
drawn from RNGs keyed by stable hashes of (video, epoch, sample, op),
never by task — two tasks asking the same question get the same answer,
which *is* the coordination.  The ``coordinated=False`` mode keys by task
and iteration instead, reproducing the fresh-randomness baselines of
Figs 16, 19 and 20.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.augment.ops import AugmentOp, ClipShape, Params
from repro.augment.pipeline import ParamSampler
from repro.core.config import TaskConfig


def stable_rng(*parts: object) -> np.random.Generator:
    """A deterministic RNG keyed by a tuple of printable parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class _DeferredRng:
    def __init__(self, parts: Tuple[object, ...]):
        self._parts = parts
        self._rng: Optional[np.random.Generator] = None

    def __getattr__(self, name: str) -> Any:
        rng = self.__dict__["_rng"]
        if rng is None:
            rng = self._rng = stable_rng(*self._parts)
        return getattr(rng, name)


def deferred_rng(*parts: object) -> np.random.Generator:
    """``stable_rng(*parts)``, constructed when first drawn from.

    Planning keys an RNG for every decision a sample *might* make (a
    branch pick, each op's params), and most are handed to code that
    draws nothing — a pipeline without random branches, a deterministic
    op, a crop placed inside the shared window.  Constructing a numpy
    Generator costs more than everything else such a decision does, so
    it waits for the first attribute anyone reads.
    """
    return cast(np.random.Generator, _DeferredRng(parts))


@dataclass(frozen=True)
class TaskRequirement:
    """The slice of a task config the coordinator needs."""

    tag: str
    frames_per_video: int
    frame_stride: int
    samples_per_video: int

    @classmethod
    def of(cls, config: TaskConfig) -> "TaskRequirement":
        s = config.sampling
        return cls(
            tag=config.tag,
            frames_per_video=s.frames_per_video,
            frame_stride=s.frame_stride,
            samples_per_video=s.samples_per_video,
        )

    @property
    def clip_span(self) -> int:
        return (self.frames_per_video - 1) * self.frame_stride + 1


@dataclass(frozen=True)
class PoolSelection:
    """The shared pool for one (video, epoch): a window on the GCD grid."""

    start: int
    grid: int
    span: int

    @property
    def positions(self) -> List[int]:
        return list(range(self.start, self.start + self.span, self.grid))


class FramePoolCoordinator:
    """Implements the shared frame pool across a set of tasks."""

    def __init__(
        self,
        requirements: Sequence[TaskRequirement],
        seed: int = 0,
        coordinated: bool = True,
    ):
        if not requirements:
            raise ValueError("need at least one task requirement")
        tags = [r.tag for r in requirements]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate task tags: {tags}")
        self.requirements: Dict[str, TaskRequirement] = {r.tag: r for r in requirements}
        self.seed = seed
        self.coordinated = coordinated
        # Step (2): the unified grid accommodates every task's stride.
        self.grid = math.gcd(*(r.frame_stride for r in requirements))
        # Step (3): the pool must cover the largest clip any task needs —
        # and hold "sufficient frames for any task configuration": a task
        # drawing S samples per video needs slack for S *distinct* clips,
        # so the span grows with the maximum samples_per_video.
        max_clip = max(r.clip_span for r in requirements)
        max_samples = max(r.samples_per_video for r in requirements)
        self.max_span = max_clip + (max_samples - 1) * (max_clip // 2 + self.grid)
        # Every task and sample of a (video, epoch) asks for the same pool.
        self._pools: Dict[Tuple[str, int, int], PoolSelection] = {}

    # -- pool construction -------------------------------------------------------
    def pool_for(self, video_id: str, epoch: int, num_frames: int) -> PoolSelection:
        """The shared pool window for one (video, epoch)."""
        pool = self._pools.get((video_id, epoch, num_frames))
        if pool is None:
            span = min(self.max_span, num_frames)
            rng = stable_rng(self.seed, "pool", video_id, epoch)
            latest = num_frames - span
            # Keep the pool start on the grid so every task's stride pattern
            # lands on pooled positions.
            start = int(rng.integers(0, latest // self.grid + 1)) * self.grid
            pool = PoolSelection(start=start, grid=self.grid, span=span)
            self._pools[(video_id, epoch, num_frames)] = pool
        return pool

    # -- per-task selection ------------------------------------------------------
    def select(
        self,
        task: str,
        video_id: str,
        epoch: int,
        sample_idx: int,
        num_frames: int,
        iteration: Optional[int] = None,
    ) -> List[int]:
        """Frame indices for one sample of ``task`` on ``video_id``.

        Coordinated mode draws from the shared pool; independent mode
        re-randomizes from the whole video (keyed additionally by task
        and iteration — the baseline behaviour).
        """
        req = self.requirements[task]
        if not self.coordinated:
            rng = stable_rng(
                self.seed, "indep", task, video_id, epoch, sample_idx, iteration
            )
            return self._sample_anywhere(req, num_frames, rng)

        pool = self.pool_for(video_id, epoch, num_frames)
        span = req.clip_span
        if span > pool.span:
            # Video shorter than the clip: wrap around the pool's grid
            # positions (rare; mirrors loop-padding in real loaders).
            # Wrapping in position-index space keeps every pick on the
            # shared grid even when the span is not a grid multiple.
            positions = pool.positions
            rng = stable_rng(self.seed, "wrap", video_id, epoch, sample_idx)
            start_idx = int(rng.integers(0, len(positions)))
            step = max(1, req.frame_stride // self.grid)
            return [
                positions[(start_idx + i * step) % len(positions)]
                for i in range(req.frames_per_video)
            ]
        # Random offset on the grid, so the clip stays inside the pool.
        # Keyed by (video, epoch, sample, clip geometry) but NOT task:
        # tasks with identical geometry pick identical frames (merge!).
        rng = stable_rng(
            self.seed,
            "draw",
            video_id,
            epoch,
            sample_idx,
            req.frames_per_video,
            req.frame_stride,
        )
        slack = (pool.span - span) // self.grid
        offset = int(rng.integers(0, slack + 1)) * self.grid
        start = pool.start + offset
        return [start + i * req.frame_stride for i in range(req.frames_per_video)]

    @staticmethod
    def _sample_anywhere(
        req: TaskRequirement, num_frames: int, rng: np.random.Generator
    ) -> List[int]:
        span = req.clip_span
        if span <= num_frames:
            start = int(rng.integers(0, num_frames - span + 1))
            return [start + i * req.frame_stride for i in range(req.frames_per_video)]
        start = int(rng.integers(0, num_frames))
        return [
            (start + i * req.frame_stride) % num_frames
            for i in range(req.frames_per_video)
        ]


class SharedWindowSampler:
    """Implements the shared augmentation window and coordinated op params.

    Returns a :data:`~repro.augment.pipeline.ParamSampler` for one
    (video, epoch, sample) context.  Within that context:

    * a stochastic spatial op samples inside the single shared window
      (created on first use, sized to the largest crop any task needs),
    * equal-size crops get the *same* sub-region (cached per size),
    * other stochastic ops draw from an RNG keyed by (context, op,
      config) — identical ops in different tasks agree.

    Independent mode (``coordinated=False``) keys everything by task and
    iteration, so every task re-rolls everything — the baseline.
    """

    def __init__(
        self,
        max_window_hw: Optional[Tuple[int, int]],
        seed: int = 0,
        coordinated: bool = True,
    ):
        self.max_window_hw = max_window_hw
        self.seed = seed
        self.coordinated = coordinated
        # (context key, clip hw) -> window; (context key, clip hw, size) -> params
        self._windows: Dict[Tuple, Tuple[int, int, int, int]] = {}
        self._crop_params: Dict[Tuple, Params] = {}

    @staticmethod
    def required_window(tasks: Sequence[TaskConfig]) -> Optional[Tuple[int, int]]:
        """Step (1): the max spatial dimensions any task's crops need."""
        best: Optional[Tuple[int, int]] = None
        for config in tasks:
            for op in config.plan.stochastic_spatial_ops():
                h, w = op.window_size((1, 10**6, 10**6, 3))
                if best is None:
                    best = (h, w)
                else:
                    best = (max(best[0], h), max(best[1], w))
        return best

    def _window_for(
        self, context: Tuple, clip_shape: ClipShape
    ) -> Tuple[int, int, int, int]:
        _, h, w, _ = clip_shape
        key = (context, h, w)
        if key not in self._windows:
            assert self.max_window_hw is not None
            wh = min(self.max_window_hw[0], h)
            ww = min(self.max_window_hw[1], w)
            rng = stable_rng(self.seed, "window", *key)
            top = int(rng.integers(0, h - wh + 1))
            left = int(rng.integers(0, w - ww + 1))
            self._windows[key] = (top, left, wh, ww)
        return self._windows[key]

    def param_sampler(
        self,
        video_id: str,
        epoch: int,
        sample_idx: int,
        task: Optional[str] = None,
        iteration: Optional[int] = None,
    ) -> ParamSampler:
        if self.coordinated:
            context = (video_id, epoch, sample_idx)
        else:
            context = (video_id, epoch, sample_idx, task, iteration)

        def sampler(
            op: AugmentOp, clip_shape: ClipShape, rng: np.random.Generator
        ) -> Params:
            del rng  # all randomness is re-derived deterministically
            op_rng = deferred_rng(self.seed, "op", *context, op.name, op.config_key)
            if not op.spatial_window:
                return op.sample_params(op_rng, clip_shape)
            if not self.coordinated or self.max_window_hw is None:
                return op.sample_params(op_rng, clip_shape)
            window = self._window_for(context, clip_shape)
            size = op.window_size(clip_shape)
            crop_key = (context, clip_shape[1], clip_shape[2], size)
            if crop_key not in self._crop_params:
                crop_rng = stable_rng(self.seed, "crop", *crop_key)
                self._crop_params[crop_key] = op.sample_params_within(
                    crop_rng, clip_shape, window
                )
            return dict(self._crop_params[crop_key])

        return sampler


class EpochSchedule:
    """Data Access Rule (S5.2): every video exactly once per epoch.

    Coordinated mode gives every task the *same* per-epoch permutation so
    concurrent tasks walk the dataset in lockstep (what lets the
    hyperparameter-search scenario share real-time materialization);
    independent mode permutes per task.
    """

    def __init__(self, video_ids: Sequence[str], seed: int = 0, coordinated: bool = True):
        if not video_ids:
            raise ValueError("empty dataset")
        self.video_ids = list(video_ids)
        self.seed = seed
        self.coordinated = coordinated

    def order(self, task: str, epoch: int) -> List[str]:
        key = ("order", epoch) if self.coordinated else ("order", task, epoch)
        rng = stable_rng(self.seed, *key)
        permutation = rng.permutation(len(self.video_ids))
        return [self.video_ids[i] for i in permutation]

    def batches(
        self, task: str, epoch: int, videos_per_batch: int
    ) -> List[List[str]]:
        """Full batches of videos for one epoch (trailing remainder dropped)."""
        if videos_per_batch < 1:
            raise ValueError("videos_per_batch must be >= 1")
        order = self.order(task, epoch)
        count = len(order) // videos_per_batch
        return [
            order[i * videos_per_batch : (i + 1) * videos_per_batch]
            for i in range(count)
        ]

    def iterations_per_epoch(self, videos_per_batch: int) -> int:
        return len(self.video_ids) // videos_per_batch
