"""The augmentation plan compiler: operator fusion and copy elision.

``apply_steps`` executes a resolved chain one op at a time, so a
crop→resize→flip→normalize pipeline allocates and traverses four full
intermediate clips per leaf.  This module compiles a ``ResolvedStep``
chain into a :class:`FusedPlan` of *segments*, where

* all consecutive affine-indexable spatial ops (crop / flip / pad /
  resize — ``fusion_kind == "gather"``) collapse into **one** precomputed
  index-gather plus at most one bilinear pass (:class:`GatherSegment`),
* a pointwise tail op (normalize — ``fusion_kind == "pointwise"``)
  rides along as the segment's *epilogue*, applied while the result is
  written — optionally straight into a caller-provided output buffer, so
  the final copy into the batch is the only one, and
* identity steps (resize to the input shape, full-frame center crop,
  un-flipped flip, zero pad) are dropped at compile time.

Bit-identity with the unfused chain is a hard invariant (node keys in
the concrete graph are built from the *unfused* step identities, so a
fused segment must produce the exact object its chain names).  The
rules that guarantee it:

* Rounding happens only at a resize, so a segment holds at most **one**
  resize; a second resize splits the segment (the intermediate uint8
  rounding must materialize).
* Exact index ops (crop/flip/edge-pad) *before* the resize compose as
  integer index maps applied to the gather indices; ops *after* it
  permute/slice the precomputed ``lo/hi/weight`` arrays.  Either way the
  per-pixel bilinear expression is unchanged, so the rounded bytes are
  unchanged.
* A constant-mode pad before a resize splits the segment (bilinear
  would blend the fill value with source pixels); edge-mode pad is an
  index clamp and composes exactly.  A segment carries at most one
  constant fill value.

A memory-traffic ledger (:class:`TrafficLedger`) prices the fused path
and a step-by-step walk with the same policy: every op application /
segment execution / collation write is one full-clip pass charging its
output bytes; kernel-internal scratch (the bilinear temporaries, which
both allocate) is not charged; identity returns charge nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.augment.ops import AugmentOp, Params
from repro.augment.pipeline import ResolvedStep
from repro.augment.registry import OpRegistry


@dataclass
class TrafficLedger:
    """Memory-traffic counters: passes over clip data and bytes moved.

    ``clip_passes`` counts full-clip traversals at op granularity (one
    per op application, fused segment execution, or collation write);
    ``bytes_allocated`` counts fresh result buffers; ``bytes_copied``
    counts bytes written to any destination (fresh or preallocated).
    ``identity_skips`` counts ops elided entirely (zero traffic).
    """

    clip_passes: int = 0
    bytes_allocated: int = 0
    bytes_copied: int = 0
    fused_segments: int = 0
    identity_skips: int = 0
    # Near-duplicate output-slot reuse (codec-signal copy elision): a
    # collation slot filled by copying the previous slot instead of
    # re-running its augmentation chain, and the augment passes elided.
    reused_slots: int = 0
    augment_passes_skipped: int = 0
    # Trainer-boundary delivery: bytes copied handing a finished batch
    # to a consumer (VFS blob encoding, socket sends).  The in-process
    # lease path charges nothing — the trainer reads the pooled buffer
    # the fused epilogue wrote.  Rolled into ``bytes_copied`` so the
    # ledger is end-to-end truthful.
    delivery_passes: int = 0
    delivery_bytes_copied: int = 0

    def charge(self, nbytes: int, allocated: bool = True) -> None:
        """One full-clip pass producing ``nbytes`` of output."""
        self.clip_passes += 1
        self.bytes_copied += nbytes
        if allocated:
            self.bytes_allocated += nbytes

    def note_slot_reuse(self, nbytes: int, passes_skipped: int) -> None:
        """One collation slot filled from its neighbor (near-dup reuse).

        The copy itself is still a full-slot pass (charged as copied
        bytes, no allocation); ``passes_skipped`` records how many
        augmentation op applications the reuse elided.
        """
        self.clip_passes += 1
        self.bytes_copied += nbytes
        self.reused_slots += 1
        self.augment_passes_skipped += passes_skipped

    def note_delivery(self, nbytes: int) -> None:
        """One trainer-boundary delivery copy of ``nbytes``.

        Charged where a finished batch's bytes are duplicated for a
        consumer (blob encoding for the VFS, a socket write for remote
        trainers); the in-process lease path delivers the assembly
        buffer itself and charges nothing.
        """
        self.delivery_passes += 1
        self.delivery_bytes_copied += nbytes
        self.bytes_copied += nbytes

    def add(self, other: "TrafficLedger") -> None:
        self.clip_passes += other.clip_passes
        self.bytes_allocated += other.bytes_allocated
        self.bytes_copied += other.bytes_copied
        self.fused_segments += other.fused_segments
        self.identity_skips += other.identity_skips
        self.reused_slots += other.reused_slots
        self.augment_passes_skipped += other.augment_passes_skipped
        self.delivery_passes += other.delivery_passes
        self.delivery_bytes_copied += other.delivery_bytes_copied

    def as_dict(self) -> Dict[str, int]:
        return {
            "clip_passes": self.clip_passes,
            "bytes_allocated": self.bytes_allocated,
            "bytes_copied": self.bytes_copied,
            "fused_segments": self.fused_segments,
            "identity_skips": self.identity_skips,
            "reused_slots": self.reused_slots,
            "augment_passes_skipped": self.augment_passes_skipped,
            "delivery_passes": self.delivery_passes,
            "delivery_bytes_copied": self.delivery_bytes_copied,
        }


class _AxisState:
    """Composable output→input map for one spatial axis.

    Starts in *index* mode (``index[out] = in`` plus an optional
    validity mask for constant-pad fill); absorbing a resize switches to
    *bilinear* mode (``lo/hi`` source rows and a float64 ``weight``,
    exactly as :func:`repro.augment.ops._resize_bilinear` computes them).
    """

    def __init__(self, n: int) -> None:
        self.index: Optional[np.ndarray] = np.arange(n, dtype=np.int64)
        self.valid: Optional[np.ndarray] = None  # None = all positions real
        self.lo: Optional[np.ndarray] = None
        self.hi: Optional[np.ndarray] = None
        self.weight: Optional[np.ndarray] = None

    @property
    def bilinear(self) -> bool:
        return self.weight is not None

    def __len__(self) -> int:
        if self.weight is not None:
            return len(self.weight)
        assert self.index is not None
        return len(self.index)

    def take(self, sel: np.ndarray) -> None:
        """Compose an exact map: new output ``i`` reads old output ``sel[i]``."""
        if self.weight is not None:
            assert self.lo is not None and self.hi is not None
            self.lo = self.lo[sel]
            self.hi = self.hi[sel]
            self.weight = self.weight[sel]
        else:
            assert self.index is not None
            self.index = self.index[sel]
        if self.valid is not None:
            self.valid = self.valid[sel]

    def mask(self, in_range: np.ndarray) -> None:
        """Mark positions outside ``in_range`` as fill (constant pad)."""
        if self.valid is None:
            self.valid = in_range.copy()
        else:
            self.valid &= in_range

    def absorb_resize(self, out_n: int) -> None:
        """Switch to bilinear mode, replicating ``_resize_bilinear`` exactly."""
        index = self.index
        assert index is not None  # one resize per segment (absorb enforces it)
        n = len(index)
        pos = (np.arange(out_n) + 0.5) * (n / out_n) - 0.5
        pos = np.clip(pos, 0, n - 1)
        lo = np.floor(pos).astype(np.int64)
        hi = np.minimum(lo + 1, n - 1)
        self.weight = pos - lo  # float64, same dtype as the unfused path
        self.lo = index[lo]
        self.hi = index[hi]
        self.index = None


@dataclass
class GatherSegment:
    """One fused pass: composed index gather + at most one bilinear."""

    op_names: Tuple[str, ...]
    y: _AxisState
    x: _AxisState
    fill: Optional[int] = None
    epilogue: Optional[Tuple[AugmentOp, Params]] = None

    def _apply_fill(self, array: np.ndarray, value: float) -> None:
        if self.y.valid is not None:
            array[:, ~self.y.valid, :, :] = value
        if self.x.valid is not None:
            array[:, :, ~self.x.valid, :] = value

    def run(
        self,
        clip: np.ndarray,
        ledger: TrafficLedger,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        ledger.fused_segments += 1
        if self.y.bilinear:
            result = self._run_bilinear(clip, ledger, out)
        else:
            result = self._run_gather(clip, ledger, out)
        return result

    def _finish(
        self,
        result: np.ndarray,
        ledger: TrafficLedger,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        """Charge the segment's single pass; copy into ``out`` if asked."""
        if out is not None and out.shape == result.shape and out.dtype == result.dtype:
            ledger.charge(result.nbytes)
            np.copyto(out, result)
            ledger.charge(out.nbytes, allocated=False)
            return out
        ledger.charge(result.nbytes)
        return result

    def _epilogue_into(
        self,
        work: np.ndarray,
        ledger: TrafficLedger,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        """Run the pointwise epilogue on float32 ``work`` (scratch)."""
        assert self.epilogue is not None
        op, params = self.epilogue
        if out is not None and (out.shape != work.shape or out.dtype != np.float32):
            out = None
        result = op.fuse_epilogue(work, params, out=out)
        ledger.charge(result.nbytes, allocated=out is None)
        return result

    def _run_gather(
        self,
        clip: np.ndarray,
        ledger: TrafficLedger,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        assert self.y.index is not None and self.x.index is not None
        iy = self.y.index[:, None]
        ix = self.x.index[None, :]
        gathered = clip[:, iy, ix]
        if self.fill is not None:
            self._apply_fill(gathered, self.fill)
        if self.epilogue is not None:
            work = gathered.astype(np.float32)
            return self._epilogue_into(work, ledger, out)
        return self._finish(gathered, ledger, out)

    def _run_bilinear(
        self,
        clip: np.ndarray,
        ledger: TrafficLedger,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        # The exact expression from ops._resize_bilinear, evaluated at
        # index arrays pre-composed with every crop/flip/pad in the
        # segment: the per-pixel float64 arithmetic is unchanged, so the
        # rounded bytes match the unfused chain bit for bit.
        assert self.y.lo is not None and self.y.hi is not None
        assert self.x.lo is not None and self.x.hi is not None
        assert self.y.weight is not None and self.x.weight is not None
        ly, hy = self.y.lo[:, None], self.y.hi[:, None]
        lx, hx = self.x.lo[None, :], self.x.hi[None, :]
        wy = self.y.weight[None, :, None, None]
        wx = self.x.weight[None, None, :, None]
        work = clip.astype(np.float32)
        top = work[:, ly, lx] * (1 - wx) + work[:, ly, hx] * wx
        bot = work[:, hy, lx] * (1 - wx) + work[:, hy, hx] * wx
        vals = top * (1 - wy) + bot * wy
        if clip.dtype == np.uint8:
            vals = np.clip(np.rint(vals), 0, 255)
            if self.fill is not None:
                self._apply_fill(vals, float(self.fill))
            if self.epilogue is not None:
                # Rounded float64 integers 0..255 convert to float32
                # exactly, so the uint8 intermediate never materializes.
                return self._epilogue_into(vals.astype(np.float32), ledger, out)
            return self._finish(vals.astype(np.uint8), ledger, out)
        result = vals.astype(clip.dtype)
        if self.fill is not None:
            self._apply_fill(result, self.fill)
        if self.epilogue is not None:
            return self._epilogue_into(result.astype(np.float32), ledger, out)
        return self._finish(result, ledger, out)


@dataclass
class OpSegment:
    """An unfusable (opaque) op executed as-is, with traffic accounting."""

    op: AugmentOp
    params: Params

    def run(
        self,
        clip: np.ndarray,
        ledger: TrafficLedger,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        result = self.op.apply(clip, self.params)
        if result is clip:
            ledger.identity_skips += 1
        else:
            ledger.charge(result.nbytes)
        if out is not None and out.shape == result.shape and out.dtype == result.dtype:
            np.copyto(out, result)
            ledger.charge(out.nbytes, allocated=False)
            return out
        return result


@dataclass
class PointwiseSegment:
    """A pointwise op standing alone (no gather segment to ride on)."""

    op: AugmentOp
    params: Params

    def run(
        self,
        clip: np.ndarray,
        ledger: TrafficLedger,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # fuse_epilogue(clip.astype(float32)) computes the same float32
        # expression as apply() for every input dtype.
        work = clip.astype(np.float32)
        if out is not None and (out.shape != work.shape or out.dtype != np.float32):
            out = None
        result = self.op.fuse_epilogue(work, self.params, out=out)
        ledger.charge(result.nbytes, allocated=out is None)
        return result


Segment = Union[GatherSegment, OpSegment, PointwiseSegment]


@dataclass
class FusedPlan:
    """A compiled chain: ordered segments plus compile-time metadata."""

    in_shape: Tuple[int, int, int, int]
    out_shape: Tuple[int, int, int, int]
    segments: List[Segment] = field(default_factory=list)
    identity_ops: Tuple[str, ...] = ()
    total_ops: int = 0

    def out_dtype(self, in_dtype: np.dtype) -> Optional[np.dtype]:
        """Result dtype for ``in_dtype`` input, or None if not static."""
        dtype = np.dtype(in_dtype)
        for segment in self.segments:
            if isinstance(segment, PointwiseSegment):
                dtype = np.dtype(np.float32)
            elif isinstance(segment, GatherSegment):
                if segment.epilogue is not None:
                    dtype = np.dtype(np.float32)
            else:
                return None  # opaque op: dtype not statically known
        return dtype

    def run(
        self,
        clip: np.ndarray,
        ledger: TrafficLedger,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        ledger.identity_skips += len(self.identity_ops)
        if not self.segments:
            if out is not None and out.shape == clip.shape and out.dtype == clip.dtype:
                np.copyto(out, clip)
                ledger.charge(out.nbytes, allocated=False)
                return out
            return clip
        current = clip
        last = len(self.segments) - 1
        for i, segment in enumerate(self.segments):
            current = segment.run(current, ledger, out=out if i == last else None)
        return current


class _SegmentBuilder:
    """Accumulates consecutive gather-fusable ops into one GatherSegment."""

    def __init__(self, in_shape: Tuple[int, int, int, int]) -> None:
        self.y = _AxisState(in_shape[1])
        self.x = _AxisState(in_shape[2])
        self.fill: Optional[int] = None
        self.op_names: List[str] = []
        self.epilogue: Optional[Tuple[AugmentOp, Params]] = None

    def absorb(self, spec: Tuple[Any, ...]) -> bool:
        """Try to compose one gather spec; False means "split here"."""
        kind = spec[0]
        if kind == "slice":
            top, left, h, w = spec[1:]
            self.y.take(np.arange(top, top + h, dtype=np.int64))
            self.x.take(np.arange(left, left + w, dtype=np.int64))
            return True
        if kind == "flip_h":
            n = len(self.x)
            self.x.take(np.arange(n - 1, -1, -1, dtype=np.int64))
            return True
        if kind == "resize":
            if self.y.bilinear or self.x.bilinear:
                return False  # one rounding point per segment
            if self.y.valid is not None or self.x.valid is not None:
                return False  # bilinear would blend the fill value
            self.y.absorb_resize(int(spec[1]))
            self.x.absorb_resize(int(spec[2]))
            return True
        if kind == "pad":
            (top, bottom, left, right), mode, value = spec[1], spec[2], spec[3]
            if mode == "constant":
                if self.fill is not None and self.fill != value:
                    return False  # one fill value per segment
            self._pad_axis(self.y, int(top), int(bottom), mode)
            self._pad_axis(self.x, int(left), int(right), mode)
            if mode == "constant" and (top or bottom or left or right):
                self.fill = int(value)
            return True
        raise ValueError(f"unknown gather spec {spec!r}")

    @staticmethod
    def _pad_axis(axis: _AxisState, before: int, after: int, mode: str) -> None:
        if not before and not after:
            return
        n = len(axis)
        pos = np.arange(-before, n + after, dtype=np.int64)
        axis.take(np.clip(pos, 0, n - 1))
        if mode == "constant":
            axis.mask((pos >= 0) & (pos < n))

    def build(self) -> GatherSegment:
        return GatherSegment(
            op_names=tuple(self.op_names),
            y=self.y,
            x=self.x,
            fill=self.fill,
            epilogue=self.epilogue,
        )


StepLike = Union[ResolvedStep, Tuple[AugmentOp, Params]]
ClipShape4 = Tuple[int, int, int, int]


def _shape4(shape: Sequence[int]) -> ClipShape4:
    t, h, w, c = (int(s) for s in shape)
    return (t, h, w, c)


def _as_pair(step: StepLike) -> Tuple[AugmentOp, Params]:
    if isinstance(step, tuple):
        return step
    return step.op, step.params


def compile_steps(
    steps: Sequence[StepLike], in_shape: Tuple[int, int, int, int]
) -> FusedPlan:
    """Compile a resolved op chain into a :class:`FusedPlan`.

    ``steps`` may be :class:`ResolvedStep` objects or ``(op, params)``
    pairs.  The plan executes the exact same bytes as running the chain
    step by step through ``AugmentOp.apply``.
    """
    shape = _shape4(in_shape)
    plan = FusedPlan(in_shape=shape, out_shape=shape, total_ops=len(steps))
    identity_ops: List[str] = []
    builder: Optional[_SegmentBuilder] = None

    def flush() -> None:
        nonlocal builder
        if builder is not None and builder.op_names:
            plan.segments.append(builder.build())
        builder = None

    for step in steps:
        op, params = _as_pair(step)
        if op.is_identity(shape, params):
            identity_ops.append(op.name)
            continue
        out_shape = _shape4(op.output_shape(shape, params))
        if op.fusion_kind == "gather":
            spec = op.gather_spec(shape, params)
            if builder is None:
                builder = _SegmentBuilder(shape)
            if not builder.absorb(spec):
                flush()
                builder = _SegmentBuilder(shape)
                if not builder.absorb(spec):  # pragma: no cover - defensive
                    raise RuntimeError(f"{op.name}: unfusable on a fresh segment")
            builder.op_names.append(op.name)
        elif op.fusion_kind == "pointwise":
            if builder is not None and builder.op_names and builder.epilogue is None:
                builder.op_names.append(op.name)
                builder.epilogue = (op, params)
                flush()
            else:
                flush()
                plan.segments.append(PointwiseSegment(op, params))
        else:
            flush()
            plan.segments.append(OpSegment(op, params))
        shape = out_shape
    flush()
    plan.out_shape = shape
    plan.identity_ops = tuple(identity_ops)
    return plan


@lru_cache(maxsize=4096)
def _plan_cached(
    registry: OpRegistry,
    chain: Tuple[Tuple[str, str, str], ...],
    in_shape: Tuple[int, int, int, int],
) -> FusedPlan:
    pairs: List[Tuple[AugmentOp, Params]] = []
    for name, config_json, params_json in chain:
        op = registry.create(name, json.loads(config_json))
        pairs.append((op, json.loads(params_json)))
    return compile_steps(pairs, in_shape)


def plan_for(
    registry: OpRegistry,
    chain: Tuple[Tuple[str, str, str], ...],
    in_shape: Tuple[int, int, int, int],
) -> FusedPlan:
    """Memoized compilation from stored ``(name, config, params)`` chains.

    The materializer re-executes the same chain identity for thousands
    of nodes per window; plans (and their precomputed index arrays) are
    immutable at run time, so sharing them across threads is safe.
    """
    return _plan_cached(registry, tuple(chain), _shape4(in_shape))
