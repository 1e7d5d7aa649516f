"""The oracle the engine and materializer differentials compare against.

The step-by-step walk of a plan window: every node computed once and
memoized, frames from :func:`tests.reference_decoder.reference_decode`,
one registry-built ``op.apply`` per aug and clip op, ``np.concatenate``
per sample and ``np.stack`` per batch.  No plan compiler, no copy
elision, no slot reuse, no store: production has one execution path
(the fused one) and this walk checks it against something that shares
none of its shortcuts.  Only the :class:`TrafficLedger` type is
borrowed, so the ledger it keeps — one full pass per op application,
identity returns free, a batch priced as one copy per sample — is the
"unfused" column the fusion gates measure against.

With ``reuse_threshold > 0`` each frame is the pixels of its
threshold-collapsed effective frame, so the oracle also says what a
near-duplicate-collapsing engine must produce.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

import numpy as np

from repro.augment.fusion import TrafficLedger
from repro.augment.registry import default_registry
from repro.codec.signals import FrameSignals
from tests.reference_decoder import reference_decode


class ReferenceMaterializer:
    """Materializes any node or batch of ``plan`` the slow, obvious way."""

    def __init__(self, plan, dataset, registry=None, reuse_threshold: float = 0.0):
        self.plan = plan
        self.dataset = dataset
        self.registry = registry or default_registry()
        self.reuse_threshold = reuse_threshold
        self.traffic = TrafficLedger()
        self.ops_applied: Dict[str, int] = {}
        self._memo: Dict[Tuple[str, str], np.ndarray] = {}

    def get_batch(self, task: str, epoch: int, iteration: int) -> np.ndarray:
        assembly = self.plan.batches[(task, epoch, iteration)]
        samples = [self.get(video_id, key) for video_id, key in assembly.samples]
        batch = np.stack(samples)
        self.traffic.bytes_allocated += batch.nbytes
        self.traffic.bytes_copied += batch.nbytes
        self.traffic.clip_passes += len(samples)
        return batch

    def get(self, video_id: str, key: str) -> np.ndarray:
        if (video_id, key) not in self._memo:
            node = self.plan.graphs[video_id].nodes[key]
            if node.kind == "frame":
                self._decode(video_id)
            elif node.kind == "aug":
                parent = self.get(video_id, node.parents[0])
                self._memo[video_id, key] = self._apply(node.op_args, parent)
            elif node.kind == "sample":
                clip = np.concatenate([self.get(video_id, p) for p in node.parents])
                self.traffic.charge(clip.nbytes)
                for op_args in node.clip_ops:
                    clip = self._apply(op_args, clip)
                self._count("collate")
                self._memo[video_id, key] = clip
            else:
                raise ValueError(f"{key}: a {node.kind} node is not an array")
        return self._memo[video_id, key]

    def _decode(self, video_id: str) -> None:
        """Every frame node of the video, each as its effective frame."""
        data = self.dataset.get_bytes(video_id)
        frames = self.plan.graphs[video_id].frames()
        source = {n.frame_index: n.frame_index for n in frames}
        if self.reuse_threshold > 0:
            signals = FrameSignals.from_container(data)
            source = {
                i: signals.effective_frame(i, self.reuse_threshold) for i in source
            }
        pixels = reference_decode(data, set(source.values()))
        for node in frames:
            self._memo[video_id, node.key] = pixels[source[node.frame_index]][np.newaxis]

    def _apply(self, op_args: Tuple[str, str, str], array: np.ndarray) -> np.ndarray:
        name, config, params = op_args
        op = self.registry.create(name, json.loads(config))
        result = op.apply(array, json.loads(params))
        self._count(op.name)
        if result is array:
            self.traffic.identity_skips += 1
        else:
            self.traffic.charge(result.nbytes)
        return result

    def _count(self, name: str) -> None:
        self.ops_applied[name] = self.ops_applied.get(name, 0) + 1
