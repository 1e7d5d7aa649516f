#!/usr/bin/env python3
"""Custom augmentation ops and out-of-process execution (paper S5.5).

Two extension paths:

1. **In-process custom op** — subclass ``AugmentOp``, register it, and
   reference it from the YAML config like any built-in.
2. **RPC op** — run an op in a separate worker process via SAND's RPC
   service, so external-library transforms cannot conflict with the
   service internals.

Run:  python examples/custom_augmentation_rpc.py
"""

import numpy as np

from repro.augment import AugmentOp, OpRegistry, default_registry
from repro.augment.rpc import RpcAugmentService
from repro.core import SandClient, load_task_config
from repro.datasets import DatasetSpec, SyntheticDataset


class Posterize(AugmentOp):
    """Quantize colors to ``levels`` buckets — a custom deterministic op."""

    name = "posterize"
    deterministic = True
    cost_weight = 0.3

    def validate_config(self) -> None:
        levels = int(self.config.get("levels", 4))
        if not 2 <= levels <= 128:
            raise ValueError(f"levels must be in [2, 128], got {levels}")

    def apply(self, clip: np.ndarray, params) -> np.ndarray:
        levels = int(self.config.get("levels", 4))
        step = 256 // levels
        return (clip // step) * step


CONFIG = """
dataset:
  tag: "custom"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
  augmentation:
  - name: "aug"
    branch_type: "single"
    inputs: ["frame"]
    outputs: ["a0"]
    config:
    - resize:
        shape: [20, 24]
    - posterize:
        levels: 8
"""


def main() -> None:
    # Path 1: register the custom op on a private registry and use it
    # from YAML exactly like a built-in.
    registry = OpRegistry()
    for name in default_registry().known():
        registry.register(type(default_registry().create(name, _minimal(name))))
    registry.register(Posterize)

    dataset = SyntheticDataset(
        DatasetSpec(num_videos=4, min_frames=30, max_frames=40, seed=17)
    )
    config = load_task_config(CONFIG, registry=registry)
    client, service = SandClient.create(
        [config], dataset, storage_budget_bytes=32 * 1024 * 1024,
        k_epochs=1, num_workers=0, registry=registry,
    )
    try:
        batch, _ = client.read_batch("custom", 0, 0)
        unique_per_channel = len(np.unique(batch))
        print(f"batch {batch.shape}: {unique_per_channel} distinct pixel values "
              f"(posterized to 8 levels => expect <= 8 x rounding spread)")
        assert unique_per_channel <= 32
    finally:
        service.shutdown()

    # Path 2: the same op applied in a separate worker process over RPC.
    # The spawned worker re-imports this script as its ``__main__`` (hence
    # the guard at the bottom), so the op is named relative to it.
    clip = dataset.source(dataset.video_ids[0]).frame(0)[np.newaxis]
    with RpcAugmentService() as rpc:
        remote_out = rpc.apply(f"{__name__}:Posterize", {"levels": 8}, clip, {})
    local_out = Posterize({"levels": 8}).apply(clip, {})
    assert np.array_equal(remote_out, local_out)
    print("RPC worker produced bit-identical output to the in-process op")
    print("custom augmentation OK")


def _minimal(name: str) -> dict:
    """Minimal valid config per built-in op (for re-registration)."""
    return {
        "resize": {"shape": [8, 8]},
        "center_crop": {"size": [4, 4]},
        "random_crop": {"size": [4, 4]},
    }.get(name, {})


if __name__ == "__main__":
    main()
