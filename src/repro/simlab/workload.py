"""Per-iteration quantities of a (model, dataset) workload.

Everything the pipeline strategies charge time for is derived here from
the model profile (batch composition, resolution, GPU step) and the
dataset profile (GOP size, frames per video), using the calibrated cost
model.  Keeping the arithmetic in one place means the strategies share
identical workload physics and differ only in *when* work happens and on
*which* resource — exactly the comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datasets.profiles import DATASET_PROFILES, DatasetProfile
from repro.sim.costs import CostModel, GPUProfile, MODEL_PROFILES, ModelProfile


@dataclass(frozen=True)
class Workload:
    """One training task's physics on one dataset."""

    model: ModelProfile
    dataset: DatasetProfile
    cm: CostModel

    @classmethod
    def of(
        cls,
        model_key: str,
        cm: Optional[CostModel] = None,
        dataset: Optional[DatasetProfile] = None,
    ) -> "Workload":
        model = MODEL_PROFILES[model_key]
        return cls(
            model=model,
            dataset=dataset or DATASET_PROFILES[model.dataset],
            cm=cm or CostModel(),
        )

    # -- decode geometry -----------------------------------------------------
    @property
    def clip_span(self) -> int:
        return self.model.clip_span

    def decoded_frames_per_clip(self) -> float:
        """Expected frames decoded for one clip (GOP lead-in included).

        A clip spanning ``s`` frames starting uniformly at random inside
        a GOP of size ``g`` decodes the span plus on average (g-1)/2
        lead-in frames from the keyframe, clamped to the video length.
        """
        g = self.dataset.gop_size
        expected = self.clip_span + (g - 1) / 2.0
        return min(expected, self.dataset.frames_per_video)

    def decoded_frames_per_video(self) -> float:
        """Frames decoded per video per iteration (all samples).

        Samples of the same video share most of their span only under
        SAND's coordination; on-demand loaders decode per sample.
        """
        return self.model.samples_per_video * self.decoded_frames_per_clip()

    def frames_used_per_video(self) -> int:
        return self.model.samples_per_video * self.model.frames_per_video

    def frames_used_per_batch(self) -> int:
        return self.model.videos_per_batch * self.frames_used_per_video()

    # -- per-video work (seconds) ------------------------------------------------
    def cpu_decode_s_per_video(self) -> float:
        return self.cm.cpu_decode_s(
            int(round(self.decoded_frames_per_video())), self.model.megapixels
        )

    def nvdec_decode_s_per_video(self, gpu: GPUProfile) -> float:
        return self.cm.nvdec_decode_s(
            int(round(self.decoded_frames_per_video())), self.model.megapixels, gpu
        )

    def cpu_aug_s_per_video(self) -> float:
        return self.cm.cpu_aug_s(
            self.frames_used_per_video(), self.model.megapixels, len(self.model.aug_ops)
        )

    def gpu_aug_s_per_batch(self) -> float:
        return self.cm.gpu_aug_s(
            self.frames_used_per_batch(), self.model.megapixels, len(self.model.aug_ops)
        )

    def assemble_s_per_batch(self) -> float:
        return self.cm.assemble_s(self.model)

    # -- bytes ------------------------------------------------------------------
    def batch_bytes(self) -> float:
        return self.cm.batch_bytes(self.model)

    def sample_cached_bytes(self) -> float:
        """Stored bytes of one materialized sample (compressed uint8).

        Materialized samples are post-augmentation, i.e. crop-resolution
        — which is why SAND's cache fits budgets that raw decoded frames
        never could.
        """
        return self.model.frames_per_video * self.cm.compressed_frame_bytes(
            self.model.output_megapixels
        )

    def batch_cached_bytes(self) -> float:
        return self.model.samples_per_batch * self.sample_cached_bytes()

    def encoded_video_bytes(self) -> float:
        return self.cm.encoded_video_bytes(
            self.dataset.frames_per_video, self.dataset.megapixels
        )

    def decoded_dataset_bytes(self) -> float:
        """Every frame of the dataset as raw pixels (the S3 80 TB point)."""
        return self.dataset.total_frames * self.cm.frame_bytes(self.dataset.megapixels)

    # -- SAND-side work -------------------------------------------------------------
    def sand_sample_decompress_s(self) -> float:
        """Decompress one cached sample (crop-resolution frames)."""
        return self.cm.decompress_s(
            self.model.frames_per_video, self.model.output_megapixels
        )

    def sand_premat_cpu_s_per_video(self, k_epochs: int, sharing_tasks: int = 1) -> float:
        """Amortized pre-materialization CPU time per video per *epoch*.

        Decode happens once per k-epoch window; augmentation + compression
        happen once per epoch's samples but are shared across
        ``sharing_tasks`` tasks with identical pipelines.
        """
        if k_epochs < 1:
            raise ValueError(f"k_epochs must be >= 1, got {k_epochs}")
        if sharing_tasks < 1:
            raise ValueError(f"sharing_tasks must be >= 1, got {sharing_tasks}")
        decode = self.cm.cpu_decode_s(
            int(round(self.decoded_frames_per_clip())), self.model.megapixels
        )
        aug = self.cpu_aug_s_per_video()
        compress = self.cm.compress_s(
            self.frames_used_per_video(), self.model.output_megapixels
        )
        return decode / k_epochs + (aug + compress) / sharing_tasks

    def iterations_per_epoch(self) -> int:
        return max(1, self.dataset.num_videos // self.model.videos_per_batch)


def max_batch_size(
    model: ModelProfile,
    gpu: GPUProfile,
    decode_on_gpu: bool,
    cm: Optional[CostModel] = None,
    reserved_gb: float = 6.0,
    concurrent_decodes: int = 8,
) -> int:
    """Largest per-GPU batch that fits HBM (paper Fig 4).

    GPU-side decoding pins decoded-surface working sets in HBM (NVDEC
    output + DALI staging), shrinking what is left for activations: the
    paper measures 24 -> 16 samples for 1080p on a 40 GB A100.
    """
    cm = cm or CostModel()
    available_gb = gpu.memory_gb - reserved_gb
    if decode_on_gpu:
        surfaces_gb = (
            concurrent_decodes
            * gpu.nvdec_surface_mb_per_megapixel
            * model.megapixels
            / 1024.0
        )
        available_gb -= surfaces_gb
    if available_gb <= 0:
        return 0
    return int(available_gb // model.train_mem_gb_per_sample)
