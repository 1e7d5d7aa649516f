"""Augmentation substrate: the library SAND's default transforms come from.

The paper performs augmentation with libtorch-cpu/OpenCV (S6) and lets
users compose transforms through five branch types in the configuration
API (S5.1: single, conditional, random, multi, merge).  This package
implements both halves:

* :mod:`repro.augment.ops` — the transform library (resize, crops, flip,
  color jitter, rotation, blur, normalize, temporal ops), each split into
  *parameter sampling* and *deterministic application* so SAND can
  coordinate randomness across tasks and reuse materialized results,
* :mod:`repro.augment.expr` — a safe evaluator for conditional-branch
  expressions such as ``iteration > 10000`` (no ``eval``),
* :mod:`repro.augment.pipeline` — the branch-structured augmentation graph
  and its resolution into concrete per-sample op sequences,
* :mod:`repro.augment.registry` — the op registry and the custom-op
  interface (S5.5 extensibility),
* :mod:`repro.augment.rpc` — out-of-process execution of custom ops
  (S5.5's RPC service mechanism).
"""

from repro.augment.ops import (
    AugmentOp,
    CenterCrop,
    ColorJitter,
    Flip,
    GaussianBlur,
    InvSample,
    Normalize,
    Pad,
    RandomCrop,
    Resize,
    Rotate,
    Subsample,
    params_key_cache_info,
    stable_params_key,
)
from repro.augment.expr import ExprError, evaluate_expr
from repro.augment.fusion import (
    FusedPlan,
    TrafficLedger,
    compile_steps,
    plan_for,
)
from repro.augment.pipeline import (
    AugmentationPlan,
    BranchSpec,
    PipelineError,
    ResolvedStep,
    apply_steps,
    build_plan,
)
from repro.augment.registry import OpRegistry, default_registry, register_op

__all__ = [
    "AugmentOp",
    "AugmentationPlan",
    "BranchSpec",
    "CenterCrop",
    "ColorJitter",
    "ExprError",
    "Flip",
    "FusedPlan",
    "GaussianBlur",
    "InvSample",
    "Normalize",
    "OpRegistry",
    "Pad",
    "PipelineError",
    "RandomCrop",
    "Resize",
    "ResolvedStep",
    "Rotate",
    "Subsample",
    "TrafficLedger",
    "apply_steps",
    "build_plan",
    "compile_steps",
    "default_registry",
    "evaluate_expr",
    "params_key_cache_info",
    "plan_for",
    "register_op",
    "stable_params_key",
]
