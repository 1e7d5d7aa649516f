"""Branch-structured augmentation pipelines (paper S5.1, Fig 9).

A pipeline is a list of named blocks wired together by stream names.
Each block has one of the five branch types:

* ``single``      — apply an op sequence: 1 input stream, 1 output,
* ``conditional`` — pick the first branch whose condition holds,
* ``random``      — pick a branch probabilistically,
* ``multi``       — fan one input stream out into several outputs,
* ``merge``       — join several input streams into one output.

Blocks are declared in topological order (a block may only consume
streams that already exist); the root stream is ``"frame"`` — the decoded
clip.  :func:`build_plan` validates the wiring and returns an
:class:`AugmentationPlan`; :meth:`AugmentationPlan.resolve` turns it into
concrete per-sample op sequences (:class:`ResolvedStep` lists) for a given
training context, sampling every stochastic parameter exactly once — the
property SAND's reuse planner depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.augment.expr import evaluate_expr
from repro.augment.ops import AugmentOp, ClipShape, Params, stable_params_key
from repro.augment.registry import OpRegistry, default_registry

BRANCH_TYPES = ("single", "conditional", "random", "multi", "merge")
ROOT_STREAM = "frame"

# Hook used by SAND's coordinator to constrain stochastic sampling
# (shared crop windows, S5.2).  Signature: (op, clip_shape, rng) -> params.
ParamSampler = Callable[[AugmentOp, ClipShape, np.random.Generator], Params]


class PipelineError(ValueError):
    """Raised for malformed pipeline configuration."""


@dataclass(frozen=True)
class ResolvedStep:
    """One concrete op application: the op plus its sampled params."""

    op: AugmentOp
    params: Params

    @property
    def key(self) -> Tuple[str, str, str]:
        """Identity for cross-task node merging: equal keys => equal output.

        Hot in graph construction (recomputed per edge), so the tuple is
        built once per step: the op's config key is precomputed at op
        construction and the params key goes through the memoized
        ``stable_params_key``.
        """
        cached = self.__dict__.get("_cached_key")
        if cached is None:
            cached = (
                self.op.name,
                self.op.config_key,
                stable_params_key(self.params),
            )
            object.__setattr__(self, "_cached_key", cached)
        return cached

    def apply(self, clip: np.ndarray) -> np.ndarray:
        return self.op.apply(clip, self.params)


def apply_steps(clip: np.ndarray, steps: Sequence[ResolvedStep]) -> np.ndarray:
    for step in steps:
        clip = step.apply(clip)
    return clip


def _parse_op_list(
    config: Any, registry: OpRegistry, where: str
) -> List[AugmentOp]:
    """Parse a block's ``config`` — a list of single-key {op: cfg} maps."""
    if config is None or config == "None":
        return []
    if not isinstance(config, (list, tuple)):
        raise PipelineError(f"{where}: config must be a list of ops, got {config!r}")
    ops: List[AugmentOp] = []
    for entry in config:
        if not isinstance(entry, Mapping) or len(entry) != 1:
            raise PipelineError(
                f"{where}: each op entry must be a single-key mapping, got {entry!r}"
            )
        (name, op_config), = entry.items()
        if op_config is None or op_config is True or op_config == "true":
            op_config = {}
        if not isinstance(op_config, Mapping):
            raise PipelineError(
                f"{where}: op {name!r} config must be a mapping, got {op_config!r}"
            )
        try:
            ops.append(registry.create(name, op_config))
        except (KeyError, ValueError) as exc:
            raise PipelineError(f"{where}: {exc}") from exc
    return ops


@dataclass
class _Branch:
    ops: List[AugmentOp]
    condition: Optional[str] = None  # conditional blocks
    prob: Optional[float] = None  # random blocks
    output: Optional[str] = None  # multi blocks


@dataclass
class BranchSpec:
    """One validated pipeline block."""

    name: str
    branch_type: str
    inputs: List[str]
    outputs: List[str]
    branches: List[_Branch] = field(default_factory=list)


def build_plan(
    augmentation_config: Sequence[Mapping[str, Any]],
    registry: Optional[OpRegistry] = None,
) -> "AugmentationPlan":
    """Validate a Fig-9-style augmentation section into a plan."""
    registry = registry or default_registry()
    blocks: List[BranchSpec] = []
    available = {ROOT_STREAM}

    for i, raw in enumerate(augmentation_config):
        name = str(raw.get("name", f"block_{i}"))
        where = f"augmentation[{i}] ({name!r})"
        branch_type = raw.get("branch_type")
        if branch_type not in BRANCH_TYPES:
            raise PipelineError(
                f"{where}: branch_type must be one of {BRANCH_TYPES}, "
                f"got {branch_type!r}"
            )
        inputs = list(raw.get("inputs") or [])
        outputs = list(raw.get("outputs") or [])
        if not inputs or not outputs:
            raise PipelineError(f"{where}: inputs and outputs are required")
        for stream in inputs:
            if stream not in available:
                raise PipelineError(
                    f"{where}: input stream {stream!r} not yet produced "
                    f"(available: {sorted(available)})"
                )
        for stream in outputs:
            if stream in available:
                raise PipelineError(f"{where}: output stream {stream!r} already exists")

        branches: List[_Branch] = []
        if branch_type in ("single",):
            if len(inputs) != 1 or len(outputs) != 1:
                raise PipelineError(f"{where}: single takes 1 input and 1 output")
            branches.append(
                _Branch(ops=_parse_op_list(raw.get("config"), registry, where))
            )
        elif branch_type == "conditional":
            if len(inputs) != 1 or len(outputs) != 1:
                raise PipelineError(f"{where}: conditional takes 1 input and 1 output")
            raw_branches = raw.get("branches") or []
            if not raw_branches:
                raise PipelineError(f"{where}: conditional needs branches")
            for b in raw_branches:
                condition = b.get("condition")
                if condition is None:
                    raise PipelineError(f"{where}: branch missing condition")
                branches.append(
                    _Branch(
                        ops=_parse_op_list(b.get("config"), registry, where),
                        condition=str(condition),
                    )
                )
        elif branch_type == "random":
            if len(inputs) != 1 or len(outputs) != 1:
                raise PipelineError(f"{where}: random takes 1 input and 1 output")
            raw_branches = raw.get("branches") or []
            if not raw_branches:
                raise PipelineError(f"{where}: random needs branches")
            total = 0.0
            for b in raw_branches:
                prob = b.get("prob")
                if prob is None or not 0.0 <= float(prob) <= 1.0:
                    raise PipelineError(f"{where}: branch prob must be in [0,1]")
                total += float(prob)
                branches.append(
                    _Branch(
                        ops=_parse_op_list(b.get("config"), registry, where),
                        prob=float(prob),
                    )
                )
            if abs(total - 1.0) > 1e-6:
                raise PipelineError(
                    f"{where}: branch probabilities must sum to 1, got {total}"
                )
        elif branch_type == "multi":
            if len(inputs) != 1 or len(outputs) < 2:
                raise PipelineError(f"{where}: multi takes 1 input and >=2 outputs")
            raw_branches = raw.get("branches") or []
            if len(raw_branches) != len(outputs):
                raise PipelineError(
                    f"{where}: multi needs one branch per output "
                    f"({len(outputs)} outputs, {len(raw_branches)} branches)"
                )
            for b, out in zip(raw_branches, outputs):
                branches.append(
                    _Branch(
                        ops=_parse_op_list(b.get("config"), registry, where),
                        output=str(b.get("output", out)),
                    )
                )
            branch_outputs = {b.output for b in branches}
            if branch_outputs != set(outputs):
                raise PipelineError(
                    f"{where}: branch outputs {sorted(branch_outputs)} do not "
                    f"match declared outputs {sorted(outputs)}"
                )
        elif branch_type == "merge":
            if len(inputs) < 2 or len(outputs) != 1:
                raise PipelineError(f"{where}: merge takes >=2 inputs and 1 output")
            branches.append(
                _Branch(ops=_parse_op_list(raw.get("config"), registry, where))
            )

        available.update(outputs)
        blocks.append(BranchSpec(name, branch_type, inputs, outputs, branches))

    consumed = {s for block in blocks for s in block.inputs}
    produced = {s for block in blocks for s in block.outputs}
    terminals = sorted((produced | {ROOT_STREAM}) - consumed) or [ROOT_STREAM]
    return AugmentationPlan(blocks=blocks, terminal_streams=terminals)


@dataclass
class AugmentationPlan:
    """A validated pipeline, resolvable into concrete op sequences."""

    blocks: List[BranchSpec]
    terminal_streams: List[str]

    def stochastic_spatial_ops(self) -> List[AugmentOp]:
        """All ops eligible for shared-window coordination (S5.2)."""
        return [
            op
            for block in self.blocks
            for branch in block.branches
            for op in branch.ops
            if op.spatial_window
        ]

    def resolve(
        self,
        context: Mapping[str, Any],
        rng: np.random.Generator,
        clip_shape: ClipShape,
        param_sampler: Optional[ParamSampler] = None,
    ) -> Dict[str, List[List[ResolvedStep]]]:
        """Sample every random choice once; return variants per stream.

        Each terminal stream maps to a list of *variants* — concrete
        :class:`ResolvedStep` sequences.  ``multi`` fans variants out,
        ``merge`` concatenates them; ``conditional``/``random`` pick one
        branch per incoming variant.
        """

        def sample(op: AugmentOp, shape: ClipShape) -> Params:
            if param_sampler is not None:
                return param_sampler(op, shape, rng)
            return op.sample_params(rng, shape)

        def extend(
            variant: Tuple[List[ResolvedStep], ClipShape], ops: Sequence[AugmentOp]
        ) -> Tuple[List[ResolvedStep], ClipShape]:
            steps, shape = variant
            steps = list(steps)
            for op in ops:
                params = sample(op, shape)
                steps.append(ResolvedStep(op, params))
                shape = op.output_shape(shape, params)
            return steps, shape

        streams: Dict[str, List[Tuple[List[ResolvedStep], ClipShape]]] = {
            ROOT_STREAM: [([], clip_shape)]
        }
        for block in self.blocks:
            if block.branch_type == "single":
                incoming = streams[block.inputs[0]]
                streams[block.outputs[0]] = [
                    extend(v, block.branches[0].ops) for v in incoming
                ]
            elif block.branch_type == "conditional":
                chosen = None
                for branch in block.branches:
                    assert branch.condition is not None
                    if evaluate_expr(branch.condition, context):
                        chosen = branch
                        break
                if chosen is None:
                    raise PipelineError(
                        f"block {block.name!r}: no branch condition matched and "
                        f"no 'else' branch given"
                    )
                streams[block.outputs[0]] = [
                    extend(v, chosen.ops) for v in streams[block.inputs[0]]
                ]
            elif block.branch_type == "random":
                probs = [b.prob or 0.0 for b in block.branches]
                out = []
                for variant in streams[block.inputs[0]]:
                    pick = int(rng.choice(len(block.branches), p=probs))
                    out.append(extend(variant, block.branches[pick].ops))
                streams[block.outputs[0]] = out
            elif block.branch_type == "multi":
                incoming = streams[block.inputs[0]]
                for branch in block.branches:
                    assert branch.output is not None
                    streams[branch.output] = [
                        extend(v, branch.ops) for v in incoming
                    ]
            elif block.branch_type == "merge":
                merged: List[Tuple[List[ResolvedStep], ClipShape]] = []
                for stream in block.inputs:
                    merged.extend(streams[stream])
                streams[block.outputs[0]] = [
                    extend(v, block.branches[0].ops) for v in merged
                ]

        return {
            stream: [steps for steps, _ in streams[stream]]
            for stream in self.terminal_streams
        }
