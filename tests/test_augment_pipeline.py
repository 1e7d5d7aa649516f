"""Tests for expression evaluation, pipeline building/resolution, registry, RPC."""

import numpy as np
import pytest

from repro.augment import (
    AugmentOp,
    ExprError,
    OpRegistry,
    PipelineError,
    apply_steps,
    build_plan,
    evaluate_expr,
)
from repro.augment.rpc import RemoteOp, RpcAugmentService, RpcError


def clip(t=4, h=24, w=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 255, (t, h, w, 3), dtype=np.uint8)


# -- expressions -------------------------------------------------------------------


def test_comparison_against_context():
    assert evaluate_expr("iteration > 10000", {"iteration": 20000}) is True
    assert evaluate_expr("iteration > 10000", {"iteration": 5}) is False


def test_boolean_and_arithmetic():
    ctx = {"epoch": 4, "iteration": 3}
    assert evaluate_expr("epoch % 2 == 0 and iteration < 50", ctx) is True
    assert evaluate_expr("epoch + iteration == 7", ctx) is True
    assert evaluate_expr("not (epoch == 4)", ctx) is False


def test_else_is_catch_all():
    assert evaluate_expr("else", {}) is True
    assert evaluate_expr("  ELSE ", {}) is True


def test_unknown_name_rejected():
    with pytest.raises(ExprError):
        evaluate_expr("nope > 1", {"iteration": 1})


def test_function_calls_rejected():
    with pytest.raises(ExprError):
        evaluate_expr("__import__('os').system('true')", {})
    with pytest.raises(ExprError):
        evaluate_expr("iteration.bit_length()", {"iteration": 1})


def test_chained_comparison():
    assert evaluate_expr("0 < epoch < 10", {"epoch": 5}) is True
    assert evaluate_expr("0 < epoch < 10", {"epoch": 20}) is False


def test_syntax_error_rejected():
    with pytest.raises(ExprError):
        evaluate_expr("iteration >", {"iteration": 1})


# -- pipeline building ----------------------------------------------------------------


def single_block(ops, inp="frame", out="s0", name="b"):
    return {
        "name": name,
        "branch_type": "single",
        "inputs": [inp],
        "outputs": [out],
        "config": ops,
    }


def test_build_rejects_unknown_branch_type():
    with pytest.raises(PipelineError):
        build_plan([{"branch_type": "loop", "inputs": ["frame"], "outputs": ["x"]}])


def test_build_rejects_unknown_input_stream():
    with pytest.raises(PipelineError):
        build_plan([single_block(None, inp="ghost")])


def test_build_rejects_duplicate_output_stream():
    with pytest.raises(PipelineError):
        build_plan([single_block(None, out="frame")])


def test_build_rejects_unknown_op():
    with pytest.raises(PipelineError):
        build_plan([single_block([{"warp_drive": {}}])])


def test_build_rejects_bad_random_probs():
    block = {
        "name": "r",
        "branch_type": "random",
        "inputs": ["frame"],
        "outputs": ["o"],
        "branches": [{"prob": 0.6, "config": None}, {"prob": 0.6, "config": None}],
    }
    with pytest.raises(PipelineError):
        build_plan([block])


def test_terminal_streams_are_unconsumed_outputs():
    plan = build_plan([
        single_block([{"flip": None}], out="a"),
        single_block([{"flip": None}], inp="a", out="b"),
    ])
    assert plan.terminal_streams == ["b"]


# -- resolution ---------------------------------------------------------------------


def test_single_chain_resolution_and_application():
    plan = build_plan([
        single_block([{"resize": {"shape": [12, 16]}}, {"flip": {"flip_prob": 1.0}}]),
    ])
    variants = plan.resolve({"iteration": 0}, np.random.default_rng(0), (4, 24, 32, 3))
    (steps,) = variants["s0"]
    assert [s.op.name for s in steps] == ["resize", "flip"]
    assert steps[1].params == {"flipped": True}
    out = apply_steps(clip(), steps)
    assert out.shape == (4, 12, 16, 3)


def test_conditional_picks_first_matching_branch():
    block = {
        "name": "c",
        "branch_type": "conditional",
        "inputs": ["frame"],
        "outputs": ["o"],
        "branches": [
            {"condition": "iteration > 100", "config": [{"inv_sample": True}]},
            {"condition": "else", "config": None},
        ],
    }
    plan = build_plan([block])
    hot = plan.resolve({"iteration": 500}, np.random.default_rng(0), (4, 8, 8, 3))
    cold = plan.resolve({"iteration": 5}, np.random.default_rng(0), (4, 8, 8, 3))
    assert [s.op.name for s in hot["o"][0]] == ["inv_sample"]
    assert cold["o"][0] == []


def test_conditional_without_match_raises():
    block = {
        "name": "c",
        "branch_type": "conditional",
        "inputs": ["frame"],
        "outputs": ["o"],
        "branches": [{"condition": "iteration > 100", "config": None}],
    }
    plan = build_plan([block])
    with pytest.raises(PipelineError):
        plan.resolve({"iteration": 5}, np.random.default_rng(0), (1, 8, 8, 3))


def test_random_branch_distribution():
    block = {
        "name": "r",
        "branch_type": "random",
        "inputs": ["frame"],
        "outputs": ["o"],
        "branches": [
            {"prob": 0.5, "config": [{"flip": {"flip_prob": 1.0}}]},
            {"prob": 0.5, "config": None},
        ],
    }
    plan = build_plan([block])
    rng = np.random.default_rng(0)
    picks = [
        len(plan.resolve({"iteration": 0}, rng, (1, 8, 8, 3))["o"][0])
        for _ in range(200)
    ]
    flip_rate = sum(picks) / len(picks)
    assert 0.35 < flip_rate < 0.65


def test_multi_fans_out_and_merge_concatenates():
    plan = build_plan([
        {
            "name": "m",
            "branch_type": "multi",
            "inputs": ["frame"],
            "outputs": ["a", "b"],
            "branches": [
                {"config": [{"flip": {"flip_prob": 1.0}}]},
                {"config": None},
            ],
        },
        {
            "name": "j",
            "branch_type": "merge",
            "inputs": ["a", "b"],
            "outputs": ["out"],
            "config": [{"normalize": None}],
        },
    ])
    variants = plan.resolve({"iteration": 0}, np.random.default_rng(0), (2, 8, 8, 3))
    assert len(variants["out"]) == 2
    names = [[s.op.name for s in v] for v in variants["out"]]
    assert names == [["flip", "normalize"], ["normalize"]]


def test_resolution_tracks_shape_for_sampling():
    # resize down to 10x10, then random-crop 8x8: crop must sample within 10x10.
    plan = build_plan([
        single_block(
            [{"resize": {"shape": [10, 10]}}, {"random_crop": {"size": [8, 8]}}]
        ),
    ])
    rng = np.random.default_rng(0)
    for _ in range(30):
        (steps,) = plan.resolve({"iteration": 0}, rng, (1, 100, 100, 3))["s0"]
        crop = steps[1].params
        assert 0 <= crop["top"] <= 2
        assert 0 <= crop["left"] <= 2


def test_param_sampler_hook_overrides_sampling():
    plan = build_plan([single_block([{"random_crop": {"size": [4, 4]}}])])

    def pinned(op, shape, rng):
        return {"top": 1, "left": 2}

    (steps,) = plan.resolve(
        {"iteration": 0}, np.random.default_rng(0), (1, 8, 8, 3), param_sampler=pinned
    )["s0"]
    assert steps[0].params == {"top": 1, "left": 2}


def test_step_keys_equal_iff_op_and_params_equal():
    plan = build_plan([single_block([{"random_crop": {"size": [4, 4]}}])])
    a = plan.resolve({"iteration": 0}, np.random.default_rng(7), (1, 32, 32, 3))["s0"][0][0]
    b = plan.resolve({"iteration": 0}, np.random.default_rng(7), (1, 32, 32, 3))["s0"][0][0]
    c = plan.resolve({"iteration": 0}, np.random.default_rng(8), (1, 32, 32, 3))["s0"][0][0]
    assert a.key == b.key
    assert a.key != c.key or a.params == c.params


def test_stochastic_spatial_ops_discovery():
    plan = build_plan([
        single_block([{"resize": {"shape": [8, 8]}}], out="x"),
        single_block([{"random_crop": {"size": [4, 4]}}], inp="x", out="y"),
    ])
    ops = plan.stochastic_spatial_ops()
    assert [op.name for op in ops] == ["random_crop"]


# -- registry ---------------------------------------------------------------------


def test_custom_op_registration_and_use():
    registry = OpRegistry()

    class Posterize(AugmentOp):
        name = "posterize"
        deterministic = True

        def apply(self, c, params):
            return (c // 64) * 64

    registry.register(Posterize)
    plan = build_plan([single_block([{"posterize": {}}])], registry=registry)
    (steps,) = plan.resolve({"iteration": 0}, np.random.default_rng(0), (1, 4, 4, 3))["s0"]
    out = apply_steps(np.full((1, 4, 4, 3), 130, dtype=np.uint8), steps)
    assert np.all(out == 128)


def test_registry_rejects_duplicate_name():
    registry = OpRegistry()

    class A(AugmentOp):
        name = "dup"

        def apply(self, c, params):
            return c

    class B(AugmentOp):
        name = "dup"

        def apply(self, c, params):
            return c

    registry.register(A)
    with pytest.raises(ValueError):
        registry.register(B)


def test_registry_unknown_op_error_lists_known():
    registry = OpRegistry()
    with pytest.raises(KeyError):
        registry.create("nothing")


# -- RPC ---------------------------------------------------------------------


def test_rpc_applies_builtin_op_out_of_process():
    c = clip()
    with RpcAugmentService() as svc:
        out = svc.apply("repro.augment.ops:Flip", {"flip_prob": 1.0}, c, {"flipped": True})
    assert np.array_equal(out, c[:, :, ::-1])


def test_rpc_propagates_worker_errors():
    with RpcAugmentService() as svc:
        with pytest.raises(RpcError):
            svc.apply("repro.augment.ops:Resize", {}, clip(), {})  # bad config
        # Service survives the error and keeps working.
        out = svc.apply(
            "repro.augment.ops:Flip", {}, clip(), {"flipped": False}
        )
        assert out.shape == (4, 24, 32, 3)


def test_rpc_rejects_non_op_classes():
    with RpcAugmentService() as svc:
        with pytest.raises(RpcError):
            svc.apply("repro.augment.rpc:RpcAugmentService", {}, clip(), {})


def test_remote_op_wraps_rpc(monkeypatch):
    op = RemoteOp({"op_path": "repro.augment.ops:InvSample", "op_config": {}})
    c = clip()
    try:
        out = op.apply(c, {})
        assert np.array_equal(out, c[::-1])
    finally:
        if RemoteOp._shared_service is not None:
            RemoteOp._shared_service.stop()
            RemoteOp._shared_service = None


def test_remote_op_requires_op_path():
    with pytest.raises(ValueError):
        RemoteOp({})


# -- RPC worker process ------------------------------------------------------


def _op_module(tmp_path, monkeypatch, name, apply_body):
    """Write ``name.py`` defining ``Op.apply`` under a path only the
    parent's ``sys.path`` names, and return the op's ``module:Class``."""
    (tmp_path / f"{name}.py").write_text(
        "import os\n"
        "from repro.augment.ops import AugmentOp\n\n"
        "class Op(AugmentOp):\n"
        "    def apply(self, clip, params):\n"
        f"        {apply_body}\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    return f"{name}:Op"


def test_rpc_worker_sees_parent_sys_path(tmp_path, monkeypatch):
    op_path = _op_module(tmp_path, monkeypatch, "sand_rpc_negate", "return 255 - clip")
    c = clip()
    with RpcAugmentService() as svc:
        out = svc.apply(op_path, {}, c, {})
    assert np.array_equal(out, 255 - c)


def test_rpc_worker_death_is_an_error_and_next_call_respawns(tmp_path, monkeypatch):
    op_path = _op_module(tmp_path, monkeypatch, "sand_rpc_exit", "os._exit(3)")
    c = clip()
    with RpcAugmentService() as svc:
        with pytest.raises(RpcError, match="died"):
            svc.apply(op_path, {}, c, {})
        out = svc.apply("repro.augment.ops:Flip", {}, c, {"flipped": True})
    assert np.array_equal(out, c[:, :, ::-1])


def test_remote_op_shared_service_is_created_once(monkeypatch):
    import threading
    import time

    from repro.augment import rpc

    class SlowService(RpcAugmentService):
        def __init__(self):
            time.sleep(0.01)  # widen the window a check-then-set would lose
            super().__init__()

    monkeypatch.setattr(rpc, "RpcAugmentService", SlowService)
    monkeypatch.setattr(RemoteOp, "_shared_service", None)
    barrier = threading.Barrier(8, timeout=10)
    got = []

    def get():
        barrier.wait()
        got.append(RemoteOp.service())

    threads = [threading.Thread(target=get) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8
    assert all(service is got[0] for service in got)
